// nmspmm::Engine: one cached plan per (weights, options) serving every
// batch size, LRU eviction, Status error surface, thread-safety of
// concurrent spmm() calls, bit-exactness of parallel execution vs 1
// thread for every kernel variant, and a seeded generative differential
// test of the cached plans against the reference kernel.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/nmspmm.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

std::shared_ptr<const CompressedNM> shared_weights(index_t k, index_t n,
                                                   const NMConfig& cfg,
                                                   Rng& rng) {
  return std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, cfg, rng));
}

MatrixF reference_for(ConstViewF A, const CompressedNM& B) {
  MatrixF C(A.rows(), B.cols);
  spmm_reference(A, B, C.view(), false);
  return C;
}

TEST(EnginePool, Resolution) {
  // num_threads=1 must be strictly serial: no pool at all, so plans
  // built by this engine cannot fall back to the global pool.
  EngineOptions serial;
  serial.num_threads = 1;
  Engine serial_engine(serial);
  EXPECT_EQ(serial_engine.pool(), nullptr);
  EXPECT_EQ(serial_engine.num_threads(), 1u);

  // The default engine aliases the process-global pool instead of
  // spawning a second worker set.
  Engine default_engine;
  EXPECT_EQ(default_engine.pool(), &ThreadPool::global());

  // An explicit non-default count gets a dedicated pool of that size.
  EngineOptions four;
  four.num_threads = ThreadPool::global().size() + 3;
  Engine four_engine(four);
  EXPECT_EQ(four_engine.num_threads(), ThreadPool::global().size() + 3);
  EXPECT_NE(four_engine.pool(), &ThreadPool::global());
}

TEST(EngineCache, DistinctOptionsAndWeightsGetDistinctPlans) {
  Rng rng(601);
  const index_t k = 64, n = 64;
  auto B1 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  auto B2 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  Engine engine;
  const MatrixF A = random_int_matrix(16, k, rng);
  MatrixF C(16, n);

  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B1, C.view()));
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B2, C.view()));  // other weights
  SpmmOptions v1;
  v1.variant = KernelVariant::kV1;
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B1, C.view(), v1));  // other opts
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.size, 3u);
}

TEST(EngineCache, OnePlanServesEveryBatchSize) {
  // The CPU blocking depends on the weights alone, so one cached plan of
  // (weights, options) serves every batch size: planning one weight at
  // m = 1 … 4096 builds and packs it once and holds one store lease,
  // and a row's output bits do not depend on the batch it rode in.
  Rng rng(608);
  const index_t k = 4096, n = 4096;
  const auto B = std::make_shared<const CompressedNM>(
      random_compressed(k, n, NMConfig{8, 32, 16}, rng));
  EngineOptions opt;
  opt.weight_store = std::make_shared<mem::WeightStore>();
  Engine engine(opt);

  const std::uint64_t builds0 = PackedWeights::build_count();
  auto first = engine.plan_for(1, B);
  NMSPMM_ASSERT_OK(first.status());
  for (const index_t m : {16, 256, 4096}) {
    auto plan = engine.plan_for(m, B);
    NMSPMM_ASSERT_OK(plan.status());
    EXPECT_EQ(plan->get(), first->get()) << "m=" << m << " got its own plan";
  }
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(opt.weight_store->stats().leases, 1u);
  EXPECT_EQ(PackedWeights::build_count() - builds0, 1u);

  // Other options are another plan, over the same packed form.
  SpmmOptions add;
  add.epilogue.add = true;
  NMSPMM_ASSERT_OK(engine.plan_for(1, B, add).status());
  EXPECT_EQ(engine.cache_stats().size, 2u);
  EXPECT_EQ(opt.weight_store->stats().leases, 1u);
  EXPECT_EQ(PackedWeights::build_count() - builds0, 1u);

  // Random (non-integer) values, so a different k-chunking would round
  // differently.
  const MatrixF A = random_matrix(2048, k, rng);
  MatrixF c_small(4, n), c_large(2048, n);
  NMSPMM_ASSERT_OK(
      engine.spmm(A.cview().block(0, 0, 4, k), B, c_small.view()));
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, c_large.view()));
  EXPECT_EQ(max_abs_diff(c_small.cview(),
                         c_large.cview().block(0, 0, 4, n)),
            0.0);
}

TEST(EngineCache, EvictsLeastRecentlyUsed) {
  Rng rng(602);
  const index_t k = 64, n = 64;
  EngineOptions opt;
  opt.plan_cache_capacity = 2;
  opt.num_threads = 1;
  Engine engine(opt);
  auto B1 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  auto B2 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  auto B3 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  NMSPMM_ASSERT_OK(engine.plan_for(16, B1).status());
  NMSPMM_ASSERT_OK(engine.plan_for(16, B2).status());
  NMSPMM_ASSERT_OK(engine.plan_for(16, B1).status());  // hit: B1 is fresh
  NMSPMM_ASSERT_OK(engine.plan_for(16, B3).status());  // evicts B2
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 1u);

  NMSPMM_ASSERT_OK(engine.plan_for(16, B1).status());  // still cached
  NMSPMM_ASSERT_OK(engine.plan_for(16, B2).status());  // rebuilt: miss
  stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(EngineCache, EvictingTheLastPlanOfAWeightReleasesItsPackedWeights) {
  // Plan-cache LRU x packed-weights interning: the interned PackedWeights
  // of a weight matrix must die with the last plan referencing it (no
  // leak past eviction), and a re-plan must re-pack exactly once — the
  // build counter (PackedWeights::build_count) is the pack-counter
  // instrumentation shared with test_packed_weights.
  Rng rng(604);
  const index_t k = 64, n = 64;
  EngineOptions opt;
  opt.plan_cache_capacity = 2;
  opt.num_threads = 1;
  opt.weight_store = std::make_shared<mem::WeightStore>();
  Engine engine(opt);
  auto B1 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  auto B2 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  // Two plans per weight: plain, and with a fused residual add.
  SpmmOptions add;
  add.epilogue.add = true;

  const std::uint64_t builds0 = PackedWeights::build_count();
  NMSPMM_ASSERT_OK(engine.plan_for(16, B1).status());
  NMSPMM_ASSERT_OK(engine.plan_for(16, B1, add).status());
  EXPECT_EQ(PackedWeights::build_count() - builds0, 1u)
      << "two plans of one weight matrix must share a single pack";
  EXPECT_EQ(opt.weight_store->stats().leases, 1u);
  const std::size_t resident_b1 = opt.weight_store->stats().resident_bytes;
  EXPECT_GT(resident_b1, 0u);

  // B2's two plans evict both of B1's — the second is the *last* plan
  // holding B1's packed form. Its lease must release the bytes, not
  // leak them.
  NMSPMM_ASSERT_OK(engine.plan_for(16, B2).status());
  NMSPMM_ASSERT_OK(engine.plan_for(16, B2, add).status());
  EXPECT_EQ(engine.cache_stats().size, 2u);
  {
    const auto stats = opt.weight_store->stats();
    EXPECT_EQ(stats.leases, 1u) << "B1's lease must die with its last plan";
    EXPECT_LT(stats.resident_bytes, 2 * resident_b1)
        << "evicting both B1 plans leaked B1's PackedWeights";
  }

  // Re-planning B1 re-packs exactly once, shared again across its plans.
  const std::uint64_t builds1 = PackedWeights::build_count();
  NMSPMM_ASSERT_OK(engine.plan_for(16, B1).status());
  NMSPMM_ASSERT_OK(engine.plan_for(16, B1, add).status());
  EXPECT_EQ(PackedWeights::build_count() - builds1, 1u)
      << "re-plan after eviction must re-pack exactly once";
}

TEST(EngineCache, PlanOutlivesEviction) {
  Rng rng(603);
  const index_t k = 64, n = 64;
  EngineOptions opt;
  opt.plan_cache_capacity = 1;
  Engine engine(opt);
  auto B1 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  auto B2 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  auto plan = engine.plan_for(16, B1);
  NMSPMM_ASSERT_OK(plan.status());
  NMSPMM_ASSERT_OK(engine.plan_for(16, B2).status());  // evicts the first
  EXPECT_EQ(engine.cache_stats().size, 1u);
  EXPECT_EQ(engine.cache_stats().evictions, 1u);

  const MatrixF A = random_int_matrix(16, k, rng);
  MatrixF C(16, n);
  NMSPMM_ASSERT_OK((*plan)->execute(A.view(), C.view()));
  EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B1).cview(), C.cview()),
            0.0);
}

TEST(EngineStatus, ReportsInvalidInputsWithoutThrowing) {
  Rng rng(604);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  Engine engine;

  EXPECT_EQ(engine.plan_for(16, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.plan_for(0, B).status().code(),
            StatusCode::kInvalidArgument);

  const MatrixF wrong_depth = random_int_matrix(16, 48, rng);
  MatrixF C(16, n);
  EXPECT_EQ(engine.spmm(wrong_depth.view(), B, C.view()).code(),
            StatusCode::kInvalidArgument);

  const MatrixF A = random_int_matrix(16, k, rng);
  MatrixF wrong_out(16, 48);
  EXPECT_EQ(engine.spmm(A.view(), B, wrong_out.view()).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineConcurrency, ParallelCallersAgreeWithReference) {
  Rng rng(605);
  const index_t k = 96, n = 64;
  auto B = shared_weights(k, n, NMConfig{4, 8, 8}, rng);
  Engine engine;

  // Pre-generate per-thread problems (Rng is not thread-safe).
  struct Problem {
    MatrixF a;
    MatrixF expect;
    index_t m;
  };
  std::vector<Problem> problems;
  for (const index_t m : {1, 7, 16, 33, 64, 5, 128, 20}) {
    Problem p;
    p.m = m;
    p.a = random_int_matrix(m, k, rng);
    p.expect = reference_for(p.a.view(), *B);
    problems.push_back(std::move(p));
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> callers;
  callers.reserve(problems.size());
  for (const Problem& p : problems) {
    callers.emplace_back([&engine, &B, &p, &mismatches, &errors] {
      for (int iter = 0; iter < 8; ++iter) {
        MatrixF c(p.m, p.expect.cols());
        if (!engine.spmm(p.a.view(), B, c.view()).ok()) {
          ++errors;
          return;
        }
        if (max_abs_diff(p.expect.cview(), c.cview()) != 0.0) ++mismatches;
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Every caller shares the one plan of (B, options): racing first calls
  // may each build it, but only one is cached and the rest are hits.
  const auto stats = engine.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(EngineParallel, OneVsManyThreadsBitExactAllVariants) {
  Rng rng(606);
  const index_t m = 80, k = 128, n = 96;
  const MatrixF A = random_int_matrix(m, k, rng);
  const auto pool = ThreadPool::shared(4);
  for (const NMConfig cfg : {kSparsity50, kSparsity875}) {
    auto B = shared_weights(k, n, cfg, rng);
    struct Case {
      KernelVariant variant;
      PackingMode packing;
    };
    for (const Case c : {Case{KernelVariant::kV1, PackingMode::kNever},
                         Case{KernelVariant::kV2, PackingMode::kAlways},
                         Case{KernelVariant::kV3, PackingMode::kAlways},
                         Case{KernelVariant::kV3, PackingMode::kNever}}) {
      SpmmOptions options;
      options.variant = c.variant;
      options.packing = c.packing;

      MatrixF c_serial(m, n), c_parallel(m, n);
      NMSPMM_ASSERT_OK(SpmmPlan::create(B, options, nullptr)
                           .execute(A.view(), c_serial.view()));
      NMSPMM_ASSERT_OK(SpmmPlan::create(B, options, pool)
                           .execute(A.view(), c_parallel.view()));
      EXPECT_EQ(max_abs_diff(c_serial.cview(), c_parallel.cview()), 0.0)
          << to_string(c.variant) << " at " << cfg.to_string();
    }
  }
}

TEST(EngineParallel, SmallBatchWideOutputUsesNBlockPartitioning) {
  // m = 16 gives a single m-block, so a multi-threaded engine must
  // partition n-blocks; the result must still be bit-exact vs serial.
  Rng rng(607);
  const index_t m = 16, k = 128, n = 512;
  const MatrixF A = random_int_matrix(m, k, rng);
  auto B = shared_weights(k, n, kSparsity75, rng);

  MatrixF c_serial(m, n);
  NMSPMM_ASSERT_OK(
      SpmmPlan::create(B, {}, nullptr).execute(A.view(), c_serial.view()));

  EngineOptions opt;
  opt.num_threads = 4;
  Engine engine(opt);
  MatrixF c_engine(m, n);
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, c_engine.view()));
  EXPECT_EQ(max_abs_diff(c_serial.cview(), c_engine.cview()), 0.0);
}

constexpr const char* kPackingNames[] = {"never", "paper-rule", "always"};

/// One case of the differential test below, drawn from a single seed so
/// a failure replays from the seed it prints.
struct DiffCase {
  index_t k = 0, n = 0;
  NMConfig cfg;
  SpmmOptions options;
  unsigned threads = 1;
  std::vector<index_t> batches;

  [[nodiscard]] std::string describe() const {
    const EpilogueSpec& e = options.epilogue;
    std::ostringstream os;
    os << "k=" << k << " n=" << n << " " << cfg.to_string() << " "
       << to_string(options.variant)
       << " packing=" << kPackingNames[static_cast<int>(options.packing)]
       << " ks=" << (options.params ? options.params->ks : 0)
       << " threads=" << threads << " act=" << to_string(e.act)
       << " bias=" << e.bias << " mul=" << e.mul
       << " act_on_other=" << e.act_on_other << " add=" << e.add;
    return os.str();
  }
};

DiffCase draw_case(Rng& rng) {
  constexpr int kWindows[] = {4, 8, 16, 32};
  constexpr int kLengths[] = {4, 8, 16, 32};
  constexpr KernelVariant kVariants[] = {
      KernelVariant::kV1, KernelVariant::kV2, KernelVariant::kV3};
  constexpr PackingMode kPackings[] = {
      PackingMode::kNever, PackingMode::kPaperRule, PackingMode::kAlways};
  constexpr Activation kActs[] = {Activation::kNone, Activation::kSilu,
                                  Activation::kGelu};
  const auto coin = [&rng] { return rng.next_below(2) == 1; };

  DiffCase c;
  c.cfg.m = kWindows[rng.next_below(4)];
  c.cfg.n = static_cast<int>(rng.next_int(1, c.cfg.m));
  c.cfg.vector_length = kLengths[rng.next_below(4)];
  c.k = rng.next_int(1, 320);  // ragged: k need not be a multiple of M
  c.n = rng.next_int(1, 200);
  c.options.variant = kVariants[rng.next_below(3)];
  c.options.packing = kPackings[rng.next_below(3)];
  if (coin()) {
    // Pinned small ks: several k-chunks, so the fused epilogue runs on
    // the last of many.
    BlockingParams p = cpu_blocking(c.cfg, c.k);
    const index_t windows = c.cfg.padded_k(c.k) / c.cfg.m;
    p.ks = c.cfg.m * rng.next_int(1, std::min<index_t>(windows, 4));
    c.options.params = p;
  }
  EpilogueSpec& e = c.options.epilogue;
  e.act = kActs[rng.next_below(3)];
  e.bias = coin();
  e.mul = coin();
  e.act_on_other = e.mul && coin();
  e.add = coin();
  c.threads = coin() ? 4 : 1;
  for (int i = 0; i < 3; ++i) c.batches.push_back(rng.next_int(1, 700));
  return c;
}

// Generative differential test: random shapes, N:M configs, variants,
// packing modes, blockings, thread counts and epilogues. Each case's
// batch sizes all run through the one cached plan of (weights, options)
// — planned at the first batch size — and must match spmm_reference
// followed by apply_epilogue bit-exactly (integer-valued operands keep
// the accumulation exact in any order).
TEST(EngineDifferential, EveryBatchSizeThroughOnePlanMatchesReference) {
  constexpr std::uint64_t kBaseSeed = 0x5eed0000;
  constexpr int kCases = 24;
  for (int i = 0; i < kCases; ++i) {
    const std::uint64_t seed = kBaseSeed + static_cast<std::uint64_t>(i);
    Rng rng(seed);
    const DiffCase c = draw_case(rng);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + c.describe());

    EngineOptions eo;
    eo.num_threads = c.threads;
    eo.weight_store = std::make_shared<mem::WeightStore>();
    Engine engine(eo);
    const auto B = shared_weights(c.k, c.n, c.cfg, rng);
    auto plan = engine.plan_for(c.batches.front(), B, c.options);
    NMSPMM_ASSERT_OK(plan.status());

    for (const index_t m : c.batches) {
      auto cached = engine.plan_for(m, B, c.options);
      NMSPMM_ASSERT_OK(cached.status());
      EXPECT_EQ(cached->get(), plan->get())
          << "m=" << m << " got its own plan";

      const MatrixF A = random_int_matrix(m, c.k, rng);
      const MatrixF bias = random_int_matrix(1, c.n, rng);
      const MatrixF other = random_int_matrix(m, c.n, rng);
      const MatrixF residual = random_int_matrix(m, c.n, rng);
      const EpilogueSpec& spec = c.options.epilogue;
      EpilogueArgs args;
      if (spec.bias) args.bias = bias.row(0);
      if (spec.mul) args.other = other.cview();
      if (spec.add) args.residual = residual.cview();

      MatrixF want = reference_for(A.view(), *B);
      apply_epilogue(spec, args, want.view());
      MatrixF got(m, c.n);
      NMSPMM_ASSERT_OK((*plan)->execute(A.view(), got.view(), args));
      EXPECT_EQ(max_abs_diff(want.cview(), got.cview()), 0.0) << "m=" << m;
    }
    const auto stats = engine.cache_stats();
    EXPECT_EQ(stats.size, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, c.batches.size());
    EXPECT_EQ(eo.weight_store->stats().leases, 1u);
    if (HasFailure()) return;  // the first failing seed is enough
  }
}

}  // namespace
}  // namespace nmspmm
