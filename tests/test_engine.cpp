// nmspmm::Engine: plan-cache hit/miss behavior across batch sizes, LRU
// eviction, Status error surface, thread-safety of concurrent spmm()
// calls, and bit-exactness of parallel execution vs 1 thread for every
// kernel variant.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <optional>
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

TEST(EngineCache, BucketsBatchSizes) {
  EXPECT_EQ(Engine::bucket_batch(1, 16), 16);
  EXPECT_EQ(Engine::bucket_batch(16, 16), 16);
  EXPECT_EQ(Engine::bucket_batch(17, 16), 32);
  EXPECT_EQ(Engine::bucket_batch(33, 16), 64);
  EXPECT_EQ(Engine::bucket_batch(1000, 16), 1024);
}

TEST(EngineCache, BucketClampsInsteadOfOverflowing) {
  // Pre-fix, doubling past 2^62 signed-overflowed (UB manifesting as an
  // infinite loop). Huge batches now get an exact, unbucketed plan size.
  constexpr index_t kMaxBucket = index_t{1} << 62;
  EXPECT_EQ(Engine::bucket_batch(kMaxBucket, 16), kMaxBucket);
  EXPECT_EQ(Engine::bucket_batch(kMaxBucket + 1, 16), kMaxBucket + 1);
  EXPECT_EQ(Engine::bucket_batch(std::numeric_limits<index_t>::max(), 16),
            std::numeric_limits<index_t>::max());
  // The largest in-range power of two still buckets normally.
  EXPECT_EQ(Engine::bucket_batch((index_t{1} << 40) + 1, 16),
            index_t{1} << 41);
}

TEST(EngineShim, RawWeightsOverloadUsesPlanCache) {
  // Pre-fix, the raw-reference overload deep-copied the weights and redid
  // full plan pre-processing on EVERY call (the deprecated nm_spmm shim
  // was O(weights) per request) without ever touching the plan cache.
  Rng rng(608);
  const index_t k = 64, n = 64;
  const CompressedNM B =
      random_compressed_int(k, n, NMConfig{2, 4, 16}, rng);
  Engine engine;
  const MatrixF A = random_int_matrix(8, k, rng);
  MatrixF C(8, n);

  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, C.view()));
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, C.view()));
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, C.view()));
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);  // one plan built for the wrapped copy
  EXPECT_EQ(stats.hits, 2u);    // repeats are cache hits, not re-planning
  EXPECT_EQ(max_abs_diff(reference_for(A.view(), B).cview(), C.cview()),
            0.0);
}

TEST(EngineShim, DetectsAddressReuseAcrossMatrices) {
  // Two different matrices occupying the same address (here simulated by
  // reassigning through an optional) must not be served from a stale
  // wrapped copy.
  Rng rng(609);
  const index_t k = 64, n = 64;
  Engine engine;
  const MatrixF A = random_int_matrix(8, k, rng);
  MatrixF C(8, n);

  std::optional<CompressedNM> B;
  B.emplace(random_compressed_int(k, n, NMConfig{2, 4, 16}, rng));
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), *B, C.view()));
  const MatrixF first = reference_for(A.view(), *B);
  EXPECT_EQ(max_abs_diff(first.cview(), C.cview()), 0.0);

  // Same address, same shapes, but a different N:M config (and freshly
  // allocated buffers): the identity check must drop the stale wrapper.
  B.emplace(random_compressed_int(k, n, NMConfig{4, 8, 16}, rng));
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), *B, C.view()));
  EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B).cview(), C.cview()),
            0.0);
}

TEST(EngineShim, DetectsInPlaceWeightMutation) {
  // The wrapped-copy cache samples a content fingerprint; mutating the
  // caller's matrix in place (same address, same buffer, same shape)
  // must invalidate the cached copy instead of serving stale weights.
  Rng rng(610);
  const index_t k = 64, n = 64;
  CompressedNM B = random_compressed_int(k, n, NMConfig{2, 4, 16}, rng);
  Engine engine;
  const MatrixF A = random_int_matrix(8, k, rng);
  MatrixF C(8, n);

  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, C.view()));
  B.values(0, 0) += 3.0f;  // position (0,0) is always in the sample set
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, C.view()));
  EXPECT_EQ(max_abs_diff(reference_for(A.view(), B).cview(), C.cview()),
            0.0);
}

TEST(EngineCache, HitMissAcrossBatchSizes) {
  Rng rng(600);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  Engine engine;

  auto run = [&](index_t m) {
    const MatrixF A = random_int_matrix(m, k, rng);
    MatrixF C(m, n);
    NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, C.view()));
    EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B).cview(), C.cview()),
              0.0) << "m=" << m;
  };

  run(8);  // miss: builds the m<=16 bucket plan
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.size, 1u);

  run(16);  // same bucket: hit
  run(3);   // same bucket: hit
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);

  run(40);  // bucket 64: miss — the engine re-plans instead of failing
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 2u);

  run(64);  // bucket 64 again: hit
  stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 3u);
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

// The engine's pool decides threading, never the per-call option: on a
// pooled engine every SpmmOptions::num_threads value — including an
// explicit 1 — resolves to the same cached plan on that pool.
TEST(EngineCache, PooledEngineFoldsEveryThreadCountIntoOnePlan) {
  Rng rng(605);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  EngineOptions opt;
  opt.num_threads = 4;
  Engine engine(opt);
  ASSERT_NE(engine.pool(), nullptr);

  std::vector<std::shared_ptr<const SpmmPlan>> plans;
  for (const unsigned threads : {0u, 1u, 4u}) {
    SpmmOptions options;
    options.num_threads = threads;
    auto plan = engine.plan_for(16, B, options);
    NMSPMM_ASSERT_OK(plan.status());
    plans.push_back(*plan);
  }
  EXPECT_EQ(plans[1], plans[0]) << "num_threads=1 got its own plan";
  EXPECT_EQ(plans[2], plans[0]) << "num_threads=4 got its own plan";
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(EngineCache, EvictsLeastRecentlyUsed) {
  Rng rng(602);
  const index_t k = 64, n = 64;
  EngineOptions opt;
  opt.plan_cache_capacity = 2;
  opt.num_threads = 1;
  Engine engine(opt);
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  NMSPMM_ASSERT_OK(engine.plan_for(16, B).status());
  NMSPMM_ASSERT_OK(engine.plan_for(32, B).status());
  NMSPMM_ASSERT_OK(engine.plan_for(64, B).status());  // evicts bucket 16
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  NMSPMM_ASSERT_OK(engine.plan_for(16, B).status());  // rebuilt: miss
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 4u);
}

TEST(EngineCache, EvictingLastPlanOfABucketReleasesItsPackedWeights) {
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

  const std::uint64_t builds0 = PackedWeights::build_count();
  NMSPMM_ASSERT_OK(engine.plan_for(16, B1).status());
  NMSPMM_ASSERT_OK(engine.plan_for(64, B1).status());
  EXPECT_EQ(PackedWeights::build_count() - builds0, 1u)
      << "two buckets of one weight matrix must share a single pack";
  EXPECT_EQ(opt.weight_store->stats().leases, 1u);
  const std::size_t resident_b1 = opt.weight_store->stats().resident_bytes;
  EXPECT_GT(resident_b1, 0u);

  // Evict bucket 16, then bucket 64 — the *last* plan holding B1's
  // packed form. Its lease must release the bytes, not leak them.
  NMSPMM_ASSERT_OK(engine.plan_for(16, B2).status());
  NMSPMM_ASSERT_OK(engine.plan_for(64, B2).status());
  EXPECT_EQ(engine.cache_stats().size, 2u);
  {
    const auto stats = opt.weight_store->stats();
    EXPECT_EQ(stats.leases, 1u) << "B1's lease must die with its last plan";
    EXPECT_LT(stats.resident_bytes, 2 * resident_b1)
        << "evicting both B1 plans leaked B1's PackedWeights";
  }

  // Re-planning B1 re-packs exactly once, shared again across buckets.
  const std::uint64_t builds1 = PackedWeights::build_count();
  NMSPMM_ASSERT_OK(engine.plan_for(16, B1).status());
  NMSPMM_ASSERT_OK(engine.plan_for(64, B1).status());
  EXPECT_EQ(PackedWeights::build_count() - builds1, 1u)
      << "re-plan after eviction must re-pack exactly once";
}

TEST(EngineCache, EveryBatchBucketSharesOnePackedForm) {
  // The CPU blocking depends on the weights alone, so every batch bucket
  // of one weight interns the same PackedWeights, and a row's output
  // bits do not depend on the batch it rode in.
  Rng rng(608);
  const index_t k = 4096, n = 4096;
  const auto B = std::make_shared<const CompressedNM>(
      random_compressed(k, n, NMConfig{8, 32, 16}, rng));
  EngineOptions opt;
  opt.weight_store = std::make_shared<mem::WeightStore>();
  Engine engine(opt);

  const std::uint64_t builds0 = PackedWeights::build_count();
  for (const index_t m : {1, 16, 128, 2048, 4096}) {
    NMSPMM_ASSERT_OK(engine.plan_for(m, B).status());
  }
  EXPECT_EQ(engine.cache_stats().size, 4u);  // m = 1 and 16 share a bucket
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

TEST(EngineCache, PlanOutlivesEviction) {
  Rng rng(603);
  const index_t k = 64, n = 64;
  EngineOptions opt;
  opt.plan_cache_capacity = 1;
  Engine engine(opt);
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  auto plan = engine.plan_for(16, B);
  NMSPMM_ASSERT_OK(plan.status());
  NMSPMM_ASSERT_OK(engine.plan_for(1024, B).status());  // evicts the first
  EXPECT_EQ(engine.cache_stats().size, 1u);

  const MatrixF A = random_int_matrix(16, k, rng);
  MatrixF C(16, n);
  NMSPMM_ASSERT_OK((*plan)->execute(A.view(), C.view()));
  EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B).cview(), C.cview()),
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
  // All callers of one bucket share a plan: every (bucket, opts) pair is
  // built at most... twice under a benign race, but served hits after.
  const auto stats = engine.cache_stats();
  EXPECT_GT(stats.hits, 0u);
}

TEST(EngineParallel, OneVsManyThreadsBitExactAllVariants) {
  Rng rng(606);
  const index_t m = 80, k = 128, n = 96;
  const MatrixF A = random_int_matrix(m, k, rng);
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
      SpmmOptions serial;
      serial.variant = c.variant;
      serial.packing = c.packing;
      serial.num_threads = 1;
      SpmmOptions parallel = serial;
      parallel.num_threads = 4;

      MatrixF c_serial(m, n), c_parallel(m, n);
      NMSPMM_ASSERT_OK(
          SpmmPlan::create(m, B, serial).execute(A.view(), c_serial.view()));
      NMSPMM_ASSERT_OK(SpmmPlan::create(m, B, parallel)
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

  SpmmOptions serial;
  serial.num_threads = 1;
  MatrixF c_serial(m, n);
  NMSPMM_ASSERT_OK(
      SpmmPlan::create(m, B, serial).execute(A.view(), c_serial.view()));

  EngineOptions opt;
  opt.num_threads = 4;
  Engine engine(opt);
  MatrixF c_engine(m, n);
  NMSPMM_ASSERT_OK(engine.spmm(A.view(), B, c_engine.view()));
  EXPECT_EQ(max_abs_diff(c_serial.cview(), c_engine.cview()), 0.0);
}

}  // namespace
}  // namespace nmspmm
