// Decode attention + KV cache: the deterministic 16-lane reductions must
// be bit-identical across scalar/AVX2/AVX-512, the streaming softmax must
// match a long-double two-pass oracle on adversarial logits, RoPE must be
// an isometry with position 0 the identity, pooled attention must match
// the serial bits at every thread count, and the paged KvCache must
// enforce its typed lifecycle statuses, page budget, and recycling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "attn/attention.hpp"
#include "attn/kv_cache.hpp"
#include "core/epilogue.hpp"
#include "core/reduce.hpp"
#include "tests/testing.hpp"
#include "util/thread_pool.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

using attn::AttnConfig;
using attn::DecodeAttention;
using attn::KvCache;
using attn::KvCacheOptions;
using attn::OnlineSoftmax;
using simd::ReduceKernel;

std::vector<ReduceKernel> compiled_kernels() {
  std::vector<ReduceKernel> kernels = {ReduceKernel::kScalar};
  if (simd::kernel_compiled(ReduceKernel::kAvx2)) {
    kernels.push_back(ReduceKernel::kAvx2);
  }
  if (simd::kernel_compiled(ReduceKernel::kAvx512)) {
    kernels.push_back(ReduceKernel::kAvx512);
  }
  return kernels;
}

// ----------------------------------------------------------- reductions

TEST(Reduce, DotBitExactAcrossKernels) {
  Rng rng(3);
  // 77 exercises full 16-lane blocks plus a ragged 13-element tail.
  const MatrixF a = random_matrix(1, 77, rng, -2.0f, 2.0f);
  const MatrixF b = random_matrix(1, 77, rng, -2.0f, 2.0f);
  const float want = simd::dot(a.row(0), b.row(0), 77, ReduceKernel::kScalar);
  for (ReduceKernel k : compiled_kernels()) {
    EXPECT_EQ(want, simd::dot(a.row(0), b.row(0), 77, k))
        << simd::to_string(k);
    EXPECT_EQ(simd::sumsq(a.row(0), 77, ReduceKernel::kScalar),
              simd::sumsq(a.row(0), 77, k))
        << simd::to_string(k);
  }
}

TEST(Reduce, ElementwiseBitExactAcrossKernels) {
  Rng rng(5);
  const MatrixF x = random_matrix(1, 45, rng, -3.0f, 3.0f);
  const MatrixF y0 = random_matrix(1, 45, rng, -3.0f, 3.0f);
  std::vector<float> want(y0.row(0), y0.row(0) + 45);
  simd::axpy(0.37f, x.row(0), want.data(), 45, ReduceKernel::kScalar);
  simd::scale(want.data(), 1.61f, 45, ReduceKernel::kScalar);
  for (ReduceKernel k : compiled_kernels()) {
    std::vector<float> got(y0.row(0), y0.row(0) + 45);
    simd::axpy(0.37f, x.row(0), got.data(), 45, k);
    simd::scale(got.data(), 1.61f, 45, k);
    EXPECT_EQ(want, got) << simd::to_string(k);
  }
}

TEST(Reduce, DotMatchesLongDoubleReference) {
  Rng rng(7);
  const MatrixF a = random_matrix(1, 200, rng, -1.0f, 1.0f);
  const MatrixF b = random_matrix(1, 200, rng, -1.0f, 1.0f);
  long double ref = 0.0L;
  for (index_t j = 0; j < 200; ++j) {
    ref += static_cast<long double>(a.row(0)[j]) * b.row(0)[j];
  }
  const float got = simd::dot(a.row(0), b.row(0), 200);
  EXPECT_NEAR(static_cast<double>(ref), got, 1e-4);
}

// ------------------------------------------------------ online softmax

/// Two-pass long-double softmax-weighted average of v over the logits —
/// the numerically trustworthy oracle the streaming form must track.
std::vector<float> oracle_softmax(const std::vector<float>& logits,
                                  const std::vector<std::vector<float>>& vs,
                                  index_t n) {
  long double m = -std::numeric_limits<long double>::infinity();
  for (float l : logits) m = std::max(m, static_cast<long double>(l));
  long double denom = 0.0L;
  for (float l : logits) denom += expl(static_cast<long double>(l) - m);
  std::vector<float> out(static_cast<std::size_t>(n), 0.0f);
  for (index_t j = 0; j < n; ++j) {
    long double acc = 0.0L;
    for (std::size_t t = 0; t < logits.size(); ++t) {
      acc += expl(static_cast<long double>(logits[t]) - m) *
             vs[t][static_cast<std::size_t>(j)];
    }
    out[static_cast<std::size_t>(j)] =
        static_cast<float>(acc / denom);
  }
  return out;
}

void check_online_vs_oracle(const std::vector<float>& logits,
                            double tolerance) {
  const index_t n = 24;
  Rng rng(11);
  std::vector<std::vector<float>> vs;
  for (std::size_t t = 0; t < logits.size(); ++t) {
    const MatrixF row = random_matrix(1, n, rng, -1.0f, 1.0f);
    vs.emplace_back(row.row(0), row.row(0) + n);
  }
  std::vector<float> acc(static_cast<std::size_t>(n), 0.0f);
  OnlineSoftmax sm;
  for (std::size_t t = 0; t < logits.size(); ++t) {
    sm.add(logits[t], vs[t].data(), acc.data(), n);
  }
  sm.finish(acc.data(), n);
  const std::vector<float> want = oracle_softmax(logits, vs, n);
  for (index_t j = 0; j < n; ++j) {
    EXPECT_NEAR(want[static_cast<std::size_t>(j)],
                acc[static_cast<std::size_t>(j)], tolerance)
        << "element " << j;
  }
}

TEST(OnlineSoftmax, MatchesOracleOnRandomLogits) {
  Rng rng(13);
  const MatrixF l = random_matrix(1, 64, rng, -4.0f, 4.0f);
  // fast_exp carries ~4e-6 relative error per call; 64 fp32 adds keep
  // the streamed result within ~1e-5 of the long-double two-pass form.
  check_online_vs_oracle(std::vector<float>(l.row(0), l.row(0) + 64), 5e-5);
}

TEST(OnlineSoftmax, LargeMagnitudeLogitsDoNotOverflow) {
  // A naive exp(logit) overflows float at ~88; the running max keeps
  // every argument <= 0 so 500-magnitude logits stream safely.
  check_online_vs_oracle({480.0f, 500.0f, 495.0f, -500.0f, 499.0f}, 5e-5);
}

TEST(OnlineSoftmax, AllEqualLogitsAverage) {
  // Equal logits ⇒ the plain mean of the V rows, no matter the shift.
  check_online_vs_oracle({7.25f, 7.25f, 7.25f, 7.25f}, 5e-5);
}

TEST(OnlineSoftmax, SingleSurvivorDominates) {
  // One logit 200 above the rest: the softmax is a one-hot select of
  // its V row (competitors' weights underflow to exactly zero).
  check_online_vs_oracle({-150.0f, 50.0f, -150.0f, -180.0f}, 5e-5);
}

TEST(OnlineSoftmax, FinishedWeightsSumToOne) {
  OnlineSoftmax sm;
  const float one = 1.0f;
  float acc = 0.0f;
  for (float l : {3.0f, -2.0f, 9.0f, 9.0f}) sm.add(l, &one, &acc, 1);
  sm.finish(&acc, 1);
  // v == 1 everywhere, so the attention output is the weight sum.
  EXPECT_NEAR(1.0f, acc, 1e-6);
}

// ---------------------------------------------------------------- RoPE

TEST(Rope, PositionZeroIsIdentity) {
  AttnConfig cfg;
  cfg.n_heads = 2;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 8;
  DecodeAttention op(cfg);
  Rng rng(17);
  const MatrixF x0 = random_matrix(1, cfg.q_dim(), rng);
  std::vector<float> x(x0.row(0), x0.row(0) + cfg.q_dim());
  op.rope(x.data(), cfg.n_heads, 0);
  EXPECT_EQ(std::vector<float>(x0.row(0), x0.row(0) + cfg.q_dim()), x);
}

TEST(Rope, RotationPreservesNorm) {
  AttnConfig cfg;
  cfg.n_heads = 1;
  cfg.n_kv_heads = 1;
  cfg.head_dim = 64;
  DecodeAttention op(cfg);
  Rng rng(19);
  const MatrixF x0 = random_matrix(1, cfg.head_dim, rng);
  std::vector<float> x(x0.row(0), x0.row(0) + cfg.head_dim);
  const double before = simd::sumsq(x.data(), cfg.head_dim);
  op.rope(x.data(), 1, 1000);
  const double after = simd::sumsq(x.data(), cfg.head_dim);
  EXPECT_NEAR(before, after, 1e-3 * before);
  // And a nonzero position must actually move the vector.
  EXPECT_NE(x0.row(0)[0], x[0]);
}

TEST(Rope, RelativePositionProperty) {
  // RoPE's defining property: <rope(q, p), rope(k, p + d)> depends on
  // the offset d only. Check two absolute positions give the same dot.
  AttnConfig cfg;
  cfg.n_heads = 1;
  cfg.n_kv_heads = 1;
  cfg.head_dim = 32;
  DecodeAttention op(cfg);
  Rng rng(23);
  const MatrixF qm = random_matrix(1, cfg.head_dim, rng);
  const MatrixF km = random_matrix(1, cfg.head_dim, rng);
  auto rotated_dot = [&](index_t q_pos, index_t k_pos) {
    std::vector<float> q(qm.row(0), qm.row(0) + cfg.head_dim);
    std::vector<float> k(km.row(0), km.row(0) + cfg.head_dim);
    op.rope(q.data(), 1, q_pos);
    op.rope(k.data(), 1, k_pos);
    return simd::dot(q.data(), k.data(), cfg.head_dim);
  };
  EXPECT_NEAR(rotated_dot(3, 7), rotated_dot(10, 14), 2e-3);
}

// ------------------------------------------------------------- KvCache

KvCacheOptions small_cache(index_t max_tokens = 8, index_t page_tokens = 2) {
  KvCacheOptions opt;
  opt.n_kv_heads = 2;
  opt.head_dim = 4;
  opt.page_tokens = page_tokens;
  opt.max_tokens = max_tokens;
  return opt;
}

TEST(KvCache, LifecycleStatusesAreTyped) {
  KvCache cache(small_cache());
  std::vector<float> kv(static_cast<std::size_t>(cache.token_row()), 1.0f);

  // Unknown sequence: NOT_FOUND from append and seq_len alike.
  EXPECT_EQ(StatusCode::kNotFound,
            cache.append(42, kv.data(), kv.data()).code());
  EXPECT_EQ(StatusCode::kNotFound, cache.seq_len(42).status().code());
  EXPECT_FALSE(cache.has_sequence(42));

  NMSPMM_ASSERT_OK(cache.begin_sequence(42));
  EXPECT_TRUE(cache.has_sequence(42));
  // Double begin and double free: FAILED_PRECONDITION.
  EXPECT_EQ(StatusCode::kFailedPrecondition,
            cache.begin_sequence(42).code());
  NMSPMM_ASSERT_OK(cache.append(42, kv.data(), kv.data()));
  NMSPMM_ASSERT_OK(cache.free_sequence(42));
  EXPECT_EQ(StatusCode::kFailedPrecondition, cache.free_sequence(42).code());
}

TEST(KvCache, CapacityExhaustionIsRetryable) {
  // 8-token budget (4 pages of 2): two sequences of 4 tokens fill it.
  KvCache cache(small_cache());
  std::vector<float> kv(static_cast<std::size_t>(cache.token_row()), 1.0f);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));
  NMSPMM_ASSERT_OK(cache.begin_sequence(2));
  for (int t = 0; t < 4; ++t) {
    NMSPMM_ASSERT_OK(cache.append(1, kv.data(), kv.data()));
    NMSPMM_ASSERT_OK(cache.append(2, kv.data(), kv.data()));
  }
  const Status full = cache.append(1, kv.data(), kv.data());
  EXPECT_EQ(StatusCode::kResourceExhausted, full.code());
  EXPECT_TRUE(is_retryable(full.code()));
  // The advertised retry path: freeing any sequence releases pages.
  NMSPMM_ASSERT_OK(cache.free_sequence(2));
  NMSPMM_ASSERT_OK(cache.append(1, kv.data(), kv.data()));
}

TEST(KvCache, PagesRecycleWithoutNewAllocation) {
  KvCache cache(small_cache());
  std::vector<float> kv(static_cast<std::size_t>(cache.token_row()), 1.0f);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));
  for (int t = 0; t < 4; ++t) {
    NMSPMM_ASSERT_OK(cache.append(1, kv.data(), kv.data()));
  }
  const auto before = cache.stats();
  EXPECT_EQ(2u, before.pages_allocated);
  NMSPMM_ASSERT_OK(cache.free_sequence(1));

  NMSPMM_ASSERT_OK(cache.begin_sequence(2));
  for (int t = 0; t < 4; ++t) {
    NMSPMM_ASSERT_OK(cache.append(2, kv.data(), kv.data()));
  }
  const auto after = cache.stats();
  EXPECT_EQ(before.pages_allocated, after.pages_allocated);
  EXPECT_EQ(2u, after.pages_recycled);
  EXPECT_EQ(before.resident_bytes, after.resident_bytes);
  EXPECT_EQ(1u, after.freed_sequences);
  EXPECT_EQ(1u, after.live_sequences);
}

TEST(KvCache, ViewExposesAppendedTokensInOrder) {
  KvCache cache(small_cache());
  const index_t row = cache.token_row();
  NMSPMM_ASSERT_OK(cache.begin_sequence(9));
  // Token t gets K filled with t+0.5 and V with -(t+0.5): distinguishes
  // page halves and token order across a page boundary (page_tokens=2).
  for (int t = 0; t < 3; ++t) {
    const float tag = static_cast<float>(t) + 0.5f;
    std::vector<float> k(static_cast<std::size_t>(row), tag);
    std::vector<float> v(static_cast<std::size_t>(row), -tag);
    NMSPMM_ASSERT_OK(cache.append(9, k.data(), v.data()));
  }
  auto view = cache.view(9);
  NMSPMM_ASSERT_OK(view.status());
  ASSERT_EQ(3, view->len);
  for (index_t t = 0; t < 3; ++t) {
    const float tag = static_cast<float>(t) + 0.5f;
    EXPECT_EQ(tag, view->k(t)[0]);
    EXPECT_EQ(tag, view->k(t)[row - 1]);
    EXPECT_EQ(-tag, view->v(t)[0]);
  }
  EXPECT_EQ(3, *cache.seq_len(9));
}

TEST(KvCache, StatsAccountBytes) {
  KvCache cache(small_cache());
  const auto page_bytes = static_cast<std::size_t>(2) * 2 *
                          static_cast<std::size_t>(cache.token_row()) *
                          sizeof(float);
  EXPECT_EQ(page_bytes, cache.stats().page_bytes);
  EXPECT_EQ(4, cache.stats().capacity_pages);
  std::vector<float> kv(static_cast<std::size_t>(cache.token_row()), 1.0f);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));
  NMSPMM_ASSERT_OK(cache.append(1, kv.data(), kv.data()));
  const auto stats = cache.stats();
  EXPECT_EQ(page_bytes, stats.resident_bytes);  // one page allocated
  EXPECT_EQ(2 * static_cast<std::size_t>(cache.token_row()) * sizeof(float),
            stats.appended_bytes);
  EXPECT_EQ(1u, stats.appended_tokens);
}

// ----------------------------------------------------- GQA attention

TEST(DecodeAttention, GqaBitExactAcrossKernels) {
  // 8 query heads over 2 KV heads (group of 4); head_dim 24 leaves a
  // ragged 8-lane tail in every 16-lane dot. Each compiled kernel path
  // decodes the same stream; outputs must match the scalar path with ==.
  AttnConfig base;
  base.n_heads = 8;
  base.n_kv_heads = 2;
  base.head_dim = 24;

  KvCacheOptions kv_opt;
  kv_opt.n_kv_heads = base.n_kv_heads;
  kv_opt.head_dim = base.head_dim;
  kv_opt.page_tokens = 3;  // several page walks in a 10-token context
  kv_opt.max_tokens = 12;

  const int steps = 10;
  Rng rng(29);
  const MatrixF qs = random_matrix(steps, base.q_dim(), rng);
  const MatrixF ks = random_matrix(steps, base.kv_dim(), rng);
  const MatrixF vs = random_matrix(steps, base.kv_dim(), rng);

  auto run = [&](ReduceKernel kernel) {
    AttnConfig cfg = base;
    cfg.kernel = kernel;
    DecodeAttention op(cfg);
    KvCache cache(kv_opt);
    NMSPMM_CHECK_OK(cache.begin_sequence(1));
    std::vector<float> out(
        static_cast<std::size_t>(steps) * cfg.q_dim());
    std::vector<float> q(static_cast<std::size_t>(cfg.q_dim()));
    std::vector<float> k(static_cast<std::size_t>(cfg.kv_dim()));
    for (int t = 0; t < steps; ++t) {
      std::copy_n(qs.row(t), cfg.q_dim(), q.data());
      std::copy_n(ks.row(t), cfg.kv_dim(), k.data());
      NMSPMM_CHECK_OK(op.decode_step(
          cache, 1, q.data(), k.data(), vs.row(t),
          out.data() + static_cast<std::size_t>(t) * cfg.q_dim()));
    }
    return out;
  };

  const std::vector<float> want = run(ReduceKernel::kScalar);
  for (ReduceKernel kernel : compiled_kernels()) {
    EXPECT_EQ(want, run(kernel)) << simd::to_string(kernel);
  }
}

TEST(DecodeAttention, GqaMatchesExplicitHeadMapping) {
  // With K constant per KV head and V distinct per KV head, every query
  // head's output must be (a convex combination of) its group's V rows
  // only — head h reads KV head h / group and nothing else.
  AttnConfig cfg;
  cfg.n_heads = 4;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 8;
  DecodeAttention op(cfg);
  KvCacheOptions kv_opt;
  kv_opt.n_kv_heads = cfg.n_kv_heads;
  kv_opt.head_dim = cfg.head_dim;
  kv_opt.page_tokens = 2;
  kv_opt.max_tokens = 4;
  KvCache cache(kv_opt);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));

  std::vector<float> q(static_cast<std::size_t>(cfg.q_dim()), 0.1f);
  std::vector<float> k(static_cast<std::size_t>(cfg.kv_dim()), 0.0f);
  std::vector<float> v(static_cast<std::size_t>(cfg.kv_dim()));
  // KV head 0's V rows are all 1.0, KV head 1's all 2.0.
  std::fill_n(v.data(), cfg.head_dim, 1.0f);
  std::fill_n(v.data() + cfg.head_dim, cfg.head_dim, 2.0f);
  std::vector<float> out(static_cast<std::size_t>(cfg.q_dim()));
  NMSPMM_ASSERT_OK(
      op.decode_step(cache, 1, q.data(), k.data(), v.data(), out.data()));
  // Query heads 0/1 map to KV head 0, heads 2/3 to KV head 1. K == 0
  // makes all weights equal, so outputs equal the group's V exactly.
  for (index_t h = 0; h < cfg.n_heads; ++h) {
    const float want = h < 2 ? 1.0f : 2.0f;
    for (index_t j = 0; j < cfg.head_dim; ++j) {
      EXPECT_EQ(want, out[static_cast<std::size_t>(h * cfg.head_dim + j)])
          << "head " << h << " element " << j;
    }
  }
}

TEST(DecodeAttention, PooledAttendBitIdenticalToSerial) {
  // attend() splits the query heads into contiguous runs on its pool;
  // every split must reproduce the serial bits. MHA, GQA group 4, MQA,
  // and 7 heads, which no tested pool size divides.
  struct Heads {
    index_t n_heads, n_kv_heads;
  };
  const Heads layouts[] = {{8, 8}, {8, 2}, {8, 1}, {7, 7}};
  std::vector<std::shared_ptr<ThreadPool>> pools = {nullptr};
  for (unsigned threads : {1u, 2u, 3u, 5u}) {
    pools.push_back(std::make_shared<ThreadPool>(threads));
  }
  Rng rng(37);
  for (const Heads& heads : layouts) {
    AttnConfig cfg;
    cfg.n_heads = heads.n_heads;
    cfg.n_kv_heads = heads.n_kv_heads;
    cfg.head_dim = 24;
    for (const index_t context : {index_t{1}, index_t{17}, index_t{300}}) {
      SCOPED_TRACE(::testing::Message()
                   << cfg.n_heads << "/" << cfg.n_kv_heads << " heads, "
                   << context << " tokens");
      KvCacheOptions kv_opt;
      kv_opt.n_kv_heads = cfg.n_kv_heads;
      kv_opt.head_dim = cfg.head_dim;
      kv_opt.page_tokens = 16;
      kv_opt.max_tokens = context;
      KvCache cache(kv_opt);
      NMSPMM_ASSERT_OK(cache.begin_sequence(1));
      const DecodeAttention serial(cfg, nullptr);
      const MatrixF ks = random_matrix(context, cfg.kv_dim(), rng);
      const MatrixF vs = random_matrix(context, cfg.kv_dim(), rng);
      std::vector<float> k(static_cast<std::size_t>(cfg.kv_dim()));
      for (index_t t = 0; t < context; ++t) {
        std::copy_n(ks.row(t), cfg.kv_dim(), k.data());
        NMSPMM_ASSERT_OK(serial.append(cache, 1, k.data(), vs.row(t)));
      }
      const MatrixF q0 = random_matrix(1, cfg.q_dim(), rng);
      const auto attend = [&](const DecodeAttention& op) {
        std::vector<float> q(q0.row(0), q0.row(0) + cfg.q_dim());
        std::vector<float> out(static_cast<std::size_t>(cfg.q_dim()));
        NMSPMM_CHECK_OK(op.attend(cache, 1, q.data(), out.data()));
        return out;
      };
      const std::vector<float> want = attend(serial);
      for (const auto& pool : pools) {
        const unsigned threads = pool == nullptr ? 0 : pool->size();
        EXPECT_EQ(want, attend(DecodeAttention(cfg, pool)))
            << threads << "-thread pool";
      }
    }
  }
}

TEST(DecodeAttention, AttendOnEmptyContextFailsPrecondition) {
  AttnConfig cfg;
  cfg.n_heads = 2;
  cfg.n_kv_heads = 2;
  cfg.head_dim = 8;
  DecodeAttention op(cfg);
  KvCacheOptions kv_opt;
  kv_opt.n_kv_heads = cfg.n_kv_heads;
  kv_opt.head_dim = cfg.head_dim;
  kv_opt.max_tokens = 4;
  kv_opt.page_tokens = 2;
  KvCache cache(kv_opt);
  NMSPMM_ASSERT_OK(cache.begin_sequence(1));
  std::vector<float> q(static_cast<std::size_t>(cfg.q_dim()), 1.0f);
  std::vector<float> out(static_cast<std::size_t>(cfg.q_dim()));
  EXPECT_EQ(StatusCode::kFailedPrecondition,
            op.attend(cache, 1, q.data(), out.data()).code());
}

TEST(AttnConfig, ValidateRejectsBadGeometry) {
  AttnConfig cfg;
  cfg.n_heads = 8;
  cfg.n_kv_heads = 3;  // does not divide 8
  cfg.head_dim = 64;
  EXPECT_EQ(StatusCode::kInvalidArgument, cfg.validate().code());
  cfg.n_kv_heads = 4;
  cfg.head_dim = 63;  // odd: RoPE needs half-split pairs
  EXPECT_EQ(StatusCode::kInvalidArgument, cfg.validate().code());
  cfg.head_dim = 64;
  NMSPMM_EXPECT_OK(cfg.validate());
}

}  // namespace
}  // namespace nmspmm
