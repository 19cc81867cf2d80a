// Decode-time attention core: RoPE + streaming-softmax attention over a
// paged KV cache, with GQA head mapping.
//
// One decode step per sequence is: rotate the fresh K by its position
// and append (K, V) to the cache; rotate Q by the same position; then
// for every query head, stream over the cached context computing
// softmax(scale * Q·Kᵀ)·V without ever materializing the logit row.
// The softmax is the numerically-safe online form — running max with
// rescale-on-new-max, fp32 accumulation — tested against a long-double
// two-pass oracle (tests/test_attn.cpp) including adversarial logits
// (large-magnitude, all-equal, single-survivor).
//
// Bit-exactness discipline: the only reductions are Q·Kᵀ dots, which go
// through the deterministic 16-lane helpers in core/reduce.hpp; the
// exp() is the repo's scalar fast_exp (one call per context token per
// head — never a bottleneck); everything else is elementwise. So the
// scalar, AVX2, and AVX-512 paths produce identical bits, which the GQA
// head-mapping tests assert with ==, exactly like the epilogue kernels.
//
// GQA: query head h reads KV head h / (n_heads / n_kv_heads) — the
// grouped-query layout (n_kv_heads < n_heads) that shrinks the cache by
// the group factor. n_kv_heads == n_heads degenerates to MHA.
//
// Threading: attend() splits the query heads into contiguous runs on a
// ThreadPool, so one worker streams a GQA group's shared KV head. Each
// head's float op sequence is the same at every split, so the result
// is bit-identical at every thread count, like the SpMM kernels.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "attn/kv_cache.hpp"
#include "core/reduce.hpp"
#include "util/check.hpp"
#include "util/matrix.hpp"
#include "util/thread_pool.hpp"

namespace nmspmm::attn {

/// Kernel selection for the attention loops — the reduce-layer enum, so
/// one knob pins both the dot reductions and the elementwise sweeps.
using Kernel = simd::ReduceKernel;

/// Attention geometry of one decoder layer.
struct AttnConfig {
  index_t n_heads = 0;
  index_t n_kv_heads = 0;  ///< divides n_heads; < n_heads means GQA
  index_t head_dim = 0;    ///< even (RoPE rotates half-split pairs)
  float rope_theta = 10000.0f;
  Kernel kernel = Kernel::kAuto;

  [[nodiscard]] index_t q_dim() const { return n_heads * head_dim; }
  [[nodiscard]] index_t kv_dim() const { return n_kv_heads * head_dim; }
  /// Width of a fused QKV projection row: Q, then K, then V.
  [[nodiscard]] index_t qkv_dim() const { return q_dim() + 2 * kv_dim(); }
  [[nodiscard]] Status validate() const;
};

/// Online (streaming) softmax accumulator for one head: feed logits and
/// their V rows in context order; the running max keeps every exp()
/// argument <= 0 so nothing overflows no matter the logit magnitudes.
/// Exposed (rather than buried in attend) so the numerics tests can
/// drive it directly against the long-double oracle.
struct OnlineSoftmax {
  float m = -std::numeric_limits<float>::infinity();  ///< running max
  float s = 0.0f;  ///< running sum of exp(logit - m)

  /// Fold one (logit, v[n]) pair into acc[n] (fp32, caller-zeroed).
  /// On a new max the previous sum and accumulator are rescaled by
  /// exp(old_max - new_max) — never the other way, so no exp() argument
  /// is ever positive.
  void add(float logit, const float* v, float* acc, index_t n,
           Kernel kernel = Kernel::kAuto);
  /// Normalize: acc[d] *= 1/s. Requires at least one add().
  void finish(float* acc, index_t n, Kernel kernel = Kernel::kAuto) const;
};

/// The per-layer decode attention operator. Owns the RoPE frequency
/// table and a handle on the pool attend() runs on; holds no per-call
/// state, so every member is reentrant (callers still serialize writes
/// to one KvCache). attend() blocks on its pool, so it must not be
/// called from inside a task running on that same pool.
class DecodeAttention {
 public:
  /// Throws CheckError on invalid geometry (plan factories validate
  /// first and surface Status). attend() runs its heads on @p pool: the
  /// process-global pool by default (as SpmmPlan::create), null for
  /// strictly serial, ThreadPool::shared(n) for a dedicated pool.
  explicit DecodeAttention(AttnConfig config,
                           std::shared_ptr<ThreadPool> pool =
                               ThreadPool::shared(0));

  [[nodiscard]] const AttnConfig& config() const { return config_; }

  /// Rotate @p heads half-split head vectors of @p x in place by
  /// position @p pos (RoPE: pair (i, i + head_dim/2) by angle
  /// pos * theta^(-2i/head_dim)). Each angle's cos / sin is computed
  /// once and applied to every head.
  void rope(float* x, index_t heads, index_t pos) const;

  /// Rotate the fresh K (kv_dim floats, in place) by the sequence's
  /// current length and append (K, V) to the cache. Propagates the
  /// cache's typed statuses (NOT_FOUND / RESOURCE_EXHAUSTED).
  [[nodiscard]] Status append(KvCache& cache, std::uint64_t seq_id, float* k,
                              const float* v) const;

  /// Rotate Q (q_dim floats, in place) by the last cached position and
  /// write streaming-softmax attention over the cached context to
  /// @p out (q_dim floats, not overlapping @p q: each head accumulates
  /// in place in @p out). FAILED_PRECONDITION on an empty context.
  [[nodiscard]] Status attend(const KvCache& cache, std::uint64_t seq_id,
                              float* q, float* out) const;

  /// One full decode step: append(k, v) then attend(q) — the
  /// convenience form tests and the example use; the decoder plan calls
  /// the halves separately to trace them as kv_append / attn spans.
  [[nodiscard]] Status decode_step(KvCache& cache, std::uint64_t seq_id,
                                   float* q, float* k, const float* v,
                                   float* out) const;

 private:
  /// Attention of query heads [h0, h1) of @p q over @p view, written
  /// to the same heads of @p out.
  void attend_heads(const KvCache::SeqView& view, const float* q, float* out,
                    index_t h0, index_t h1) const;

  AttnConfig config_;
  std::shared_ptr<ThreadPool> pool_;  ///< null: strictly serial
  float scale_ = 0.0f;           ///< 1 / sqrt(head_dim)
  std::vector<float> inv_freq_;  ///< head_dim/2 RoPE inverse frequencies
};

}  // namespace nmspmm::attn
