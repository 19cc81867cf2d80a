#include "attn/attention.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/epilogue.hpp"  // fast_exp

namespace nmspmm::attn {

Status AttnConfig::validate() const {
  std::ostringstream os;
  if (n_heads < 1) {
    os << "AttnConfig.n_heads must be >= 1, got " << n_heads;
    return Status::InvalidArgument(os.str());
  }
  if (n_kv_heads < 1 || n_kv_heads > n_heads || n_heads % n_kv_heads != 0) {
    os << "AttnConfig.n_kv_heads (" << n_kv_heads
       << ") must divide n_heads (" << n_heads << ")";
    return Status::InvalidArgument(os.str());
  }
  if (head_dim < 2 || head_dim % 2 != 0) {
    os << "AttnConfig.head_dim must be even and >= 2 (RoPE rotates "
       << "half-split pairs), got " << head_dim;
    return Status::InvalidArgument(os.str());
  }
  if (!(rope_theta > 0.0f)) {
    os << "AttnConfig.rope_theta must be positive, got " << rope_theta;
    return Status::InvalidArgument(os.str());
  }
  if (!simd::kernel_compiled(kernel)) {
    os << "attention kernel '" << simd::to_string(kernel)
       << "' is not compiled into this build";
    return Status::InvalidArgument(os.str());
  }
  return Status::Ok();
}

void OnlineSoftmax::add(float logit, const float* v, float* acc, index_t n,
                        Kernel kernel) {
  if (logit > m) {
    // New max: rescale the running sum and accumulator into the new
    // frame. On the first add m is -inf, so r underflows to fast_exp's
    // clamp floor (~2^-126) — harmless against the zeroed s and acc.
    const float r = fast_exp(m - logit);
    s *= r;
    simd::scale(acc, r, n, kernel);
    m = logit;
    s += 1.0f;  // exp(logit - m) == exp(0) for the new max itself
    simd::axpy(1.0f, v, acc, n, kernel);
  } else {
    const float w = fast_exp(logit - m);  // argument <= 0: never overflows
    s += w;
    simd::axpy(w, v, acc, n, kernel);
  }
}

void OnlineSoftmax::finish(float* acc, index_t n, Kernel kernel) const {
  NMSPMM_CHECK_MSG(s > 0.0f, "OnlineSoftmax::finish before any add");
  simd::scale(acc, 1.0f / s, n, kernel);
}

DecodeAttention::DecodeAttention(AttnConfig config,
                                 std::shared_ptr<ThreadPool> pool)
    : config_(config), pool_(std::move(pool)) {
  NMSPMM_CHECK_OK(config_.validate());
  scale_ = 1.0f / std::sqrt(static_cast<float>(config_.head_dim));
  const index_t half = config_.head_dim / 2;
  inv_freq_.resize(static_cast<std::size_t>(half));
  for (index_t i = 0; i < half; ++i) {
    inv_freq_[static_cast<std::size_t>(i)] = std::pow(
        config_.rope_theta,
        -2.0f * static_cast<float>(i) / static_cast<float>(config_.head_dim));
  }
}

void DecodeAttention::rope(float* x, index_t heads, index_t pos) const {
  const index_t hd = config_.head_dim;
  const index_t half = hd / 2;
  const auto p = static_cast<float>(pos);
  // The angle depends on (pos, i) only: take the pairs a stack block at
  // a time, compute each block's cos / sin once and rotate every head.
  constexpr index_t kBlock = 64;
  float cs[kBlock];
  float sn[kBlock];
  for (index_t i0 = 0; i0 < half; i0 += kBlock) {
    const index_t n = std::min(kBlock, half - i0);
    for (index_t j = 0; j < n; ++j) {
      const float angle = p * inv_freq_[static_cast<std::size_t>(i0 + j)];
      cs[j] = std::cos(angle);
      sn[j] = std::sin(angle);
    }
    for (index_t h = 0; h < heads; ++h) {
      float* xh = x + h * hd + i0;
      for (index_t j = 0; j < n; ++j) {
        const float x0 = xh[j];
        const float x1 = xh[j + half];
        xh[j] = x0 * cs[j] - x1 * sn[j];
        xh[j + half] = x0 * sn[j] + x1 * cs[j];
      }
    }
  }
}

Status DecodeAttention::append(KvCache& cache, std::uint64_t seq_id, float* k,
                               const float* v) const {
  if (cache.token_row() != config_.kv_dim()) {
    std::ostringstream os;
    os << "KV cache holds " << cache.token_row()
       << " floats per token but the attention geometry needs "
       << config_.kv_dim();
    return Status::InvalidArgument(os.str());
  }
  const auto len = cache.seq_len(seq_id);
  if (!len.ok()) return len.status();
  rope(k, config_.n_kv_heads, *len);
  return cache.append(seq_id, k, v);
}

void DecodeAttention::attend_heads(const KvCache::SeqView& view,
                                   const float* q, float* out, index_t h0,
                                   index_t h1) const {
  const Kernel kernel = config_.kernel;
  const index_t hd = config_.head_dim;
  const index_t group = config_.n_heads / config_.n_kv_heads;
  for (index_t h = h0; h < h1; ++h) {
    const float* qh = q + h * hd;
    const index_t kv_off = (h / group) * hd;  // GQA head mapping
    float* acc = out + h * hd;
    std::fill_n(acc, hd, 0.0f);
    OnlineSoftmax sm;
    for (index_t t = 0; t < view.len; ++t) {
      const float logit = scale_ * simd::dot(qh, view.k(t) + kv_off, hd,
                                             kernel);
      sm.add(logit, view.v(t) + kv_off, acc, hd, kernel);
    }
    sm.finish(acc, hd, kernel);
  }
}

Status DecodeAttention::attend(const KvCache& cache, std::uint64_t seq_id,
                               float* q, float* out) const {
  if (cache.token_row() != config_.kv_dim()) {
    std::ostringstream os;
    os << "KV cache holds " << cache.token_row()
       << " floats per token but the attention geometry needs "
       << config_.kv_dim();
    return Status::InvalidArgument(os.str());
  }
  const auto view = cache.view(seq_id);
  if (!view.ok()) return view.status();
  if (view->len == 0) {
    std::ostringstream os;
    os << "sequence " << seq_id
       << " has an empty context; append its first token before attending";
    return Status::FailedPrecondition(os.str());
  }
  rope(q, config_.n_heads, view->len - 1);
  parallel_for(pool_.get(), 0, config_.n_heads,
               [&](std::int64_t h0, std::int64_t h1) {
                 attend_heads(*view, q, out, h0, h1);
               });
  return Status::Ok();
}

Status DecodeAttention::decode_step(KvCache& cache, std::uint64_t seq_id,
                                    float* q, float* k, const float* v,
                                    float* out) const {
  NMSPMM_RETURN_IF_ERROR(append(cache, seq_id, k, v));
  return attend(cache, seq_id, q, out);
}

}  // namespace nmspmm::attn
