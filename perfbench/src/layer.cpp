#include <algorithm>

#include "bench.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace nmspmm;

namespace {

/// Random N:M weights drawn straight in compressed form (w x n values,
/// random keep pattern): kernel time does not depend on the values, and
/// skipping the dense k x n draw keeps set-up to the work the engine does.
std::shared_ptr<const CompressedNM> sparse_weights(index_t k, index_t n,
                                                   const NMConfig& config,
                                                   Rng& rng) {
  NMMask mask = random_mask(k, n, config, rng);
  CompressedNM c;
  c.config = config;
  c.orig_rows = k;
  c.cols = n;
  c.values = random_matrix(mask.compressed_rows(), n, rng, -0.05f, 0.05f);
  c.indices = std::move(mask.keep);
  return std::make_shared<const CompressedNM>(std::move(c));
}

std::vector<float> gain(index_t n, Rng& rng) {
  MatrixF g = random_matrix(1, n, rng, 0.9f, 1.1f);
  return std::vector<float>(g.row(0), g.row(0) + n);
}

}  // namespace

Layer make_layer(const Geometry& geo, std::uint64_t seed) {
  Rng rng(seed);
  Layer layer;
  layer.geo = geo;
  model::DecoderLayer& d = layer.decoder;
  d.attn.n_heads = geo.n_heads;
  d.attn.n_kv_heads = geo.n_kv_heads;
  d.attn.head_dim = geo.head_dim;
  d.attn.rope_theta = 10000.0f;
  d.qkv = sparse_weights(geo.hidden, d.attn.qkv_dim(), geo.config, rng);
  d.out_proj = sparse_weights(d.attn.q_dim(), geo.hidden, geo.config, rng);
  d.attn_norm = gain(geo.hidden, rng);
  d.ffn.gate = sparse_weights(geo.hidden, geo.ffn, geo.config, rng);
  d.ffn.up = sparse_weights(geo.hidden, geo.ffn, geo.config, rng);
  d.ffn.down = sparse_weights(geo.ffn, geo.hidden, geo.config, rng);
  d.ffn.act = Activation::kSilu;
  d.ffn.input_norm = gain(geo.hidden, rng);
  d.ffn.residual = true;
  NMSPMM_CHECK_OK(d.validate());
  return layer;
}

std::vector<std::pair<std::string, std::shared_ptr<const CompressedNM>>>
Layer::projections() const {
  return {{"qkv", decoder.qkv},
          {"out_proj", decoder.out_proj},
          {"gate", decoder.ffn.gate},
          {"up", decoder.ffn.up},
          {"down", decoder.ffn.down}};
}

namespace {

attn::KvCacheOptions reference_kv(const Layer& layer, index_t max_tokens) {
  attn::KvCacheOptions kv;
  kv.n_kv_heads = layer.geo.n_kv_heads;
  kv.head_dim = layer.geo.head_dim;
  kv.max_tokens = max_tokens;
  return kv;
}

}  // namespace

DecodeReference::DecodeReference(const Layer& layer, Engine& engine,
                                 index_t max_tokens)
    : layer_(layer),
      engine_(engine),
      attn_(layer.attn()),
      kv_(reference_kv(layer, max_tokens)),
      x_(1, layer.geo.hidden),
      normed_(1, layer.geo.hidden),
      qkv_(1, layer.attn().qkv_dim()),
      attn_o_(1, layer.attn().q_dim()),
      x1_(1, layer.geo.hidden) {}

Status DecodeReference::begin(std::uint64_t seq) {
  return kv_.begin_sequence(seq);
}

Status DecodeReference::step(std::uint64_t seq, const float* x, float* out) {
  const model::DecoderLayer& d = layer_.decoder;
  const index_t hidden = layer_.geo.hidden;
  const index_t q_dim = d.attn.q_dim();
  const index_t kv_dim = d.attn.kv_dim();
  std::copy_n(x, hidden, x_.row(0));
  rmsnorm_rows(x_.cview(), d.attn_norm.data(), d.norm_eps, normed_.view());
  NMSPMM_RETURN_IF_ERROR(engine_.spmm(normed_.cview(), d.qkv, qkv_.view()));
  float* row = qkv_.row(0);
  NMSPMM_RETURN_IF_ERROR(attn_.decode_step(kv_, seq, row, row + q_dim,
                                           row + q_dim + kv_dim,
                                           attn_o_.row(0)));
  NMSPMM_RETURN_IF_ERROR(
      engine_.spmm(attn_o_.cview(), d.out_proj, x1_.view()));
  for (index_t j = 0; j < hidden; ++j) x1_.row(0)[j] += x_.row(0)[j];
  return ffn_reference(engine_, layer_, x1_.cview(), ViewF(out, 1, hidden, hidden));
}

Status ffn_reference(Engine& engine, const Layer& layer, ConstViewF x,
                     ViewF out) {
  const model::FfnBlock& f = layer.decoder.ffn;
  const index_t m = x.rows();
  MatrixF normed(m, layer.geo.hidden), gate(m, layer.geo.ffn),
      up(m, layer.geo.ffn), down(m, layer.geo.hidden);
  rmsnorm_rows(x, f.input_norm.data(), f.norm_eps, normed.view());
  NMSPMM_RETURN_IF_ERROR(engine.spmm(normed.cview(), f.gate, gate.view()));
  NMSPMM_RETURN_IF_ERROR(engine.spmm(normed.cview(), f.up, up.view()));
  for (index_t i = 0; i < m; ++i) {
    float* g = gate.row(i);
    const float* u = up.row(i);
    for (index_t j = 0; j < layer.geo.ffn; ++j) {
      g[j] = apply_activation(f.act, g[j]) * u[j];
    }
  }
  NMSPMM_RETURN_IF_ERROR(engine.spmm(gate.cview(), f.down, down.view()));
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < layer.geo.hidden; ++j) {
      out.row(i)[j] = down.row(i)[j] + x.row(i)[j];
    }
  }
  return Status::Ok();
}

}  // namespace perfbench
