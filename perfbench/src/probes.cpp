// Layer probes of the traced run. They call the layers' public
// functions directly on the workload's engine, so Engine::plan_for hits
// the plans the served DecoderPlan / ModelPlan already cached:
//
//  stage replay  one decoder step rebuilt from public calls — QKV
//                SpmmPlan::execute with the RMSNorm prologue,
//                DecodeAttention::append / attend on a bench-owned
//                KvCache, out_proj with its residual epilogue, then the
//                FFN gate, up and down plans — timed call by call and
//                reconciled against DecoderPlan::decode on the same batch
//                and context (contexts 64 and 512).
//  core          per-projection kernel rates at m=16 and m=256, computed
//                bytes per call, and 1-thread vs nproc-thread scaling.
//  util          an empty ThreadPool::run_chunks over nproc chunks.
//  model         DecoderPlan::decode by rows per call, its thread
//                scaling, and ModelPlan::run.
#include <algorithm>
#include <array>
#include <functional>

#include "bench.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace nmspmm;

namespace {

/// The replay may leave at most this share of the measured decode step
/// unaccounted (the reconciliation gate on stage times).
constexpr double kMaxUnaccounted = 0.10;
/// Paired replay/decode repetitions per context.
constexpr int kReplayReps = 41;

/// Options of the decoder's plans, as Engine::plan_decoder and
/// Engine::plan_model derive them from a layer without biases.
SpmmOptions stage_options(const std::string& proj, const Layer& layer) {
  SpmmOptions o;
  const auto& d = layer.decoder;
  if (proj == "qkv") {
    o.prologue.rmsnorm = true;
    o.prologue.eps = d.norm_eps;
  } else if (proj == "out_proj" || proj == "down") {
    o.epilogue.add = true;
  } else if (proj == "gate") {
    o.prologue.rmsnorm = true;
    o.prologue.eps = d.ffn.norm_eps;
  } else if (proj == "up") {
    o.prologue.rmsnorm = true;
    o.prologue.eps = d.ffn.norm_eps;
    o.epilogue.act = d.ffn.act;
    o.epilogue.mul = true;
    o.epilogue.act_on_other = true;
  }
  return o;
}

std::shared_ptr<const SpmmPlan> plan(Engine& engine, index_t m,
                                     const std::string& proj,
                                     const Layer& layer) {
  for (const auto& [name, w] : layer.projections()) {
    if (name == proj) {
      auto p = engine.plan_for(m, w, stage_options(proj, layer));
      NMSPMM_CHECK_OK(p.status());
      return *p;
    }
  }
  NMSPMM_CHECK_MSG(false, "unknown projection " << proj);
  return nullptr;
}

/// Median microseconds of @p reps calls of fn(), each recorded as a span.
template <typename Fn>
double time_us(Spans& spans, const char* name, int reps, Fn&& fn,
               std::uint32_t parent = 0) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    spans.add(name, t0, t1, parent);
    us.push_back(us_between(t0, t1));
  }
  return median(us);
}

attn::KvCacheOptions probe_kv(const Layer& layer) {
  attn::KvCacheOptions kv;
  kv.n_kv_heads = layer.geo.n_kv_heads;
  kv.head_dim = layer.geo.head_dim;
  // Room for max_context plus the measured steps beyond it.
  kv.max_tokens = layer.geo.decode_batch * (layer.geo.max_context + 64);
  return kv;
}

/// Stage replay of one decode step next to the fused DecoderPlan.
class StageReplay {
 public:
  StageReplay(Engine& engine, const Layer& layer, std::uint64_t seed)
      : layer_(layer),
        m_(layer.geo.decode_batch),
        attn_(layer.attn()),
        kv_(probe_kv(layer)) {
    const Geometry& g = layer.geo;
    auto dec = engine.plan_decoder(m_, layer.decoder, probe_kv(layer));
    NMSPMM_CHECK_OK(dec.status());
    decoder_ = *dec;
    for (const char* p : {"qkv", "out_proj", "gate", "up", "down"}) {
      plans_.push_back(plan(engine, m_, p, layer));
    }
    Rng rng(seed ^ 0x57a6eULL);
    x_ = random_matrix(m_, g.hidden, rng, -0.5f, 0.5f);
    out_ = MatrixF(m_, g.hidden);
    qkv_ = MatrixF(m_, layer.attn().qkv_dim());
    attn_o_ = MatrixF(m_, layer.attn().q_dim());
    x1_ = MatrixF(m_, g.hidden);
    gate_ = MatrixF(m_, g.ffn);
    h_ = MatrixF(m_, g.ffn);
    y_ = MatrixF(m_, g.hidden);
    ids_.resize(static_cast<std::size_t>(m_));
    status_.resize(static_cast<std::size_t>(m_));
    for (index_t i = 0; i < m_; ++i) {
      ids_[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(i + 1);
      NMSPMM_CHECK_OK(decoder_->begin_sequence(static_cast<std::uint64_t>(i + 1)));
      NMSPMM_CHECK_OK(kv_.begin_sequence(static_cast<std::uint64_t>(i + 1)));
    }
  }

  /// Grows every sequence to @p context tokens in both caches. The
  /// replay appends the K/V its own QKV projection produces from the
  /// same input rows, so both caches hold the same keys and values.
  void advance_to(index_t context) {
    const auto& d = layer_.decoder;
    const index_t q_dim = d.attn.q_dim();
    const index_t kv_dim = d.attn.kv_dim();
    EpilogueArgs qkv_args;
    qkv_args.rms_gain = d.attn_norm.data();
    for (; context_ < context; ++context_) {
      decode(m_);
      NMSPMM_CHECK_OK(plans_[0]->execute(x_.cview(), qkv_.view(), qkv_args));
      for (index_t i = 0; i < m_; ++i) {
        float* row = qkv_.row(i);
        NMSPMM_CHECK_OK(attn_.append(kv_, ids_[static_cast<std::size_t>(i)],
                                     row + q_dim, row + q_dim + kv_dim));
      }
    }
  }

  /// Fused decode over the first @p m sequences (appends one token each).
  void decode(index_t m) {
    NMSPMM_CHECK_OK(decoder_->decode(x_.cview().block(0, 0, m, x_.cols()),
                                     ids_.data(),
                                     out_.view().block(0, 0, m, out_.cols()),
                                     status_.data()));
    for (index_t i = 0; i < m; ++i) {
      NMSPMM_CHECK_OK(status_[static_cast<std::size_t>(i)]);
    }
  }

  /// Stage times of one replayed step (us): qkv, kv_append, attn,
  /// out_proj, ffn_gate, ffn_up, ffn_down.
  std::array<double, 7> replay(Spans& spans, std::uint32_t parent) {
    const auto& d = layer_.decoder;
    const index_t q_dim = d.attn.q_dim();
    const index_t kv_dim = d.attn.kv_dim();
    std::array<double, 7> t{};
    const auto stage = [&](int i, const char* name, auto&& fn) {
      const auto t0 = Clock::now();
      fn();
      const auto t1 = Clock::now();
      spans.add(name, t0, t1, parent);
      t[static_cast<std::size_t>(i)] = us_between(t0, t1);
    };
    EpilogueArgs qkv_args;
    qkv_args.rms_gain = d.attn_norm.data();
    stage(0, "core.execute.qkv",
          [&] { NMSPMM_CHECK_OK(plans_[0]->execute(x_.cview(), qkv_.view(), qkv_args)); });
    stage(1, "attn.append", [&] {
      for (index_t i = 0; i < m_; ++i) {
        float* row = qkv_.row(i);
        NMSPMM_CHECK_OK(attn_.append(kv_, ids_[static_cast<std::size_t>(i)],
                                     row + q_dim, row + q_dim + kv_dim));
      }
    });
    stage(2, "attn.attend", [&] {
      for (index_t i = 0; i < m_; ++i) {
        NMSPMM_CHECK_OK(attn_.attend(kv_, ids_[static_cast<std::size_t>(i)],
                                     qkv_.row(i), attn_o_.row(i)));
      }
    });
    EpilogueArgs proj_args;
    proj_args.residual = x_.cview();
    stage(3, "core.execute.out_proj", [&] {
      NMSPMM_CHECK_OK(plans_[1]->execute(attn_o_.cview(), x1_.view(), proj_args));
    });
    EpilogueArgs gate_args;
    gate_args.rms_gain = d.ffn.input_norm.data();
    stage(4, "core.execute.gate", [&] {
      NMSPMM_CHECK_OK(plans_[2]->execute(x1_.cview(), gate_.view(), gate_args));
    });
    EpilogueArgs up_args;
    up_args.rms_gain = d.ffn.input_norm.data();
    up_args.other = gate_.cview();
    stage(5, "core.execute.up", [&] {
      NMSPMM_CHECK_OK(plans_[3]->execute(x1_.cview(), h_.view(), up_args));
    });
    EpilogueArgs down_args;
    down_args.residual = x1_.cview();
    stage(6, "core.execute.down", [&] {
      NMSPMM_CHECK_OK(plans_[4]->execute(h_.cview(), y_.view(), down_args));
    });
    ++context_;  // the caller pairs each replay with one fused decode
    return t;
  }

  [[nodiscard]] index_t batch() const { return m_; }

 private:
  const Layer& layer_;
  index_t m_;
  std::shared_ptr<model::DecoderPlan> decoder_;
  std::vector<std::shared_ptr<const SpmmPlan>> plans_;
  attn::DecodeAttention attn_;
  attn::KvCache kv_;
  MatrixF x_, out_, qkv_, attn_o_, x1_, gate_, h_, y_;
  std::vector<std::uint64_t> ids_;
  std::vector<Status> status_;
  index_t context_ = 0;
};

/// Replays the step at @p context and reports stage.* and the matching
/// attn.* metrics; returns the unaccounted share.
double reconcile(StageReplay& replay, index_t context, Spans& spans,
                 Report& report) {
  static const char* const kStages[] = {"qkv",      "kv_append", "attn",
                                        "out_proj", "ffn_gate",  "ffn_up",
                                        "ffn_down"};
  replay.advance_to(context);
  const std::string ctx = ".ctx" + std::to_string(context);
  const std::uint32_t parent = spans.open("probe.stage_replay");
  std::vector<std::vector<double>> stage(7);
  std::vector<double> fused, gaps;
  for (int r = 0; r < kReplayReps; ++r) {
    // Alternate which side runs first so neither always finds the
    // other's cache footprint; each rep pairs one fused decode with one
    // replay, so the gap is taken per pair and drifts of the host cancel.
    const auto fused_step = [&] {
      fused.push_back(time_us(spans, "model.decode", 1,
                              [&] { replay.decode(replay.batch()); }, parent));
    };
    if (r % 2 == 1) fused_step();
    const auto t = replay.replay(spans, parent);
    if (r % 2 == 0) fused_step();
    double sum = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      stage[i].push_back(t[i]);
      sum += t[i];
    }
    gaps.push_back((fused.back() - sum) / fused.back());
  }
  spans.close(parent);
  for (std::size_t i = 0; i < stage.size(); ++i) {
    report.set(std::string("stage.") + kStages[i] + "_us" + ctx,
               median(stage[i]), "us");
  }
  const double unaccounted = median(gaps);
  report.set("stage.decode_us" + ctx, median(fused), "us");
  report.set("stage.unaccounted_share" + ctx, unaccounted, "share");
  const double m = static_cast<double>(replay.batch());
  if (context == 64) report.set("attn.append_us", median(stage[1]) / m, "us");
  report.set("attn.attend_us" + ctx, median(stage[2]) / m, "us");
  return unaccounted;
}

}  // namespace

void run_probes(Rig& rig, std::uint64_t seed, Spans& spans, Report& report) {
  Engine& engine = rig.server->engine();
  const Layer& layer = rig.layer;
  const Geometry& g = layer.geo;
  Rng rng(seed ^ 0x960be5ULL);

  // util: the fork/join cost every pooled SpMM pays.
  {
    const auto chunks = static_cast<std::int64_t>(engine.num_threads());
    const std::function<void(std::int64_t)> empty = [](std::int64_t) {};
    ThreadPool* pool = engine.pool();
    const double us = pool == nullptr
                          ? 0.0
                          : time_us(spans, "util.run_chunks", 2000,
                                    [&] { pool->run_chunks(chunks, empty); });
    report.set("util.pool_dispatch_us", us, "us");
  }

  // Stage replay of a decode step at a shallow and a deep context.
  {
    StageReplay replay(engine, layer, seed);
    for (const index_t context : {index_t{64}, g.max_context}) {
      const double gap = reconcile(replay, context, spans, report);
      if (std::abs(gap) > kMaxUnaccounted) {
        report.fail("stage replay at context " + std::to_string(context) +
                    " leaves " + std::to_string(gap) +
                    " of DecoderPlan::decode unaccounted (limit 0.10)");
      }
    }
  }

  // Decode and prefill scaling: a one-thread engine against the
  // workload's nproc-thread engine on the same weights.
  {
    EngineOptions eo;
    eo.num_threads = 1;
    Engine serial(eo);
    StageReplay one(serial, layer, seed);
    StageReplay many(engine, layer, seed);
    std::vector<double> t1, tn;
    for (int r = 0; r < 6; ++r) {
      t1.push_back(time_us(spans, "model.decode", 1, [&] { one.decode(one.batch()); }));
      tn.push_back(time_us(spans, "model.decode", 1, [&] { many.decode(many.batch()); }));
    }
    report.set("model.decode_scaling_4t_over_1t", median(t1) / median(tn), "x");
    // The fused decode by rows per call (contexts below 40).
    for (const index_t m : {index_t{1}, index_t{4}, index_t{16}}) {
      report.set("model.decode_call_us.m" + std::to_string(m),
                 time_us(spans, "model.decode", 9, [&] { many.decode(m); }),
                 "us");
    }

    const auto gate1 = plan(serial, g.prefill_rows, "gate", layer);
    const auto gaten = plan(engine, g.prefill_rows, "gate", layer);
    MatrixF a = random_matrix(g.prefill_rows, g.hidden, rng, -0.5f, 0.5f);
    MatrixF c(g.prefill_rows, g.ffn);
    EpilogueArgs args;
    args.rms_gain = layer.decoder.ffn.input_norm.data();
    std::vector<double> p1, pn;
    for (int r = 0; r < 3; ++r) {
      p1.push_back(time_us(spans, "core.execute.gate", 1, [&] {
        NMSPMM_CHECK_OK(gate1->execute(a.cview(), c.view(), args));
      }));
      pn.push_back(time_us(spans, "core.execute.gate", 1, [&] {
        NMSPMM_CHECK_OK(gaten->execute(a.cview(), c.view(), args));
      }));
    }
    report.set("core.prefill_scaling_4t_over_1t", median(p1) / median(pn), "x");
  }

  // model: the FFN tail alone at the decode and the prefill bucket.
  for (const index_t m : {index_t{16}, g.prefill_rows}) {
    auto ffn = engine.plan_model(m, {layer.decoder.ffn});
    NMSPMM_CHECK_OK(ffn.status());
    MatrixF a = random_matrix(m, g.hidden, rng, -0.5f, 0.5f);
    MatrixF out(m, g.hidden);
    report.set("model.ffn_run_us.m" + std::to_string(m),
               time_us(spans, "model.ffn_run", m == 16 ? 15 : 5,
                       [&] { NMSPMM_CHECK_OK((*ffn)->run(a.cview(), out.view())); }),
               "us");
  }

  // core: kernel rate per projection, and the computed traffic of one
  // call of every projection (weights + A + C; not measured).
  for (const index_t m : {index_t{16}, g.prefill_rows}) {
    const std::string tag = ".m" + std::to_string(m);
    double bytes = 0, flops = 0;
    for (const auto& [name, w] : layer.projections()) {
      const auto p = plan(engine, m, name, layer);
      const index_t k = w->orig_rows;
      MatrixF a = random_matrix(m, k, rng, -0.5f, 0.5f);
      MatrixF c(m, w->cols);
      MatrixF other = random_matrix(m, w->cols, rng, -0.5f, 0.5f);
      std::vector<float> gain(static_cast<std::size_t>(k), 1.0f);
      EpilogueArgs args;
      const SpmmOptions o = stage_options(name, layer);
      if (o.prologue.rmsnorm) args.rms_gain = gain.data();
      if (o.epilogue.mul) args.other = other.cview();
      if (o.epilogue.add) args.residual = other.cview();
      const double us =
          time_us(spans, "core.execute", m == 16 ? 30 : 5,
                  [&] { NMSPMM_CHECK_OK(p->execute(a.cview(), c.view(), args)); });
      const double f = spmm_flops(m, w->cols, w->rows());
      report.set("core." + name + tag + ".gflops", f / (us * 1e3), "GFLOP/s");
      flops += f;
      bytes += static_cast<double>(w->footprint_bytes()) +
               static_cast<double>(m) * static_cast<double>(k + w->cols) *
                   sizeof(float);
    }
    report.set("core.bytes_per_call" + tag, bytes, "B");
    report.set("core.flops_per_byte" + tag, flops / bytes, "flop/B");
  }
}

}  // namespace perfbench
