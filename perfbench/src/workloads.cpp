// The three serving workloads. Each is driven by one generator thread
// (this one) against one Server whose engine runs nproc threads:
//
//  decode_closed  16 live sequences; every step submits one decode per
//                 sequence, waits for all 16 and feeds the outputs back.
//                 Contexts are staggered (sequence i starts 32*i tokens
//                 in) and every sequence restarts at 512, so the context
//                 mix is the same at any moment of the run.
//  prefill_closed back-to-back 256-row prompts: QKV and out_proj through
//                 submit() (the plain-SpMM / ExecutePolicy path), then
//                 the FFN through submit_ffn().
//  mixed_open     Poisson arrivals at a fixed rate, 1 in 10 a 128-256-row
//                 submit_ffn prefill, the rest decode steps of sequences
//                 with random lengths that are freed and replaced as they
//                 finish. Latency is timed from when a request was due.
//
// Outputs are checked bit-exactly (tolerance 0): the serving stack is
// deterministic across batch composition and thread count, which
// tests/test_server.cpp, tests/test_model.cpp and tests/test_decoder.cpp
// assert with max_abs_diff == 0 against the same kinds of reference.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>

#include "bench.hpp"
#include "workloads/generators.hpp"

namespace perfbench {

using namespace nmspmm;

namespace {

// Latency limits behind goodput_share.
constexpr double kDecodeGapLimitUs = 100'000;    // decode_closed token gap
constexpr double kPromptLimitUs = 1'000'000;     // prefill_closed prompt
constexpr double kOpenDecodeLimitUs = 100'000;   // mixed_open decode step
constexpr double kOpenPrefillLimitUs = 500'000;  // mixed_open prefill
// mixed_open offered load (arrivals per second, all classes).
constexpr double kOpenRate = 25.0;
constexpr int kOpenPrefillEvery = 10;
constexpr index_t kOpenPrefillMin = 128;
// Sequences whose history is replayed through the reference, and the
// server-path steps checked on each beyond the warm-up.
constexpr int kCheckedSequences = 2;
constexpr index_t kCheckedServerSteps = 32;

bool same(ConstViewF a, ConstViewF b) { return max_abs_diff(a, b) == 0.0; }

MatrixF random_rows(index_t rows, index_t cols, Rng& rng) {
  return random_matrix(rows, cols, rng, -0.5f, 0.5f);
}

/// Counter and latency deltas of the server over one measured phase.
struct ServeWindow {
  Server::Stats before;
  void start(const Server& s) { before = s.stats(); }
  void finish(const Server& s, serve::RequestClass cls, Report& report) const {
    const Server::Stats after = s.stats();
    const auto d = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b);
    };
    const auto& a = after.totals;
    const auto& b = before.totals;
    const double batches = d(a.batches, b.batches);
    const double bypassed = d(a.bypassed, b.bypassed);
    const double requests = d(a.requests, b.requests);
    const double executions = batches + bypassed;
    const auto share = [](double x, double of) { return of > 0 ? x / of : 0.0; };
    report.set("serve.rows_per_batch", share(d(a.rows, b.rows), executions),
               "rows");
    report.set("serve.bypass_share", share(bypassed, requests), "share");
    report.set("serve.flush_full_share",
               share(d(a.full_flushes, b.full_flushes), batches), "share");
    report.set("serve.flush_timeout_share",
               share(d(a.timeout_flushes, b.timeout_flushes), batches), "share");
    report.set("serve.flush_slo_share",
               share(d(a.slo_flushes, b.slo_flushes), batches), "share");
    report.set("serve.split_share",
               share(d(a.split_batches, b.split_batches), batches), "share");
    report.set("serve.ring_stalls", d(after.ring_stalls, before.ring_stalls),
               "count");
    serve::TelemetrySnapshot lat = after.latency;
    lat.subtract(before.latency);
    const auto pct = [&](serve::Stage st, double q) {
      return static_cast<double>(lat.stage(cls, st).percentile(q));
    };
    report.set("serve.queue_wait_p50_us", pct(serve::Stage::kQueue, 0.5), "us");
    report.set("serve.queue_wait_p99_us", pct(serve::Stage::kQueue, 0.99), "us");
    report.set("serve.gather_p50_us", pct(serve::Stage::kGather, 0.5), "us");
    report.set("serve.execute_p50_us", pct(serve::Stage::kExecute, 0.5), "us");
  }
};

/// What one measured phase produced.
struct Phase {
  double seconds = 0;         // wall time of the phase
  double rows = 0;            // decode tokens or prompt rows completed
  std::vector<double> latency_us;  // the workload's latency samples
  std::uint64_t sent = 0, ok = 0, failed = 0, refused = 0, good = 0;
  std::vector<double> lag_us;  // open loop: submit time - due time
  // Closed loops: rows and wall time of each step (one round of decodes,
  // or one prompt).
  std::vector<double> step_rows, step_us;

  [[nodiscard]] double mean_rate() const {
    return seconds > 0 ? rows / seconds : 0.0;
  }
  /// Accounting only: consecutive steps grouped into ~0.25 s of work and
  /// the median group rate. Short stalls from other tenants of a shared
  /// host drop out of it, so a gap between it and the gated mean rate
  /// points at the host; a stall the program causes every Nth step drops
  /// out too, which is why it is not the gated figure.
  [[nodiscard]] double group_median_rate() const {
    if (step_us.empty()) return mean_rate();
    const double step = median(step_us);
    const auto group = static_cast<std::size_t>(
        std::max(1.0, std::round(0.25e6 / std::max(step, 1.0))));
    std::vector<double> rates;
    for (std::size_t i = 0; i + group <= step_us.size(); i += group) {
      double r = 0, us = 0;
      for (std::size_t j = i; j < i + group; ++j) {
        r += step_rows[j];
        us += step_us[j];
      }
      rates.push_back(r / us * 1e6);
    }
    return rates.empty() ? mean_rate() : median(rates);
  }
};

/// The gated end-to-end metrics are rows per second and the share of
/// requests that succeeded within the workload's latency limit. The
/// latency percentiles are printed and stored as accounting, not gated:
/// on a shared 4-vCPU VM the open loop's decode p50 and every workload's
/// tail move by a third or more between repeats of one seed, more than
/// the largest bound a regression gate may use. (In the closed loops the
/// median latency is rows in flight over throughput, so tokens_per_s
/// carries it.) @p tail names the highest percentile with at least ten
/// samples beyond it at the workload's sample count.
void report_end_to_end(const Phase& p, const std::string& cls,
                       const char* tail, double tail_q, double limit_us,
                       Report& report) {
  report.set("tokens_per_s", p.mean_rate(), "tok/s");
  report.set("goodput_share",
             p.sent > 0 ? static_cast<double>(p.good) / p.sent : 0.0, "share");
  report.note("tokens_per_s_group_median", p.group_median_rate());
  report.note(cls + "_latency_p50_us", percentile(p.latency_us, 0.5));
  report.note(cls + "_latency_" + tail + "_us", percentile(p.latency_us, tail_q));
  report.note(cls + "_latency_samples", static_cast<double>(p.latency_us.size()));
  report.note(cls + "_latency_limit_us", limit_us);
}

void account(const Phase& p, Report& report) {
  report.attempted += p.sent;
  report.failed += p.failed + p.refused;
  report.note("requests_sent", static_cast<double>(p.sent));
  report.note("requests_succeeded", static_cast<double>(p.ok));
  report.note("requests_failed", static_cast<double>(p.failed));
  report.note("requests_refused", static_cast<double>(p.refused));
}

// ------------------------------------------------------------ decode slots

/// Live decode sequences shared by decode_closed and mixed_open: each
/// slot holds one sequence, its next input row (the previous output, fed
/// back) and its output row. Sampled slots record their first life so
/// the reference can replay it.
class DecodeSlots {
 public:
  struct History {
    std::uint64_t seq = 0;
    std::vector<float> x0;
    std::vector<std::vector<float>> outputs;
    index_t cap = 0;
    index_t server_steps = 0;
  };
  struct Slot {
    std::uint64_t seq = 0;
    index_t len = 0;   // tokens decoded in this life
    index_t life = 0;  // tokens this life lasts
    MatrixF in, out;
    bool busy = false;
    std::future<Status> fut;
    Clock::time_point due;
    History* history = nullptr;
  };

  DecodeSlots(Rig& rig, std::uint64_t seed, bool random_lives)
      : rig_(rig), rng_(seed ^ 0x5eedULL), random_lives_(random_lives) {
    const Geometry& g = rig.layer.geo;
    slots_.resize(static_cast<std::size_t>(g.decode_batch));
    Rng pick(seed ^ 0xc4ecULL);
    while (static_cast<int>(sampled_.size()) < kCheckedSequences) {
      const auto i = static_cast<std::size_t>(
          pick.next_u64() % static_cast<std::uint64_t>(slots_.size()));
      if (std::find(sampled_.begin(), sampled_.end(), i) == sampled_.end()) {
        sampled_.push_back(i);
      }
    }
    histories_.resize(sampled_.size());
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      slot.in = MatrixF(1, g.hidden);
      slot.out = MatrixF(1, g.hidden);
      begin(slot);
    }
  }

  std::vector<Slot>& slots() { return slots_; }

  /// Untimed warm-up: advance each slot to its start position (staggered
  /// for the closed loop, uniform within its life for the open loop)
  /// with batched direct DecoderPlan::decode calls, so the measured
  /// window starts from a steady context mix.
  void warm_up() {
    const Geometry& g = rig_.layer.geo;
    std::vector<index_t> target(slots_.size());
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      target[s] = random_lives_
                      ? static_cast<index_t>(rng_.next_u64() %
                                             static_cast<std::uint64_t>(
                                                 slots_[s].life))
                      : static_cast<index_t>(s) * g.max_context /
                            static_cast<index_t>(slots_.size());
    }
    MatrixF a(g.decode_batch, g.hidden), out(g.decode_batch, g.hidden);
    std::vector<std::uint64_t> ids(slots_.size());
    std::vector<Status> status(slots_.size());
    std::vector<std::size_t> rows;
    for (;;) {
      rows.clear();
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (slots_[s].len < target[s]) rows.push_back(s);
      }
      if (rows.empty()) break;
      const auto m = static_cast<index_t>(rows.size());
      for (index_t r = 0; r < m; ++r) {
        const Slot& slot = slots_[rows[static_cast<std::size_t>(r)]];
        std::copy_n(slot.in.row(0), g.hidden, a.row(r));
        ids[static_cast<std::size_t>(r)] = slot.seq;
      }
      NMSPMM_CHECK_OK(rig_.decoder->decode(a.cview().block(0, 0, m, g.hidden),
                                           ids.data(),
                                           out.view().block(0, 0, m, g.hidden),
                                           status.data()));
      for (index_t r = 0; r < m; ++r) {
        NMSPMM_CHECK_OK(status[static_cast<std::size_t>(r)]);
        Slot& slot = slots_[rows[static_cast<std::size_t>(r)]];
        std::copy_n(out.row(r), g.hidden, slot.out.row(0));
        finish_token(slot, /*server=*/false);
      }
    }
    for (std::size_t s = 0; s < sampled_.size(); ++s) {
      histories_[s].cap = slots_[sampled_[s]].len + kCheckedServerSteps;
    }
  }

  /// A token of @p slot resolved OK: record it, feed the output back,
  /// and start a fresh sequence when the life is over.
  void finish_token(Slot& slot, bool server) {
    if (History* h = slot.history; h != nullptr) {
      if (h->cap == 0 || static_cast<index_t>(h->outputs.size()) < h->cap) {
        h->outputs.emplace_back(slot.out.row(0),
                                slot.out.row(0) + slot.out.cols());
        if (server) ++h->server_steps;
      }
    }
    std::swap(slot.in, slot.out);
    if (++slot.len == slot.life) {
      NMSPMM_CHECK_OK(rig_.decoder->free_sequence(slot.seq));
      slot.history = nullptr;  // only the first life is replayed
      begin(slot);
    }
  }

  /// KV pages the live sequences occupy.
  [[nodiscard]] index_t pages_in_use() const {
    const index_t page = kv_page_tokens();
    index_t pages = 0;
    for (const Slot& s : slots_) pages += (s.len + page - 1) / page;
    return pages;
  }
  [[nodiscard]] index_t kv_page_tokens() const {
    return attn::KvCacheOptions{}.page_tokens;
  }

  /// Replays every sampled history through the unfused reference and
  /// compares each recorded output bit-exactly.
  void check(Report& report) {
    EngineOptions eo;
    eo.num_threads = nproc();
    Engine engine(eo);
    const Geometry& g = rig_.layer.geo;
    DecodeReference ref(rig_.layer, engine,
                        static_cast<index_t>(histories_.size()) * g.max_context);
    std::vector<float> y(static_cast<std::size_t>(g.hidden));
    std::uint64_t compared = 0, server_compared = 0;
    for (const History& h : histories_) {
      NMSPMM_CHECK_OK(ref.begin(h.seq));
      const float* x = h.x0.data();
      for (std::size_t t = 0; t < h.outputs.size(); ++t) {
        NMSPMM_CHECK_OK(ref.step(h.seq, x, y.data()));
        if (std::memcmp(y.data(), h.outputs[t].data(),
                        y.size() * sizeof(float)) != 0) {
          report.fail("decode output of sequence " + std::to_string(h.seq) +
                      " step " + std::to_string(t) +
                      " differs from the unfused reference");
          break;
        }
        ++compared;
        x = h.outputs[t].data();
      }
      server_compared += static_cast<std::uint64_t>(h.server_steps);
    }
    report.note("checked_decode_steps", static_cast<double>(compared));
    report.note("checked_server_decode_steps",
                static_cast<double>(server_compared));
    if (server_compared == 0) report.fail("no server-path decode step checked");
  }

  /// KV and lifecycle per-layer metrics.
  void report_kv(index_t peak_pages, std::uint64_t exhausted,
                 Report& report) const {
    const auto kv = rig_.decoder->stats().kv;
    report.set("attn.kv_reserved_mb", static_cast<double>(kv.resident_bytes) / 1e6,
               "MB");
    report.set("attn.kv_in_use_mb",
               static_cast<double>(peak_pages) *
                   static_cast<double>(kv.page_bytes) / 1e6,
               "MB");
    const double reused = static_cast<double>(kv.pages_recycled);
    const double fresh = static_cast<double>(kv.pages_allocated);
    report.set("attn.pages_recycled_share",
               reused + fresh > 0 ? reused / (reused + fresh) : 0.0, "share");
    report.set("attn.kv_exhausted", static_cast<double>(exhausted), "count");
  }

 private:
  void begin(Slot& slot) {
    const Geometry& g = rig_.layer.geo;
    slot.seq = next_seq_++;
    slot.len = 0;
    slot.life = random_lives_
                    ? 16 + static_cast<index_t>(
                               rng_.next_u64() %
                               static_cast<std::uint64_t>(g.max_context - 15))
                    : g.max_context;
    MatrixF x0 = random_rows(1, g.hidden, rng_);
    std::copy_n(x0.row(0), g.hidden, slot.in.row(0));
    NMSPMM_CHECK_OK(rig_.decoder->begin_sequence(slot.seq));
    // The first life of a sampled slot is recorded from its first token.
    const auto idx = static_cast<std::size_t>(&slot - slots_.data());
    for (std::size_t s = 0; s < sampled_.size(); ++s) {
      if (sampled_[s] == idx && histories_[s].seq == 0) {
        histories_[s].seq = slot.seq;
        histories_[s].x0.assign(x0.row(0), x0.row(0) + g.hidden);
        slot.history = &histories_[s];
      }
    }
  }

  Rig& rig_;
  Rng rng_;
  bool random_lives_;
  std::uint64_t next_seq_ = 1;
  std::vector<Slot> slots_;
  std::vector<std::size_t> sampled_;
  std::vector<History> histories_;
};

// ----------------------------------------------------------- decode_closed

class DecodeClosed {
 public:
  DecodeClosed(Rig& rig, std::uint64_t seed)
      : rig_(rig), slots_(rig, seed, /*random_lives=*/false) {}

  void warm_up() { slots_.warm_up(); }

  Phase measure(double seconds, Spans* spans) {
    Server& server = *rig_.server;
    auto& slots = slots_.slots();
    Phase p;
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::duration<double>(seconds);
    std::vector<Clock::time_point> prev(slots.size(), t0);
    while (Clock::now() < deadline) {
      const auto step_t0 = Clock::now();
      const double rows_before = p.rows;
      const std::uint32_t step = spans != nullptr ? spans->open("step") : 0;
      for (auto& slot : slots) {
        slot.fut = timed(spans, "serve.submit_decode", [&] {
          return server.submit_decode(slot.seq, slot.in.cview(), rig_.decoder,
                                      slot.out.view());
        }, step);
      }
      for (std::size_t s = 0; s < slots.size(); ++s) {
        auto& slot = slots[s];
        const Status st =
            timed(spans, "serve.wait", [&] { return slot.fut.get(); }, step);
        const auto now = Clock::now();
        const double gap = us_between(prev[s], now);
        prev[s] = now;
        ++p.sent;
        p.latency_us.push_back(gap);
        if (st.ok()) {
          ++p.ok;
          p.rows += 1;
          if (gap <= kDecodeGapLimitUs) ++p.good;
          slots_.finish_token(slot, /*server=*/true);
        } else {
          // The sequence keeps its input and retries on the next step.
          ++p.failed;
          if (st.code() == StatusCode::kResourceExhausted) ++exhausted_;
          std::fprintf(stderr, "decode failed: %s\n", st.message().c_str());
        }
      }
      p.step_rows.push_back(p.rows - rows_before);
      p.step_us.push_back(us_between(step_t0, Clock::now()));
      peak_pages_ = std::max(peak_pages_, slots_.pages_in_use());
      if (spans != nullptr) spans->close(step);
    }
    p.seconds = us_between(t0, Clock::now()) / 1e6;
    return p;
  }

  void check(Report& report) { slots_.check(report); }

  void end_to_end(const Phase& p, Report& report) {
    // The gap between a sequence's successive tokens; ~750 steps a run.
    report_end_to_end(p, "decode", "p98", 0.98, kDecodeGapLimitUs, report);
  }

  void per_layer(Report& report) { slots_.report_kv(peak_pages_, exhausted_, report); }

 private:
  Rig& rig_;
  DecodeSlots slots_;
  index_t peak_pages_ = 0;
  std::uint64_t exhausted_ = 0;
};

// ---------------------------------------------------------- prefill_closed

class PrefillClosed {
 public:
  static constexpr int kPrompts = 2;

  PrefillClosed(Rig& rig, std::uint64_t seed) : rig_(rig) {
    const Geometry& g = rig.layer.geo;
    const index_t q_dim = rig.layer.attn().q_dim();
    Rng rng(seed ^ 0x9e3779b9ULL);
    for (int i = 0; i < kPrompts; ++i) {
      Prompt& pr = prompts_[i];
      pr.x = random_rows(g.prefill_rows, g.hidden, rng);
      pr.qkv = MatrixF(g.prefill_rows, rig.layer.attn().qkv_dim());
      pr.o = MatrixF(g.prefill_rows, q_dim);
      pr.y = MatrixF(g.prefill_rows, g.hidden);
    }
  }

  /// Serial reference outputs (Engine::spmm on a one-thread engine, the
  /// FFN unfused), computed before the measured window.
  void warm_up() {
    EngineOptions eo;
    eo.num_threads = 1;
    Engine serial(eo);
    const auto& d = rig_.layer.decoder;
    for (Prompt& pr : prompts_) {
      pr.ref_qkv = MatrixF(pr.qkv.rows(), pr.qkv.cols());
      pr.ref_o = MatrixF(pr.o.rows(), pr.o.cols());
      pr.ref_y = MatrixF(pr.y.rows(), pr.y.cols());
      NMSPMM_CHECK_OK(serial.spmm(pr.x.cview(), d.qkv, pr.ref_qkv.view()));
      NMSPMM_CHECK_OK(serial.spmm(q_part(pr.ref_qkv), d.out_proj,
                                  pr.ref_o.view()));
      NMSPMM_CHECK_OK(
          ffn_reference(serial, rig_.layer, pr.ref_o.cview(), pr.ref_y.view()));
    }
    // One untimed prompt through the server faults in its staging.
    Phase discard;
    serve_prompt(prompts_[0], nullptr, discard);
  }

  Phase measure(double seconds, Spans* spans) {
    Phase p;
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::duration<double>(seconds);
    std::size_t next = 0;
    while (Clock::now() < deadline) {
      Prompt& pr = prompts_[next++ % kPrompts];
      serve_prompt(pr, spans, p);
      if (!same(pr.qkv.cview(), pr.ref_qkv.cview()) ||
          !same(pr.o.cview(), pr.ref_o.cview()) ||
          !same(pr.y.cview(), pr.ref_y.cview())) {
        ++mismatches_;
      } else {
        ++checked_;
      }
    }
    p.seconds = us_between(t0, Clock::now()) / 1e6;
    return p;
  }

  void check(Report& report) {
    report.note("checked_prompts", static_cast<double>(checked_));
    if (mismatches_ > 0) {
      report.fail(std::to_string(mismatches_) +
                  " prompts differ from the serial Engine::spmm reference");
      report.failed += mismatches_ - 1;
    }
  }

  void end_to_end(const Phase& p, Report& report) {
    // A few hundred prompts a run.
    report_end_to_end(p, "prefill", "p95", 0.95, kPromptLimitUs, report);
  }

  void per_layer(Report& report) {
    report.set("attn.kv_reserved_mb", 0.0, "MB");
    report.set("attn.kv_in_use_mb", 0.0, "MB");
    report.set("attn.pages_recycled_share", 0.0, "share");
    report.set("attn.kv_exhausted", 0.0, "count");
  }

 private:
  struct Prompt {
    MatrixF x, qkv, o, y;
    MatrixF ref_qkv, ref_o, ref_y;
  };

  ConstViewF q_part(const MatrixF& qkv) const {
    return qkv.cview().block(0, 0, qkv.rows(), rig_.layer.attn().q_dim());
  }

  void serve_prompt(Prompt& pr, Spans* spans, Phase& p) {
    Server& server = *rig_.server;
    const auto& d = rig_.layer.decoder;
    const auto t0 = Clock::now();
    const std::uint32_t id = spans != nullptr ? spans->open("prompt") : 0;
    Status st = timed(spans, "serve.submit", [&] {
      return server.submit(pr.x.cview(), d.qkv, pr.qkv.view()).get();
    }, id);
    if (st.ok()) {
      st = timed(spans, "serve.submit", [&] {
        return server.submit(q_part(pr.qkv), d.out_proj, pr.o.view()).get();
      }, id);
    }
    if (st.ok()) {
      st = timed(spans, "serve.submit_ffn", [&] {
        return server.submit_ffn(pr.o.cview(), rig_.ffn, pr.y.view()).get();
      }, id);
    }
    if (spans != nullptr) spans->close(id);
    const double us = us_between(t0, Clock::now());
    ++p.sent;
    p.latency_us.push_back(us);
    if (st.ok()) {
      ++p.ok;
      p.rows += static_cast<double>(pr.x.rows());
      p.step_rows.push_back(static_cast<double>(pr.x.rows()));
      p.step_us.push_back(us);
      if (us <= kPromptLimitUs) ++p.good;
    } else {
      ++p.failed;
      std::fprintf(stderr, "prompt failed: %s\n", st.message().c_str());
    }
  }

  Rig& rig_;
  Prompt prompts_[kPrompts];
  std::uint64_t checked_ = 0, mismatches_ = 0;
};

// -------------------------------------------------------------- mixed_open

class MixedOpen {
 public:
  static constexpr int kPrefillSlots = 4;

  MixedOpen(Rig& rig, std::uint64_t seed)
      : rig_(rig),
        slots_(rig, seed, /*random_lives=*/true),
        rng_(seed ^ 0x0be1ULL) {
    const Geometry& g = rig.layer.geo;
    for (auto& pf : prefill_) {
      pf.x = random_rows(g.prefill_rows, g.hidden, rng_);
      pf.y = MatrixF(g.prefill_rows, g.hidden);
    }
  }

  void warm_up() {
    slots_.warm_up();
    EngineOptions eo;
    eo.num_threads = 1;
    Engine serial(eo);
    for (auto& pf : prefill_) {
      pf.ref = MatrixF(pf.y.rows(), pf.y.cols());
      NMSPMM_CHECK_OK(ffn_reference(serial, rig_.layer, pf.x.cview(), pf.ref.view()));
    }
  }

  Phase measure(double seconds, Spans* spans) {
    Phase p;
    Server& server = *rig_.server;
    auto& slots = slots_.slots();
    const Geometry& g = rig_.layer.geo;
    // The schedule: a Poisson process conditioned on its count (n sorted
    // uniform arrival times), with exactly one prefill per
    // kOpenPrefillEvery arrivals in random positions.
    const auto n = static_cast<std::size_t>(std::llround(kOpenRate * seconds));
    std::vector<double> due_s(n);
    for (double& t : due_s) t = rng_.next_double() * seconds;
    std::sort(due_s.begin(), due_s.end());
    std::vector<index_t> prefill_rows(n, 0);
    for (std::size_t i = 0; i < n / kOpenPrefillEvery; ++i) {
      prefill_rows[i] = kOpenPrefillMin +
                        static_cast<index_t>(rng_.next_u64() %
                                             static_cast<std::uint64_t>(
                                                 g.prefill_rows -
                                                 kOpenPrefillMin + 1));
    }
    for (std::size_t i = n; i > 1; --i) {  // Fisher-Yates
      std::swap(prefill_rows[i - 1],
                prefill_rows[rng_.next_u64() % static_cast<std::uint64_t>(i)]);
    }

    std::vector<double> prefill_lat;
    std::size_t next_slot = 0;
    std::size_t inflight = 0;
    const auto t0 = Clock::now();
    auto last = t0;
    const auto complete = [&](bool ok, double us, double limit, double rows) {
      if (ok) {
        ++p.ok;
        p.rows += rows;
        if (us <= limit) ++p.good;
      } else {
        ++p.failed;
      }
    };
    const auto poll = [&] {
      const auto now = Clock::now();
      for (auto& slot : slots) {
        if (!slot.busy || slot.fut.wait_for(std::chrono::seconds(0)) !=
                              std::future_status::ready) {
          continue;
        }
        const Status st = slot.fut.get();
        slot.busy = false;
        --inflight;
        last = now;
        const double us = us_between(slot.due, now);
        p.latency_us.push_back(us);
        complete(st.ok(), us, kOpenDecodeLimitUs, 1);
        if (st.ok()) {
          slots_.finish_token(slot, /*server=*/true);
        } else {
          if (st.code() == StatusCode::kResourceExhausted) ++exhausted_;
          std::fprintf(stderr, "decode failed: %s\n", st.message().c_str());
        }
      }
      for (auto& pf : prefill_) {
        if (!pf.busy || pf.fut.wait_for(std::chrono::seconds(0)) !=
                            std::future_status::ready) {
          continue;
        }
        const Status st = pf.fut.get();
        pf.busy = false;
        --inflight;
        last = now;
        const double us = us_between(pf.due, now);
        prefill_lat.push_back(us);
        complete(st.ok(), us, kOpenPrefillLimitUs, 0);
        if (st.ok()) {
          if (same(pf.y.cview().block(0, 0, pf.rows, g.hidden),
                   pf.ref.cview().block(0, 0, pf.rows, g.hidden))) {
            ++checked_prefills_;
          } else {
            ++mismatches_;
          }
        } else {
          std::fprintf(stderr, "prefill failed: %s\n", st.message().c_str());
        }
      }
      peak_pages_ = std::max(peak_pages_, slots_.pages_in_use());
    };

    std::size_t i = 0;
    while (i < n || inflight > 0) {
      poll();
      const auto now = Clock::now();
      if (i < n) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(due_s[i]));
        if (now < due) {
          std::this_thread::sleep_for(std::min<Clock::duration>(
              due - now, std::chrono::microseconds(50)));
          continue;
        }
        p.lag_us.push_back(us_between(due, now));
        ++p.sent;
        if (prefill_rows[i] > 0) {
          if (submit_prefill(prefill_rows[i], due, spans, p)) ++inflight;
        } else {
          bool sent = false;
          for (std::size_t k = 0; k < slots.size() && !sent; ++k) {
            auto& slot = slots[(next_slot + k) % slots.size()];
            if (slot.busy) continue;
            slot.busy = true;
            slot.due = due;
            slot.fut = timed(spans, "serve.submit_decode", [&] {
              return server.submit_decode(slot.seq, slot.in.cview(),
                                          rig_.decoder, slot.out.view());
            });
            next_slot = (next_slot + k + 1) % slots.size();
            ++inflight;
            sent = true;
          }
          if (!sent) ++p.refused;
        }
        ++i;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    p.seconds = us_between(t0, last) / 1e6;
    prefill_lat_ = std::move(prefill_lat);
    return p;
  }

  void check(Report& report) {
    slots_.check(report);
    report.note("checked_prefills", static_cast<double>(checked_prefills_));
    if (mismatches_ > 0) {
      report.fail(std::to_string(mismatches_) +
                  " prefills differ from the serial Engine::spmm reference");
      report.failed += mismatches_ - 1;
    }
  }

  void end_to_end(const Phase& p, Report& report) {
    // Due to resolved; ~675 decodes and ~75 prefills a run.
    report_end_to_end(p, "decode", "p98", 0.98, kOpenDecodeLimitUs, report);
    report.note("offered_rate_per_s", kOpenRate);
    report.note("prefill_latency_limit_us", kOpenPrefillLimitUs);
    report.note("prefill_latency_p50_us", percentile(prefill_lat_, 0.5));
    report.note("prefill_latency_p85_us", percentile(prefill_lat_, 0.85));
    report.note("generator_lag_p50_us", percentile(p.lag_us, 0.5));
    report.note("generator_lag_p99_us", percentile(p.lag_us, 0.99));
  }

  void per_layer(Report& report) {
    slots_.report_kv(peak_pages_, exhausted_, report);
  }

 private:
  struct Prefill {
    MatrixF x, y, ref;
    index_t rows = 0;
    bool busy = false;
    std::future<Status> fut;
    Clock::time_point due;
  };

  bool submit_prefill(index_t rows, Clock::time_point due, Spans* spans,
                      Phase& p) {
    for (auto& pf : prefill_) {
      if (pf.busy) continue;
      pf.busy = true;
      pf.rows = rows;
      pf.due = due;
      pf.fut = timed(spans, "serve.submit_ffn", [&] {
        return rig_.server->submit_ffn(
            pf.x.cview().block(0, 0, rows, pf.x.cols()), rig_.ffn,
            pf.y.view().block(0, 0, rows, pf.y.cols()));
      });
      return true;
    }
    ++p.refused;
    return false;
  }

  Rig& rig_;
  DecodeSlots slots_;
  Rng rng_;
  Prefill prefill_[kPrefillSlots];
  std::vector<double> prefill_lat_;
  index_t peak_pages_ = 0;
  std::uint64_t exhausted_ = 0;
  std::uint64_t checked_prefills_ = 0, mismatches_ = 0;
};

// ------------------------------------------------------- running a workload

/// Peak bytes the rig holds: weights, interned packed forms, plan
/// scratch and KV pages (each object once; the packed forms through the
/// WeightStore, which deduplicates forms shared between plans).
double resident_bytes(const Rig& rig) {
  double bytes = 0;
  for (const auto& [name, w] : rig.layer.projections()) {
    bytes += static_cast<double>(w->footprint_bytes());
  }
  bytes += static_cast<double>(mem::WeightStore::global()->stats().resident_bytes);
  if (rig.decoder != nullptr) {
    const auto s = rig.decoder->stats();
    bytes += static_cast<double>(s.scratch_bytes + s.ffn.scratch_bytes +
                                 s.kv.resident_bytes);
  }
  if (rig.ffn != nullptr) {
    bytes += static_cast<double>(rig.ffn->stats().scratch_bytes);
  }
  return bytes;
}

template <typename W>
void drive(W& w, Rig& rig, const Options& opt, serve::RequestClass cls,
           Report& report) {
  w.warm_up();
  // Host contention: on a shared VM the stolen share of CPU time is the
  // first thing to check when a result set looks off.
  const CpuTimes cpu_before = cpu_times();
  const auto note_steal = [&] {
    report.note("host_steal_share", steal_share(cpu_before, cpu_times()));
  };
  if (!opt.trace) {
    const Phase p = w.measure(opt.seconds, nullptr);
    note_steal();
    account(p, report);
    w.end_to_end(p, report);
    report.set("resident_mb", resident_bytes(rig) / 1e6, "MB");
    w.check(report);
    return;
  }
  // Traced run: an untraced half, then a traced half on the same state;
  // per-layer serve and mem numbers come from the traced half.
  Spans spans;
  const Phase plain = w.measure(opt.seconds / 2, nullptr);
  const Engine::CacheStats cache_before = rig.server->engine().cache_stats();
  ServeWindow window;
  window.start(*rig.server);
  const Phase traced = w.measure(opt.seconds / 2, &spans);
  note_steal();
  window.finish(*rig.server, cls, report);
  const Engine::CacheStats cache = rig.server->engine().cache_stats();
  const double hits = static_cast<double>(cache.hits - cache_before.hits);
  const double misses = static_cast<double>(cache.misses - cache_before.misses);
  report.set("core.plan_cache_hit_share",
             hits + misses > 0 ? hits / (hits + misses) : 1.0, "share");
  report.set("gen.lag_p99_us", percentile(traced.lag_us, 0.99), "us");
  // Extra time per unit of work with spans on: closed loops by
  // throughput, the open loop (fixed rate) by median latency.
  const bool open = !traced.lag_us.empty();
  const double overhead =
      open ? percentile(traced.latency_us, 0.5) /
                     std::max(1e-9, percentile(plain.latency_us, 0.5)) -
                 1.0
           : plain.mean_rate() / std::max(1e-9, traced.mean_rate()) - 1.0;
  report.set("trace_overhead_share", overhead, "share");
  w.per_layer(report);

  const auto store = mem::WeightStore::global()->stats();
  const auto& before = rig.store_before;
  report.set("mem.packed_mb", static_cast<double>(store.resident_bytes) / 1e6,
             "MB");
  report.set("mem.packed_forms_per_weight",
             static_cast<double>(store.leases) /
                 static_cast<double>(rig.layer.projections().size()),
             "forms");
  report.set("mem.store_misses",
             static_cast<double>(store.misses - before.misses), "count");
  report.set("mem.repacks", static_cast<double>(store.repacks - before.repacks),
             "count");

  Phase both = plain;
  both.sent += traced.sent;
  both.ok += traced.ok;
  both.failed += traced.failed;
  both.refused += traced.refused;
  account(both, report);
  w.check(report);
  run_probes(rig, opt.seed, spans, report);
  if (!opt.trace_out.empty() && !spans.write_chrome(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n",
                 opt.trace_out.c_str());
  }
  report.note("spans", static_cast<double>(spans.size()));
}

/// The dispatcher shard that served the request @p submit sends (the
/// shard whose request counter moved).
template <typename Submit>
std::size_t served_by(Server& server, Submit&& submit) {
  const auto before = server.stats().per_shard;
  NMSPMM_CHECK_OK(submit().get());
  const auto after = server.stats().per_shard;
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i].requests != before[i].requests) return i;
  }
  NMSPMM_CHECK_MSG(false, "no shard counted the request");
  return 0;
}

/// Shards take targets by a hash of the plan's address, so whether the
/// decoder and the prefill FFN plan share a dispatcher would change from
/// process to process. mixed_open pins the shared case — a prefill then
/// holds decode steps behind it in one dispatcher — by re-planning the
/// FFN until it lands on the decoder's shard. The number of attempts is
/// random, so this runs after the timed set-up.
void share_dispatcher(Rig& rig) {
  Server& server = *rig.server;
  const Geometry& g = rig.layer.geo;
  constexpr std::uint64_t kProbeSeq = ~std::uint64_t{0};
  MatrixF x(1, g.hidden), y(1, g.hidden);
  x.zero();
  NMSPMM_CHECK_OK(rig.decoder->begin_sequence(kProbeSeq));
  const std::size_t decode_shard = served_by(server, [&] {
    return server.submit_decode(kProbeSeq, x.cview(), rig.decoder, y.view());
  });
  NMSPMM_CHECK_OK(rig.decoder->free_sequence(kProbeSeq));
  std::vector<std::shared_ptr<model::ModelPlan>> elsewhere;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::size_t ffn_shard = served_by(server, [&] {
      return server.submit_ffn(x.cview(), rig.ffn, y.view());
    });
    if (ffn_shard == decode_shard) return;
    elsewhere.push_back(rig.ffn);  // keep it alive: a new address
    auto plan = server.engine().plan_model(g.prefill_rows, {rig.layer.decoder.ffn});
    NMSPMM_CHECK_OK(plan.status());
    rig.ffn = *plan;
  }
  NMSPMM_CHECK_MSG(false, "could not place the FFN plan on the decode shard");
}

/// Drives @p w; if that throws, drains the server before @p w (which
/// owns the buffers of requests still in flight) goes out of scope.
template <typename W>
void drive_guarded(W& w, Rig& rig, const Options& opt, serve::RequestClass cls,
                   Report& report) {
  try {
    drive(w, rig, opt, cls, report);
  } catch (...) {
    rig.server->shutdown();
    throw;
  }
}

}  // namespace

ServerOptions server_options() {
  ServerOptions options;
  options.engine.num_threads = nproc();
  return options;
}

std::unique_ptr<Rig> setup(const std::string& workload, std::uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  rig->store_before = mem::WeightStore::global()->stats();
  rig->layer = make_layer(Geometry{}, seed);
  rig->server = std::make_unique<Server>(server_options());
  Engine& engine = rig->server->engine();
  const Geometry& g = rig->layer.geo;
  const auto& d = rig->layer.decoder;
  if (workload != "prefill_closed") {
    attn::KvCacheOptions kv;
    kv.max_tokens = g.decode_batch * g.max_context;
    auto plan = engine.plan_decoder(g.decode_batch, d, kv);
    NMSPMM_CHECK_OK(plan.status());
    rig->decoder = *plan;
  }
  if (workload != "decode_closed") {
    auto plan = engine.plan_model(g.prefill_rows, {d.ffn});
    NMSPMM_CHECK_OK(plan.status());
    rig->ffn = *plan;
  }
  if (workload == "prefill_closed") {
    // The plain-SpMM plans submit() looks up for a prompt-sized batch.
    NMSPMM_CHECK_OK(engine.plan_for(g.prefill_rows, d.qkv).status());
    NMSPMM_CHECK_OK(engine.plan_for(g.prefill_rows, d.out_proj).status());
  }
  return rig;
}

void run_workload(Rig& rig, const Options& opt, Report& report) {
  if (opt.workload == "decode_closed") {
    DecodeClosed w(rig, opt.seed);
    drive_guarded(w, rig, opt, serve::RequestClass::kDecode, report);
  } else if (opt.workload == "prefill_closed") {
    PrefillClosed w(rig, opt.seed);
    drive_guarded(w, rig, opt, serve::RequestClass::kPrefill, report);
  } else {
    share_dispatcher(rig);
    MixedOpen w(rig, opt.seed);
    drive_guarded(w, rig, opt, serve::RequestClass::kDecode, report);
  }
}

}  // namespace perfbench
