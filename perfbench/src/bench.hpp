// Serving benchmark for the nmspmm decoder stack.
//
// One 1B-class GQA decoder layer at 8:32 is served through the public
// Server API under three workloads (decode_closed, prefill_closed,
// mixed_open). Untraced runs report the end-to-end metrics; a traced
// run (--trace 1) times the calls into each layer's public functions
// from this directory's code and reports per-layer metrics. Every run
// checks outputs against an unfused public-call reference.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attn/attention.hpp"
#include "core/nmspmm.hpp"
#include "model/decoder.hpp"
#include "serve/server.hpp"

namespace perfbench {

using nmspmm::index_t;
using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile (q in [0, 1]) of @p v; 0 when empty.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ------------------------------------------------------------- the layer

/// Geometry of the served layer: Llama-3.2-1B-like attention (32 query
/// heads of 64, 8 KV heads), hidden 2048, FFN 5632, 8:32 vector-wise
/// sparsity. About 100 MB resident once packed, far beyond the per-core
/// L2, so the decode projections stream their weights from LLC/DRAM.
struct Geometry {
  index_t hidden = 2048;
  index_t n_heads = 32;
  index_t n_kv_heads = 8;
  index_t head_dim = 64;
  index_t ffn = 5632;
  nmspmm::NMConfig config{8, 32, 16};
  /// Decode batch the DecoderPlan is built for (and the closed loop's
  /// live sequences).
  index_t decode_batch = 16;
  /// Longest context a sequence reaches.
  index_t max_context = 512;
  /// Row budget of the prefill FFN ModelPlan.
  index_t prefill_rows = 256;
};

/// The five weight matrices of one decoder layer plus its norm gains.
struct Layer {
  Geometry geo;
  nmspmm::model::DecoderLayer decoder;  // qkv, out_proj, ffn (shared)

  [[nodiscard]] nmspmm::attn::AttnConfig attn() const { return decoder.attn; }
  /// (name, weights) of every projection, in decode order.
  [[nodiscard]] std::vector<
      std::pair<std::string, std::shared_ptr<const nmspmm::CompressedNM>>>
  projections() const;
};

/// Weights and gains drawn from @p seed (values small enough that the
/// autoregressive feedback stays finite over max_context steps).
Layer make_layer(const Geometry& geo, std::uint64_t seed);

/// Unfused reference of one decode step over public calls only, the
/// construction of examples/llama_decode.cpp: rmsnorm_rows + plain
/// Engine::spmm projections, a separate DecodeAttention + KvCache,
/// scalar SiLU·up and manual residual adds.
class DecodeReference {
 public:
  DecodeReference(const Layer& layer, nmspmm::Engine& engine,
                  index_t max_tokens);
  nmspmm::Status begin(std::uint64_t seq);
  /// out (1 x hidden) = layer(x) for the next token of @p seq.
  nmspmm::Status step(std::uint64_t seq, const float* x, float* out);

 private:
  const Layer& layer_;
  nmspmm::Engine& engine_;
  nmspmm::attn::DecodeAttention attn_;
  nmspmm::attn::KvCache kv_;
  nmspmm::MatrixF x_, normed_, qkv_, attn_o_, x1_;
};

/// out = x + FFN(rmsnorm(x)) of the layer's FFN tail, unfused over public
/// calls (the same construction): the reference for ModelPlan::run and
/// Server::submit_ffn.
nmspmm::Status ffn_reference(nmspmm::Engine& engine, const Layer& layer,
                             nmspmm::ConstViewF x, nmspmm::ViewF out);

// --------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run: spans are taken around
/// calls into the layers' public functions from this benchmark's code
/// and written out as Chrome trace events when the run ends.
class Spans {
 public:
  struct Span {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    Clock::time_point t0, t1;
  };
  Spans() : origin_(Clock::now()) { spans_.reserve(1 << 16); }
  std::uint32_t add(const char* name, Clock::time_point t0,
                    Clock::time_point t1, std::uint32_t parent = 0) {
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({name, id, parent, t0, t1});
    return id;
  }
  /// Starts a span now; close() ends it. Children may name it as parent
  /// while it is open.
  std::uint32_t open(const char* name, std::uint32_t parent = 0) {
    const auto t = Clock::now();
    return add(name, t, t, parent);
  }
  void close(std::uint32_t id) { spans_[id - 1].t1 = Clock::now(); }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  bool write_chrome(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times fn() and records it as a span when @p spans is non-null.
template <typename Fn>
auto timed(Spans* spans, const char* name, Fn&& fn, std::uint32_t parent = 0) {
  if (spans == nullptr) return fn();
  const auto t0 = Clock::now();
  auto r = fn();
  spans->add(name, t0, Clock::now(), parent);
  return r;
}

// ---------------------------------------------------------------- report

struct Report {
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Per-workload accounting and free-form facts, printed (and stored by
  /// the runner) beside the metrics.
  std::map<std::string, std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& key, const std::string& value) {
    notes[key] = value;
  }
  void note(const std::string& key, double value);
  /// Records an output mismatch or failed check: counts as one failed
  /// operation and makes the run incorrect.
  void fail(const std::string& what);
};

/// Host CPU time counters (jiffies, all CPUs) from /proc/stat: time the
/// hypervisor gave to other guests while this one was runnable, and the
/// total. Zero when unreadable.
struct CpuTimes {
  long long steal = 0;
  long long total = 0;
};
CpuTimes cpu_times();
/// Share of CPU time stolen between two readings (0 when unknown).
double steal_share(const CpuTimes& a, const CpuTimes& b);

/// CPU model, SIMD flags, nproc, cache sizes, compiler flags.
std::map<std::string, std::string> run_identity();
/// CPUs this process may run on (what `nproc` prints).
unsigned nproc();

std::string json_escape(const std::string& s);

// ------------------------------------------------------------- workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace path of the traced run
};

/// Built by set-up: the layer, the server (engine at nproc threads,
/// otherwise default ServerOptions) and the plans the workload serves.
struct Rig {
  Layer layer;
  std::unique_ptr<nmspmm::Server> server;
  std::shared_ptr<nmspmm::model::DecoderPlan> decoder;
  std::shared_ptr<nmspmm::model::ModelPlan> ffn;
  nmspmm::mem::WeightStore::Stats store_before;  // before the plans
};

std::unique_ptr<Rig> setup(const std::string& workload, std::uint64_t seed);
nmspmm::ServerOptions server_options();

/// Runs the workload (untraced, or untraced then traced when
/// opt.trace), checks outputs and fills @p report.
void run_workload(Rig& rig, const Options& opt, Report& report);

/// Traced-run layer probes: stage replay of a decoder step, kernel
/// rates, pool dispatch, attention and model calls (see probes.cpp).
void run_probes(Rig& rig, std::uint64_t seed, Spans& spans, Report& report);

}  // namespace perfbench
