// nmspmm::Server — asynchronous request front end with dynamic batching
// behind a lock-free submission ring.
//
// Real inference traffic arrives as a stream of small, unaligned requests
// (decode steps are often a single activation row), not pre-formed
// batches. Serving each row as its own SpMM re-reads the whole compressed
// weight matrix per request; coalescing concurrent requests against the
// same weights into one batched SpMM reads it once and rides the Engine's
// plan cache (one plan per weights and options, whatever the batch size).
// The Server implements that coalescing:
//
//   nmspmm::Server server;                        // owns an Engine
//   auto f1 = server.submit(a1.view(), weights, c1.view());
//   auto f2 = server.submit(a2.view(), weights, c2.view());
//   f1.get().check_ok();                          // both served by ONE SpMM
//
// Architecture:
//
//   submit threads                dispatcher                     engine
//   ──────────────                ──────────                     ──────
//   submit()  ──┐   lock-free   ┌─────────────────────┐  one pooled
//   submit()  ──┼─► MPSC ring ─►│ group map, staging, │──► execution
//   submit()  ──┘               │ SLO flush           │    per batch
//                               └─────────────────────┘
//
// One bounded lock-free MPSC ring (serve/mpsc_ring.hpp) feeds one
// dispatcher thread, which owns the group map, the staging buffers and
// the flush state. Every target — every weight matrix, model plan and
// decoder plan — is served by that dispatcher, so requests against one
// target always meet in one queue. The hot submit path is lock-free:
// validate, claim a ring slot (one CAS), publish, return — a mutex is
// taken only to wake a sleeping dispatcher (idle by definition, so
// never contended).
//
// The dispatcher drains its ring into per-group FIFO queues, flushes a
// group when its pending rows reach its row budget, its oldest request
// has waited max_wait_us, or an SLO deadline approaches, and gathers the
// batch into one execution on the engine's pool: a single pooled SpMM
// partitions across every worker, so one large product beats several
// serial ones, and the shared weight read is the whole win for decode
// bursts. A lone request skips the gather and runs on its own views.
// Every request takes this path, single rows included: a client that
// submits a round of 1-row decode steps back to back and then waits
// gets them served as one batch (one read of each weight), and a lone
// row pays at most max_wait_us of queueing for it.
//
// Each group serves one target, and one execution serves the whole
// batch: a plain weight matrix (submit), a fused-FFN model::ModelPlan
// (submit_ffn — a burst of decode steps pays one pass over all three
// projection weight matrices instead of one per request,
// src/model/ffn.hpp), or a decoder-layer model::DecoderPlan
// (submit_decode). Concurrent 1-row token submissions against one
// DecoderPlan gather into a single DecoderPlan::decode — the QKV /
// output / FFN projections run batched, attention runs per sequence
// between them (its heads split across the engine pool), and each
// request resolves with its own per-sequence status (NOT_FOUND for an
// unknown sequence, retryable
// RESOURCE_EXHAUSTED when the KV budget is spent), so one bad sequence
// never fails its batchmates. Every request, however it was served or
// failed, resolves through one completion step that records its stage
// latencies and, when sampled, its trace spans from the same instants.
//
// One escape keeps the process alive: the dispatcher wraps every batch
// execution in an exception guard. A failure while assembling or running
// a batch fails that batch's futures with a typed Status —
// RESOURCE_EXHAUSTED for allocation / budget exhaustion (staging growth,
// max_staging_bytes, repack), or INTERNAL for a genuine invariant trip —
// instead of std::terminate-ing the process, and the dispatcher keeps
// serving later batches.
//
// Overload behavior is a policy (ServerOptions::admission):
//  - kBlock (default): a full ring back-pressures submit() with a
//    bounded spin — bounded by the request's own deadline_us, so a
//    submitter never stalls past its SLO (DEADLINE_EXCEEDED instead).
//  - kShed: fail fast with RESOURCE_EXHAUSTED when the ring is full or
//    the server's pending work exceeds the shed_pending_rows /
//    shed_pending_bytes high-water marks. Shed requests never entered
//    the queue; the caller may retry (serve::RetryPolicy).
//  - kShedByClass: shed prefill (multi-row) like kShed, but let 1-row
//    decode requests ride the kBlock path — under overload the server
//    keeps the latency-critical decode stream alive and sheds the
//    bandwidth-hungry prefill work first.
//
// Shape errors are rejected per request (an immediately-ready error
// future) so one malformed submission can never poison a batch. Shutdown
// drains: every request accepted before shutdown() is served, then the
// dispatcher exits; submissions after shutdown fail with UNAVAILABLE
// (retryable — e.g. against a replacement server; before the overload
// work this surfaced as FAILED_PRECONDITION). Prefer raw Engine::spmm
// when requests are already large batches — batching adds a
// gather/scatter copy and up to max_wait_us of latency that only pay
// off on small concurrent requests.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <limits>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/engine.hpp"
#include "model/decoder.hpp"
#include "model/ffn.hpp"
#include "obs/trace.hpp"
#include "serve/batch_queue.hpp"
#include "serve/mpsc_ring.hpp"
#include "serve/telemetry.hpp"

namespace nmspmm {

/// What submit() does when the server cannot take the request right now
/// (ring full, or pending work past a high-water mark). See the header
/// comment's "Overload behavior".
enum class AdmissionPolicy : std::uint8_t {
  kBlock,        ///< spin (bounded by the request's deadline_us)
  kShed,         ///< fail fast with RESOURCE_EXHAUSTED
  kShedByClass,  ///< shed multi-row prefill, block 1-row decode
};

struct ServerOptions {
  /// Flush a group as soon as its pending rows reach this many. Also the
  /// granularity of batch assembly: larger values amortize weight reads
  /// across more requests but grow the staging buffers and tail latency.
  index_t max_batch_rows = 64;
  /// Flush a non-full group once its oldest request has waited this long.
  /// 0 = flush continuously (batches only what accumulates while the
  /// dispatcher is busy executing).
  std::uint32_t max_wait_us = 200;
  /// Upper bound on retained group state. When the dispatcher holds
  /// more distinct (target, options) groups than this, idle groups
  /// (empty queues) are evicted: their weights reference and staging
  /// buffers are released — a server cycling through many weight
  /// matrices stays bounded. Counters and latency history survive in
  /// the server totals; an evicted group that comes back starts fresh.
  std::size_t max_groups = 64;
  /// Cap on a dispatcher's gather/scatter staging for one batch, in
  /// bytes (0 = unbounded). A batch needing more fails with
  /// RESOURCE_EXHAUSTED (the affected batch only; the dispatcher keeps
  /// serving) instead of letting staging growth take the process down.
  std::size_t max_staging_bytes = 0;
  /// Overload behavior of submit() — see AdmissionPolicy.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Shedding high-water marks (0 = that mark is off; both ignored
  /// under kBlock). A sheddable request is refused with
  /// RESOURCE_EXHAUSTED when admitting it would push the server's
  /// pending (admitted, unresolved) rows / staged bytes past the mark.
  /// Bytes are the request's gather+scatter staging footprint,
  /// rows*(k+n)*sizeof(float) — the same quantity max_staging_bytes
  /// caps per batch, here bounded across everything in flight.
  std::size_t shed_pending_rows = 0;
  std::size_t shed_pending_bytes = 0;
  /// Flush a group early when a pending request's SLO deadline (the
  /// deadline_us argument of submit / submit_ffn) is within slo_margin_us
  /// of now, instead of waiting out max_wait_us. Off, deadlines are still
  /// tracked (violation counters, shutdown expiry) but never trigger an
  /// early flush — the fixed-max-wait policy the SLO comparison in
  /// bench_serving_open measures against.
  bool slo_aware = true;
  /// Headroom the SLO-aware flush leaves before the tightest pending
  /// deadline: the estimated time to assemble + execute + scatter one
  /// batch. Too small and near-deadline requests still miss; too large
  /// and batches flush half-empty.
  std::uint32_t slo_margin_us = 150;
  /// Record per-request stage latencies (serve/telemetry.hpp) into
  /// per-thread shards, exposed via stats().latency. Lock-free on the
  /// submit path; the switch exists so the overhead can be measured
  /// against a telemetry-free baseline, not because it is expected to
  /// matter.
  bool telemetry = true;
  /// Submission ring capacity in requests (rounded up to a
  /// power of two; 0 = default 1024). A full ring back-pressures
  /// submitters: submit() spins with backoff until the dispatcher
  /// drains a slot, counting the stall in stats().ring_stalls.
  std::size_t ring_capacity = 1024;
  /// Span tracing (src/obs/trace.hpp): trace 1 request in every
  /// trace_sample_n (0 = tracing off; 1 = every request). A traced
  /// request leaves one span per life-cycle stage — submit, queue,
  /// gather, execute, total — carrying flush-reason and repack
  /// attributes, retrievable via dump_trace(). The record
  /// cost is a handful of relaxed stores, so 1-in-1024 sampling is ≈0
  /// on the submit path (gated by the trace_overhead bench block).
  std::uint64_t trace_sample_n = 0;
  /// Spans retained per recording thread (the flight-recorder window;
  /// rounded up to a power of two). Overwrites count in
  /// stats().trace_drops, never silently.
  std::size_t trace_buffer_spans = 4096;
  /// When nonempty (and tracing is on), a dispatcher whose batch fails
  /// through the exception guard dumps the flight recorder here —
  /// after a chaos/fault failure the last trace_buffer_spans spans of
  /// history are on disk without anyone having asked.
  std::string trace_flight_path;
  /// The backing engine (worker pool + plan cache) the server owns.
  EngineOptions engine;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();  // shutdown(): drains pending requests, then joins

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueue C = A (*) (B, D) and return a future that resolves when the
  /// request has been served (possibly coalesced with others). A and C
  /// must stay alive until then.
  /// Shape/argument errors resolve the future immediately without
  /// enqueuing. @p options must carry an inactive EpilogueSpec and
  /// PrologueSpec (epilogue operands and the RMSNorm gain cannot ride a
  /// batched submission; use submit_ffn for the fused-FFN workload).
  ///
  /// Lock-free: after validation the request is published onto the
  /// MPSC ring with a single CAS — no mutex is ever taken on
  /// this path while the dispatcher is awake.
  ///
  /// @p deadline_us (0 = none) is the request's SLO budget from this call:
  /// with slo_aware batching the dispatcher flushes the group early enough
  /// to leave slo_margin_us of service time before it. A missed deadline
  /// still serves the request (counted in slo_violations / the telemetry
  /// snapshot) — except during shutdown drain, where an already-expired
  /// request fails fast with DEADLINE_EXCEEDED instead of consuming the
  /// drain's remaining time.
  std::future<Status> submit(ConstViewF A,
                             std::shared_ptr<const CompressedNM> B, ViewF C,
                             SpmmOptions options = {},
                             std::uint64_t deadline_us = 0);

  /// Enqueue out = FFN_chain(A) against @p plan (built by
  /// Engine::plan_model — any engine; plans carry their own weights and
  /// pool). Concurrent submissions against the same plan coalesce into
  /// one ModelPlan::run over the gathered token rows. A and out must
  /// stay alive until the future resolves. Requests with more rows than
  /// plan->planned_tokens() are rejected up front (they could never be
  /// served); batches assembled from smaller requests are capped at the
  /// plan's token budget.
  std::future<Status> submit_ffn(ConstViewF A,
                                 std::shared_ptr<model::ModelPlan> plan,
                                 ViewF out, std::uint64_t deadline_us = 0);

  /// Enqueue one decoder-layer decode step for @p seq_id against
  /// @p plan (built by Engine::plan_decoder): A is exactly one token
  /// row, out (1 x hidden) receives the layer output. Concurrent
  /// submissions against the same plan coalesce into one
  /// DecoderPlan::decode over the gathered rows — the SpMM projections
  /// batch across sequences, attention runs per sequence between them.
  /// The future resolves with the request's *own* status: NOT_FOUND
  /// for a sequence never begun, RESOURCE_EXHAUSTED (retryable — back
  /// off and retry once sequences free, serve::RetryPolicy) when the
  /// plan's KV budget is spent. Sequence lifecycle goes through the
  /// plan directly (DecoderPlan::begin_sequence / free_sequence; both
  /// thread-safe).
  std::future<Status> submit_decode(std::uint64_t seq_id, ConstViewF A,
                                    std::shared_ptr<model::DecoderPlan> plan,
                                    ViewF out, std::uint64_t deadline_us = 0);

  /// Stop accepting requests, serve everything already queued, and join
  /// the dispatcher. Idempotent; the destructor calls it.
  void shutdown();

  /// Per-group (and aggregate) serving counters.
  struct GroupStats {
    std::uint64_t requests = 0;         ///< submissions accepted
    std::uint64_t rows = 0;             ///< activation rows accepted
    std::uint64_t batches = 0;          ///< batches dispatched
    std::uint64_t full_flushes = 0;     ///< batches flushed on row budget
    std::uint64_t timeout_flushes = 0;  ///< flushed on max_wait / drain
    std::uint64_t slo_flushes = 0;      ///< flushed early for a deadline
    std::uint64_t errors = 0;           ///< requests resolved non-OK
    std::uint64_t slo_violations = 0;   ///< deadlines missed (incl. expiry)
    /// Always 0: every batch runs as one pooled execution. Kept only
    /// because perfbench still reads it (serve.split_share).
    std::uint64_t split_batches = 0;
    /// Always 0: every request is served through the dispatcher's queue.
    /// Kept only because perfbench still reads it (serve.bypass_share).
    std::uint64_t bypassed = 0;
    std::size_t max_queue_depth = 0;    ///< peak pending requests
  };
  struct Stats {
    GroupStats totals;  ///< every request ever accepted, incl. evicted
                        ///< groups (server-wide counters, exact)
    std::size_t groups = 0;  ///< distinct (target, options) groups seen
    /// Times a submit found the ring full and had to back off
    /// before claiming a slot (one per stalled request, not per retry).
    std::uint64_t ring_stalls = 0;
    /// Requests refused with RESOURCE_EXHAUSTED by the admission policy
    /// (ring full or high-water mark), and their staging-footprint
    /// bytes. Shed requests never reach totals.requests.
    std::uint64_t shed_requests = 0;
    std::uint64_t shed_bytes = 0;
    /// kBlock submitters whose deadline expired while stalled on a full
    /// ring (failed DEADLINE_EXCEEDED without entering the queue).
    std::uint64_t submit_deadline_fails = 0;
    /// Per-request stage latency distributions across every group, live
    /// and evicted (empty when ServerOptions::telemetry is off).
    serve::TelemetrySnapshot latency;
    /// Trace spans recorded / overwritten by ring wraparound (0 when
    /// tracing is off). Nonzero trace_drops means the flight window was
    /// shorter than the traffic between dumps.
    std::uint64_t trace_spans = 0;
    std::uint64_t trace_drops = 0;
    /// One element, equal to totals. Kept only because perfbench reads
    /// it (`served_by`).
    std::vector<GroupStats> per_shard;
  };
  /// Aggregate counters and latency. Lock-free: reads atomic counters
  /// and the telemetry recorder's snapshot, so stats polling can never
  /// stall a submitter or the dispatcher.
  [[nodiscard]] Stats stats() const;
  /// Aggregate over every *live* group serving @p weights (any options);
  /// counters of groups already evicted under max_groups only survive in
  /// stats().totals. Takes the dispatcher's mutex briefly (never
  /// contended by the lock-free submit path).
  [[nodiscard]] GroupStats weights_stats(const CompressedNM* weights) const;
  /// As weights_stats, for the FFN groups serving @p plan.
  [[nodiscard]] GroupStats model_stats(const model::ModelPlan* plan) const;
  /// As weights_stats, for the decode groups serving @p plan.
  [[nodiscard]] GroupStats decode_stats(const model::DecoderPlan* plan) const;
  /// Latency snapshot of the *live* groups serving @p weights (any
  /// options); evicted groups' samples only survive in stats().latency.
  [[nodiscard]] serve::TelemetrySnapshot weights_latency(
      const CompressedNM* weights) const;

  /// Write every retained trace span as Chrome trace-event JSON (load
  /// the file in chrome://tracing or ui.perfetto.dev). FAILED_PRECONDITION
  /// when tracing is off (ServerOptions::trace_sample_n == 0).
  [[nodiscard]] Status dump_trace(const std::string& path) const;
  /// The span recorder (null when tracing is off). Exposed for tests
  /// and harnesses that want spans without going through a file.
  [[nodiscard]] const obs::TraceRecorder* tracer() const {
    return tracer_.get();
  }

  [[nodiscard]] Engine& engine() { return engine_; }
  /// Post-construction options: ring_capacity reflects the resolved
  /// value, not the 0 = default the caller may have passed.
  [[nodiscard]] const ServerOptions& options() const { return options_; }

 private:
  using Clock = BatchQueue::Clock;

  /// What one group's executions run against: a plain weight matrix
  /// (under the group's SpmmOptions), a fused-FFN ModelPlan, or a
  /// decoder-layer DecoderPlan. A lone queued request and a gathered
  /// batch both serve through run(); nothing else in the Server looks at
  /// which of the three it holds.
  struct Target {
    std::variant<std::shared_ptr<const CompressedNM>,
                 std::shared_ptr<model::ModelPlan>,
                 std::shared_ptr<model::DecoderPlan>>
        owner;
    SpmmOptions options;  ///< plain weights only; default for plans
    index_t k = 0;        ///< activation depth
    index_t n = 0;        ///< output width
    /// Rows one execution can take: a plan's token budget, else no cap.
    index_t max_rows = std::numeric_limits<index_t>::max();

    /// The weights / plan address: group identity and trace attribute.
    [[nodiscard]] const void* id() const;
    /// Rows of @p c = target(rows of @p a). @p seq_ids names each row's
    /// KV sequence and @p row_status receives each row's own outcome;
    /// only a DecoderPlan reads or writes them.
    [[nodiscard]] Status run(Engine& engine, ConstViewF a,
                             const std::uint64_t* seq_ids, ViewF c,
                             Status* row_status) const;
  };
  /// Requests batch together only when one execution can serve them all:
  /// same target and, for plain weights, same options.
  struct GroupKey {
    const void* target = nullptr;
    SpmmOptions options;

    friend bool operator==(const GroupKey&, const GroupKey&) = default;
  };
  struct GroupKeyHash {
    std::size_t operator()(const GroupKey& k) const noexcept;
  };
  /// GroupStats as relaxed atomics, so the dispatcher and submitters
  /// update them without a lock and stats readers snapshot them
  /// concurrently. Each event is counted twice — once on its group,
  /// once on the server totals — so stats() stays exact across group
  /// eviction without any fold-on-evict bookkeeping.
  struct GroupCounters {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> rows{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> full_flushes{0};
    std::atomic<std::uint64_t> timeout_flushes{0};
    std::atomic<std::uint64_t> slo_flushes{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> slo_violations{0};
    std::atomic<std::size_t> max_queue_depth{0};

    [[nodiscard]] GroupStats snapshot() const;
    void count_flush(FlushReason reason);
  };
  struct Group {
    Target target;
    /// Pending requests. Only touched under mutex_ (dispatcher
    /// drain/flush, per-target stats queries).
    BatchQueue queue;
    GroupCounters counters;
    /// Stage-latency recorder for the per-target latency queries (null
    /// when ServerOptions::telemetry is off). shared_ptr: in-flight
    /// batches record into it outside mutex_, so it must outlive a
    /// concurrent eviction of the group (samples recorded after
    /// eviction are dropped from the per-target view; the server-wide
    /// recorder keeps them).
    std::shared_ptr<serve::Telemetry> telemetry;
  };
  /// One submission in flight between submit() and the dispatcher:
  /// everything needed to find-or-create the group and enqueue the
  /// request. Owns its target reference, so a message outliving a group
  /// eviction is self-sufficient.
  struct SubmitMsg {
    Target target;
    BatchRequest request;
  };
  /// The batch side of a request's stage record: when its batch left
  /// the queue and ran, how, and what happened inside the window. The
  /// request side (submitted, enqueued) rides in BatchRequest. Instants
  /// a request never reached stay at kUnset — a failed batch may never
  /// run.
  struct Execution {
    static constexpr Clock::time_point kUnset{};
    Clock::time_point popped = kUnset;
    Clock::time_point start = kUnset;
    Clock::time_point end = kUnset;
    std::uint8_t flush = obs::kNoAttr;  ///< FlushReason trace byte
    std::uint64_t repacks = 0;  ///< WeightStore repacks inside the window
  };
  /// A popped batch, ready to execute outside the lock. Holds shared
  /// ownership of its group (and through it weights / plan / telemetry),
  /// so eviction can never free state a batch still executes against.
  struct PendingBatch {
    std::shared_ptr<Group> group;
    std::vector<BatchRequest> requests;
    index_t rows = 0;
    Execution exec;
    /// requests[0, resolved) are resolved; fail_batch takes the rest.
    std::size_t resolved = 0;
  };
  /// Reusable gather/scatter staging, owned by one dispatcher thread and
  /// keyed by batch target (weights or model plan).
  struct Staging {
    MatrixF a;
    MatrixF c;
    std::vector<std::uint64_t> seq_ids;  ///< per staged row
  };
  using StagingMap = std::unordered_map<const void*, Staging>;

  /// Common post-validation path of submit / submit_ffn / submit_decode:
  /// admission, publish to the ring (with full-ring backpressure), wake
  /// the dispatcher.
  std::future<Status> enqueue(Target target, ConstViewF A, ViewF C,
                              std::uint64_t deadline_us,
                              Clock::time_point submitted,
                              std::uint64_t seq_id = 0);
  /// The group serving @p target, created on first use. Requires mutex_.
  std::shared_ptr<Group> group_for(Target target);

  void dispatcher_loop();
  /// Pop every published ring message into its group's queue (creating
  /// groups as needed). Returns the number of messages drained; adds
  /// them to @p drained for the eventcount.
  std::size_t drain_ring(std::uint64_t& drained,
                         std::vector<SubmitMsg>& scratch);
  /// Pop the next batch that must flush (row budget, deadline, or drain),
  /// oldest front request first when several groups are ready. Locks
  /// mutex_; returns an empty batch when nothing is ready.
  PendingBatch next_batch(Clock::time_point now);
  /// Evict idle groups beyond options_.max_groups. Requires mutex_.
  void prune_idle_groups();
  /// Drop staging buffers for targets no live group serves. Requires
  /// mutex_ (group map read); staging itself is the dispatcher's own.
  void prune_staging(StagingMap& staging);
  /// Assemble, execute, scatter, and resolve one batch (no lock held).
  /// Returns the batch's worst Status. May throw (e.g. staging growth
  /// failure); the dispatcher's guard then resolves the rest of the
  /// batch through fail_batch.
  Status serve_batch(PendingBatch& batch, StagingMap& staging);
  /// Resolve one request — served, failed, or expired — with @p status:
  /// violation / error counters, the stage latencies and (when sampled)
  /// trace spans from the same instants, the admission gauges, then the
  /// promise. The only place a request's stage times are written.
  void complete(Group& group, BatchRequest& r, const Execution& x,
                const Status& status);
  /// Resolve every not-yet-resolved request of @p batch with @p status.
  void fail_batch(PendingBatch& batch, const Status& status);
  /// Aggregate the live groups whose key target is @p target.
  [[nodiscard]] GroupStats target_stats(const void* target) const;

  /// Dump the flight recorder to options_.trace_flight_path (no-op when
  /// tracing is off or the path is empty). Called by the dispatcher's
  /// exception guard after a batch failure.
  void flight_dump() const;

  // Locking rules:
  //  - ring_ is lock-free; submitters publish, the dispatcher pops.
  //  - mutex_ guards groups_ (map structure AND the BatchQueues inside)
  //    and cv_. It is taken by the dispatcher (drain / flush / evict),
  //    by per-target stats queries, and momentarily by a submitter
  //    waking a sleeping dispatcher — never on the lock-free submit
  //    path.
  //  - totals_, group counters, and telemetry are atomics / lock-free
  //    recorders, updated and read without the mutex.
  //
  // Sleep/wake is an eventcount over pushed_ + sleeping_, all seq_cst
  // (TSan-clean; no fences): a producer does {publish; pushed_++ (RMW);
  // load sleeping_} and the dispatcher does {store sleeping_=true; load
  // pushed_, compare against its drained count} — seq_cst forbids both
  // sides reading the other's old value, so either the dispatcher sees
  // the new push and skips sleeping, or the producer sees
  // sleeping_==true and notifies under the mutex (which serializes with
  // the dispatcher's predicate-check-then-wait).

  ServerOptions options_;
  Engine engine_;
  std::atomic<bool> stop_{false};
  /// Span recorder (null when trace_sample_n == 0) and the sampling
  /// sequence: request n is traced when n % trace_sample_n == 0.
  std::unique_ptr<obs::TraceRecorder> tracer_;
  std::atomic<std::uint64_t> trace_seq_{0};

  serve::MpscRing<SubmitMsg> ring_;
  /// Successful ring publishes (the eventcount ticket).
  std::atomic<std::uint64_t> pushed_{0};
  /// Dispatcher is (about to be) parked on cv_.
  std::atomic<bool> sleeping_{false};
  /// Submitters currently inside the publish protocol; the shutdown
  /// drain exits only once this is 0 (see dispatcher_loop).
  std::atomic<std::uint64_t> entrants_{0};
  /// Server-wide counters: the lock-free source for stats(). See
  /// GroupCounters for the double-count scheme.
  GroupCounters totals_;
  std::atomic<std::uint64_t> ring_stalls_{0};
  std::atomic<std::uint64_t> groups_seen_{0};
  /// Admission accounting. pending_rows_ / pending_bytes_ track the
  /// admitted-but-unresolved work the high-water marks bound
  /// (incremented at publish, decremented at resolution). shed_* /
  /// submit_deadline_fails_ mirror the Stats fields of the same names.
  std::atomic<std::uint64_t> pending_rows_{0};
  std::atomic<std::uint64_t> pending_bytes_{0};
  std::atomic<std::uint64_t> shed_requests_{0};
  std::atomic<std::uint64_t> shed_bytes_{0};
  std::atomic<std::uint64_t> submit_deadline_fails_{0};
  /// Server-wide latency recorder backing stats().latency (null when
  /// telemetry is off). Immutable pointer after construction, so
  /// stats() reads it without the mutex.
  std::shared_ptr<serve::Telemetry> telemetry_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<GroupKey, std::shared_ptr<Group>, GroupKeyHash> groups_;
  /// Started last in the constructor, after every member it reads.
  std::thread dispatcher_;
};

}  // namespace nmspmm
