#include "serve/server.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "serve/fault.hpp"
#include "util/hash.hpp"

namespace nmspmm {

namespace {

void accumulate(Server::GroupStats& into, const Server::GroupStats& from) {
  into.requests += from.requests;
  into.rows += from.rows;
  into.batches += from.batches;
  into.full_flushes += from.full_flushes;
  into.timeout_flushes += from.timeout_flushes;
  into.slo_flushes += from.slo_flushes;
  into.errors += from.errors;
  into.slo_violations += from.slo_violations;
  into.max_queue_depth = std::max(into.max_queue_depth, from.max_queue_depth);
}

/// Monotone max over a relaxed atomic (peak-depth tracking).
void atomic_max(std::atomic<std::size_t>& target, std::size_t value) {
  std::size_t cur = target.load(std::memory_order_relaxed);
  while (cur < value && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

/// Bytes the dispatcher's staging matrices need for one batch of
/// @p rows gathered activations (depth @p k) and outputs (width @p n),
/// matching MatrixF's padded leading dimension.
std::size_t staging_bytes(index_t rows, index_t k, index_t n) {
  auto padded = [](index_t cols) {
    return round_up(static_cast<std::size_t>(std::max<index_t>(cols, 1)),
                    MatrixF::kLdPadElements);
  };
  return static_cast<std::size_t>(rows) * (padded(k) + padded(n)) *
         sizeof(float);
}

using Clock = BatchQueue::Clock;

/// Non-negative interval between two steady_clock instants, in us.
std::uint64_t elapsed_us(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

/// Absolute deadline for a submit-relative budget; max() when unset.
Clock::time_point deadline_from(Clock::time_point submitted,
                                std::uint64_t deadline_us) {
  if (deadline_us == 0) return Clock::time_point::max();
  return submitted + std::chrono::microseconds(deadline_us);
}

/// FlushReason / RequestClass as the attribute bytes trace spans carry
/// (obs is layered below serve and defines its own canonical tables).
std::uint8_t trace_flush_byte(FlushReason reason) {
  switch (reason) {
    case FlushReason::kFull:
      return 0;
    case FlushReason::kTimeout:
      return 1;
    case FlushReason::kSlo:
      return 2;
    case FlushReason::kShutdown:
      return 3;
  }
  return obs::kNoAttr;
}

std::uint8_t trace_cls_byte(serve::RequestClass cls) {
  return static_cast<std::uint8_t>(cls);
}

// complete() records a stage's span under the stage's own index.
static_assert(static_cast<int>(obs::SpanKind::kSubmit) ==
                      static_cast<int>(serve::Stage::kSubmit) &&
                  static_cast<int>(obs::SpanKind::kTotal) ==
                      static_cast<int>(serve::Stage::kTotal),
              "obs::SpanKind must mirror serve::Stage");

/// An already-resolved future: how a request rejected before it was
/// accepted answers its caller.
std::future<Status> ready(Status status) {
  std::promise<Status> done;
  done.set_value(std::move(status));
  return done.get_future();
}

}  // namespace

const void* Server::Target::id() const {
  return std::visit([](const auto& p) -> const void* { return p.get(); },
                    owner);
}

Status Server::Target::run(Engine& engine, ConstViewF a,
                           const std::uint64_t* seq_ids, ViewF c,
                           Status* row_status) const {
  struct Run {
    Engine& engine;
    const SpmmOptions& options;
    ConstViewF a;
    const std::uint64_t* seq_ids;
    ViewF c;
    Status* row_status;

    Status operator()(const std::shared_ptr<const CompressedNM>& w) const {
      return engine.spmm(a, w, c, options);
    }
    Status operator()(const std::shared_ptr<model::ModelPlan>& p) const {
      return p->run(a, c);
    }
    Status operator()(const std::shared_ptr<model::DecoderPlan>& p) const {
      return p->decode(a, seq_ids, c, row_status);
    }
  };
  return std::visit(Run{engine, options, a, seq_ids, c, row_status}, owner);
}

std::size_t Server::GroupKeyHash::operator()(
    const GroupKey& k) const noexcept {
  std::size_t h = std::hash<const void*>{}(k.target);
  hash_combine(h, hash_value(k.options));
  return h;
}

Server::GroupStats Server::GroupCounters::snapshot() const {
  GroupStats s;
  s.requests = requests.load(std::memory_order_relaxed);
  s.rows = rows.load(std::memory_order_relaxed);
  s.batches = batches.load(std::memory_order_relaxed);
  s.full_flushes = full_flushes.load(std::memory_order_relaxed);
  s.timeout_flushes = timeout_flushes.load(std::memory_order_relaxed);
  s.slo_flushes = slo_flushes.load(std::memory_order_relaxed);
  s.errors = errors.load(std::memory_order_relaxed);
  s.slo_violations = slo_violations.load(std::memory_order_relaxed);
  s.max_queue_depth = max_queue_depth.load(std::memory_order_relaxed);
  return s;
}

void Server::GroupCounters::count_flush(FlushReason reason) {
  switch (reason) {
    case FlushReason::kFull:
      full_flushes.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kSlo:
      slo_flushes.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kTimeout:
    case FlushReason::kShutdown:
      // Drain flushes count with the timeout flushes rather than
      // inventing a counter for a one-off shutdown state.
      timeout_flushes.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

Server::Server(ServerOptions options)
    : options_(options),
      engine_(options.engine),
      ring_(options.ring_capacity == 0 ? 1024 : options.ring_capacity),
      telemetry_(options.telemetry ? std::make_shared<serve::Telemetry>()
                                   : nullptr) {
  if (options_.max_batch_rows < 1) options_.max_batch_rows = 1;
  if (options_.max_groups < 1) options_.max_groups = 1;
  options_.ring_capacity = ring_.capacity();
  if (options_.trace_sample_n > 0) {
    tracer_ = std::make_unique<obs::TraceRecorder>(
        obs::TraceRecorder::Options{options_.trace_buffer_spans});
    // Subsystems with no path to this Server (WeightStore repack) emit
    // through the process-global hook; last tracing server wins.
    obs::set_global_recorder(tracer_.get());
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  // Unhook the global trace recorder first: after shutdown returns the
  // caller may destroy this Server, and a WeightStore repack on another
  // server's engine must not record into a recorder about to die.
  if (tracer_ != nullptr) obs::clear_global_recorder(tracer_.get());
  stop_.store(true, std::memory_order_seq_cst);
  // Lock-then-notify: a dispatcher between its predicate check and
  // cv_.wait holds the mutex, so acquiring it here guarantees the notify
  // is not lost.
  { std::lock_guard lock(mutex_); }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::future<Status> Server::submit(ConstViewF A,
                                   std::shared_ptr<const CompressedNM> B,
                                   ViewF C, SpmmOptions options,
                                   std::uint64_t deadline_us) {
  const auto submitted = Clock::now();
  // Per-request validation: a malformed submission resolves immediately
  // and can never poison the batch it would have joined.
  if (B == nullptr) {
    return ready(Status::InvalidArgument("weights shared_ptr is null"));
  }
  if (A.rows() < 1) {
    return ready(Status::InvalidArgument("activation batch is empty"));
  }
  if (A.cols() != B->orig_rows) {
    std::ostringstream os;
    os << "A depth " << A.cols() << " != weights k " << B->orig_rows;
    return ready(Status::InvalidArgument(os.str()));
  }
  if (C.rows() != A.rows() || C.cols() != B->cols) {
    std::ostringstream os;
    os << "C is " << C.rows() << "x" << C.cols() << " but must be "
       << A.rows() << "x" << B->cols;
    return ready(Status::InvalidArgument(os.str()));
  }
  if (options.epilogue.active() || options.prologue.active()) {
    return ready(Status::InvalidArgument(
        "batched submissions cannot carry epilogue or prologue operands; "
        "submit whole FFN blocks through submit_ffn instead"));
  }
  Target target{B, std::move(options), B->orig_rows, B->cols};
  return enqueue(std::move(target), A, C, deadline_us, submitted);
}

std::future<Status> Server::submit_ffn(ConstViewF A,
                                       std::shared_ptr<model::ModelPlan> plan,
                                       ViewF out, std::uint64_t deadline_us) {
  const auto submitted = Clock::now();
  if (plan == nullptr) {
    return ready(Status::InvalidArgument("model plan shared_ptr is null"));
  }
  if (A.rows() < 1) {
    return ready(Status::InvalidArgument("activation batch is empty"));
  }
  if (A.cols() != plan->hidden_in()) {
    std::ostringstream os;
    os << "A depth " << A.cols() << " != model hidden " << plan->hidden_in();
    return ready(Status::InvalidArgument(os.str()));
  }
  if (out.rows() != A.rows() || out.cols() != plan->hidden_out()) {
    std::ostringstream os;
    os << "out is " << out.rows() << "x" << out.cols() << " but must be "
       << A.rows() << "x" << plan->hidden_out();
    return ready(Status::InvalidArgument(os.str()));
  }
  if (A.rows() > plan->planned_tokens()) {
    std::ostringstream os;
    os << "request of " << A.rows() << " tokens exceeds the plan's "
       << plan->planned_tokens() << "-token budget";
    return ready(Status::FailedPrecondition(os.str()));
  }
  Target target{plan, {}, plan->hidden_in(), plan->hidden_out(),
                plan->planned_tokens()};
  return enqueue(std::move(target), A, out, deadline_us, submitted);
}

std::future<Status> Server::submit_decode(
    std::uint64_t seq_id, ConstViewF A,
    std::shared_ptr<model::DecoderPlan> plan, ViewF out,
    std::uint64_t deadline_us) {
  const auto submitted = Clock::now();
  if (plan == nullptr) {
    return ready(Status::InvalidArgument("decoder plan shared_ptr is null"));
  }
  if (A.rows() != 1) {
    return ready(Status::InvalidArgument(
        "submit_decode takes exactly one token row per sequence step"));
  }
  if (A.cols() != plan->hidden()) {
    std::ostringstream os;
    os << "A depth " << A.cols() << " != decoder hidden " << plan->hidden();
    return ready(Status::InvalidArgument(os.str()));
  }
  if (out.rows() != 1 || out.cols() != plan->hidden()) {
    std::ostringstream os;
    os << "out is " << out.rows() << "x" << out.cols() << " but must be 1x"
       << plan->hidden();
    return ready(Status::InvalidArgument(os.str()));
  }
  Target target{plan, {}, plan->hidden(), plan->hidden(),
                plan->planned_tokens()};
  return enqueue(std::move(target), A, out, deadline_us, submitted, seq_id);
}

std::future<Status> Server::enqueue(Target target, ConstViewF A, ViewF C,
                                    std::uint64_t deadline_us,
                                    Clock::time_point submitted,
                                    std::uint64_t seq_id) {
  if (stop_.load(std::memory_order_seq_cst)) {
    return ready(Status::Unavailable("server is shut down"));
  }

  // Trace sampling: every accepted request draws a ticket; 1 in
  // trace_sample_n carries a nonzero trace id through its whole life
  // cycle. One relaxed fetch_add when tracing is on, nothing at all when
  // it is off.
  std::uint64_t trace_id = 0;
  if (tracer_ != nullptr) {
    const std::uint64_t n =
        trace_seq_.fetch_add(1, std::memory_order_relaxed);
    if (n % options_.trace_sample_n == 0) trace_id = n + 1;
  }
  BatchRequest request{A, C, {}, submitted, Execution::kUnset,
                       deadline_from(submitted, deadline_us), trace_id,
                       seq_id};
  std::future<Status> result = request.done.get_future();

  // Admission control. A request is sheddable when the policy says so
  // for its class; a sheddable request is refused with RESOURCE_EXHAUSTED
  // instead of ever blocking (ring full, or admitting it would push the
  // server's pending work past a high-water mark). kShedByClass protects
  // the 1-row decode stream: decode follows the kBlock path.
  const auto rows = static_cast<std::uint64_t>(A.rows());
  const std::size_t bytes = staging_bytes(A.rows(), A.cols(), C.cols());
  const bool sheddable =
      options_.admission == AdmissionPolicy::kShed ||
      (options_.admission == AdmissionPolicy::kShedByClass && A.rows() > 1);
  auto count_shed = [&] {
    shed_requests_.fetch_add(1, std::memory_order_relaxed);
    shed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  };
  if (sheddable) {
    const bool over_rows =
        options_.shed_pending_rows != 0 &&
        pending_rows_.load(std::memory_order_relaxed) + rows >
            options_.shed_pending_rows;
    const bool over_bytes =
        options_.shed_pending_bytes != 0 &&
        pending_bytes_.load(std::memory_order_relaxed) + bytes >
            options_.shed_pending_bytes;
    if (over_rows || over_bytes) {
      count_shed();
      request.done.set_value(Status::ResourceExhausted(
          over_rows ? "request shed: pending rows over high-water mark"
                    : "request shed: pending bytes over high-water mark"));
      return result;
    }
  }

  // Lock-free publish path. The entrants counter brackets the whole
  // protocol so the shutdown drain can prove no submitter is about to
  // publish: a submitter either increments entrants before the
  // dispatcher's entrants == 0 read (the dispatcher keeps draining), or
  // after it — in which case seq_cst ordering forces this stop_ load to
  // see the store that preceded that read, and the submitter fails fast
  // without publishing.
  entrants_.fetch_add(1, std::memory_order_seq_cst);
  if (stop_.load(std::memory_order_seq_cst)) {
    entrants_.fetch_sub(1, std::memory_order_seq_cst);
    request.done.set_value(Status::Unavailable("server is shut down"));
    return result;
  }
  pending_rows_.fetch_add(rows, std::memory_order_relaxed);
  pending_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  request.enqueued = Clock::now();
  SubmitMsg msg{std::move(target), std::move(request)};
  // Undo the publish-protocol counters on any abort below (the request
  // never reaches the ring, so nothing downstream will release them).
  auto release = [&] {
    pending_rows_.fetch_sub(rows, std::memory_order_relaxed);
    pending_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    entrants_.fetch_sub(1, std::memory_order_seq_cst);
  };
  bool stalled = false;
  unsigned spins = 0;
  for (;;) {
    const bool forced_full = NMSPMM_FAULT_FIRE(kRingFull);
    if (!forced_full && ring_.try_push(msg)) break;
    // Ring full ⇒ the dispatcher is awake and draining (it only sleeps
    // with an empty ring). A sheddable request fails fast; a blocking
    // one backs off until a slot frees, its own deadline expires, or
    // shutdown lands.
    if (sheddable) {
      release();
      count_shed();
      msg.request.done.set_value(
          Status::ResourceExhausted("request shed: submission ring full"));
      return result;
    }
    // Counted once per stalled request, not per retry.
    if (!stalled) {
      stalled = true;
      ring_stalls_.fetch_add(1, std::memory_order_relaxed);
    }
    if (stop_.load(std::memory_order_seq_cst)) {
      release();
      msg.request.done.set_value(
          Status::Unavailable("server shut down while awaiting ring space"));
      return result;
    }
    if (msg.request.has_deadline() && Clock::now() > msg.request.deadline) {
      // The submitter's own SLO ran out while stalled: spinning past it
      // only adds more load at the worst possible moment.
      release();
      submit_deadline_fails_.fetch_add(1, std::memory_order_relaxed);
      msg.request.done.set_value(Status::DeadlineExceeded(
          "deadline expired while stalled on a full submission ring"));
      return result;
    }
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // Eventcount publish: the counter RMW plus the sleeping load are both
  // seq_cst, pairing with the dispatcher's {sleeping = true; load
  // pushed} — one side always sees the other (no lost wakeup).
  pushed_.fetch_add(1, std::memory_order_seq_cst);
  if (sleeping_.load(std::memory_order_seq_cst)) {
    if (!NMSPMM_FAULT_FIRE(kDropWake)) {
      { std::lock_guard lock(mutex_); }
      cv_.notify_all();
    }
  }
  entrants_.fetch_sub(1, std::memory_order_seq_cst);
  return result;
}

std::shared_ptr<Server::Group> Server::group_for(Target target) {
  std::shared_ptr<Group>& slot =
      groups_[GroupKey{target.id(), target.options}];
  if (slot == nullptr) {
    slot = std::make_shared<Group>();
    slot->target = std::move(target);
    if (options_.telemetry) {
      slot->telemetry = std::make_shared<serve::Telemetry>();
    }
    groups_seen_.fetch_add(1, std::memory_order_relaxed);
  }
  return slot;
}

std::size_t Server::drain_ring(std::uint64_t& drained,
                               std::vector<SubmitMsg>& scratch) {
  scratch.clear();
  SubmitMsg msg;
  while (ring_.try_pop(msg)) scratch.push_back(std::move(msg));
  if (scratch.empty()) return 0;
  drained += scratch.size();
  std::lock_guard lock(mutex_);
  for (SubmitMsg& m : scratch) {
    const std::shared_ptr<Group> group = group_for(std::move(m.target));
    Group& g = *group;
    const auto rows = static_cast<std::uint64_t>(m.request.a.rows());
    g.counters.requests.fetch_add(1, std::memory_order_relaxed);
    g.counters.rows.fetch_add(rows, std::memory_order_relaxed);
    totals_.requests.fetch_add(1, std::memory_order_relaxed);
    totals_.rows.fetch_add(rows, std::memory_order_relaxed);
    g.queue.push(std::move(m.request));
    atomic_max(g.counters.max_queue_depth, g.queue.max_depth_seen());
    atomic_max(totals_.max_queue_depth, g.queue.max_depth_seen());
  }
  const std::size_t popped = scratch.size();
  scratch.clear();
  prune_idle_groups();  // bounded retention even under group churn
  return popped;
}

Server::PendingBatch Server::next_batch(Clock::time_point now) {
  PendingBatch batch;
  const std::chrono::microseconds wait(options_.max_wait_us);
  const std::chrono::microseconds margin(options_.slo_margin_us);
  std::lock_guard lock(mutex_);
  const bool draining = stop_.load(std::memory_order_relaxed);
  // Among ready groups, serve the one whose front request is oldest —
  // sustained row-budget traffic on one group must not starve another
  // group's deadline-expired requests.
  const auto row_budget = [this](const Group& group) {
    return std::min(options_.max_batch_rows, group.target.max_rows);
  };
  const std::shared_ptr<Group>* pick = nullptr;
  for (auto& [key, group] : groups_) {
    BatchQueue& queue = group->queue;
    if (queue.empty()) continue;
    if (!draining && !queue.ready(now, row_budget(*group), wait,
                                  options_.slo_aware, margin)) {
      continue;
    }
    if (pick == nullptr || queue.oldest() < (*pick)->queue.oldest()) {
      pick = &group;
    }
  }
  if (pick == nullptr) return batch;

  Group& g = **pick;
  const index_t budget = row_budget(g);
  // Attribute the flush before popping mutates the queue. During drain a
  // not-otherwise-ready queue flushes for shutdown; count it with the
  // timeout flushes.
  FlushReason reason = FlushReason::kShutdown;
  if (g.queue.ready(now, budget, wait, options_.slo_aware, margin)) {
    reason = g.queue.flush_reason(now, budget, wait);
  }
  batch.group = *pick;
  batch.exec.popped = now;
  batch.exec.flush = trace_flush_byte(reason);
  batch.requests = g.queue.take_batch(budget);
  for (const BatchRequest& r : batch.requests) batch.rows += r.a.rows();
  g.counters.batches.fetch_add(1, std::memory_order_relaxed);
  g.counters.count_flush(reason);
  totals_.batches.fetch_add(1, std::memory_order_relaxed);
  totals_.count_flush(reason);
  return batch;
}

void Server::prune_idle_groups() {
  if (groups_.size() <= options_.max_groups) return;
  for (auto it = groups_.begin();
       it != groups_.end() && groups_.size() > options_.max_groups;) {
    // Idle = empty queue. A group whose batch is mid-flight on the
    // dispatcher may be evicted safely: the PendingBatch holds shared
    // ownership of the Group (and its weights / plan / telemetry), and
    // server totals already carry every counter. An evicted group that
    // comes back starts fresh.
    if (it->second->queue.empty()) {
      it = groups_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::prune_staging(StagingMap& staging) {
  // Staging buffers are keyed per batch target; release those no live
  // group references any more.
  std::unordered_set<const void*> alive;
  for (const auto& [key, group] : groups_) alive.insert(key.target);
  for (auto it = staging.begin(); it != staging.end();) {
    it = alive.count(it->first) != 0 ? std::next(it) : staging.erase(it);
  }
}

void Server::complete(Group& g, BatchRequest& r, const Execution& x,
                      const Status& status) {
  // Record before resolving the future: a caller that joins on its
  // future and then reads stats() must see its own sample.
  const auto resolved = Clock::now();
  const auto cls = serve::classify_rows(r.a.rows());
  if (r.has_deadline() && resolved > r.deadline) {
    g.counters.slo_violations.fetch_add(1, std::memory_order_relaxed);
    totals_.slo_violations.fetch_add(1, std::memory_order_relaxed);
    if (g.telemetry != nullptr) g.telemetry->count_violation(cls);
    if (telemetry_ != nullptr) telemetry_->count_violation(cls);
  }
  if (!status.ok()) {
    g.counters.errors.fetch_add(1, std::memory_order_relaxed);
    totals_.errors.fetch_add(1, std::memory_order_relaxed);
  }

  const bool traced = r.trace_id != 0 && tracer_ != nullptr;
  obs::TraceSpan span;
  span.trace_id = r.trace_id;
  span.target = static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(g.target.id()));
  span.rows = static_cast<std::uint32_t>(r.a.rows());
  span.cls = trace_cls_byte(cls);
  auto record = [&](serve::Stage stage, Clock::time_point from,
                    Clock::time_point to) {
    // Group and server recorders both take every sample: the server's
    // survives group eviction, the group's serves per-target queries.
    const std::uint64_t us = elapsed_us(from, to);
    if (g.telemetry != nullptr) g.telemetry->record(cls, stage, us);
    if (telemetry_ != nullptr) telemetry_->record(cls, stage, us);
    if (!traced) return;
    span.kind = static_cast<obs::SpanKind>(stage);
    span.ts_us = tracer_->to_us(from);
    span.dur_us = us;
    tracer_->record(span);
  };
  // Stage s runs from boundary s to boundary s + 1 (serve::Stage order)
  // and is recorded only when the request reached both.
  const Clock::time_point at[] = {r.submitted, r.enqueued, x.popped,
                                  x.start, x.end};
  for (int s = 0; s < serve::kNumStages - 1; ++s) {
    if (at[s] == Execution::kUnset || at[s + 1] == Execution::kUnset) {
      continue;
    }
    const auto stage = static_cast<serve::Stage>(s);
    // A request's submit stage ended before it joined a batch, so that
    // span carries no batch attributes.
    const bool batch_attrs = stage != serve::Stage::kSubmit;
    span.flush = batch_attrs ? x.flush : obs::kNoAttr;
    span.detail = stage == serve::Stage::kExecute ? x.repacks : 0;
    record(stage, at[s], at[s + 1]);
  }
  span.flush = x.flush;
  span.detail = 0;
  record(serve::Stage::kTotal, r.submitted, resolved);

  // Release the admission gauges before fulfilling the promise: a
  // caller that joins and submits again must not find its own finished
  // request still counted against the high-water marks.
  pending_rows_.fetch_sub(static_cast<std::uint64_t>(r.a.rows()),
                               std::memory_order_relaxed);
  pending_bytes_.fetch_sub(
      staging_bytes(r.a.rows(), r.a.cols(), r.c.cols()),
      std::memory_order_relaxed);
  r.done.set_value(status);
}

Status Server::serve_batch(PendingBatch& batch, StagingMap& staging) {
  Group& g = *batch.group;
  const Target& target = g.target;
  // Chaos hook: artificial execute latency (no-op by default).
  NMSPMM_FAULT_EXECUTE_DELAY();

  // A lone request needs no gather/scatter: its own views go straight
  // to the target (same plan caches, zero copies). A batch of several
  // gathers into one staged block, so one execution serves them all.
  BatchRequest& front = batch.requests.front();
  ConstViewF a = front.a;
  ViewF c = front.c;
  const std::uint64_t* seq_ids = &front.seq_id;
  const bool gathered = batch.requests.size() > 1;
  if (gathered) {
    const index_t k = target.k;
    const index_t n = target.n;
    const index_t capacity = std::max(batch.rows, options_.max_batch_rows);
    // Bound dispatcher memory before it grows: a trip here unwinds into
    // the dispatcher's exception guard, failing this batch with
    // RESOURCE_EXHAUSTED while the server keeps serving. Real bad_alloc
    // from the MatrixF growth below takes the same guard path.
    if (options_.max_staging_bytes != 0 &&
        staging_bytes(capacity, k, n) > options_.max_staging_bytes) {
      std::ostringstream os;
      os << "batch of " << batch.rows << " rows needs "
         << staging_bytes(capacity, k, n)
         << " staging bytes, over max_staging_bytes="
         << options_.max_staging_bytes;
      throw ResourceExhaustedError(os.str());
    }
    if (NMSPMM_FAULT_FIRE(kStagingAlloc)) {
      throw ResourceExhaustedError("injected staging allocation failure");
    }
    Staging& st = staging[target.id()];
    if (st.a.rows() < batch.rows || st.a.cols() != k) {
      st.a = MatrixF(capacity, k);
    }
    if (st.c.rows() < batch.rows || st.c.cols() != n) {
      st.c = MatrixF(capacity, n);
    }
    // Row i of the staged block carries its request's KV sequence
    // (decode requests are exactly one row each).
    st.seq_ids.clear();
    index_t row = 0;
    for (const BatchRequest& r : batch.requests) {
      for (index_t i = 0; i < r.a.rows(); ++i) {
        std::copy_n(r.a.row(i), k, st.a.row(row++));
        st.seq_ids.push_back(r.seq_id);
      }
    }
    a = st.a.view().block(0, 0, batch.rows, k);
    c = st.c.view().block(0, 0, batch.rows, n);
    seq_ids = st.seq_ids.data();
  }

  // One execution serves the batch; its window and the WeightStore
  // repacks inside it are the batch's execute stage.
  std::vector<Status> row_status(static_cast<std::size_t>(batch.rows));
  Execution& x = batch.exec;
  const std::uint64_t repacks_before = obs::repack_events();
  x.start = Clock::now();
  const Status status = target.run(engine_, a, seq_ids, c, row_status.data());
  x.end = Clock::now();
  x.repacks = obs::repack_events() - repacks_before;
  // Each request resolves with the batch's status, or its own row's (a
  // per-sequence decode failure fails that request alone); only rows
  // that succeeded scatter back.
  Status worst = status;
  index_t row = 0;
  for (BatchRequest& r : batch.requests) {
    const Status rs =
        status.ok() ? row_status[static_cast<std::size_t>(row)] : status;
    if (rs.ok() && gathered) {
      for (index_t i = 0; i < r.c.rows(); ++i) {
        std::copy_n(c.row(row + i), target.n, r.c.row(i));
      }
    }
    if (worst.ok()) worst = rs;
    row += r.a.rows();
    complete(g, r, batch.exec, rs);
    ++batch.resolved;
  }
  return worst;
}

void Server::fail_batch(PendingBatch& batch, const Status& status) {
  for (std::size_t i = batch.resolved; i < batch.requests.size(); ++i) {
    complete(*batch.group, batch.requests[i], batch.exec, status);
  }
}

void Server::dispatcher_loop() {
  // Staging buffers live on this dispatcher's stack: only this thread
  // gathers/scatters, so they need no locking and are
  // reused batch after batch (no per-batch allocation once warm).
  StagingMap staging;
  std::vector<SubmitMsg> scratch;
  // Eventcount position: messages this dispatcher has popped. Compared
  // against pushed_ to decide whether sleeping is safe.
  std::uint64_t drained = 0;
  for (;;) {
    drain_ring(drained, scratch);
    PendingBatch batch = next_batch(Clock::now());
    if (batch.group != nullptr) {
      // Drain fast-fail: once shutdown() is in flight, a request whose
      // deadline already expired can never be served within its SLO —
      // fail it immediately with DEADLINE_EXCEEDED instead of spending
      // the drain's remaining time computing an answer nobody is
      // waiting for (and instead of hanging its future).
      if (stop_.load(std::memory_order_relaxed)) {
        const auto now = Clock::now();
        std::vector<BatchRequest> live;
        live.reserve(batch.requests.size());
        for (BatchRequest& r : batch.requests) {
          if (r.has_deadline() && now > r.deadline) {
            complete(*batch.group, r, batch.exec,
                     Status::DeadlineExceeded("deadline expired before the "
                                              "drain reached the request"));
          } else {
            live.push_back(std::move(r));
          }
        }
        batch.requests = std::move(live);
        batch.rows = 0;
        for (const BatchRequest& r : batch.requests) {
          batch.rows += r.a.rows();
        }
        if (batch.requests.empty()) continue;
      }
      // Exception guard (ROADMAP): a failure assembling or running the
      // batch fails this batch's futures instead of std::terminate-ing
      // the process on a bare thread. Allocation / budget exhaustion
      // (staging growth, max_staging_bytes, repack-on-demand) surfaces
      // as RESOURCE_EXHAUSTED — retryable; anything else is a genuine
      // invariant trip and stays INTERNAL.
      try {
        // Per-request error accounting happens inside complete(); the
        // returned worst status is only of interest to tests.
        static_cast<void>(serve_batch(batch, staging));
      } catch (const std::bad_alloc& e) {
        fail_batch(batch, Status::ResourceExhausted(e.what()));
        flight_dump();
      } catch (const std::exception& e) {
        fail_batch(batch, Status::Internal(e.what()));
        flight_dump();
      }
      {
        std::lock_guard lock(mutex_);
        prune_idle_groups();
        prune_staging(staging);
      }
      continue;  // more groups may be ready; drain before sleeping
    }

    // Nothing ready. Shutdown drain exit: with stop_ set and no
    // submitter inside the publish protocol, no new message can ever
    // arrive (see enqueue()); once the ring and every queue are empty
    // the server is fully drained.
    if (stop_.load(std::memory_order_seq_cst) &&
        entrants_.load(std::memory_order_seq_cst) == 0) {
      drain_ring(drained, scratch);
      if (ring_.empty()) {
        std::lock_guard lock(mutex_);
        bool pending = false;
        for (const auto& [key, group] : groups_) {
          if (!group->queue.empty()) {
            pending = true;
            break;
          }
        }
        if (!pending) return;
      }
      continue;
    }

    // Sleep until new work (eventcount), a queue deadline, or shutdown.
    auto earliest = Clock::time_point::max();
    bool any_pending = false;
    std::unique_lock lock(mutex_);
    for (const auto& [key, group] : groups_) {
      if (group->queue.empty()) continue;
      any_pending = true;
      earliest = std::min(
          earliest, group->queue.deadline(
                        std::chrono::microseconds(options_.max_wait_us)));
      if (options_.slo_aware) {
        // Wake early enough to flush ahead of the tightest SLO deadline.
        earliest = std::min(
            earliest, group->queue.slo_flush_at(std::chrono::microseconds(
                          options_.slo_margin_us)));
      }
    }
    sleeping_.store(true, std::memory_order_seq_cst);
    const auto pred = [&drained, this] {
      return pushed_.load(std::memory_order_seq_cst) != drained ||
             stop_.load(std::memory_order_seq_cst);
    };
    if (!pred()) {
      if (any_pending) {
        cv_.wait_until(lock, earliest, pred);
      } else {
        cv_.wait(lock, pred);
      }
    }
    sleeping_.store(false, std::memory_order_relaxed);
  }
}

Status Server::dump_trace(const std::string& path) const {
  if (tracer_ == nullptr) {
    return Status::FailedPrecondition(
        "tracing is off (ServerOptions::trace_sample_n == 0)");
  }
  return tracer_->dump_chrome_json(path);
}

void Server::flight_dump() const {
  // The flight recorder: after an injected-fault (or real) batch
  // failure the last trace_buffer_spans spans land on disk unasked.
  if (tracer_ == nullptr || options_.trace_flight_path.empty()) return;
  static_cast<void>(tracer_->dump_chrome_json(options_.trace_flight_path));
}

Server::Stats Server::stats() const {
  Stats stats;
  if (tracer_ != nullptr) {
    stats.trace_spans = tracer_->recorded();
    stats.trace_drops = tracer_->drops();
  }
  stats.totals = totals_.snapshot();
  stats.per_shard.push_back(stats.totals);
  stats.groups = groups_seen_.load(std::memory_order_relaxed);
  stats.ring_stalls = ring_stalls_.load(std::memory_order_relaxed);
  stats.shed_requests = shed_requests_.load(std::memory_order_relaxed);
  stats.shed_bytes = shed_bytes_.load(std::memory_order_relaxed);
  stats.submit_deadline_fails =
      submit_deadline_fails_.load(std::memory_order_relaxed);
  if (telemetry_ != nullptr) stats.latency = telemetry_->snapshot();
  return stats;
}

Server::GroupStats Server::target_stats(const void* target) const {
  std::lock_guard lock(mutex_);
  GroupStats stats;
  for (const auto& [key, group] : groups_) {
    if (key.target == target) accumulate(stats, group->counters.snapshot());
  }
  return stats;
}

Server::GroupStats Server::weights_stats(const CompressedNM* weights) const {
  return target_stats(weights);
}

Server::GroupStats Server::model_stats(const model::ModelPlan* plan) const {
  return target_stats(plan);
}

Server::GroupStats Server::decode_stats(
    const model::DecoderPlan* plan) const {
  return target_stats(plan);
}

serve::TelemetrySnapshot Server::weights_latency(
    const CompressedNM* weights) const {
  std::lock_guard lock(mutex_);
  serve::TelemetrySnapshot snap;
  for (const auto& [key, group] : groups_) {
    if (key.target == weights && group->telemetry != nullptr) {
      snap.merge(group->telemetry->snapshot());
    }
  }
  return snap;
}

}  // namespace nmspmm
