// Building blocks of the dynamic micro-batching front end (serve/server.hpp).
//
// A BatchRequest is one caller's pending SpMM: non-owning views into the
// caller's activation rows and output block plus the promise that reports
// its Status. A BatchQueue is the FIFO of pending requests against one
// (weights, options) group and implements the batching policy decisions:
// when must the front of the queue flush (row budget reached, the oldest
// request has waited past the max-wait window, or a pending request's SLO
// deadline is approaching), and which whole requests fit into the next
// batch. The queue itself is not thread-safe — the Server's mutex
// serializes every access (its dispatcher filling it from the MPSC
// submission ring and flushing batches; per-target stats queries
// reading depths). Submitting threads never touch a BatchQueue: they
// publish onto the lock-free ring instead (serve/mpsc_ring.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <utility>
#include <vector>

#include "core/engine.hpp"

namespace nmspmm {

/// One pending request. The views alias caller-owned memory; the caller
/// must keep A and C alive until the returned future resolves.
struct BatchRequest {
  ConstViewF a;
  ViewF c;
  std::promise<Status> done;
  /// When submit() was entered — start of the end-to-end latency clock.
  std::chrono::steady_clock::time_point submitted;
  std::chrono::steady_clock::time_point enqueued;
  /// Absolute SLO deadline; time_point::max() when the caller set none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Nonzero when this request was sampled for span tracing
  /// (obs/trace.hpp); the id ties its per-stage spans together.
  std::uint64_t trace_id = 0;
  /// Decode requests only (Server::submit_decode): the KV-cache
  /// sequence this token row extends.
  std::uint64_t seq_id = 0;

  [[nodiscard]] bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
};

/// Why a batch left its queue.
enum class FlushReason {
  kFull,      ///< pending rows reached the batch row budget
  kTimeout,   ///< the oldest request aged past max_wait
  kSlo,       ///< a pending request's deadline was approaching
  kShutdown,  ///< server drain: everything pending flushes
};

class BatchQueue {
 public:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t depth() const { return pending_.size(); }
  [[nodiscard]] index_t pending_rows() const { return pending_rows_; }
  [[nodiscard]] std::size_t max_depth_seen() const { return max_depth_; }

  void push(BatchRequest request) {
    pending_rows_ += request.a.rows();
    min_deadline_ = std::min(min_deadline_, request.deadline);
    pending_.push_back(std::move(request));
    max_depth_ = std::max(max_depth_, pending_.size());
  }

  /// Arrival time of the oldest pending request (non-empty queues only);
  /// the dispatcher serves ready queues oldest-first so sustained load on
  /// one group cannot starve another past its deadline.
  [[nodiscard]] Clock::time_point oldest() const {
    return pending_.front().enqueued;
  }

  /// Earliest instant at which the queue must flush even when not full.
  /// Only meaningful when non-empty.
  [[nodiscard]] Clock::time_point deadline(
      std::chrono::microseconds max_wait) const {
    return oldest() + max_wait;
  }

  /// Tightest SLO deadline among pending requests; time_point::max()
  /// when none carries one.
  [[nodiscard]] Clock::time_point min_deadline() const {
    return min_deadline_;
  }

  /// Instant at which an SLO-aware dispatcher must flush to leave
  /// @p slo_margin of service time before the tightest pending deadline.
  /// time_point::max() when no pending request has a deadline.
  [[nodiscard]] Clock::time_point slo_flush_at(
      std::chrono::microseconds slo_margin) const {
    if (min_deadline_ == Clock::time_point::max()) return min_deadline_;
    return min_deadline_ - slo_margin;
  }

  /// Must the front of the queue flush now? True when the row budget is
  /// met, the oldest request has waited out max_wait, or (when @p
  /// slo_aware) a pending deadline is within slo_margin.
  [[nodiscard]] bool ready(Clock::time_point now, index_t max_rows,
                           std::chrono::microseconds max_wait,
                           bool slo_aware = false,
                           std::chrono::microseconds slo_margin =
                               std::chrono::microseconds{0}) const {
    if (pending_.empty()) return false;
    if (pending_rows_ >= max_rows || now >= deadline(max_wait)) return true;
    return slo_aware && now >= slo_flush_at(slo_margin);
  }

  /// Why ready() fired — full beats timeout beats SLO, matching the
  /// order a dispatcher would prefer to flush for.
  [[nodiscard]] FlushReason flush_reason(
      Clock::time_point now, index_t max_rows,
      std::chrono::microseconds max_wait) const {
    if (pending_rows_ >= max_rows) return FlushReason::kFull;
    if (now >= deadline(max_wait)) return FlushReason::kTimeout;
    return FlushReason::kSlo;
  }

  /// Pop whole requests from the front until the next one would exceed
  /// @p max_rows. Always takes at least one request, so a single request
  /// larger than the budget becomes its own batch rather than starving.
  [[nodiscard]] std::vector<BatchRequest> take_batch(index_t max_rows) {
    std::vector<BatchRequest> batch;
    index_t rows = 0;
    while (!pending_.empty() &&
           (batch.empty() || rows + pending_.front().a.rows() <= max_rows)) {
      rows += pending_.front().a.rows();
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    pending_rows_ -= rows;
    // The popped requests may have carried the tightest deadline; rescan
    // what remains. O(depth), only on flush — never on the submit path.
    min_deadline_ = Clock::time_point::max();
    for (const BatchRequest& r : pending_) {
      min_deadline_ = std::min(min_deadline_, r.deadline);
    }
    return batch;
  }

 private:
  std::deque<BatchRequest> pending_;
  index_t pending_rows_ = 0;
  std::size_t max_depth_ = 0;
  Clock::time_point min_deadline_ = Clock::time_point::max();
};

}  // namespace nmspmm
