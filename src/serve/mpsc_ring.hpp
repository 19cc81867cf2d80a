// Bounded lock-free MPSC ring — the submission queue between Server
// submit threads and its dispatcher (serve/server.hpp).
//
// Design: Vyukov's bounded queue with per-cell sequence numbers,
// restricted to a single consumer. Producers claim a slot by CAS on the
// tail cursor and publish the payload with a release store of the
// cell's sequence; the consumer observes publication with an acquire
// load of the same sequence and recycles the cell one lap ahead.
//
// Why per-cell sequencing instead of a head/tail pair: with a shared
// head cursor every producer's full/empty test reads the consumer's
// cache line, so a busy consumer ping-pongs that line across every
// submitting core (the classic cached-head problem; caching the head
// locally only defers it). Here a producer touches exactly one cell
// plus the producer-shared tail — the consumer's head cursor is a
// plain (non-atomic) member no producer ever reads, so submission
// throughput is independent of consumer progress until the ring is
// genuinely full.
//
// Progress guarantees, per operation:
//   try_push  lock-free across producers (a stalled producer cannot
//             block others; its claimed cell is simply not yet visible
//             to the consumer, which stops popping at the first
//             unpublished cell — FIFO is preserved).
//   try_pop   wait-free (single consumer, no loops).
// Neither blocks, allocates, or takes a lock. Both return false instead
// of waiting (ring full / nothing published); callers own the retry or
// backoff policy (the Server counts a stall and backs off).
//
// The consumer resets popped cells to a default-constructed T before
// recycling them so payload resources (shared_ptrs to weights, promise
// state) are released as soon as the message is consumed, not one lap
// later.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <utility>

#include "util/check.hpp"

namespace nmspmm::serve {

template <typename T>
class MpscRing {
 public:
  /// @param capacity slots in the ring; rounded up to a power of two
  /// (minimum 2) so index wrapping is a mask, not a division.
  explicit MpscRing(std::size_t capacity) {
    if (capacity < 2) capacity = 2;
    capacity = std::bit_ceil(capacity);
    mask_ = capacity - 1;
    cells_ = std::make_unique<Cell[]>(capacity);
    // Cell i is writable for ticket i of lap 0: seq == ticket means
    // "free for the producer holding this ticket".
    for (std::size_t i = 0; i < capacity; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Multi-producer push. Returns false (without consuming @p value)
  /// when the ring is full; the payload is moved from only on success.
  [[nodiscard]] bool try_push(T& value) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq == pos) {
        // Cell is free for ticket pos; race other producers for it.
        // Weak CAS: a spurious failure just re-reads the tail.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(value);
          // Publish: the consumer's acquire load of seq == pos + 1 sees
          // the payload store above.
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure loaded the fresh tail into pos; retry there.
      } else if (seq < pos) {
        // The cell still holds an entry from the previous lap that the
        // consumer has not recycled: the ring is full. (seq only ever
        // trails a ticket by exactly one lap, so '<' is a full test,
        // not a transient.)
        return false;
      } else {
        // Another producer claimed ticket pos; chase the tail.
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single-consumer pop. Returns false when no published entry is
  /// pending (an entry mid-publication by a stalled producer counts as
  /// not pending — FIFO order is never reordered around it).
  [[nodiscard]] bool try_pop(T& out) {
    Cell& cell = cells_[head_ & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    if (seq != head_ + 1) return false;  // unclaimed or not yet published
    out = std::move(cell.value);
    cell.value = T{};  // drop payload resources now, not one lap later
    // Recycle for the producer of the next lap (ticket head_ + cap).
    cell.seq.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    return true;
  }

  /// Consumer-side view: true when the next cell holds no published
  /// entry. Only meaningful on the consumer thread (producers racing in
  /// can invalidate it immediately).
  [[nodiscard]] bool empty() const {
    return cells_[head_ & mask_].seq.load(std::memory_order_acquire) !=
           head_ + 1;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  // Producers share tail_; the consumer owns head_ exclusively (plain
  // member — never read by producers, see file comment). Separate cache
  // lines so producer CAS traffic does not invalidate the consumer's
  // cursor line.
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::size_t head_ = 0;
  alignas(64) std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
};

}  // namespace nmspmm::serve
