// Deterministic fault injection for the serving stack.
//
// Compiled in only under NMSPMM_FAULT_INJECT (cmake -DNMSPMM_FAULT_INJECT=ON);
// default builds expand every hook to a constant and carry no injector
// symbols, so the hot path pays nothing.
//
// A FaultPlan is a seed plus a per-site firing rate. Each probe of a site
// draws its decision by hashing (seed, site, probe-index), so the n-th probe
// of a site fires identically on every run with the same plan — schedules
// are replayable regardless of thread interleaving, which is what lets the
// chaos suite assert exact counter conservation under racing submitters.
//
// Sites:
//   kStagingAlloc — dispatcher batch-staging allocation fails (bad_alloc)
//   kRepackAlloc  — WeightStore repack-on-demand allocation fails
//   kExecuteDelay — artificial latency injected before the dispatcher
//                   executes a batch
//   kRingFull     — submit() sees the submission ring as full (forced
//                   window)
//   kDropWake     — a submitter's eventcount notify is dropped
#pragma once

#include <cstdint>

#ifdef NMSPMM_FAULT_INJECT
#include <atomic>
#include <chrono>
#include <thread>
#endif

namespace nmspmm::serve {

enum class FaultSite : std::uint8_t {
  kStagingAlloc = 0,
  kRepackAlloc,
  kExecuteDelay,
  kRingFull,
  kDropWake,
};
inline constexpr int kNumFaultSites = 5;

/// Seeded, replayable fault schedule. rate[site] is a firing probability in
/// parts per 256 (0 = never, 256 = every probe).
struct FaultPlan {
  std::uint64_t seed = 0;
  std::uint16_t rate[kNumFaultSites] = {0, 0, 0, 0, 0};
  std::uint32_t execute_delay_us = 200;  ///< sleep when kExecuteDelay fires

  std::uint16_t& rate_of(FaultSite site) {
    return rate[static_cast<int>(site)];
  }
};

#ifdef NMSPMM_FAULT_INJECT

/// Process-wide injector. arm() installs a plan; every NMSPMM_FAULT_FIRE
/// probe then draws a deterministic decision. disarm() restores pass-through
/// (and is safe to leave to a test fixture's teardown).
class FaultInjector {
 public:
  static FaultInjector& instance();

  void arm(const FaultPlan& plan);
  void disarm();
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_acquire);
  }

  /// Decides (and records) whether the next probe of `site` fires. The
  /// decision depends only on (plan seed, site, per-site probe index).
  bool should_fire(FaultSite site);

  [[nodiscard]] std::uint32_t execute_delay_us() const {
    return plan_.execute_delay_us;
  }
  /// Total probes / fired probes of a site since the last arm().
  [[nodiscard]] std::uint64_t probes(FaultSite site) const {
    return probes_[static_cast<int>(site)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fired(FaultSite site) const {
    return fired_[static_cast<int>(site)].load(std::memory_order_relaxed);
  }

 private:
  FaultInjector() = default;

  std::atomic<bool> armed_{false};
  FaultPlan plan_;
  std::atomic<std::uint64_t> probes_[kNumFaultSites];
  std::atomic<std::uint64_t> fired_[kNumFaultSites];
};

/// RAII arm/disarm for tests: faults stay scoped to one scenario even when
/// an assertion throws out of it.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan) {
    FaultInjector::instance().arm(plan);
  }
  ~ScopedFaultPlan() { FaultInjector::instance().disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

#define NMSPMM_FAULT_FIRE(site)                   \
  (::nmspmm::serve::FaultInjector::instance().should_fire( \
      ::nmspmm::serve::FaultSite::site))

#define NMSPMM_FAULT_EXECUTE_DELAY()                                       \
  do {                                                                     \
    auto& nmspmm_fi_ = ::nmspmm::serve::FaultInjector::instance();         \
    if (nmspmm_fi_.should_fire(::nmspmm::serve::FaultSite::kExecuteDelay)) \
      std::this_thread::sleep_for(                                         \
          std::chrono::microseconds(nmspmm_fi_.execute_delay_us()));       \
  } while (0)

#else  // !NMSPMM_FAULT_INJECT

#define NMSPMM_FAULT_FIRE(site) false
#define NMSPMM_FAULT_EXECUTE_DELAY() ((void)0)

#endif  // NMSPMM_FAULT_INJECT

}  // namespace nmspmm::serve
