// Chaos suite for the serving stack: drive racing submitters, admission
// control, and shutdown through seeded fault schedules and assert the
// invariants that hold under ANY schedule:
//   - every submitted future resolves exactly once (a double set_value
//     throws future_error out of the dispatcher -> std::terminate, so
//     merely surviving is half the assertion; a never-resolved future
//     trips the bounded wait_for below);
//   - resolutions carry only documented Status codes;
//   - counters conserve: submits = served + shed + submit-deadline
//     failures + shutdown refusals, and client-observed successes equal
//     the server's (requests - errors) totals;
//   - every accepted request — served, failed, or expired — records
//     exactly one end-to-end (kTotal) latency sample.
//
// The baseline storm runs in every build. The fault-schedule tests need
// -DNMSPMM_FAULT_INJECT=ON (see FaultInjector in serve/fault.hpp): with
// the hooks compiled out there is nothing to arm, so they no-op into a
// skip rather than silently passing.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/nmspmm.hpp"
#include "serve/fault.hpp"
#include "serve/server.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

std::shared_ptr<const CompressedNM> shared_weights(index_t k, index_t n,
                                                   const NMConfig& cfg,
                                                   Rng& rng) {
  return std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, cfg, rng));
}

// Client-side tally of one storm: how every future resolved.
struct Outcomes {
  std::uint64_t submits = 0;
  std::uint64_t ok = 0;
  std::uint64_t resource_exhausted = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t other = 0;  // anything undocumented — must stay zero
};

struct StormConfig {
  ServerOptions server;
  int threads = 2;
  int requests_per_thread = 24;
  std::uint64_t seed = 1;
  /// Every deadline_stride-th request carries this deadline (0 = none).
  int deadline_stride = 3;
  std::uint64_t deadline_us = 2000;
};

// Submit a mixed decode/prefill storm from racing threads against two
// weight targets, shut down, and collect every resolution. Buffers are
// owned per request and outlive their futures.
Outcomes run_storm(const StormConfig& cfg,
                   const std::shared_ptr<const CompressedNM>& b0,
                   const std::shared_ptr<const CompressedNM>& b1,
                   Server::Stats* stats_out) {
  struct Slot {
    MatrixF a, c;
    std::future<Status> fut;
  };
  const bool failed_before = ::testing::Test::HasFailure();
  Server server(cfg.server);
  const index_t k = b0->orig_rows;
  std::vector<std::vector<Slot>> slots(cfg.threads);
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.threads; ++t) {
    slots[t].reserve(cfg.requests_per_thread);
    threads.emplace_back([&, t] {
      Rng rng(cfg.seed * 977 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < cfg.requests_per_thread; ++i) {
        // ~half decode (1 row), ~half prefill (4 rows), two targets.
        const index_t rows = (rng.next_u64() & 1) ? 1 : 4;
        const auto& b = (rng.next_u64() & 1) ? b0 : b1;
        Slot slot{random_int_matrix(rows, k, rng),
                  MatrixF(rows, b->cols), {}};
        const std::uint64_t deadline =
            (cfg.deadline_stride > 0 && i % cfg.deadline_stride == 0)
                ? cfg.deadline_us
                : 0;
        slot.fut = server.submit(slot.a.view(), b, slot.c.view(), {},
                                 deadline);
        slots[t].push_back(std::move(slot));
      }
    });
  }
  for (auto& th : threads) th.join();
  // Shutdown before collecting: the drain guarantees progress even when
  // a fault schedule dropped the last eventcount wake.
  server.shutdown();

  Outcomes out;
  for (auto& thread_slots : slots) {
    for (Slot& slot : thread_slots) {
      ++out.submits;
      // A lost resolution would hang get() forever; bound it so the
      // failure mode is an assertion, not a stuck test run.
      const auto state = slot.fut.wait_for(std::chrono::seconds(60));
      EXPECT_EQ(state, std::future_status::ready)
          << "a submitted future never resolved";
      if (state != std::future_status::ready) continue;
      const Status status = slot.fut.get();
      switch (status.code()) {
        case StatusCode::kOk: ++out.ok; break;
        case StatusCode::kResourceExhausted: ++out.resource_exhausted; break;
        case StatusCode::kDeadlineExceeded: ++out.deadline_exceeded; break;
        case StatusCode::kUnavailable: ++out.unavailable; break;
        default:
          ++out.other;
          ADD_FAILURE() << "undocumented resolution: " << status.to_string();
      }
    }
  }
  if (stats_out != nullptr) *stats_out = server.stats();
  // Flight recorder: when tracing was armed and this storm newly failed
  // an expectation, dump the span ring next to the failure output — a
  // seeded schedule must never fail without leaving its trace behind.
  if (cfg.server.trace_sample_n > 0 && !failed_before &&
      ::testing::Test::HasFailure()) {
    const std::string path = ::testing::TempDir() + "chaos_flight_seed_" +
                             std::to_string(cfg.seed) + ".json";
    const Status dumped = server.dump_trace(path);
    std::cerr << "[chaos] storm seed " << cfg.seed << " failed; trace "
              << (dumped.ok() ? "dumped to " + path
                              : "dump failed: " + dumped.to_string())
              << " (trace_drops=" << server.stats().trace_drops << ")\n";
  }
  return out;
}

// The conservation identities that hold under any schedule. The client
// cannot split RESOURCE_EXHAUSTED into shed-vs-alloc-failure, but the
// aggregate books must still balance exactly.
void expect_conserved(const Outcomes& out, const Server::Stats& stats) {
  EXPECT_EQ(out.other, 0u);
  // Admission accounting: every submit either entered the served totals
  // or is explained by exactly one refusal counter.
  EXPECT_EQ(out.submits, stats.totals.requests + stats.shed_requests +
                             stats.submit_deadline_fails + out.unavailable);
  // Served accounting: client successes == admitted minus server errors.
  EXPECT_EQ(out.ok, stats.totals.requests - stats.totals.errors);
  // Every error resolution is booked somewhere.
  EXPECT_EQ(out.resource_exhausted + out.deadline_exceeded,
            stats.shed_requests + stats.submit_deadline_fails +
                stats.totals.errors);
  // Latency accounting: one kTotal sample per accepted request.
  EXPECT_EQ(stats.latency.total_requests(), stats.totals.requests);
}

// Fault-free storm: the invariants must hold in every build, under every
// admission policy.
TEST(Chaos, BaselineStormConservesCountersUnderEveryAdmissionPolicy) {
  Rng rng(701);
  auto b0 = shared_weights(64, 64, NMConfig{2, 4, 16}, rng);
  auto b1 = shared_weights(64, 96, NMConfig{2, 4, 16}, rng);
  for (const auto admission :
       {AdmissionPolicy::kBlock, AdmissionPolicy::kShed,
        AdmissionPolicy::kShedByClass}) {
    SCOPED_TRACE(static_cast<int>(admission));
    StormConfig cfg;
    cfg.server.ring_capacity = 8;
    cfg.server.max_batch_rows = 8;
    cfg.server.admission = admission;
    cfg.server.shed_pending_rows = 16;
    cfg.seed = 702;
    Server::Stats stats;
    const Outcomes out = run_storm(cfg, b0, b1, &stats);
    expect_conserved(out, stats);
    // Without faults nothing forces the ring shut mid-spin, so
    // DEADLINE/UNAVAILABLE can only come from their documented paths;
    // under kBlock nothing is ever shed.
    if (admission == AdmissionPolicy::kBlock) {
      EXPECT_EQ(stats.shed_requests, 0u);
      EXPECT_EQ(out.resource_exhausted, 0u);
    }
  }
}

#ifdef NMSPMM_FAULT_INJECT

// The injector itself: a plan's firing pattern is a pure function of
// (seed, site, probe index) — replays bit-for-bit, and disarm silences.
TEST(Chaos, FaultScheduleReplaysBitForBit) {
  auto& injector = serve::FaultInjector::instance();
  serve::FaultPlan plan;
  plan.seed = 1234;
  plan.rate_of(serve::FaultSite::kStagingAlloc) = 64;  // 25%
  auto draw = [&] {
    std::vector<bool> fires;
    serve::ScopedFaultPlan scoped(plan);
    for (int i = 0; i < 256; ++i) {
      fires.push_back(
          injector.should_fire(serve::FaultSite::kStagingAlloc));
    }
    return fires;
  };
  const auto first = draw();
  const auto second = draw();
  EXPECT_EQ(first, second);
  // ~25% rate: a degenerate all/none pattern would break the hash.
  const auto fired = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 256);
  // Disarmed, every probe passes through.
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(injector.should_fire(serve::FaultSite::kStagingAlloc));
  }
}

// 100 seeded schedules, each arming a different mix of fault sites and
// server shapes. Exactly-once resolution, documented codes only, and
// exact counter conservation must survive every one of them.
TEST(Chaos, HundredSeededFaultSchedulesPreserveServingInvariants) {
  Rng rng(703);
  auto b0 = shared_weights(64, 64, NMConfig{2, 4, 16}, rng);
  auto b1 = shared_weights(64, 96, NMConfig{2, 4, 16}, rng);
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(seed);
    serve::FaultPlan plan;
    plan.seed = seed;
    plan.execute_delay_us = 100;
    // Vary the active sites per seed so single-fault and compound
    // schedules are both covered.
    if (seed % 2 == 0) plan.rate_of(serve::FaultSite::kRingFull) = 48;
    if (seed % 2 == 1) plan.rate_of(serve::FaultSite::kDropWake) = 64;
    if (seed % 3 == 0) plan.rate_of(serve::FaultSite::kExecuteDelay) = 64;
    if (seed % 4 == 0) plan.rate_of(serve::FaultSite::kStagingAlloc) = 32;
    if (seed % 5 == 0) plan.rate_of(serve::FaultSite::kRepackAlloc) = 16;
    serve::ScopedFaultPlan scoped(plan);

    StormConfig cfg;
    cfg.server.ring_capacity = 8;
    cfg.server.max_batch_rows = 8;
    cfg.server.max_wait_us = 100;
    cfg.server.admission = static_cast<AdmissionPolicy>(seed % 3);
    cfg.server.shed_pending_rows = 16;
    // Arm the flight recorder: trace every request so a failing seed
    // dumps its last spans (run_storm) and a dispatcher-side injected
    // fault dumps via trace_flight_path even before the test notices.
    cfg.server.trace_sample_n = 1;
    cfg.server.trace_buffer_spans = 1024;
    cfg.server.trace_flight_path = ::testing::TempDir() +
                                   "chaos_flight_dispatcher_" +
                                   std::to_string(seed) + ".json";
    cfg.seed = seed;
    Server::Stats stats;
    const Outcomes out = run_storm(cfg, b0, b1, &stats);
    expect_conserved(out, stats);

    // Schedules without allocation faults cannot fail an admitted
    // request with RESOURCE_EXHAUSTED: the client's count must match
    // the server's shed counter exactly.
    if (seed % 4 != 0 && seed % 5 != 0) {
      EXPECT_EQ(out.resource_exhausted, stats.shed_requests);
    }
  }
}

// An injected staging-allocation failure must fail exactly the affected
// batch — the server keeps serving afterwards.
TEST(Chaos, ServerSurvivesStagingAllocFailureAndKeepsServing) {
  Rng rng(704);
  auto b = shared_weights(64, 64, NMConfig{2, 4, 16}, rng);
  ServerOptions opt;
  // The staging path only runs for coalesced (multi-request) batches —
  // a lone request borrows the caller's views directly. A generous
  // max_wait lets two back-to-back submits land in one batch.
  opt.max_batch_rows = 8;
  opt.max_wait_us = 20000;
  Server server(opt);

  serve::FaultPlan plan;
  plan.seed = 9;
  plan.rate_of(serve::FaultSite::kStagingAlloc) = 256;  // every batch
  const MatrixF a1 = random_int_matrix(2, 64, rng);
  const MatrixF a2 = random_int_matrix(2, 64, rng);
  MatrixF c1(2, 64), c2(2, 64);
  {
    serve::ScopedFaultPlan scoped(plan);
    auto f1 = server.submit(a1.view(), b, c1.view());
    auto f2 = server.submit(a2.view(), b, c2.view());
    EXPECT_EQ(f1.get().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(f2.get().code(), StatusCode::kResourceExhausted);
  }
  // Disarmed: the same server serves the same shapes correctly — the
  // failure was contained to the one batch.
  auto f1 = server.submit(a1.view(), b, c1.view());
  auto f2 = server.submit(a2.view(), b, c2.view());
  NMSPMM_ASSERT_OK(f1.get());
  NMSPMM_ASSERT_OK(f2.get());
  const auto stats = server.stats();
  EXPECT_EQ(stats.totals.requests, 4u);
  EXPECT_EQ(stats.totals.errors, 2u);
}

#else  // !NMSPMM_FAULT_INJECT

TEST(Chaos, FaultScheduleTestsNeedFaultInjectBuild) {
  GTEST_SKIP() << "rebuild with -DNMSPMM_FAULT_INJECT=ON for the seeded "
                  "fault-schedule suite";
}

#endif  // NMSPMM_FAULT_INJECT

}  // namespace
}  // namespace nmspmm
