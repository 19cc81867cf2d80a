// nmspmm::Server: dynamic micro-batching correctness (coalesced results
// bit-exact vs serial engine.spmm), max-wait flushes, concurrent
// submitters across weight matrices, per-request rejection, and shutdown
// draining in-flight requests. Plus the BatchQueue policy in isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/nmspmm.hpp"
#include "serve/server.hpp"
#include "serve/traffic.hpp"
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

MatrixF reference_for(ConstViewF A, const CompressedNM& B) {
  MatrixF C(A.rows(), B.cols);
  spmm_reference(A, B, C.view(), false);
  return C;
}

TEST(BatchQueuePolicy, ReadyOnRowBudgetOrDeadline) {
  using namespace std::chrono;
  BatchQueue queue;
  const auto t0 = BatchQueue::Clock::now();
  MatrixF a(3, 8), c(3, 8);
  queue.push(BatchRequest{a.view(), c.view(), {}, t0, t0});
  EXPECT_EQ(queue.pending_rows(), 3);

  // Not full, deadline not reached.
  EXPECT_FALSE(queue.ready(t0 + microseconds(10), 8, microseconds(100)));
  // Deadline reached.
  EXPECT_TRUE(queue.ready(t0 + microseconds(100), 8, microseconds(100)));
  // Row budget reached.
  MatrixF a2(5, 8), c2(5, 8);
  queue.push(BatchRequest{a2.view(), c2.view(), {}, t0, t0});
  EXPECT_TRUE(queue.ready(t0 + microseconds(10), 8, microseconds(100)));
}

TEST(BatchQueuePolicy, TakeBatchRespectsRowBudgetButNeverStarves) {
  BatchQueue queue;
  const auto t0 = BatchQueue::Clock::now();
  MatrixF big(10, 4), c_big(10, 4);
  MatrixF small(2, 4), c_small(2, 4);
  queue.push(BatchRequest{big.view(), c_big.view(), {}, t0, t0});
  queue.push(BatchRequest{small.view(), c_small.view(), {}, t0, t0});

  // An oversized request flushes alone instead of deadlocking.
  auto first = queue.take_batch(/*max_rows=*/4);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].a.rows(), 10);
  EXPECT_EQ(queue.pending_rows(), 2);
  auto second = queue.take_batch(4);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.max_depth_seen(), 2u);
}

TEST(Server, CoalescedResultsMatchSerialEngineBitExactly) {
  Rng rng(900);
  const index_t k = 96, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  struct Burst {
    const char* name;
    unsigned engine_threads;  // 0 = the default engine
    int requests;
    index_t rows;    // request i has rows + i % spread rows
    index_t spread;
    index_t max_batch_rows;
  };
  const Burst bursts[] = {
      // ~120 rows of 1-4 row requests against a 32-row budget.
      {"mixed small requests", 0, 48, 1, 4, 32},
      // Prefill-sized requests on a pooled engine: four 16-row requests
      // fill the 64-row budget exactly, so they flush as ONE batch that
      // runs as one pooled execution.
      {"16-row burst, 2-thread engine", 2, 4, 16, 1, 64},
  };
  for (const Burst& burst : bursts) {
    SCOPED_TRACE(burst.name);
    ServerOptions opt;
    opt.engine.num_threads = burst.engine_threads;
    opt.max_batch_rows = burst.max_batch_rows;
    opt.max_wait_us = 200000;  // generous: only full batches flush early
    Server server(opt);

    struct Request {
      MatrixF a;
      MatrixF c;
      MatrixF expect;
      std::future<Status> done;
    };
    std::vector<Request> requests;
    for (int i = 0; i < burst.requests; ++i) {
      Request r;
      r.a = random_int_matrix(burst.rows + i % burst.spread, k, rng);
      r.c = MatrixF(r.a.rows(), n);
      r.expect = reference_for(r.a.view(), *B);
      requests.push_back(std::move(r));
    }
    for (Request& r : requests) {
      r.done = server.submit(r.a.view(), B, r.c.view());
    }
    for (Request& r : requests) NMSPMM_ASSERT_OK(r.done.get());

    // Integer-valued operands: the batched product must agree bit-exactly
    // with the per-request serial reference.
    for (const Request& r : requests) {
      EXPECT_EQ(max_abs_diff(r.expect.cview(), r.c.cview()), 0.0);
    }

    // Requests genuinely coalesced instead of being served one by one.
    const Server::GroupStats stats = server.weights_stats(B.get());
    EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(burst.requests));
    EXPECT_LT(stats.batches, stats.requests);
    EXPECT_GT(stats.full_flushes, 0u);
    EXPECT_EQ(stats.split_batches, 0u);
    if (burst.engine_threads == 2) {
      EXPECT_EQ(stats.batches, 1u);
    }
  }
}

TEST(Server, MaxWaitFlushesPartialBatch) {
  Rng rng(901);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 1024;  // never fills from one tiny request
  opt.max_wait_us = 2000;
  Server server(opt);

  const MatrixF A = random_int_matrix(2, k, rng);
  MatrixF C(2, n);
  auto done = server.submit(A.view(), B, C.view());
  // The only flush trigger is the max-wait deadline.
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  NMSPMM_ASSERT_OK(done.get());
  EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B).cview(), C.cview()),
            0.0);
  EXPECT_GE(server.weights_stats(B.get()).timeout_flushes, 1u);
}

TEST(Server, ConcurrentSubmittersAcrossTwoWeightMatrices) {
  Rng rng(902);
  const index_t k = 64;
  auto B1 = shared_weights(k, 48, NMConfig{2, 4, 16}, rng);
  auto B2 = shared_weights(k, 80, NMConfig{4, 8, 8}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 16;
  opt.max_wait_us = 500;
  Server server(opt);

  // Pre-generate per-thread problems (Rng is not thread-safe).
  struct Problem {
    std::shared_ptr<const CompressedNM> weights;
    MatrixF a;
    MatrixF c;
    MatrixF expect;
  };
  const int kThreads = 6, kPerThread = 16;
  std::vector<std::vector<Problem>> work(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      Problem p;
      p.weights = (t + i) % 2 == 0 ? B1 : B2;
      p.a = random_int_matrix(1 + i % 3, k, rng);
      p.c = MatrixF(p.a.rows(), p.weights->cols);
      p.expect = reference_for(p.a.view(), *p.weights);
      work[static_cast<std::size_t>(t)].push_back(std::move(p));
    }
  }

  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&server, &work, &failures, t] {
      for (Problem& p : work[static_cast<std::size_t>(t)]) {
        auto done = server.submit(p.a.view(), p.weights, p.c.view());
        if (!done.get().ok()) ++failures;
      }
    });
  }
  for (auto& s : submitters) s.join();
  EXPECT_EQ(failures.load(), 0);

  for (const auto& thread_work : work) {
    for (const Problem& p : thread_work) {
      EXPECT_EQ(max_abs_diff(p.expect.cview(), p.c.cview()), 0.0);
    }
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.totals.requests,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.totals.errors, 0u);
}

TEST(Server, RejectsMalformedRequestsWithoutPoisoningTheBatch) {
  Rng rng(903);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 64;
  opt.max_wait_us = 1000;
  Server server(opt);

  const MatrixF good_a = random_int_matrix(2, k, rng);
  MatrixF good_c(2, n);
  const MatrixF bad_a = random_int_matrix(2, k + 16, rng);  // wrong depth
  MatrixF bad_c(2, n);
  MatrixF mismatched_c(2, n + 16);  // wrong output shape

  auto good = server.submit(good_a.view(), B, good_c.view());
  auto bad_depth = server.submit(bad_a.view(), B, bad_c.view());
  auto bad_out = server.submit(good_a.view(), B, mismatched_c.view());
  auto null_weights = server.submit(good_a.view(), nullptr, good_c.view());

  EXPECT_EQ(bad_depth.get().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_out.get().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(null_weights.get().code(), StatusCode::kInvalidArgument);
  NMSPMM_ASSERT_OK(good.get());
  EXPECT_EQ(max_abs_diff(reference_for(good_a.view(), *B).cview(),
                         good_c.cview()),
            0.0);
}

TEST(Server, EvictsIdleGroupsBeyondMaxGroups) {
  Rng rng(905);
  const index_t k = 64, n = 64;
  ServerOptions opt;
  opt.max_batch_rows = 4;
  opt.max_wait_us = 100;
  opt.max_groups = 2;
  // The engine's plan cache pins weights too; bound it so releases are
  // observable through use_count below.
  opt.engine.plan_cache_capacity = 1;
  Server server(opt);

  // Serve six distinct weight matrices sequentially; with a cap of 2,
  // idle groups must be evicted and their weights references released.
  std::vector<std::shared_ptr<const CompressedNM>> weights;
  for (int i = 0; i < 6; ++i) {
    weights.push_back(shared_weights(k, n, NMConfig{2, 4, 16}, rng));
    const MatrixF A = random_int_matrix(1, k, rng);
    MatrixF C(1, n);
    NMSPMM_ASSERT_OK(server.submit(A.view(), weights.back(), C.view()).get());
  }

  // All six groups were seen and every request counted, even though most
  // group records have been retired.
  const auto stats = server.stats();
  EXPECT_EQ(stats.groups, 6u);
  EXPECT_EQ(stats.totals.requests, 6u);

  // The prune that necessarily ran before the last batch was dispatched
  // had already released at least three of the earlier weights: with the
  // group evicted and its plan aged out of the size-1 plan cache, only
  // the test's own shared_ptr remains.
  int released = 0;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (weights[i].use_count() == 1) ++released;
  }
  EXPECT_GE(released, 3);
}

// One client thread submits a round of 1-row requests back to back and
// only then waits: they coalesce into one SpMM (one read of the weights),
// each row bit-identical to the reference.
TEST(Server, SingleRowsFromOneThreadCoalesceIntoOneBatch) {
  Rng rng(906);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 8;
  opt.max_wait_us = 60 * 1000 * 1000;  // flush only when full
  Server server(opt);
  const MatrixF A = random_int_matrix(8, k, rng);
  MatrixF C(8, n);
  std::vector<std::future<Status>> done;
  for (index_t i = 0; i < 8; ++i) {
    done.push_back(server.submit(A.cview().block(i, 0, 1, k), B,
                                 C.view().block(i, 0, 1, n)));
  }
  for (auto& f : done) NMSPMM_ASSERT_OK(f.get());
  EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B).cview(), C.cview()),
            0.0);

  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.rows, 8u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.full_flushes, 1u);
}

TEST(Server, DispatcherGuardFailsBatchWithInternalInsteadOfTerminating) {
  Rng rng(908);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 2;
  opt.max_wait_us = 60 * 1000 * 1000;  // flush only when full
  opt.max_staging_bytes = 1;  // any multi-request gather trips the guard
  Server server(opt);

  // Two 1-row requests coalesce into one 2-row batch whose staging
  // (oversized for the 1-byte cap) throws inside serve_batch. The
  // dispatcher must fail both futures with INTERNAL — the ROADMAP's
  // std::terminate scenario — and keep serving afterwards.
  const MatrixF a1 = random_int_matrix(1, k, rng);
  const MatrixF a2 = random_int_matrix(1, k, rng);
  MatrixF c1(1, n), c2(1, n);
  auto f1 = server.submit(a1.view(), B, c1.view());
  auto f2 = server.submit(a2.view(), B, c2.view());
  EXPECT_EQ(f1.get().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(f2.get().code(), StatusCode::kResourceExhausted);

  // The server survived: a lone request (no staging needed) still works.
  const MatrixF a3 = random_int_matrix(2, k, rng);
  MatrixF c3(2, n);
  auto f3 = server.submit(a3.view(), B, c3.view());
  NMSPMM_ASSERT_OK(f3.get());
  EXPECT_EQ(max_abs_diff(reference_for(a3.view(), *B).cview(), c3.cview()),
            0.0);

  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_GE(stats.batches, 2u);
  // Failed requests stay in the latency accounting: every accepted
  // request records exactly one end-to-end sample.
  const Server::Stats all = server.stats();
  EXPECT_EQ(all.latency.total_requests(), all.totals.requests);
  EXPECT_EQ(all.latency.total_requests(), 3u);
}

TEST(Server, RejectsEpilogueOptionsOnBatchedSubmissions) {
  Rng rng(909);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  Server server;
  const MatrixF A = random_int_matrix(2, k, rng);
  MatrixF C(2, n);
  SpmmOptions epilogue;
  epilogue.epilogue.act = Activation::kSilu;
  EXPECT_EQ(server.submit(A.view(), B, C.view(), epilogue).get().code(),
            StatusCode::kInvalidArgument);
  // The RMSNorm gain cannot ride a batched submission either; the
  // request must resolve at submit, never reaching a batch.
  SpmmOptions prologue;
  prologue.prologue.rmsnorm = true;
  EXPECT_EQ(server.submit(A.view(), B, C.view(), prologue).get().code(),
            StatusCode::kInvalidArgument);
  const auto stats = server.stats();
  EXPECT_EQ(stats.totals.requests, 0u);
  EXPECT_EQ(stats.totals.batches, 0u);
  EXPECT_EQ(stats.totals.errors, 0u);
}

TEST(Server, ShutdownDrainsInFlightRequests) {
  Rng rng(904);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 1 << 20;  // never full
  opt.max_wait_us = 60 * 1000 * 1000;  // requests would sit for a minute
  Server server(opt);

  struct Request {
    MatrixF a;
    MatrixF c;
    MatrixF expect;
    std::future<Status> done;
  };
  std::vector<Request> requests;
  for (int i = 0; i < 8; ++i) {
    Request r;
    r.a = random_int_matrix(2, k, rng);
    r.c = MatrixF(2, n);
    r.expect = reference_for(r.a.view(), *B);
    requests.push_back(std::move(r));
  }
  for (Request& r : requests) {
    r.done = server.submit(r.a.view(), B, r.c.view());
  }

  // Shutdown must serve everything already accepted, not abandon it.
  server.shutdown();
  for (Request& r : requests) {
    ASSERT_EQ(r.done.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    NMSPMM_ASSERT_OK(r.done.get());
    EXPECT_EQ(max_abs_diff(r.expect.cview(), r.c.cview()), 0.0);
  }

  // After shutdown, new submissions fail fast instead of hanging.
  Request late;
  late.a = random_int_matrix(1, k, rng);
  late.c = MatrixF(1, n);
  auto refused = server.submit(late.a.view(), B, late.c.view());
  EXPECT_EQ(refused.get().code(), StatusCode::kUnavailable);
}

TEST(ServerSlo, NearDeadlineRequestFlushesBeforeMaxWait) {
  Rng rng(910);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 1 << 20;        // never full
  opt.max_wait_us = 60 * 1000 * 1000;  // fixed policy would wait a minute
  opt.slo_aware = true;
  opt.slo_margin_us = 2000;
  Server server(opt);

  const MatrixF A = random_int_matrix(2, k, rng);
  MatrixF C(2, n);
  const auto submitted = std::chrono::steady_clock::now();
  // 50ms SLO: the only way this resolves before max_wait is the
  // deadline-driven early flush.
  auto done = server.submit(A.view(), B, C.view(), {}, /*deadline_us=*/50000);
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  NMSPMM_ASSERT_OK(done.get());
  const auto waited = std::chrono::steady_clock::now() - submitted;
  EXPECT_LT(waited, std::chrono::seconds(5));  // nowhere near max_wait
  EXPECT_EQ(max_abs_diff(reference_for(A.view(), *B).cview(), C.cview()),
            0.0);
  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.slo_flushes, 1u);
  EXPECT_EQ(stats.timeout_flushes, 0u);
}

TEST(ServerSlo, SloAwareOffWaitsOutMaxWaitAndCountsTheViolation) {
  Rng rng(911);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 1 << 20;
  opt.max_wait_us = 30000;  // 30ms fixed flush window
  opt.slo_aware = false;    // deadlines tracked, never acted on
  Server server(opt);

  const MatrixF A = random_int_matrix(2, k, rng);
  MatrixF C(2, n);
  auto done = server.submit(A.view(), B, C.view(), {}, /*deadline_us=*/1000);
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  NMSPMM_ASSERT_OK(done.get());  // still served, just late
  const Server::GroupStats stats = server.weights_stats(B.get());
  EXPECT_EQ(stats.slo_flushes, 0u);
  EXPECT_GE(stats.timeout_flushes, 1u);
  EXPECT_GE(stats.slo_violations, 1u);
}

TEST(ServerSlo, ShutdownFailsExpiredDeadlinesInsteadOfServingThem) {
  Rng rng(912);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 1 << 20;
  opt.max_wait_us = 60 * 1000 * 1000;  // nothing flushes before shutdown
  opt.slo_aware = false;               // keep the expired request queued
  Server server(opt);

  MatrixF a_expired = random_int_matrix(2, k, rng);
  MatrixF c_expired(2, n);
  const MatrixF a_live = random_int_matrix(2, k, rng);
  MatrixF c_live(2, n);
  auto expired = server.submit(a_expired.view(), B, c_expired.view(), {},
                               /*deadline_us=*/1000);
  auto live = server.submit(a_live.view(), B, c_live.view());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // 1ms SLO gone

  // The drain must fail the dead request fast — not hang its future, not
  // burn drain time serving it — while still serving the live one.
  server.shutdown();
  ASSERT_EQ(expired.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(expired.get().code(), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(live.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  NMSPMM_ASSERT_OK(live.get());
  EXPECT_EQ(
      max_abs_diff(reference_for(a_live.view(), *B).cview(), c_live.cview()),
      0.0);
  const auto stats = server.stats();
  EXPECT_GE(stats.totals.errors, 1u);
  EXPECT_GE(stats.totals.slo_violations, 1u);
}

TEST(ServerTelemetry, StatsExposePerStagePerClassLatency) {
  Rng rng(913);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 8;
  opt.max_wait_us = 500;
  Server server(opt);  // telemetry defaults on

  for (int i = 0; i < 6; ++i) {
    const MatrixF a1 = random_int_matrix(1, k, rng);  // decode
    MatrixF c1(1, n);
    NMSPMM_ASSERT_OK(server.submit(a1.view(), B, c1.view()).get());
    const MatrixF a3 = random_int_matrix(3, k, rng);  // prefill (batched)
    MatrixF c3(3, n);
    NMSPMM_ASSERT_OK(server.submit(a3.view(), B, c3.view()).get());
  }

  using serve::RequestClass;
  using serve::Stage;
  const auto latency = server.stats().latency;
  EXPECT_EQ(latency.requests(RequestClass::kDecode), 6u);
  EXPECT_EQ(latency.requests(RequestClass::kPrefill), 6u);
  // Every request, decode and prefill alike, passes through every stage.
  for (const RequestClass cls : {RequestClass::kDecode,
                                 RequestClass::kPrefill}) {
    for (const Stage stage : {Stage::kQueue, Stage::kGather,
                              Stage::kExecute}) {
      EXPECT_EQ(latency.stage(cls, stage).count, 6u);
    }
  }
  EXPECT_GT(latency.stage(RequestClass::kPrefill, Stage::kTotal).p99(), 0u);
  // The per-target view agrees with the aggregate for a one-group server.
  EXPECT_EQ(server.weights_latency(B.get()).total_requests(),
            latency.total_requests());
  EXPECT_EQ(latency.total_violations(), 0u);
}

// --- The dispatcher under concurrency: shutdown races, a full ring,
// eviction during flushes, replayed traffic and lock-free stats reads.

TEST(ServerDispatch, ConcurrentSubmittersSurviveShutdownRace) {
  Rng rng(923);
  const index_t k = 64, n = 64;
  auto B1 = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  auto B2 = shared_weights(k, n, NMConfig{4, 8, 8}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 8;
  opt.max_wait_us = 200;
  Server server(opt);

  // Four threads fire requests while the main thread shuts the server
  // down mid-stream. Every future must resolve — either OK (accepted
  // before the stop and drained) or UNAVAILABLE (rejected by the
  // fail-fast path) — and every OK result must be correct.
  struct Slot {
    MatrixF a;
    MatrixF c;
    MatrixF expect;
    std::shared_ptr<const CompressedNM> weights;
    std::future<Status> done;
  };
  const int kThreads = 4, kPerThread = 64;
  std::vector<std::vector<Slot>> slots(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      Slot s;
      s.weights = (t + i) % 2 == 0 ? B1 : B2;
      s.a = random_int_matrix(2, k, rng);
      s.c = MatrixF(2, n);
      s.expect = reference_for(s.a.view(), *s.weights);
      slots[static_cast<std::size_t>(t)].push_back(std::move(s));
    }
  }
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&slots, &server, t] {
      for (Slot& s : slots[static_cast<std::size_t>(t)]) {
        s.done = server.submit(s.a.view(), s.weights, s.c.view());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.shutdown();
  for (auto& s : submitters) s.join();

  std::uint64_t served = 0, refused = 0;
  for (auto& thread_slots : slots) {
    for (Slot& s : thread_slots) {
      ASSERT_EQ(s.done.wait_for(std::chrono::seconds(10)),
                std::future_status::ready);
      const Status status = s.done.get();
      if (status.ok()) {
        ++served;
        EXPECT_EQ(max_abs_diff(s.expect.cview(), s.c.cview()), 0.0);
      } else {
        ++refused;
        EXPECT_EQ(status.code(), StatusCode::kUnavailable);
      }
    }
  }
  EXPECT_EQ(served + refused,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(server.stats().totals.requests, served);
}

TEST(ServerDispatch, FullRingBackpressuresSubmittersAndCountsStalls) {
  Rng rng(924);
  const index_t k = 128, n = 128;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.ring_capacity = 2;  // deliberately tiny: force the full-ring path
  opt.max_batch_rows = 8;
  opt.max_wait_us = 0;  // dispatcher flushes continuously (stays busy)
  Server server(opt);

  struct Request {
    MatrixF a;
    MatrixF c;
    MatrixF expect;
  };
  std::vector<Request> requests;
  for (int i = 0; i < 16; ++i) {
    Request r;
    r.a = random_int_matrix(8, k, rng);
    r.c = MatrixF(8, n);
    r.expect = reference_for(r.a.view(), *B);
    requests.push_back(std::move(r));
  }

  // Bursts of 16 submissions against a 2-slot ring while the dispatcher
  // is busy executing: some submit must find the ring full and take the
  // backpressure spin. Repeat until observed (virtually always the first
  // burst; the loop only guards against a miraculous scheduler).
  for (int burst = 0; burst < 100 && server.stats().ring_stalls == 0;
       ++burst) {
    std::vector<std::future<Status>> done;
    done.reserve(requests.size());
    for (Request& r : requests) {
      done.push_back(server.submit(r.a.view(), B, r.c.view()));
    }
    for (auto& f : done) NMSPMM_ASSERT_OK(f.get());
    for (const Request& r : requests) {
      ASSERT_EQ(max_abs_diff(r.expect.cview(), r.c.cview()), 0.0);
    }
  }
  // Backpressure stalled at least one submission, and no request was
  // lost or corrupted along the way (asserted per burst above).
  EXPECT_GT(server.stats().ring_stalls, 0u);
}

TEST(ServerDispatch, EvictionDuringConcurrentFlushesReleasesWeights) {
  Rng rng(925);
  const index_t k = 64, n = 64;

  ServerOptions opt;
  opt.max_groups = 1;  // every new target evicts an idle predecessor
  opt.max_batch_rows = 4;
  opt.max_wait_us = 100;
  opt.engine.plan_cache_capacity = 1;
  Server server(opt);

  // Two threads cycle through disjoint sets of weight matrices. With one
  // group allowed, each new target evicts an idle predecessor —
  // routinely while the other thread's flush is mid-flight. Batches hold shared ownership of their group, so this
  // must never free state an execution still uses.
  const int kThreads = 2, kWeightsPerThread = 8;
  std::vector<std::vector<std::shared_ptr<const CompressedNM>>> weights(
      kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kWeightsPerThread; ++i) {
      weights[static_cast<std::size_t>(t)].push_back(
          shared_weights(k, n, NMConfig{2, 4, 16}, rng));
    }
  }
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&weights, &server, &failures, t] {
      Rng thread_rng(926 + static_cast<std::uint64_t>(t));
      for (int round = 0; round < 3; ++round) {
        for (const auto& w : weights[static_cast<std::size_t>(t)]) {
          const MatrixF a = random_int_matrix(2, 64, thread_rng);
          MatrixF c(2, 64);
          const MatrixF expect = reference_for(a.view(), *w);
          if (!server.submit(a.view(), w, c.view()).get().ok() ||
              max_abs_diff(expect.cview(), c.cview()) != 0.0) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  server.shutdown();

  // Eviction really released the retired groups' weight references:
  // the one retained group and the engine's size-1 plan cache may
  // still pin a matrix (the bound leaves one more of slack).
  int released = 0;
  for (const auto& thread_weights : weights) {
    for (const auto& w : thread_weights) {
      if (w.use_count() == 1) ++released;
    }
  }
  EXPECT_GE(released, kThreads * kWeightsPerThread - 3);
  const auto stats = server.stats();
  // groups counts creations: every eviction-then-return starts a fresh
  // group, so three rounds over 16 targets with a cap of 1 must have
  // recreated far more than the 16 distinct targets.
  EXPECT_GE(stats.groups,
            static_cast<std::size_t>(kThreads * kWeightsPerThread));
  EXPECT_EQ(stats.totals.errors, 0u);
}

TEST(ServerDispatch, SeededTrafficReplayIsReproducibleAcrossRuns) {
  Rng rng(927);
  const index_t k = 96, n = 96;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  serve::TrafficOptions traffic;
  traffic.offered_rps = 2000.0;
  traffic.duration_s = 0.05;
  traffic.submit_threads = 2;
  traffic.seed = 7;
  traffic.classes.resize(2);
  traffic.classes[0].name = "decode";
  traffic.classes[0].rows_min = traffic.classes[0].rows_max = 1;
  traffic.classes[0].weight = 0.8;
  traffic.classes[1].name = "prefill";
  traffic.classes[1].rows_min = 4;
  traffic.classes[1].rows_max = 8;
  traffic.classes[1].weight = 0.2;

  auto run_once = [&]() -> serve::TrafficReport {
    ServerOptions opt;
    opt.max_batch_rows = 16;
    opt.max_wait_us = 200;
    Server server(opt);
    std::vector<serve::TrafficTarget> targets(1);
    targets[0].weights = B;
    auto report = serve::run_open_loop(server, targets, traffic);
    EXPECT_TRUE(report.status().ok());
    if (!report.status().ok()) return {};
    return *report;
  };

  // The schedule is a pure function of (seed, options): two fresh
  // servers must see the identical request stream, and every
  // request must resolve OK both times. Latency of course differs.
  const serve::TrafficReport first = run_once();
  const serve::TrafficReport second = run_once();
  EXPECT_GT(first.submitted, 0u);
  EXPECT_EQ(first.submitted, second.submitted);
  EXPECT_EQ(first.ok, first.submitted);
  EXPECT_EQ(second.ok, second.submitted);
  EXPECT_EQ(first.errors, 0u);
  ASSERT_EQ(first.classes.size(), second.classes.size());
  for (std::size_t i = 0; i < first.classes.size(); ++i) {
    EXPECT_EQ(first.classes[i].name, second.classes[i].name);
    EXPECT_EQ(first.classes[i].submitted, second.classes[i].submitted);
    EXPECT_EQ(first.classes[i].ok, second.classes[i].ok);
  }
}

TEST(ServerDispatch, StatsReadableLockFreeDuringConcurrentLoad) {
  Rng rng(928);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.max_batch_rows = 8;
  opt.max_wait_us = 200;
  Server server(opt);

  // A poller hammers the lock-free stats()/weights_stats() readers while
  // submitters run — the TSan job proves the reads race-free; here we
  // check they are also monotone and settle to the exact totals.
  std::atomic<bool> stop_polling{false};
  std::thread poller([&] {
    std::uint64_t last_requests = 0;
    while (!stop_polling.load(std::memory_order_acquire)) {
      const auto stats = server.stats();
      EXPECT_GE(stats.totals.requests, last_requests);
      EXPECT_GE(stats.totals.requests, stats.totals.errors);
      last_requests = stats.totals.requests;
      static_cast<void>(server.weights_stats(B.get()));
    }
  });

  const int kThreads = 2, kPerThread = 100;
  std::vector<std::vector<MatrixF>> as(kThreads), cs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      as[static_cast<std::size_t>(t)].push_back(
          random_int_matrix(1 + i % 3, k, rng));
      cs[static_cast<std::size_t>(t)].emplace_back(
          as[static_cast<std::size_t>(t)].back().rows(), n);
    }
  }
  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      auto& ta = as[static_cast<std::size_t>(t)];
      auto& tc = cs[static_cast<std::size_t>(t)];
      for (int i = 0; i < kPerThread; ++i) {
        if (!server
                 .submit(ta[static_cast<std::size_t>(i)].view(), B,
                         tc[static_cast<std::size_t>(i)].view())
                 .get()
                 .ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& s : submitters) s.join();
  stop_polling.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(failures.load(), 0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.totals.requests,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.totals.errors, 0u);
}

// ------------------------------------------------------------- overload

TEST(ServerOverload, ShedFailsFastOverHighWaterAndCountsShedBytes) {
  Rng rng(930);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.admission = AdmissionPolicy::kShed;
  opt.shed_pending_rows = 2;       // exactly one 2-row request fits
  opt.max_batch_rows = 64;
  opt.max_wait_us = 60 * 1000 * 1000;  // first request parks in its queue
  Server server(opt);

  const MatrixF a1 = random_int_matrix(2, k, rng);
  const MatrixF a2 = random_int_matrix(2, k, rng);
  MatrixF c1(2, n), c2(2, n);
  // First request fills the high-water mark and sits pending (the
  // dispatcher will not flush for a minute)...
  auto f1 = server.submit(a1.view(), B, c1.view());
  ASSERT_EQ(f1.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  // ...so the second is refused immediately, without blocking.
  auto f2 = server.submit(a2.view(), B, c2.view());
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(f2.get().code(), StatusCode::kResourceExhausted);

  auto stats = server.stats();
  EXPECT_EQ(stats.shed_requests, 1u);
  EXPECT_GT(stats.shed_bytes, 0u);
  server.shutdown();  // drains the parked request
  NMSPMM_ASSERT_OK(f1.get());
  EXPECT_EQ(max_abs_diff(reference_for(a1.view(), *B).cview(), c1.cview()),
            0.0);
  // Conservation: the shed request never entered the served totals.
  stats = server.stats();
  EXPECT_EQ(stats.totals.requests, 1u);
  EXPECT_EQ(stats.shed_requests, 1u);
}

TEST(ServerOverload, ShedByClassProtectsSingleRowDecode) {
  Rng rng(931);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.admission = AdmissionPolicy::kShedByClass;
  opt.shed_pending_rows = 1;  // any multi-row admission trips the mark
  Server server(opt);

  // Prefill (multi-row) sheds under the mark; a decode row submitted at
  // the same pressure rides the blocking path and is served.
  const MatrixF prefill = random_int_matrix(2, k, rng);
  MatrixF c_prefill(2, n);
  auto shed = server.submit(prefill.view(), B, c_prefill.view());
  EXPECT_EQ(shed.get().code(), StatusCode::kResourceExhausted);

  const MatrixF decode = random_int_matrix(1, k, rng);
  MatrixF c_decode(1, n);
  auto served = server.submit(decode.view(), B, c_decode.view());
  NMSPMM_ASSERT_OK(served.get());
  EXPECT_EQ(max_abs_diff(reference_for(decode.view(), *B).cview(),
                         c_decode.cview()),
            0.0);
  const auto stats = server.stats();
  EXPECT_EQ(stats.shed_requests, 1u);
  EXPECT_EQ(stats.totals.requests, 1u);
}

TEST(ServerOverload, BlockedSubmitFailsAtItsOwnDeadline) {
  Rng rng(932);
  const index_t k = 128, n = 128;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.ring_capacity = 2;  // tiny: submits routinely find it full
  opt.max_batch_rows = 8;
  opt.max_wait_us = 0;  // dispatcher flushes continuously (stays busy)
  Server server(opt);

  // An already-expired deadline turns a full-ring stall into an
  // immediate DEADLINE_EXCEEDED — the submitter never spins past its
  // own SLO. Requests that find a free slot are still served (a missed
  // deadline alone does not fail a request outside shutdown drain).
  // Contending submitters keep the ring full long enough that some
  // stalled submit is guaranteed to re-check after its 1us budget;
  // repeat bursts until observed (virtually always the first burst).
  const int kThreads = 3, kPerThread = 32;
  for (int burst = 0;
       burst < 20 && server.stats().submit_deadline_fails == 0; ++burst) {
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        Rng thread_rng(933 + static_cast<std::uint64_t>(t));
        std::vector<MatrixF> bufs;
        bufs.reserve(kPerThread * 2);
        std::vector<std::future<Status>> done;
        for (int i = 0; i < kPerThread; ++i) {
          bufs.push_back(random_int_matrix(8, k, thread_rng));
          bufs.emplace_back(8, n);
          done.push_back(server.submit(bufs[bufs.size() - 2].view(), B,
                                       bufs.back().view(), {},
                                       /*deadline_us=*/1));
        }
        for (auto& f : done) {
          const Status status = f.get();
          EXPECT_TRUE(status.ok() ||
                      status.code() == StatusCode::kDeadlineExceeded)
              << status.to_string();
        }
      });
    }
    for (auto& th : submitters) th.join();
  }
  EXPECT_GT(server.stats().submit_deadline_fails, 0u);
}

TEST(ServerOverload, OpenLoopRetryBudgetBoundsRetryStorms) {
  Rng rng(933);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  ServerOptions opt;
  opt.admission = AdmissionPolicy::kShed;
  opt.shed_pending_rows = 1;  // 2-row requests can never be admitted
  Server server(opt);

  serve::TrafficOptions traffic;
  traffic.offered_rps = 3000.0;
  traffic.duration_s = 0.1;
  traffic.submit_threads = 2;
  traffic.seed = 11;
  traffic.classes.resize(1);
  traffic.classes[0].name = "prefill";
  traffic.classes[0].rows_min = traffic.classes[0].rows_max = 2;
  traffic.retry.max_attempts = 2;
  traffic.retry.initial_backoff_us = 10;
  traffic.retry.max_backoff_us = 50;
  traffic.retry.budget_cap = 64.0;
  std::vector<serve::TrafficTarget> targets(1);
  targets[0].weights = B;
  auto report = serve::run_open_loop(server, targets, traffic);
  NMSPMM_ASSERT_OK(report.status());

  // Every attempt sheds (2 rows can never fit under a 1-row mark), so
  // zero successes ever credit the retry budget: exactly the initial
  // budget_cap tokens' worth of retries can be spent, no matter how
  // many requests fail — the storm is bounded by construction.
  ASSERT_GE(report->submitted, 65u);
  EXPECT_EQ(report->ok, 0u);
  EXPECT_EQ(report->shed, report->submitted);
  EXPECT_EQ(report->retries, 64u);
  EXPECT_EQ(report->retry_ok, 0u);
  EXPECT_GT(report->retry_denied, 0u);
  // Server-side sheds count every attempt, client-side only final fates.
  EXPECT_EQ(report->server_shed, report->submitted + report->retries);
  EXPECT_EQ(server.stats().totals.requests, 0u);
}

// The serving-surface Status taxonomy, pinned one code per documented
// error path so codes cannot silently drift (retry logic keys on them).
TEST(ServerOverload, StatusTaxonomyCoversEveryServingErrorPath) {
  Rng rng(934);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);

  struct Case {
    const char* name;
    StatusCode expected;
    std::function<Status()> run;
  };
  const std::vector<Case> cases = {
      {"shape mismatch", StatusCode::kInvalidArgument,
       [&] {
         Server server;
         const MatrixF a = random_int_matrix(2, k, rng);
         MatrixF c(2, n + 1);  // wrong output width
         return server.submit(a.view(), B, c.view()).get();
       }},
      {"request over the FFN plan's token budget",
       StatusCode::kFailedPrecondition,
       [&] {
         model::FfnBlock block;
         block.gate = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
         block.up = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
         block.down = shared_weights(n, k, NMConfig{2, 4, 16}, rng);
         Engine engine;
         auto plan = engine.plan_model(/*max_tokens=*/2, {block});
         if (!plan.ok()) return plan.status();  // wrong code → test fails
         Server server;
         const MatrixF a = random_int_matrix(4, k, rng);  // 4 > 2 tokens
         MatrixF out(4, k);
         return server.submit_ffn(a.view(), *plan, out.view()).get();
       }},
      {"shed under admission control", StatusCode::kResourceExhausted,
       [&] {
         ServerOptions opt;
         opt.admission = AdmissionPolicy::kShed;
         opt.shed_pending_rows = 1;
         Server server(opt);
         const MatrixF a = random_int_matrix(2, k, rng);
         MatrixF c(2, n);
         return server.submit(a.view(), B, c.view()).get();
       }},
      {"deadline expired before drain", StatusCode::kDeadlineExceeded,
       [&] {
         ServerOptions opt;
         opt.max_wait_us = 60 * 1000 * 1000;  // only the drain flushes
         opt.slo_aware = false;
         Server server(opt);
         const MatrixF a = random_int_matrix(2, k, rng);
         MatrixF c(2, n);
         auto f = server.submit(a.view(), B, c.view(), {},
                                /*deadline_us=*/1);
         std::this_thread::sleep_for(std::chrono::milliseconds(1));
         server.shutdown();  // drain fast-fails the expired request
         return f.get();
       }},
      {"submit after shutdown", StatusCode::kUnavailable,
       [&] {
         Server server;
         server.shutdown();
         const MatrixF a = random_int_matrix(2, k, rng);
         MatrixF c(2, n);
         return server.submit(a.view(), B, c.view()).get();
       }},
  };
  for (const Case& c : cases) {
    const Status status = c.run();
    EXPECT_EQ(status.code(), c.expected)
        << c.name << " resolved " << status.to_string();
  }
}

TEST(ServerTelemetry, CanBeDisabled) {
  Rng rng(914);
  const index_t k = 64, n = 64;
  auto B = shared_weights(k, n, NMConfig{2, 4, 16}, rng);
  ServerOptions opt;
  opt.telemetry = false;
  opt.max_wait_us = 500;
  Server server(opt);
  const MatrixF A = random_int_matrix(2, k, rng);
  MatrixF C(2, n);
  NMSPMM_ASSERT_OK(server.submit(A.view(), B, C.view()).get());
  EXPECT_EQ(server.stats().latency.total_requests(), 0u);
  EXPECT_EQ(server.weights_stats(B.get()).requests, 1u);  // stats still on
}

// --- One target, one completion: every (target kind, serving path) pair
// goes through the same execution call and the same stage record.

enum class TargetCase { kWeights, kModelPlan, kDecoderPlan };
enum class PathCase { kLoneRing, kCoalesced };

const char* to_string(TargetCase t) {
  switch (t) {
    case TargetCase::kWeights: return "plain weights";
    case TargetCase::kModelPlan: return "ModelPlan";
    case TargetCase::kDecoderPlan: return "DecoderPlan";
  }
  return "?";
}

const char* to_string(PathCase p) {
  switch (p) {
    case PathCase::kLoneRing: return "lone ring request";
    case PathCase::kCoalesced: return "coalesced batch";
  }
  return "?";
}

/// A small GQA decoder layer (hidden 64, 4 heads over 2 KV heads of dim
/// 16, ffn 96) on integer-valued weights.
model::DecoderLayer small_decoder_layer(const NMConfig& cfg, Rng& rng) {
  model::DecoderLayer layer;
  layer.attn.n_heads = 4;
  layer.attn.n_kv_heads = 2;
  layer.attn.head_dim = 16;
  const index_t hidden = 64, ffn = 96;
  layer.qkv = shared_weights(hidden, layer.attn.qkv_dim(), cfg, rng);
  layer.out_proj = shared_weights(layer.attn.q_dim(), hidden, cfg, rng);
  layer.attn_norm.assign(static_cast<std::size_t>(hidden), 1.0f);
  layer.ffn.gate = shared_weights(hidden, ffn, cfg, rng);
  layer.ffn.up = shared_weights(hidden, ffn, cfg, rng);
  layer.ffn.down = shared_weights(ffn, hidden, cfg, rng);
  layer.ffn.act = Activation::kSilu;
  layer.ffn.residual = true;
  return layer;
}

TEST(ServerTarget, EveryTargetAndPathMatchesADirectPlanCall) {
  Rng rng(930);
  const NMConfig cfg{2, 4, 16};
  const index_t hidden = 64;
  const model::DecoderLayer layer = small_decoder_layer(cfg, rng);

  for (const TargetCase target :
       {TargetCase::kWeights, TargetCase::kModelPlan,
        TargetCase::kDecoderPlan}) {
    for (const PathCase path : {PathCase::kLoneRing, PathCase::kCoalesced}) {
      SCOPED_TRACE(std::string(to_string(target)) + " / " + to_string(path));
      const int count = path == PathCase::kCoalesced ? 2 : 1;
      ServerOptions opt;
        opt.trace_sample_n = 1;
      // A budget of exactly `count` rows and a minute-long max_wait: the
      // requests flush together, as one full batch.
      opt.max_batch_rows = count;
      opt.max_wait_us = 60 * 1000 * 1000;
      Server server(opt);
      Engine& engine = server.engine();

      // One 1-row request per sequence; the direct call runs the same
      // rows stacked, as the dispatcher gathers them.
      const MatrixF x = random_matrix(count, hidden, rng, -0.5f, 0.5f);
      MatrixF want(count, hidden), got(count, hidden);
      std::vector<std::uint64_t> seqs;
      for (int i = 0; i < count; ++i) seqs.push_back(10 + i);
      std::function<std::future<Status>(int)> submit;
      const void* target_id = nullptr;
      std::shared_ptr<const CompressedNM> weights;
      if (target == TargetCase::kWeights) {
        weights = shared_weights(hidden, hidden, cfg, rng);
        target_id = weights.get();
        NMSPMM_ASSERT_OK(engine.spmm(x.cview(), weights, want.view()));
        submit = [&](int i) {
          return server.submit(x.cview().block(i, 0, 1, hidden), weights,
                               got.view().block(i, 0, 1, hidden));
        };
      }
      std::shared_ptr<model::ModelPlan> ffn;
      if (target == TargetCase::kModelPlan) {
        auto plan = engine.plan_model(4, {layer.ffn});
        NMSPMM_ASSERT_OK(plan.status());
        ffn = *plan;
        target_id = ffn.get();
        NMSPMM_ASSERT_OK(ffn->run(x.cview(), want.view()));
        submit = [&](int i) {
          return server.submit_ffn(x.cview().block(i, 0, 1, hidden), ffn,
                                   got.view().block(i, 0, 1, hidden));
        };
      }
      std::shared_ptr<model::DecoderPlan> decoder;
      if (target == TargetCase::kDecoderPlan) {
        attn::KvCacheOptions kv;
        kv.page_tokens = 4;
        kv.max_tokens = 16;
        // Decoding advances KV state, so the direct call runs on a twin
        // plan of the same layer, from the same fresh sequences.
        Engine twin_engine;
        auto twin = twin_engine.plan_decoder(4, layer, kv);
        auto plan = engine.plan_decoder(4, layer, kv);
        NMSPMM_ASSERT_OK(twin.status());
        NMSPMM_ASSERT_OK(plan.status());
        decoder = *plan;
        target_id = decoder.get();
        std::vector<Status> rows(static_cast<std::size_t>(count));
        for (const std::uint64_t seq : seqs) {
          NMSPMM_ASSERT_OK((*twin)->begin_sequence(seq));
          NMSPMM_ASSERT_OK(decoder->begin_sequence(seq));
        }
        NMSPMM_ASSERT_OK((*twin)->decode(x.cview(), seqs.data(), want.view(),
                                         rows.data()));
        for (const Status& row : rows) NMSPMM_ASSERT_OK(row);
        submit = [&](int i) {
          return server.submit_decode(
              seqs[static_cast<std::size_t>(i)],
              x.cview().block(i, 0, 1, hidden), decoder,
              got.view().block(i, 0, 1, hidden));
        };
      }

      std::vector<std::future<Status>> done;
      for (int i = 0; i < count; ++i) done.push_back(submit(i));
      for (auto& f : done) NMSPMM_ASSERT_OK(f.get());
      EXPECT_EQ(max_abs_diff(want.cview(), got.cview()), 0.0);

      const Server::Stats stats = server.stats();
      const auto n = static_cast<std::uint64_t>(count);
      EXPECT_EQ(stats.totals.batches, 1u);
      // Per-class stage counts (1-row requests are all class decode):
      // every request records all five.
      using serve::RequestClass;
      using serve::Stage;
      for (const Stage stage : {Stage::kSubmit, Stage::kQueue, Stage::kGather,
                                Stage::kExecute, Stage::kTotal}) {
        EXPECT_EQ(stats.latency.stage(RequestClass::kDecode, stage).count, n)
            << serve::to_string(stage);
        EXPECT_EQ(stats.latency.stage(RequestClass::kPrefill, stage).count,
                  0u);
      }

      // Spans: the same stages, each carrying the batch's flush reason;
      // a queued request's submit span predates its batch and has none.
      std::map<std::uint64_t, std::map<obs::SpanKind, obs::TraceSpan>> spans;
      for (const obs::TraceSpan& span : server.tracer()->snapshot()) {
        if (span.trace_id == 0 || span.kind > obs::SpanKind::kTotal) continue;
        spans[span.trace_id][span.kind] = span;
      }
      ASSERT_EQ(spans.size(), static_cast<std::size_t>(count));
      for (const auto& [id, kinds] : spans) {
        EXPECT_EQ(kinds.size(), 5u);
        for (const auto& [kind, span] : kinds) {
          SCOPED_TRACE(obs::to_string(kind));
          EXPECT_EQ(span.target, static_cast<std::uint64_t>(
                                     reinterpret_cast<std::uintptr_t>(
                                         target_id)));
          EXPECT_EQ(span.rows, 1u);
          const bool pre_batch = kind == obs::SpanKind::kSubmit;
          EXPECT_EQ(span.flush == obs::kNoAttr, pre_batch);
        }
      }
    }
  }
}


// Plain weights, a ModelPlan and a DecoderPlan, each driven by its own
// client thread at once: the one dispatcher serves all three, every
// output matches a direct plan call bit for bit, and the single
// per_shard entry equals the totals — the invariant perfbench's
// served_by / share_dispatcher rely on.
TEST(Server, OneDispatcherServesEveryTarget) {
  Rng rng(931);
  const NMConfig cfg{2, 4, 16};
  const index_t hidden = 64;
  constexpr int kRows = 4;  // one round of requests = one full batch
  constexpr int kRounds = 8;
  const model::DecoderLayer layer = small_decoder_layer(cfg, rng);

  ServerOptions opt;
  opt.max_batch_rows = kRows;
  opt.max_wait_us = 60 * 1000 * 1000;  // flush only when full
  Server server(opt);
  Engine& engine = server.engine();
  const auto weights = shared_weights(hidden, hidden, cfg, rng);
  auto ffn = engine.plan_model(kRows, {layer.ffn});
  NMSPMM_ASSERT_OK(ffn.status());
  attn::KvCacheOptions kv;
  kv.page_tokens = 4;
  kv.max_tokens = kRows * kRounds;
  // Decoding advances KV state, so the direct calls run on a twin plan
  // of the same layer, from the same fresh sequences.
  auto decoder = engine.plan_decoder(kRows, layer, kv);
  Engine twin_engine;
  auto twin = twin_engine.plan_decoder(kRows, layer, kv);
  NMSPMM_ASSERT_OK(decoder.status());
  NMSPMM_ASSERT_OK(twin.status());
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < kRows; ++i) {
    seqs.push_back(20 + static_cast<std::uint64_t>(i));
    NMSPMM_ASSERT_OK((*decoder)->begin_sequence(seqs.back()));
    NMSPMM_ASSERT_OK((*twin)->begin_sequence(seqs.back()));
  }

  // Target t submits row r of x[t] into row r of got[t]; row r belongs
  // to sequence r % kRows.
  constexpr int kTargets = 3;
  const index_t total_rows = kRows * kRounds;
  std::vector<MatrixF> x, got, want;
  for (int t = 0; t < kTargets; ++t) {
    x.push_back(random_matrix(total_rows, hidden, rng, -0.5f, 0.5f));
    got.emplace_back(total_rows, hidden);
    want.emplace_back(total_rows, hidden);
  }
  auto submit = [&](int t, index_t r) {
    const ConstViewF a = x[static_cast<std::size_t>(t)].cview().block(
        r, 0, 1, hidden);
    const ViewF c = got[static_cast<std::size_t>(t)].view().block(
        r, 0, 1, hidden);
    if (t == 0) return server.submit(a, weights, c);
    if (t == 1) return server.submit_ffn(a, *ffn, c);
    return server.submit_decode(seqs[static_cast<std::size_t>(r % kRows)],
                                a, *decoder, c);
  };
  std::vector<std::vector<Status>> results(kTargets);
  std::vector<std::thread> clients;
  for (int t = 0; t < kTargets; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<Status>> done;
        for (index_t i = 0; i < kRows; ++i) {
          done.push_back(submit(t, round * kRows + i));
        }
        for (auto& f : done) {
          results[static_cast<std::size_t>(t)].push_back(f.get());
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (const auto& statuses : results) {
    for (const Status& s : statuses) NMSPMM_ASSERT_OK(s);
  }

  // Direct calls over the same rounds of rows the dispatcher gathered.
  for (int round = 0; round < kRounds; ++round) {
    const index_t r0 = round * kRows;
    auto in = [&](int t) {
      return x[static_cast<std::size_t>(t)].cview().block(r0, 0, kRows,
                                                         hidden);
    };
    auto out = [&](int t) {
      return want[static_cast<std::size_t>(t)].view().block(r0, 0, kRows,
                                                           hidden);
    };
    NMSPMM_ASSERT_OK(engine.spmm(in(0), weights, out(0)));
    NMSPMM_ASSERT_OK((*ffn)->run(in(1), out(1)));
    std::vector<Status> rows(static_cast<std::size_t>(kRows));
    NMSPMM_ASSERT_OK((*twin)->decode(in(2), seqs.data(), out(2), rows.data()));
    for (const Status& row : rows) NMSPMM_ASSERT_OK(row);
  }
  for (int t = 0; t < kTargets; ++t) {
    EXPECT_EQ(max_abs_diff(want[static_cast<std::size_t>(t)].cview(),
                           got[static_cast<std::size_t>(t)].cview()),
              0.0)
        << "target " << t;
  }

  // Every round of every target flushed as one full batch.
  const auto rounds = static_cast<std::uint64_t>(kRounds);
  EXPECT_EQ(server.weights_stats(weights.get()).batches, rounds);
  EXPECT_EQ(server.model_stats(ffn->get()).batches, rounds);
  EXPECT_EQ(server.decode_stats(decoder->get()).batches, rounds);
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.totals.requests, kTargets * rounds * kRows);
  EXPECT_EQ(stats.totals.batches, kTargets * rounds);
  EXPECT_EQ(stats.totals.full_flushes, kTargets * rounds);
  ASSERT_EQ(stats.per_shard.size(), 1u);
  const Server::GroupStats& only = stats.per_shard[0];
  EXPECT_EQ(only.requests, stats.totals.requests);
  EXPECT_EQ(only.rows, stats.totals.rows);
  EXPECT_EQ(only.batches, stats.totals.batches);
  EXPECT_EQ(only.full_flushes, stats.totals.full_flushes);
  EXPECT_EQ(only.timeout_flushes, stats.totals.timeout_flushes);
  EXPECT_EQ(only.slo_flushes, stats.totals.slo_flushes);
  EXPECT_EQ(only.errors, stats.totals.errors);
  EXPECT_EQ(only.slo_violations, stats.totals.slo_violations);
  EXPECT_EQ(only.split_batches, stats.totals.split_batches);
  EXPECT_EQ(only.bypassed, stats.totals.bypassed);
  EXPECT_EQ(only.max_queue_depth, stats.totals.max_queue_depth);
}

}  // namespace
}  // namespace nmspmm
