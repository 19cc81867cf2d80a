// Span tracing: the lock-free TraceRecorder ring (wraparound, drops,
// concurrent exactly-once accounting), the Chrome trace-event export,
// and the Server integration — sampled requests leave stage spans whose
// durations reconcile with the telemetry latency they ride next to.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/nmspmm.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "tests/testing.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

using obs::SpanKind;
using obs::TraceRecorder;
using obs::TraceSpan;

TraceSpan make_span(std::uint64_t trace_id, SpanKind kind,
                    std::uint64_t ts_us = 0, std::uint64_t dur_us = 1) {
  TraceSpan s;
  s.trace_id = trace_id;
  s.kind = kind;
  s.ts_us = ts_us;
  s.dur_us = dur_us;
  s.rows = 1;
  return s;
}

TEST(TraceRecorder, RecordsAndSnapshotsSortedByStart) {
  TraceRecorder rec(TraceRecorder::Options{64});
  rec.record(make_span(3, SpanKind::kTotal, 30));
  rec.record(make_span(1, SpanKind::kSubmit, 10));
  rec.record(make_span(2, SpanKind::kQueue, 20));
  EXPECT_EQ(rec.recorded(), 3u);
  EXPECT_EQ(rec.drops(), 0u);
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].trace_id, 1u);
  EXPECT_EQ(spans[1].trace_id, 2u);
  EXPECT_EQ(spans[2].trace_id, 3u);
}

TEST(TraceRecorder, AttributesSurviveThePackedSlotRoundTrip) {
  TraceRecorder rec(TraceRecorder::Options{8});
  TraceSpan s;
  s.trace_id = 0x1122334455667788ull;
  s.ts_us = 123456;
  s.dur_us = 789;
  s.target = 0xdeadbeefull;
  s.detail = 42;
  s.rows = 70000;  // wider than 16 bits: rows keep all 32
  s.kind = SpanKind::kExecute;
  s.cls = 1;
  s.flush = 2;
  rec.record(s);
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  const TraceSpan& r = spans[0];
  EXPECT_EQ(r.trace_id, s.trace_id);
  EXPECT_EQ(r.ts_us, s.ts_us);
  EXPECT_EQ(r.dur_us, s.dur_us);
  EXPECT_EQ(r.target, s.target);
  EXPECT_EQ(r.detail, s.detail);
  EXPECT_EQ(r.rows, s.rows);
  EXPECT_EQ(r.kind, s.kind);
  EXPECT_EQ(r.cls, s.cls);
  EXPECT_EQ(r.flush, s.flush);
}

// A single writer wrapping the ring: overwrites are counted in drops(),
// and the snapshot holds exactly the newest capacity-many spans.
TEST(TraceRecorder, WraparoundCountsDropsAndKeepsTheNewestSpans) {
  constexpr std::uint64_t kCapacity = 8;  // already a power of two
  constexpr std::uint64_t kTotal = 30;
  TraceRecorder rec(TraceRecorder::Options{kCapacity});
  for (std::uint64_t i = 1; i <= kTotal; ++i) {
    rec.record(make_span(i, SpanKind::kSubmit, i));
  }
  EXPECT_EQ(rec.recorded(), kTotal);
  EXPECT_EQ(rec.drops(), kTotal - kCapacity);
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), kCapacity);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].trace_id, kTotal - kCapacity + 1 + i);
  }
}

// 8 threads storm the recorder with distinct ids; the ring is large
// enough to hold everything even if every thread lands on one shard, so
// every span must be retained exactly once, and recorded() must equal
// the exact number of record() calls.
TEST(TraceRecorder, EightThreadStormRetainsEverySpanExactlyOnce) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 256;
  TraceRecorder rec(TraceRecorder::Options{4096});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Globally unique id encodes (thread, sequence).
        rec.record(make_span(static_cast<std::uint64_t>(t) * kPerThread + i +
                                 1,
                             SpanKind::kExecute, i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.recorded(), kThreads * kPerThread);
  EXPECT_EQ(rec.drops(), 0u);
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), kThreads * kPerThread);
  std::set<std::uint64_t> ids;
  for (const TraceSpan& s : spans) ids.insert(s.trace_id);
  EXPECT_EQ(ids.size(), kThreads * kPerThread) << "duplicate or torn span";
  EXPECT_EQ(*ids.begin(), 1u);
  EXPECT_EQ(*ids.rbegin(), kThreads * kPerThread);
}

// Snapshots racing wrapping writers must only ever surface intact spans
// (the seqlock rejects torn slots): every id read back is one a writer
// actually published, with the payload the id implies.
TEST(TraceRecorder, ConcurrentSnapshotsDuringWraparoundSeeOnlyIntactSpans) {
  TraceRecorder rec(TraceRecorder::Options{16});  // wraps constantly
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&rec, &stop, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // detail mirrors trace_id so a torn read is detectable.
        TraceSpan s = make_span(static_cast<std::uint64_t>(t + 1) * 1000000 +
                                    i,
                                SpanKind::kQueue, i);
        s.detail = s.trace_id;
        rec.record(s);
        ++i;
      }
    });
  }
  for (int iter = 0; iter < 200; ++iter) {
    for (const TraceSpan& s : rec.snapshot()) {
      ASSERT_EQ(s.detail, s.trace_id) << "torn span escaped the seqlock";
      ASSERT_EQ(s.kind, SpanKind::kQueue);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();
}

TEST(TraceExport, ChromeEventsCarryStageAndAttributeFields) {
  TraceSpan s = make_span(7, SpanKind::kExecute, 100, 50);
  s.cls = 0;
  s.flush = 1;
  s.rows = 4;
  s.detail = 3;
  s.target = 0xabc;
  std::string out;
  obs::append_chrome_events({s}, out);
  EXPECT_NE(out.find("\"name\":\"execute\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"cat\":\"decode\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"pid\":1,\"tid\":0"), std::string::npos);
  EXPECT_NE(out.find("\"ts\":100"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(out.find("\"trace_id\":7"), std::string::npos);
  EXPECT_NE(out.find("\"rows\":4"), std::string::npos);
  EXPECT_NE(out.find("\"flush\":\"timeout\""), std::string::npos);
  EXPECT_EQ(out.find("\"lane\""), std::string::npos);
  EXPECT_NE(out.find("\"target\":\"0xabc\""), std::string::npos);
  EXPECT_NE(out.find("\"repacks\":3"), std::string::npos);

  // Repack spans report bytes instead of a repack count, under cat mem.
  TraceSpan r = make_span(0, SpanKind::kRepack, 10, 5);
  r.detail = 4096;
  std::string rout;
  obs::append_chrome_events({r}, rout);
  EXPECT_NE(rout.find("\"cat\":\"mem\""), std::string::npos);
  EXPECT_NE(rout.find("\"bytes\":4096"), std::string::npos);
  EXPECT_NE(rout.find("\"tid\":0"), std::string::npos);
}

TEST(TraceExport, DumpWritesABalancedTraceEventsObject) {
  TraceRecorder rec(TraceRecorder::Options{8});
  rec.record(make_span(1, SpanKind::kSubmit, 1));
  rec.record(make_span(1, SpanKind::kTotal, 1, 9));
  const std::string path = ::testing::TempDir() + "trace_dump_test.json";
  NMSPMM_ASSERT_OK(rec.dump_chrome_json(path));
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream ss;
  ss << file.rdbuf();
  const std::string body = ss.str();
  EXPECT_EQ(body.rfind("{\"traceEvents\":[", 0), 0u) << body;
  EXPECT_NE(body.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Balanced braces/brackets — a cheap structural JSON check.
  long depth = 0;
  for (char c : body) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceGlobals, ClearOnlyUninstallsItsOwnRecorder) {
  TraceRecorder a{TraceRecorder::Options{8}};
  TraceRecorder b{TraceRecorder::Options{8}};
  obs::set_global_recorder(&a);
  obs::clear_global_recorder(&b);  // not the active one: no-op
  EXPECT_EQ(obs::global_recorder(), &a);
  obs::set_global_recorder(&b);
  obs::clear_global_recorder(&a);  // stale uninstall after replacement
  EXPECT_EQ(obs::global_recorder(), &b);
  obs::clear_global_recorder(&b);
  EXPECT_EQ(obs::global_recorder(), nullptr);
}

TEST(TraceGlobals, RepackEventsCountAndEmitSpans) {
  TraceRecorder rec(TraceRecorder::Options{8});
  obs::set_global_recorder(&rec);
  const std::uint64_t before = obs::repack_events();
  obs::count_repack_event(1024, 7);
  EXPECT_EQ(obs::repack_events(), before + 1);
  obs::clear_global_recorder(&rec);
  const auto spans = rec.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, SpanKind::kRepack);
  EXPECT_EQ(spans[0].detail, 1024u);
  EXPECT_EQ(spans[0].dur_us, 7u);
  // With no recorder installed the count still advances, span-free.
  obs::count_repack_event(2048, 3);
  EXPECT_EQ(obs::repack_events(), before + 2);
  EXPECT_EQ(rec.recorded(), 1u);
}

// ------------------------------------------------------------ Server

std::shared_ptr<const CompressedNM> shared_weights(index_t k, index_t n,
                                                   Rng& rng) {
  return std::make_shared<const CompressedNM>(
      random_compressed_int(k, n, NMConfig{2, 4, 16}, rng));
}

TEST(ServerTrace, DumpTraceFailsPreconditionWhenTracingIsOff) {
  Server server(ServerOptions{});  // trace_sample_n = 0
  EXPECT_EQ(server.tracer(), nullptr);
  const Status status =
      server.dump_trace(::testing::TempDir() + "no_trace.json");
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  const auto stats = server.stats();
  EXPECT_EQ(stats.trace_spans, 0u);
  EXPECT_EQ(stats.trace_drops, 0u);
}

// Every request traced at sample_n=1 leaves the full span
// chain, the stage durations reconcile with the total, and the spans
// carry the batch attributes (flush reason, class, target).
TEST(ServerTrace, TracedRequestsLeaveReconcilableStageSpans) {
  Rng rng(31);
  auto b = shared_weights(64, 64, rng);
  ServerOptions opt;
  opt.trace_sample_n = 1;
  opt.max_wait_us = 100;
  Server server(opt);
  ASSERT_NE(server.tracer(), nullptr);

  constexpr int kRequests = 12;
  std::vector<MatrixF> as, cs;
  std::vector<std::future<Status>> futs;
  for (int i = 0; i < kRequests; ++i) {
    as.push_back(random_int_matrix(i % 3 == 0 ? 4 : 1, 64, rng));
    cs.emplace_back(as.back().rows(), 64);
    futs.push_back(server.submit(as[i].view(), b, cs[i].view()));
  }
  for (auto& f : futs) NMSPMM_ASSERT_OK(f.get());

  const auto stats = server.stats();
  EXPECT_GE(stats.trace_spans, 5u * kRequests);
  EXPECT_EQ(stats.trace_drops, 0u);

  std::map<std::uint64_t, std::map<SpanKind, TraceSpan>> by_request;
  for (const TraceSpan& s : server.tracer()->snapshot()) {
    if (s.trace_id == 0) continue;
    by_request[s.trace_id][s.kind] = s;
  }
  ASSERT_EQ(by_request.size(), static_cast<std::size_t>(kRequests));
  for (const auto& [id, spans] : by_request) {
    SCOPED_TRACE(id);
    for (SpanKind k : {SpanKind::kSubmit, SpanKind::kQueue, SpanKind::kGather,
                       SpanKind::kExecute, SpanKind::kTotal}) {
      ASSERT_TRUE(spans.count(k)) << "missing " << obs::to_string(k);
    }
    const TraceSpan& total = spans.at(SpanKind::kTotal);
    // The four stage intervals tile submitted -> exec_end; the total
    // extends to the resolve. Sum <= total (+1us truncation per stage),
    // and the unaccounted resolve tail stays small.
    std::uint64_t stage_sum = 0;
    for (SpanKind k : {SpanKind::kSubmit, SpanKind::kQueue, SpanKind::kGather,
                       SpanKind::kExecute}) {
      stage_sum += spans.at(k).dur_us;
    }
    EXPECT_LE(stage_sum, total.dur_us + 4);
    EXPECT_LE(total.dur_us - std::min(stage_sum, total.dur_us), 200000u);
    // Stages chain: each starts where the previous ended (within the
    // truncation of independent duration_casts).
    const auto end_of = [&](SpanKind k) {
      return spans.at(k).ts_us + spans.at(k).dur_us;
    };
    EXPECT_LE(std::llabs(static_cast<long long>(end_of(SpanKind::kSubmit)) -
                         static_cast<long long>(spans.at(SpanKind::kQueue).ts_us)),
              2);
    EXPECT_LE(std::llabs(static_cast<long long>(end_of(SpanKind::kQueue)) -
                         static_cast<long long>(spans.at(SpanKind::kGather).ts_us)),
              2);
    // Attributes: a real flush reason on the execute span, class
    // consistent with the row count.
    const TraceSpan& exec = spans.at(SpanKind::kExecute);
    EXPECT_NE(exec.flush, obs::kNoAttr);
    EXPECT_EQ(exec.cls, exec.rows <= 1 ? 0 : 1);
    EXPECT_EQ(exec.target, static_cast<std::uint64_t>(
                               reinterpret_cast<std::uintptr_t>(b.get())));
  }

  // Span count reconciles with telemetry: every traced request also
  // recorded a kTotal telemetry sample.
  EXPECT_EQ(stats.latency.total_requests(),
            static_cast<std::uint64_t>(kRequests));

  const std::string path = ::testing::TempDir() + "server_trace.json";
  NMSPMM_ASSERT_OK(server.dump_trace(path));
  std::ifstream file(path);
  EXPECT_TRUE(file.good());
}

// sample_n > 1 traces exactly every n-th submission (the sampling
// sequence is a plain counter, deterministic under serial submission).
TEST(ServerTrace, SamplingTracesExactlyOneInN) {
  Rng rng(33);
  auto b = shared_weights(64, 64, rng);
  ServerOptions opt;
  opt.trace_sample_n = 4;
  Server server(opt);
  constexpr int kRequests = 40;
  for (int i = 0; i < kRequests; ++i) {
    const MatrixF a = random_int_matrix(1, 64, rng);
    MatrixF c(1, 64);
    NMSPMM_ASSERT_OK(server.submit(a.view(), b, c.view()).get());
  }
  std::set<std::uint64_t> ids;
  for (const TraceSpan& s : server.tracer()->snapshot()) {
    if (s.trace_id != 0) ids.insert(s.trace_id);
  }
  EXPECT_EQ(ids.size(), kRequests / 4u);
}

}  // namespace
}  // namespace nmspmm
