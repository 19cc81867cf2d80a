// Dynamic-batching benchmark: what the Server front end buys over raw
// per-request Engine::spmm on a concurrent decode stream.
//
// The workload is the serving regime the paper's end-to-end LLM numbers
// come from: many independent requests of a few activation rows each
// (decode steps are m=1) against one long-lived weight matrix. Served one
// at a time, each request re-reads the whole compressed B; coalesced by
// the Server, one batched SpMM amortizes that read across every request
// in the flush window. The default shape (8192 x 8192 at 87.5%, ~32 MB of
// compressed weights) keeps B out of the last-level cache, as real LLM
// projection matrices are — on cache-resident weights the CPU re-read is
// nearly free and batching shows less. Since plan-time weight pre-packing
// the per-request path streams resident weights with no staging tax, so
// on a single core the Server's coalescing win is largely gone (its
// dispatcher thread competes with the submitter); the batching story is
// now multi-core, where one batched product parallelizes better than 64
// tiny kernels.
#include <future>
#include <vector>

#include "bench/bench_common.hpp"
#include "serve/server.hpp"

using namespace nmspmm;
using namespace nmspmm::bench;

int main(int argc, char** argv) {
  CliParser cli("bench_serving", "dynamic batching vs per-request spmm");
  cli.add_int("n", 8192, "output columns");
  cli.add_int("k", 8192, "reduction depth");
  cli.add_int("requests", 64, "concurrent requests per stream iteration");
  cli.add_int("rows", 1, "activation rows per request (1 = decode step)");
  cli.add_int("max_batch", 64, "server flush threshold in rows");
  cli.add_int("max_wait_us", 200, "server flush deadline in microseconds");
  cli.add_int("threads", 0, "engine pool size (0 = hardware concurrency)");
  if (!cli.parse(argc, argv)) return 1;
  const index_t n = cli.get_int("n"), k = cli.get_int("k");
  const index_t requests = cli.get_int("requests");
  const index_t rows = cli.get_int("rows");
  if (requests < 1 || rows < 1) {
    std::cerr << "--requests and --rows must be positive\n";
    return 1;
  }
  const NMConfig cfg = kSparsity875;

  Rng rng(23);
  auto weights = std::make_shared<const CompressedNM>(
      random_compressed(k, n, cfg, rng));
  std::vector<MatrixF> As, Cs;
  for (index_t r = 0; r < requests; ++r) {
    As.push_back(random_matrix(rows, k, rng));
    Cs.emplace_back(rows, n);
  }

  std::cout << "=== Dynamic batching: " << requests << " concurrent "
            << rows << "-row request(s), " << n << " x " << k << ", "
            << cfg.to_string() << " ===\n";

  EngineOptions engine_opt;
  engine_opt.num_threads = static_cast<unsigned>(cli.get_int("threads"));

  // Baseline: the same stream served one request at a time. The engine's
  // plan cache is warm after the first iteration — this measures pure
  // per-request execution, not re-planning.
  Engine engine(engine_opt);
  auto serve_one_at_a_time = [&] {
    for (index_t r = 0; r < requests; ++r) {
      const auto i = static_cast<std::size_t>(r);
      NMSPMM_CHECK_OK(engine.spmm(As[i].view(), weights, Cs[i].view()));
    }
  };

  ServerOptions server_opt;
  server_opt.max_batch_rows = cli.get_int("max_batch");
  server_opt.max_wait_us =
      static_cast<std::uint32_t>(cli.get_int("max_wait_us"));
  server_opt.engine = engine_opt;
  Server server(server_opt);
  std::vector<std::future<Status>> done(static_cast<std::size_t>(requests));
  auto serve_batched = [&] {
    for (index_t r = 0; r < requests; ++r) {
      const auto i = static_cast<std::size_t>(r);
      done[i] = server.submit(As[i].view(), weights, Cs[i].view());
    }
    for (auto& f : done) NMSPMM_CHECK_OK(f.get());
  };

  const double t_serial = time_callable(serve_one_at_a_time, 1, 5, 0.3).median;
  const double t_batched = time_callable(serve_batched, 1, 5, 0.3).median;

  const double total = static_cast<double>(requests);
  ResultTable table(
      {"path", "stream ms", "per request us", "requests/s", "speedup"});
  table.add_row({"engine.spmm per request", ResultTable::fmt(t_serial * 1e3, 2),
                 ResultTable::fmt(t_serial * 1e6 / total, 1),
                 ResultTable::fmt(total / t_serial, 0), "1.00"});
  table.add_row({"server dynamic batching",
                 ResultTable::fmt(t_batched * 1e3, 2),
                 ResultTable::fmt(t_batched * 1e6 / total, 1),
                 ResultTable::fmt(total / t_batched, 0),
                 ResultTable::fmt(t_serial / t_batched, 2)});
  print_table(table);

  const Server::GroupStats stats = server.weights_stats(weights.get());
  std::cout << "server: " << stats.requests << " request(s) in "
            << stats.batches << " batch(es) (" << stats.full_flushes
            << " full, " << stats.timeout_flushes << " timeout), mean batch "
            << ResultTable::fmt(static_cast<double>(stats.rows) /
                                    static_cast<double>(stats.batches), 1)
            << " rows, peak queue depth " << stats.max_queue_depth << "\n";
  const auto cache = server.engine().cache_stats();
  std::cout << "plan cache: " << cache.size << " plan(s), " << cache.hits
            << " hit(s), " << cache.misses << " miss(es)\n";
  return 0;
}
