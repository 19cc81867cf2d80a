// Serving: dynamic micro-batching over the Engine in ~50 lines.
//
// A decode-style workload submits many tiny activation batches (here one
// row each) against one weight matrix. Served individually, every request
// re-reads the whole compressed B; the Server coalesces concurrent
// requests into one batched SpMM per flush window, so B is read once per
// batch. submit() returns a future immediately — callers overlap their
// own work with the product and collect the Status when they need C.
#include <cstdio>
#include <vector>

#include "core/nmspmm.hpp"
#include "serve/server.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

int main() {
  using namespace nmspmm;
  // LLM-projection-sized weights (beyond the last-level cache, where
  // per-request weight re-reads actually cost memory bandwidth).
  const index_t k = 4096, n = 4096, requests = 64;
  Rng rng(42);

  // Offline: compress the weights once (87.5% vector-wise sparsity).
  MatrixF B = random_matrix(k, n, rng);
  const auto weights = std::make_shared<const CompressedNM>(
      compress(B.view(), magnitude_mask(B.view(), NMConfig{4, 32, 16})));

  // One decode step per "user": a single activation row and an output row.
  std::vector<MatrixF> As, Cs;
  for (index_t r = 0; r < requests; ++r) {
    As.push_back(random_matrix(1, k, rng));
    Cs.emplace_back(1, n);
  }

  // The server flushes a batch when 64 rows are pending or the oldest
  // request has waited 200 us — whichever comes first. This loop submits
  // from one thread and waits afterwards, so its rows share batches.
  ServerOptions options;
  options.max_batch_rows = 64;
  options.max_wait_us = 200;
  Server server(options);

  Timer timer;
  std::vector<std::future<Status>> done;
  done.reserve(static_cast<std::size_t>(requests));
  for (index_t r = 0; r < requests; ++r) {
    done.push_back(server.submit(As[static_cast<std::size_t>(r)].view(),
                                 weights,
                                 Cs[static_cast<std::size_t>(r)].view()));
  }
  for (auto& f : done) NMSPMM_CHECK_OK(f.get());
  const double batched_ms = timer.millis();

  // The same stream served one request at a time through the raw engine.
  Engine& engine = server.engine();
  timer.reset();
  for (index_t r = 0; r < requests; ++r) {
    NMSPMM_CHECK_OK(engine.spmm(As[static_cast<std::size_t>(r)].view(),
                                weights,
                                Cs[static_cast<std::size_t>(r)].view()));
  }
  const double serial_ms = timer.millis();

  const Server::GroupStats stats = server.weights_stats(weights.get());
  std::printf("%lld decode requests: batched %.2f ms vs one-at-a-time "
              "%.2f ms (%.2fx)\n",
              static_cast<long long>(requests), batched_ms, serial_ms,
              serial_ms / batched_ms);
  std::printf("server stats: %llu request(s) in %llu batch(es) "
              "(%llu full, %llu timeout), mean batch %.1f rows, peak queue "
              "depth %zu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.full_flushes),
              static_cast<unsigned long long>(stats.timeout_flushes),
              static_cast<double>(stats.rows) /
                  static_cast<double>(stats.batches),
              stats.max_queue_depth);
  return 0;
}
