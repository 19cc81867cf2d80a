// Quickstart: the complete NM-SpMM serving workflow in ~40 lines.
//
//   1. take a dense weight matrix B (k x n),
//   2. build a vector-wise 2:8 (75% sparsity) magnitude mask,
//   3. compress B into the (values, index) representation of Figure 1,
//   4. hand the weights to an Engine — plan pre-processing happens
//      transparently on first use and is cached for every batch size,
//   5. run C = A (*) (B', D) and compare against the dense product.
#include <cstdio>

#include "baselines/dense_gemm.hpp"
#include "core/nmspmm.hpp"
#include "util/timer.hpp"
#include "workloads/generators.hpp"

int main() {
  using namespace nmspmm;
  const index_t m = 256, k = 1024, n = 1024;
  Rng rng(42);

  // Dense activations and weights.
  MatrixF A = random_matrix(m, k, rng);
  MatrixF B = random_matrix(k, n, rng);

  // 2:8 vector-wise sparsity with pruning-unit length 16: keep the 2
  // highest-magnitude vectors of every 8.
  const NMConfig config{2, 8, 16};
  std::printf("pruning B with N:M = %s\n", config.to_string().c_str());
  const NMMask mask = magnitude_mask(B.view(), config);
  const auto compressed = std::make_shared<const CompressedNM>(
      compress(B.view(), mask));
  std::printf("compressed: %lld x %lld values + %lld x %lld indices "
              "(%.1f%% of dense bytes)\n",
              static_cast<long long>(compressed->rows()),
              static_cast<long long>(compressed->cols),
              static_cast<long long>(compressed->rows()),
              static_cast<long long>(compressed->num_groups()),
              100.0 * static_cast<double>(compressed->footprint_bytes()) /
                  (static_cast<double>(k) * n * sizeof(float)));

  // The engine owns the worker pool and caches one plan per weights and
  // options: the first spmm() call plans, repeats reuse the cached plan.
  Engine engine;
  MatrixF C(m, n);
  NMSPMM_CHECK_OK(engine.spmm(A.view(), compressed, C.view()));  // plan+run
  Timer timer;
  NMSPMM_CHECK_OK(engine.spmm(A.view(), compressed, C.view()));  // cached
  const double sparse_ms = timer.millis();
  const auto stats = engine.cache_stats();
  std::printf("plan cache: %llu hit(s), %llu miss(es), %zu plan(s) cached, "
              "%u worker thread(s)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses), stats.size,
              engine.num_threads());

  // Dense reference for time and accuracy comparison.
  MatrixF c_dense(m, n);
  timer.reset();
  gemm_blocked(A.view(), B.view(), c_dense.view());
  const double dense_ms = timer.millis();

  const double err = approximation_error(c_dense.view(), C.view());
  std::printf("sparse: %.2f ms   dense: %.2f ms   speedup: %.2fx\n",
              sparse_ms, dense_ms, dense_ms / sparse_ms);
  std::printf("mean |C' - C| (Eq. 2) = %.4f (magnitude pruning keeps the "
              "dominant weights)\n", err);
  return 0;
}
