// Micro-benchmarks (google-benchmark) of the building blocks: compress /
// decompress, mask construction, col_info pre-processing, packing
// routines, and the end-to-end kernels at a fixed small size. These
// guard against regressions in the pieces the figure benches compose.
#include <benchmark/benchmark.h>

#include "baselines/dense_gemm.hpp"
#include "baselines/nmsparse_like.hpp"
#include "core/nmspmm.hpp"
#include "core/pack.hpp"
#include "workloads/generators.hpp"

namespace nmspmm {
namespace {

constexpr index_t kM = 256, kN = 256, kK = 256;

void BM_MagnitudeMask(benchmark::State& state) {
  Rng rng(1);
  const NMConfig cfg{16, 32, 16};
  const MatrixF B = random_matrix(kK, kN, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(magnitude_mask(B.view(), cfg));
  }
}
BENCHMARK(BM_MagnitudeMask);

void BM_Compress(benchmark::State& state) {
  Rng rng(2);
  const NMConfig cfg{16, 32, 16};
  const MatrixF B = random_matrix(kK, kN, rng);
  const NMMask mask = random_mask(kK, kN, cfg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress(B.view(), mask));
  }
}
BENCHMARK(BM_Compress);

void BM_BuildColInfo(benchmark::State& state) {
  Rng rng(3);
  const NMConfig cfg{4, 32, 16};
  const CompressedNM B = random_compressed(kK, kN, cfg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_col_info(B, 128, 64));
  }
}
BENCHMARK(BM_BuildColInfo);

void BM_PackACols(benchmark::State& state) {
  Rng rng(4);
  const MatrixF A = random_matrix(kM, kK, rng);
  std::vector<std::int32_t> cols;
  for (index_t c = 0; c < kK; c += 4) cols.push_back(static_cast<int>(c));
  std::vector<float> out(static_cast<std::size_t>(kM * kK));
  for (auto _ : state) {
    detail::pack_a_cols(A.view(), 0, kM, 0, cols, out.data(), kK);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PackACols);

void BM_DenseGemm(benchmark::State& state) {
  Rng rng(5);
  const MatrixF A = random_matrix(kM, kK, rng);
  const MatrixF B = random_matrix(kK, kN, rng);
  MatrixF C(kM, kN);
  for (auto _ : state) {
    gemm_blocked(A.view(), B.view(), C.view());
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * kM * kN * kK, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_DenseGemm);

void BM_NmSpmm(benchmark::State& state) {
  Rng rng(6);
  const int n_keep = static_cast<int>(state.range(0));
  const NMConfig cfg{n_keep, 32, 16};
  const MatrixF A = random_matrix(kM, kK, rng);
  auto weights = std::make_shared<const CompressedNM>(
      random_compressed(kK, kN, cfg, rng));
  MatrixF C(kM, kN);
  const auto plan = SpmmPlan::create(weights);
  for (auto _ : state) {
    NMSPMM_CHECK_OK(plan.execute(A.view(), C.view()));
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      spmm_flops(kM, kN, weights->rows()),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_NmSpmm)->Arg(16)->Arg(12)->Arg(8)->Arg(4);

void BM_NmsparseLike(benchmark::State& state) {
  Rng rng(7);
  const NMConfig cfg{8, 32, 16};
  const MatrixF A = random_matrix(kM, kK, rng);
  const CompressedNM B = random_compressed(kK, kN, cfg, rng);
  MatrixF C(kM, kN);
  for (auto _ : state) {
    nmsparse_like_spmm(A.view(), B, C.view());
    benchmark::DoNotOptimize(C.data());
  }
}
BENCHMARK(BM_NmsparseLike);

}  // namespace
}  // namespace nmspmm

BENCHMARK_MAIN();
