// Command-line driver: run one N:M SpMM problem end to end and report
// timing, throughput, speedup vs the dense baseline, and (optionally)
// the cost-model prediction for a chosen GPU. Handy for quick
// experiments without writing code:
//
//   nmspmm_cli --m 512 --n 2048 --k 2048 --N 4 --M 16 --L 16 --gpu a100
#include <cstdio>

#include "baselines/dense_gemm.hpp"
#include "bench/bench_common.hpp"
#include "core/nmspmm.hpp"

int main(int argc, char** argv) {
  using namespace nmspmm;
  CliParser cli("nmspmm_cli", "run one N:M SpMM problem");
  cli.add_int("m", 512, "activation rows");
  cli.add_int("n", 1024, "output columns");
  cli.add_int("k", 1024, "reduction depth");
  cli.add_int("N", 8, "vectors kept per window");
  cli.add_int("M", 32, "window size");
  cli.add_int("L", 16, "pruning-unit (vector) length");
  cli.add_string("variant", "v3", "kernel variant: v1 | v2 | v3");
  cli.add_string("packing", "never", "never | paper | always");
  cli.add_string("gpu", "", "also print the cost-model prediction "
                            "(a100/3090/4090; empty = skip)");
  cli.add_int("threads", 0, "worker threads (0 = hardware concurrency)");
  cli.add_int("seed", 1, "rng seed");
  if (!cli.parse(argc, argv)) return 1;
  const long long threads = cli.get_int("threads");
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0 (got %lld)\n", threads);
    return 1;
  }

  const index_t m = cli.get_int("m"), n = cli.get_int("n"),
                k = cli.get_int("k");
  const NMConfig cfg{static_cast<int>(cli.get_int("N")),
                     static_cast<int>(cli.get_int("M")),
                     static_cast<int>(cli.get_int("L"))};
  cfg.validate();

  SpmmOptions opt;
  const std::string variant = cli.get_string("variant");
  opt.variant = variant == "v1" ? KernelVariant::kV1
                : variant == "v2" ? KernelVariant::kV2
                                  : KernelVariant::kV3;
  const std::string packing = cli.get_string("packing");
  opt.packing = packing == "paper"    ? PackingMode::kPaperRule
                : packing == "always" ? PackingMode::kAlways
                                      : PackingMode::kNever;

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const MatrixF A = random_matrix(m, k, rng);
  const MatrixF Bd = random_matrix(k, n, rng);
  const auto weights = std::make_shared<const CompressedNM>(
      compress(Bd.view(), magnitude_mask(Bd.view(), cfg)));

  std::printf("problem: %lld x %lld x %lld, %s, variant %s, packing %s\n",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(k), cfg.to_string().c_str(),
              variant.c_str(), packing.c_str());

  EngineOptions engine_opt;
  engine_opt.num_threads = static_cast<unsigned>(threads);
  Engine engine(engine_opt);
  const auto plan_or = engine.plan_for(m, weights, opt);
  if (!plan_or.ok()) {
    std::fprintf(stderr, "planning failed: %s\n",
                 plan_or.status().to_string().c_str());
    return 1;
  }
  const SpmmPlan& plan = **plan_or;
  std::printf("plan: %s | packed path: %s | packing ratio: %.3f | "
              "%u thread(s)\n",
              plan.params().to_string().c_str(),
              plan.uses_packing() ? "yes" : "no", plan.packing_ratio(),
              engine.num_threads());

  MatrixF C(m, n);
  const double sparse_s = bench::measure_plan(plan, A.view(), C.view());
  MatrixF Cd(m, n);
  const double dense_s = time_callable(
      [&] { gemm_blocked(A.view(), Bd.view(), Cd.view()); }, 1, 3,
      0.15).median;

  const double flops = spmm_flops(m, n, weights->rows());
  std::printf("sparse: %.3f ms (%.1f GFLOP/s) | dense: %.3f ms (%.1f "
              "GFLOP/s)\n",
              sparse_s * 1e3, flops / sparse_s / 1e9, dense_s * 1e3,
              2.0 * static_cast<double>(m) * n * k / dense_s / 1e9);
  std::printf("speedup %.2fx of ideal %.2fx | Eq.2 error vs dense: %.4f\n",
              dense_s / sparse_s, 1.0 / cfg.density(),
              approximation_error(Cd.view(), C.view()));

  if (const std::string gpu_name = cli.get_string("gpu"); !gpu_name.empty()) {
    const auto gpu = gpusim::gpu_by_name(gpu_name);
    const auto pred = bench::predict_nmspmm(gpu, m, n, k, cfg, opt.variant);
    const auto dense_pred = gpusim::predict_dense(gpu, m, n, k);
    std::printf("cost model (%s): %.1f us, %.1f%% of peak, predicted "
                "speedup %.2fx, %s bound\n",
                gpu.name.c_str(), pred.seconds * 1e6,
                100.0 * pred.efficiency, dense_pred.seconds / pred.seconds,
                pred.memory_bound ? "memory" : "compute");
  }
  return 0;
}
