// Auto-tuning blocking parameters for a custom problem shape: enumerate
// valid configurations under the Eq. 4/5 constraints, rank them with the
// analytical cost model for a chosen GPU, then run the best candidate
// with the real CPU kernels and compare it against the default CPU
// blocking (cpu_blocking).
#include <cstdio>
#include <iostream>

#include "analysis/tuner.hpp"
#include "core/nmspmm.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/generators.hpp"

int main(int argc, char** argv) {
  using namespace nmspmm;
  CliParser cli("autotune", "blocking-parameter auto-tuner example");
  cli.add_int("m", 384, "batch rows");
  cli.add_int("n", 1536, "output columns");
  cli.add_int("k", 1024, "reduction depth");
  cli.add_string("gpu", "a100", "target GPU for the model (a100/3090/4090)");
  if (!cli.parse(argc, argv)) return 1;
  const index_t m = cli.get_int("m"), n = cli.get_int("n"),
                k = cli.get_int("k");
  const NMConfig cfg{8, 32, 16};  // 75% sparsity
  const auto gpu = gpusim::gpu_by_name(cli.get_string("gpu"));

  std::printf("tuning %lld x %lld x %lld at %s for %s\n\n",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(k), cfg.to_string().c_str(),
              gpu.name.c_str());

  const auto ranked = analysis::tune(gpu, m, n, k, cfg);
  ResultTable top({"rank", "params", "pred us", "eff%", "AI", "bound"});
  for (std::size_t i = 0; i < std::min<std::size_t>(5, ranked.size()); ++i) {
    const auto& r = ranked[i];
    top.add_row({std::to_string(i + 1), r.params.to_string(),
                 ResultTable::fmt(r.cost.seconds * 1e6, 1),
                 ResultTable::fmt(100 * r.cost.efficiency, 1),
                 ResultTable::fmt(r.cost.ai, 1),
                 r.cost.memory_bound ? "memory" : "compute"});
  }
  top.print(std::cout);

  // Run the model's best pick and the default CPU blocking on the CPU
  // kernels.
  Rng rng(3);
  MatrixF A = random_matrix(m, k, rng);
  auto weights = std::make_shared<const CompressedNM>(
      random_compressed(k, n, cfg, rng));
  MatrixF C(m, n);
  Engine engine;
  auto measure = [&](std::optional<BlockingParams> params) {
    SpmmOptions opt;
    if (params) {
      params->ks = 0;  // re-derive for the CPU cache budget
      opt.params = params;
    }
    const auto plan = engine.plan_for(m, weights, opt);
    NMSPMM_CHECK_OK(plan.status());
    return time_callable(
        [&] { NMSPMM_CHECK_OK((*plan)->execute(A.view(), C.view())); }, 1, 3,
        0.1).median;
  };
  const double default_s = measure(std::nullopt);
  const double tuned_s = measure(ranked.front().params);
  std::printf("\nCPU measured: default blocking %.2f ms, tuned candidate "
              "%.2f ms (%.2fx)\n",
              default_s * 1e3, tuned_s * 1e3, default_s / tuned_s);
  return 0;
}
