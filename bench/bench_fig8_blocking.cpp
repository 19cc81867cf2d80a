// Figure 8: kernels with different blocking parameters (the small /
// medium / large presets of Table I) evaluated on the Table II data
// points A-F at sparsity levels 0%, 50%, 62.5%, 75%, 87.5% (A100).
//
// The expectation from the paper: the kernel tuned for a size class wins
// on the data points of that class (small on A/B, medium on C/D, large
// on E/F), and at 0% sparsity the best kernel is close to dense
// performance.
#include "bench/bench_common.hpp"

using namespace nmspmm;
using namespace nmspmm::bench;

namespace {

gpusim::CostBreakdown predict_with_preset(const gpusim::GpuSpec& gpu,
                                          const ProblemShape& p,
                                          const NMConfig& cfg,
                                          SizeClass preset_class) {
  gpusim::CostInputs in;
  in.gpu = gpu;
  in.m = p.m;
  in.n = p.n;
  in.k = p.k;
  in.cfg = cfg;
  in.params = table1_preset(preset_class);
  in.variant = KernelVariant::kV3;
  in.packed = cfg.is_high_sparsity();
  in.packing_ratio = gpusim::expected_packing_ratio(cfg, in.params.ns);
  return gpusim::predict(in);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_fig8_blocking",
                "Figure 8: Table I presets across Table II points");
  cli.add_flag("measure", false,
               "also measure CPU kernels on scaled-down points");
  if (!cli.parse(argc, argv)) return 1;

  const auto gpu = gpusim::a100_80g();
  const auto points = table2_points();

  std::cout << "=== Figure 8: blocking-parameter presets on A100 "
               "(simulated efficiency %) ===\n\n";
  for (const NMConfig& cfg : paper_sparsities(true)) {
    ResultTable table({"Point", "m", "n", "k", "small%", "medium%",
                       "large%", "best", "expected"});
    for (const auto& p : points) {
      const auto small =
          predict_with_preset(gpu, p, cfg, SizeClass::kSmall);
      const auto medium =
          predict_with_preset(gpu, p, cfg, SizeClass::kMedium);
      const auto large =
          predict_with_preset(gpu, p, cfg, SizeClass::kLarge);
      const double best = std::min(
          {small.seconds, medium.seconds, large.seconds});
      const char* winner = best == small.seconds
                               ? "small"
                               : (best == medium.seconds ? "medium" : "large");
      table.add_row({p.label, std::to_string(p.m), std::to_string(p.n),
                     std::to_string(p.k),
                     ResultTable::fmt(100 * small.efficiency, 1),
                     ResultTable::fmt(100 * medium.efficiency, 1),
                     ResultTable::fmt(100 * large.efficiency, 1), winner,
                     to_string(classify_size(p.m, p.n, p.k))});
    }
    std::cout << "--- sparsity " << sparsity_label(cfg) << " ---\n";
    print_table(table);
  }

  if (cli.get_flag("measure")) {
    std::cout << "=== measured CPU kernels (points scaled 4x down) ===\n\n";
    Rng rng(8);
    for (const NMConfig& cfg : paper_sparsities(false)) {
      ResultTable table({"Point", "small ms", "medium ms", "large ms"});
      for (const auto& p : points) {
        const index_t m = p.m / 4, n = p.n / 4, k = p.k / 4;
        auto prob = make_problem(m, n, k, cfg, rng);
        std::vector<std::string> cells{p.label};
        for (const SizeClass sc : {SizeClass::kSmall, SizeClass::kMedium,
                                   SizeClass::kLarge}) {
          SpmmOptions opt;
          BlockingParams params = table1_preset(sc);
          params.ks = 0;
          opt.params = params;
          const auto plan = SpmmPlan::create(prob.weights, opt);
          cells.push_back(ResultTable::fmt(
              measure_plan(plan, prob.a.view(), prob.c.view(), 0.05) * 1e3,
              2));
        }
        table.add_row(std::move(cells));
      }
      std::cout << "--- sparsity " << sparsity_label(cfg) << " ---\n";
      print_table(table);
    }
  }
  return 0;
}
