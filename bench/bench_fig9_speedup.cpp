// Figure 9: speedup over cuBLAS across the 100 Llama data points at the
// four sparsity levels, comparing NM-SpMM against the nmSPARSE-like and
// Sputnik-like baselines and the ideal (M/N) line, on all three GPUs.
//
// The full 100-point series comes from the cost model (the paper's
// cross-GPU sweep); geometric means per sparsity summarize it. A
// measured-CPU section runs the same comparison with the real kernels on
// a subset of the dataset (all 100 points with --full).
#include <cmath>

#include "baselines/dense_gemm.hpp"
#include "baselines/nmsparse_like.hpp"
#include "baselines/sputnik_like.hpp"
#include "baselines/csr.hpp"
#include "bench/bench_common.hpp"

using namespace nmspmm;
using namespace nmspmm::bench;

namespace {

void run_simulated(bool per_point) {
  const auto dataset = llama_dataset();
  for (const auto& gpu : gpusim::paper_gpus()) {
    ResultTable summary({"Sparsity", "ideal", "NM-SpMM", "nmSPARSE-like",
                         "Sputnik-like", "NM/nmSPARSE"});
    for (const NMConfig& cfg : paper_sparsities(false)) {
      double log_ours = 0, log_nms = 0, log_spk = 0;
      ResultTable points({"#", "shape", "NM-SpMM", "nmSPARSE-like",
                          "Sputnik-like"});
      int idx = 0;
      for (const auto& p : dataset) {
        const double dense =
            gpusim::predict_dense(gpu, p.m, p.n, p.k).seconds;
        const double ours =
            dense / predict_nmspmm(gpu, p.m, p.n, p.k, cfg).seconds;
        const double nms =
            dense /
            gpusim::predict_nmsparse(gpu, p.m, p.n, p.k, cfg).seconds;
        const double spk =
            dense /
            gpusim::predict_sputnik(gpu, p.m, p.n, p.k, cfg).seconds;
        log_ours += std::log(ours);
        log_nms += std::log(nms);
        log_spk += std::log(spk);
        if (per_point) {
          points.add_row({std::to_string(idx), p.label,
                          ResultTable::fmt(ours, 2), ResultTable::fmt(nms, 2),
                          ResultTable::fmt(spk, 2)});
        }
        ++idx;
      }
      const double n = static_cast<double>(dataset.size());
      const double g_ours = std::exp(log_ours / n);
      const double g_nms = std::exp(log_nms / n);
      const double g_spk = std::exp(log_spk / n);
      summary.add_row({sparsity_label(cfg),
                       ResultTable::fmt(1.0 / cfg.density(), 2),
                       ResultTable::fmt(g_ours, 2), ResultTable::fmt(g_nms, 2),
                       ResultTable::fmt(g_spk, 2),
                       ResultTable::fmt(g_ours / g_nms, 2)});
      if (per_point) {
        std::cout << "--- " << gpu.name << " per-point speedups at "
                  << sparsity_label(cfg) << " ---\n";
        print_table(points);
      }
    }
    std::cout << "--- simulated " << gpu.name
              << ": geometric-mean speedup vs dense over 100 points ---\n";
    print_table(summary);
  }
}

void run_measured(std::size_t num_points, index_t m_cap) {
  Rng rng(9);
  auto dataset = llama_dataset();
  ResultTable table({"point", "sparsity", "NM-SpMM", "nmSPARSE-like",
                     "Sputnik-like", "ideal"});
  std::size_t used = 0;
  for (const auto& p : dataset) {
    if (used >= num_points) break;
    if (p.m > m_cap || p.n > 8192 || p.k > 8192) continue;
    ++used;
    // Scale n/k down so single-core runs stay interactive.
    const index_t n = p.n / 4, k = p.k / 4, m = p.m;
    MatrixF A = random_matrix(m, k, rng);
    MatrixF Bd = random_matrix(k, n, rng);
    MatrixF C(m, n);
    const double dense_s = time_callable(
        [&] { gemm_blocked(A.view(), Bd.view(), C.view()); }, 1, 3, 0.1)
                               .median;
    for (const NMConfig& cfg : {kSparsity50, kSparsity875}) {
      auto weights = std::make_shared<const CompressedNM>(
          random_compressed(k, n, cfg, rng));
      const auto plan = SpmmPlan::create(weights);
      const double ours = measure_plan(plan, A.view(), C.view(), 0.1);
      const double nms = time_callable(
          [&] { nmsparse_like_spmm(A.view(), *weights, C.view()); }, 1, 2,
          0.1).median;
      const SputnikPlan spk_plan = sputnik_plan(csr_from_compressed(*weights));
      const double spk = time_callable(
          [&] { sputnik_like_spmm(A.view(), spk_plan, C.view()); }, 1, 2,
          0.1).median;
      table.add_row({p.label, sparsity_label(cfg),
                     ResultTable::fmt(dense_s / ours, 2),
                     ResultTable::fmt(dense_s / nms, 2),
                     ResultTable::fmt(dense_s / spk, 2),
                     ResultTable::fmt(1.0 / cfg.density(), 2)});
    }
  }
  std::cout << "--- measured CPU speedups vs dense (n,k scaled 4x down) ---\n";
  print_table(table);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_fig9_speedup", "Figure 9: 100-point Llama sweep");
  cli.add_flag("full", false, "measure every dataset point on CPU");
  cli.add_flag("per-point", false, "print per-point simulated speedups");
  cli.add_int("measure-points", 4, "number of CPU-measured points");
  if (!cli.parse(argc, argv)) return 1;

  std::cout << "=== Figure 9: speedup vs cuBLAS over the Llama dataset ===\n\n";
  run_simulated(cli.get_flag("per-point"));
  const std::size_t pts = cli.get_flag("full")
                              ? llama_dataset().size()
                              : static_cast<std::size_t>(
                                    cli.get_int("measure-points"));
  const index_t m_cap = cli.get_flag("full") ? 4096 : 512;
  run_measured(pts, m_cap);
  return 0;
}
