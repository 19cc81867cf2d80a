// GPU simulator: spec registry (Table III), occupancy model, functional
// SIMT execution (correctness of simulated kernels vs the reference) and
// instrumentation (coalescing, bank conflicts, packing traffic savings),
// plus the analytical cost model's qualitative properties.
#include <gtest/gtest.h>

#include "core/nmspmm.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/gpu_spec.hpp"
#include "gpusim/occupancy.hpp"
#include "gpusim/sim_kernels.hpp"
#include "gpusim/simt.hpp"
#include "workloads/generators.hpp"

namespace nmspmm::gpusim {
namespace {

TEST(GpuSpec, Table3Values) {
  const GpuSpec a100 = a100_80g();
  EXPECT_EQ(a100.num_sms, 108);
  EXPECT_DOUBLE_EQ(a100.peak_fp32_tflops, 19.5);
  EXPECT_DOUBLE_EQ(a100.dram_bandwidth_gbps, 1935);
  EXPECT_EQ(a100.max_smem_bytes_per_sm, 192 * 1024);
  const GpuSpec r3090 = rtx3090();
  EXPECT_EQ(r3090.num_sms, 82);
  EXPECT_DOUBLE_EQ(r3090.peak_fp32_tflops, 35.6);
  const GpuSpec r4090 = rtx4090();
  EXPECT_EQ(r4090.num_sms, 128);
  EXPECT_DOUBLE_EQ(r4090.dram_bandwidth_gbps, 1008);
}

TEST(GpuSpec, DerivedPeakNearSpecSheet) {
  for (const GpuSpec& gpu : paper_gpus()) {
    EXPECT_NEAR(gpu.derived_peak_flops() / 1e12, gpu.peak_fp32_tflops,
                0.06 * gpu.peak_fp32_tflops)
        << gpu.name;
  }
}

TEST(GpuSpec, ConsumerCardsHaveHigherRidgePoints) {
  // Table III discussion: 3090/4090 have a larger compute-to-bandwidth
  // gap than the A100, which is why sparsity pays off later there.
  EXPECT_LT(a100_80g().ridge_point(), rtx3090().ridge_point());
  EXPECT_LT(rtx3090().ridge_point(), rtx4090().ridge_point());
}

TEST(GpuSpec, LookupByName) {
  EXPECT_EQ(gpu_by_name("A100").name, "A100-80G");
  EXPECT_EQ(gpu_by_name("rtx3090").name, "RTX-3090");
  EXPECT_EQ(gpu_by_name("4090").name, "RTX-4090");
  EXPECT_THROW(gpu_by_name("h100"), CheckError);
}

TEST(Occupancy, WarpLimited) {
  BlockResources res{256, 32, 0};  // 8 warps, few registers, no smem
  const Occupancy occ = compute_occupancy(a100_80g(), res);
  EXPECT_EQ(occ.blocks_per_sm, 8);  // 64 warp slots / 8 warps
  EXPECT_DOUBLE_EQ(occ.occupancy, 1.0);
}

TEST(Occupancy, RegisterLimited) {
  // 256 threads x 255 regs x 4B = 261KB > 256KB register file.
  BlockResources res{256, 255, 0};
  const Occupancy occ = compute_occupancy(a100_80g(), res);
  EXPECT_EQ(occ.blocks_per_sm, 1);
  EXPECT_STREQ(occ.limiter, "regs");
}

TEST(Occupancy, SmemLimited) {
  BlockResources res{128, 32, 100 * 1024};  // 100 KiB per block
  const Occupancy occ = compute_occupancy(a100_80g(), res);
  EXPECT_EQ(occ.blocks_per_sm, 1);  // 192 KiB / 100 KiB
  EXPECT_STREQ(occ.limiter, "smem");
}

TEST(Occupancy, HighRegisterUseReducesParallelism) {
  // The Section III-B2 trade-off: bigger thread tiles raise CMAR but
  // lower occupancy.
  BlockResources small{256, 40, 32 * 1024};
  BlockResources big{256, 200, 32 * 1024};
  EXPECT_GT(compute_occupancy(a100_80g(), small).warps_per_sm,
            compute_occupancy(a100_80g(), big).warps_per_sm);
}

TEST(Occupancy, RejectsBadInputs) {
  EXPECT_THROW(compute_occupancy(a100_80g(), {0, 32, 0}), CheckError);
  EXPECT_THROW(compute_occupancy(a100_80g(), {32, 300, 0}), CheckError);
}

// --------------------------------------------------------------------------
// Functional SIMT executor.

TEST(Simt, CoalescedLoadCountsMinimalSectors) {
  Simulator sim(a100_80g());
  MatrixF src(1, 32);
  for (index_t i = 0; i < 32; ++i) src(0, i) = static_cast<float>(i);
  std::vector<float> out(32, 0.0f);
  sim.launch({1, 1}, 32, [&](Block& blk) {
    blk.for_each_warp([&](Warp& w) {
      w.gmem_load([&](index_t lane) { return &src(0, lane); },
                  [&](index_t lane, float v) {
                    out[static_cast<std::size_t>(lane)] = v;
                  });
    });
  });
  // 32 consecutive floats = 128 bytes = 4 sectors of 32 B.
  EXPECT_EQ(sim.stats().gmem_load_sectors, 4u);
  EXPECT_EQ(out[31], 31.0f);
}

TEST(Simt, StridedLoadWastesSectors) {
  Simulator sim(a100_80g());
  MatrixF src(32, 16);
  src.fill(1.0f);
  sim.launch({1, 1}, 32, [&](Block& blk) {
    blk.for_each_warp([&](Warp& w) {
      w.gmem_load([&](index_t lane) { return &src(lane, 0); },  // column walk
                  [](index_t, float) {});
    });
  });
  // Each lane touches a different row (>= 64 B apart): 32 sectors.
  EXPECT_EQ(sim.stats().gmem_load_sectors, 32u);
}

TEST(Simt, SharedMemoryBankConflictDetection) {
  Simulator sim(a100_80g());
  sim.launch({1, 1}, 32, [&](Block& blk) {
    float* buf = blk.shared_alloc(1024);
    blk.for_each_warp([&](Warp& w) {
      // Conflict-free: lane i -> word i (one word per bank).
      w.smem_store(buf, [](index_t lane) { return lane; },
                   [](index_t) { return 1.0f; });
    });
    blk.for_each_warp([&](Warp& w) {
      // 2-way conflict: lane i -> word (i % 16) * 64 + ... stride 32
      // puts every lane on bank (lane*32)%32 = 0 -> 32-way conflict,
      // minus broadcasts (all distinct words): 31 extra passes.
      w.smem_store(buf, [](index_t lane) { return lane * 32; },
                   [](index_t) { return 2.0f; });
    });
    blk.for_each_warp([&](Warp& w) {
      // Broadcast: every lane reads the same word — conflict-free.
      float sink = 0.0f;
      w.smem_load(buf, [](index_t) { return index_t{0}; },
                  [&](index_t, float v) { sink += v; });
      (void)sink;
    });
  });
  EXPECT_EQ(sim.stats().smem_bank_conflicts, 31u);
  EXPECT_EQ(sim.stats().smem_accesses, 3u);
}

TEST(Simt, SharedMemoryOverflowThrows) {
  Simulator sim(rtx3090());  // 128 KiB per SM
  EXPECT_THROW(sim.launch({1, 1}, 32,
                          [&](Block& blk) {
                            blk.shared_alloc(40 * 1024);  // 160 KiB
                          }),
               CheckError);
}

TEST(Simt, LaunchValidation) {
  Simulator sim(a100_80g());
  EXPECT_THROW(sim.launch({0, 1}, 32, [](Block&) {}), CheckError);
  EXPECT_THROW(sim.launch({1, 1}, 2000, [](Block&) {}), CheckError);
}

TEST(SimKernels, DenseGemmMatchesReference) {
  Rng rng(81);
  Simulator sim(a100_80g());
  const index_t m = 64, k = 96, n = 64;
  const MatrixF A = random_int_matrix(m, k, rng);
  const MatrixF B = random_int_matrix(k, n, rng);
  MatrixF expect(m, n), got(m, n);
  gemm_reference(A.view(), B.view(), expect.view());
  got.fill(-1.0f);
  BlockingParams p = table1_preset(SizeClass::kSmall);
  p.ks = 32;
  sim_dense_gemm(sim, A.view(), B.view(), got.view(), p);
  EXPECT_EQ(max_abs_diff(expect.cview(), got.cview()), 0.0);
  EXPECT_GT(sim.stats().fma_ops, 0u);
}

TEST(SimKernels, NmSpmmMatchesReference) {
  Rng rng(82);
  Simulator sim(a100_80g());
  const NMConfig cfg{2, 8, 16};
  const index_t m = 64, k = 128, n = 64;
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);
  MatrixF expect(m, n), got(m, n);
  spmm_reference(A.view(), B, expect.view());
  BlockingParams p = table1_preset(SizeClass::kSmall);
  p.ks = 64;
  sim_spmm(sim, A.view(), B, got.view(), p);
  EXPECT_EQ(max_abs_diff(expect.cview(), got.cview()), 0.0);
}

TEST(SimKernels, PackedNmSpmmMatchesReference) {
  Rng rng(83);
  Simulator sim(a100_80g());
  const NMConfig cfg{1, 8, 16};  // 87.5%
  const index_t m = 32, k = 128, n = 64;
  const MatrixF A = random_int_matrix(m, k, rng);
  const CompressedNM B = random_compressed_int(k, n, cfg, rng);
  MatrixF expect(m, n), got(m, n);
  spmm_reference(A.view(), B, expect.view());
  BlockingParams p = table1_preset(SizeClass::kSmall);
  p.ks = 64;
  const ColInfo info = build_col_info(B, p.ks, p.ns);
  sim_spmm_packed(sim, A.view(), B, got.view(), p, info);
  EXPECT_EQ(max_abs_diff(expect.cview(), got.cview()), 0.0);
}

TEST(SimKernels, PackingReducesCountedTraffic) {
  // The load on the simulated device must show §III-C1's effect: at high
  // sparsity, staging A through col_info moves fewer global bytes than
  // staging the full working set. A window of 32 leaves skip runs longer
  // than a 32-byte DRAM sector, so whole sectors drop out of the gather
  // (with M = 8 the skips are sub-sector and coalescing hides them).
  Rng rng(84);
  const NMConfig cfg{1, 32, 16};
  const index_t m = 64, k = 256, n = 64;
  const MatrixF A = random_int_matrix(m, k, rng);
  MatrixF dense = random_matrix(k, n, rng);
  const CompressedNM B =
      compress(dense.view(), identical_pattern_mask(k, n, cfg, rng));
  BlockingParams p = table1_preset(SizeClass::kSmall);
  p.ks = 64;
  const ColInfo info = build_col_info(B, p.ks, p.ns);
  MatrixF C(m, n);

  Simulator nonpacked(a100_80g());
  sim_spmm(nonpacked, A.view(), B, C.view(), p);
  Simulator packed(a100_80g());
  sim_spmm_packed(packed, A.view(), B, C.view(), p, info);
  EXPECT_LT(packed.stats().gmem_load_bytes(),
            0.5 * nonpacked.stats().gmem_load_bytes());
}

TEST(SimKernels, BlockedLayoutIsBankConflictFree) {
  Rng rng(85);
  Simulator sim(a100_80g());
  const NMConfig cfg{2, 4, 16};
  const MatrixF A = random_int_matrix(32, 64, rng);
  const CompressedNM B = random_compressed_int(64, 32, cfg, rng);
  MatrixF C(32, 32);
  BlockingParams p = table1_preset(SizeClass::kSmall);
  p.ks = 32;
  sim_spmm(sim, A.view(), B, C.view(), p);
  EXPECT_EQ(sim.stats().smem_bank_conflicts, 0u);
}

// --------------------------------------------------------------------------
// Analytical cost model.

TEST(CostModel, SpeedupGrowsWithSparsity) {
  const GpuSpec gpu = a100_80g();
  const index_t s = 4096;
  const double dense_t = predict_dense(gpu, s, s, s).seconds;
  double prev_speedup = 0.0;
  for (const NMConfig cfg : {kSparsity50, kSparsity625, kSparsity75,
                             kSparsity875}) {
    CostInputs in;
    in.gpu = gpu;
    in.m = in.n = in.k = s;
    in.cfg = cfg;
    in.params = table1_preset(SizeClass::kLarge);
    in.variant = KernelVariant::kV3;
    in.packed = cfg.is_high_sparsity();
    in.packing_ratio = expected_packing_ratio(cfg, in.params.ns);
    const double speedup = dense_t / predict(in).seconds;
    EXPECT_GT(speedup, prev_speedup) << cfg.to_string();
    EXPECT_LT(speedup, 1.0 / cfg.density() + 0.01) << "beating ideal?";
    prev_speedup = speedup;
  }
  EXPECT_GT(prev_speedup, 3.0);  // 87.5% should approach its 8x ideal
}

TEST(CostModel, V3BeatsV1AtHighSparsity) {
  const GpuSpec gpu = a100_80g();
  CostInputs in;
  in.gpu = gpu;
  in.m = in.n = in.k = 4096;
  in.cfg = kSparsity875;
  in.params = table1_preset(SizeClass::kLarge);
  in.packed = false;
  in.variant = KernelVariant::kV1;
  const double v1 = predict(in).seconds;
  in.variant = KernelVariant::kV3;
  in.packed = true;
  in.packing_ratio = expected_packing_ratio(in.cfg, in.params.ns);
  const double v3 = predict(in).seconds;
  EXPECT_LT(v3, v1);
}

TEST(CostModel, StepwiseGainsGrowWithSparsity) {
  // Figure 7's shape: the V1 -> V3 improvement is modest at moderate
  // sparsity (compute bound: little load latency left to hide) and grows
  // substantially in the memory-bound high-sparsity regime, where both
  // the packing (V2) and the pipeline overlap (V3) bite.
  const GpuSpec gpu = a100_80g();
  auto ratio_at = [&](const NMConfig& cfg) {
    CostInputs in;
    in.gpu = gpu;
    in.m = in.n = in.k = 4096;
    in.cfg = cfg;
    in.params = table1_preset(SizeClass::kLarge);
    in.variant = KernelVariant::kV1;
    const double v1 = predict(in).seconds;
    in.variant = KernelVariant::kV3;
    in.packed = cfg.is_high_sparsity();
    in.packing_ratio = expected_packing_ratio(cfg, in.params.ns);
    return v1 / predict(in).seconds;
  };
  const double moderate = ratio_at(kSparsity50);
  const double high = ratio_at(kSparsity875);
  EXPECT_GE(moderate, 1.0);
  EXPECT_LT(moderate, 1.8);
  EXPECT_GT(high, moderate);
}

TEST(CostModel, MemoryBoundFlipsWithSparsity) {
  const GpuSpec gpu = a100_80g();
  CostInputs in;
  in.gpu = gpu;
  in.m = in.n = in.k = 4096;
  in.params = table1_preset(SizeClass::kLarge);
  in.variant = KernelVariant::kV1;
  in.cfg = kSparsity50;
  EXPECT_FALSE(predict(in).memory_bound);
  in.cfg = NMConfig{2, 32, 16};  // 93.75% sparsity
  EXPECT_TRUE(predict(in).memory_bound);
}

TEST(CostModel, BaselineOrderingMatchesPaper) {
  // Figure 9: NM-SpMM > nmSPARSE > Sputnik at every sparsity level.
  const GpuSpec gpu = a100_80g();
  for (const NMConfig cfg : {kSparsity50, kSparsity875}) {
    CostInputs in;
    in.gpu = gpu;
    in.m = in.n = in.k = 4096;
    in.cfg = cfg;
    in.params = table1_preset(SizeClass::kLarge);
    in.variant = KernelVariant::kV3;
    in.packed = cfg.is_high_sparsity();
    in.packing_ratio = expected_packing_ratio(cfg, in.params.ns);
    const double ours = predict(in).seconds;
    const double nmsparse = predict_nmsparse(gpu, 4096, 4096, 4096, cfg).seconds;
    const double sputnik = predict_sputnik(gpu, 4096, 4096, 4096, cfg).seconds;
    EXPECT_LT(ours, nmsparse) << cfg.to_string();
    EXPECT_LT(nmsparse, sputnik) << cfg.to_string();
  }
}

TEST(CostModel, DensePredictionNearPeakOnA100) {
  // cuBLAS reaches a large fraction of FP32 peak at 4096^3; the model
  // must agree (Figure 7's 0% sparsity bar).
  const CostBreakdown d = predict_dense(a100_80g(), 4096, 4096, 4096);
  EXPECT_GT(d.efficiency, 0.70);
  EXPECT_LE(d.efficiency, 1.0);
}

TEST(CostModel, PackingRatioEstimate) {
  // qs = 1 group: ratio = density. Many groups: ratio -> 1.
  const NMConfig cfg{1, 8, 16};
  EXPECT_NEAR(expected_packing_ratio(cfg, 16), 0.125, 1e-9);
  EXPECT_GT(expected_packing_ratio(cfg, 256), 0.85);
}

TEST(CostModel, RejectsEmptyProblems) {
  CostInputs in;
  in.gpu = a100_80g();
  in.m = 0;
  in.n = in.k = 64;
  in.cfg = kSparsity50;
  in.params = table1_preset(SizeClass::kSmall);
  EXPECT_THROW(predict(in), CheckError);
}

}  // namespace
}  // namespace nmspmm::gpusim
