// The paper's kernels (Listings 1-3) transliterated onto the functional
// SIMT executor. These run real (small) problems, produce bit-correct
// results against the reference kernels, and are instrumented: their
// counted global-memory sectors validate the traffic terms the
// analytical cost model uses — in particular that col_info packing
// reduces staged A bytes at high sparsity (§III-C1) and that the blocked
// layouts stay bank-conflict-free.
#pragma once

#include "core/col_info.hpp"
#include "core/kernel_params.hpp"
#include "core/nm_format.hpp"
#include "gpusim/simt.hpp"

namespace nmspmm::gpusim {

/// Dense GEMM on the simulated device (hierarchical blocking, Listing 1
/// structure without the index matrix). Overwrites C.
void sim_dense_gemm(Simulator& sim, ConstViewF A, ConstViewF B, ViewF C,
                    const BlockingParams& params);

/// NM-SpMM on the simulated device, non-packing strategy (Listings 1-2):
/// the full ms x ks working set of A is staged into shared memory.
void sim_spmm(Simulator& sim, ConstViewF A, const CompressedNM& B,
              ViewF C, const BlockingParams& params);

/// NM-SpMM with the high-sparsity packing strategy (Listing 3): As is
/// staged through col_info, shrinking both shared-memory footprint and
/// counted global traffic. @p col_info must match (ks, ns) of @p params.
void sim_spmm_packed(Simulator& sim, ConstViewF A, const CompressedNM& B,
                     ViewF C, const BlockingParams& params,
                     const ColInfo& col_info);

}  // namespace nmspmm::gpusim
