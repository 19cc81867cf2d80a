#include "gpusim/sim_kernels.hpp"

#include <vector>

namespace nmspmm::gpusim {

namespace {

/// Cooperative tile load: the block's threads stride over the tile in
/// row-major element order, so each warp's lanes touch consecutive
/// addresses of one source row (fully coalesced when the tile row is
/// contiguous). Out-of-range elements load zero.
void load_tile(Block& blk, ConstViewF src, index_t r0, index_t rows,
               index_t c0, index_t cols, float* dst, index_t ldd) {
  const index_t total = rows * ldd;
  const index_t threads = blk.num_threads();
  blk.for_each_warp([&](Warp& w) {
    const index_t warp_base = w.warp_id() * blk.gpu().warp_size;
    for (index_t e0 = 0; e0 < total; e0 += threads) {
      w.gmem_load(
          [&](index_t lane) -> const float* {
            const index_t e = e0 + warp_base + lane;
            if (e >= total) return nullptr;
            const index_t r = e / ldd;
            const index_t c = e % ldd;
            if (c >= cols || r0 + r >= src.rows() || c0 + c >= src.cols())
              return nullptr;  // padding reads nothing; dst stays zero
            return &src(r0 + r, c0 + c);
          },
          [&](index_t lane, float v) {
            const index_t e = e0 + warp_base + lane;
            dst[e] = v;
          });
    }
  });
}

/// Zero a staged tile before a partial load (padding semantics).
void clear_tile(float* dst, index_t count) {
  std::fill_n(dst, count, 0.0f);
}

/// Thread indexing of Listing 2: arrange each warp as a 4 x 8 lane grid;
/// warps tile the block row-major over (ms/mt, ns/nt) thread tiles.
struct ThreadCoord {
  index_t ti;  ///< row of the thread tile within the block (in mt units)
  index_t tj;  ///< col of the thread tile within the block (in nt units)
};

ThreadCoord thread_indexing(index_t thread_id, index_t tiles_j) {
  return ThreadCoord{thread_id / tiles_j, thread_id % tiles_j};
}

struct KernelShape {
  index_t ms, ns, ks, ws, qs, mt, nt, tiles_i, tiles_j, threads;
};

KernelShape make_shape(const BlockingParams& p, const NMConfig& cfg) {
  KernelShape s;
  s.ms = p.ms;
  s.ns = p.ns;
  s.ks = p.ks;
  s.ws = p.ws(cfg);
  s.qs = p.qs(cfg);
  s.mt = p.mt;
  s.nt = p.nt;
  s.tiles_i = p.ms / p.mt;
  s.tiles_j = p.ns / p.nt;
  s.threads = s.tiles_i * s.tiles_j;
  NMSPMM_CHECK_MSG(s.threads <= 1024,
                   "block would need " << s.threads << " threads");
  return s;
}

/// The compute phase shared by all three kernels: every thread runs the
/// Listing 2 inner loop over the staged chunk, reading At through the
/// per-step index and accumulating its mt x nt register tile.
/// idx_of(p, g_local) returns the staged-A column (row-major As, stride
/// lda) for reduction step p in block-local pruning-window group g_local.
template <class IdxFn>
void smblock_compute(Block& blk, const KernelShape& s, index_t wb,
                     const float* As, index_t lda, const float* Bs,
                     std::vector<float>& Ct, index_t L,
                     const IdxFn& idx_of) {
  blk.for_each_warp([&](Warp& w) {
    const index_t warp_base = w.warp_id() * blk.gpu().warp_size;
    for (index_t lane = 0; lane < w.lanes(); ++lane) {
      const index_t tid = warp_base + lane;
      if (tid >= s.threads) continue;
      const ThreadCoord tc = thread_indexing(tid, s.tiles_j);
      float* ct = Ct.data() + tid * s.mt * s.nt;
      for (index_t p = 0; p < wb; ++p) {
        const float* brow = Bs + p * s.ns;
        for (index_t jj = 0; jj < s.nt; ++jj) {
          const index_t j = tc.tj * s.nt + jj;
          const index_t col = idx_of(p, j / L);
          const float b = brow[j];
          for (index_t ii = 0; ii < s.mt; ++ii) {
            const index_t i = tc.ti * s.mt + ii;
            ct[ii * s.nt + jj] += As[i * lda + col] * b;
          }
        }
      }
    }
    // Instruction accounting at warp level: per reduction step each
    // thread issues mt*nt FMAs and (mt+nt) shared loads.
    w.count_fma(static_cast<std::uint64_t>(wb) * s.mt * s.nt *
                std::min<index_t>(w.lanes(), s.threads));
  });
  // Shared-memory access accounting: one collective At column load and
  // one Bt row load per (warp, step); offsets chosen as the real layout
  // would issue them, so the bank-conflict counter sees the true pattern.
  blk.for_each_warp([&](Warp& w) {
    const index_t warp_base = w.warp_id() * blk.gpu().warp_size;
    if (warp_base >= s.threads) return;
    float sinkv = 0.0f;
    w.smem_load(
        Bs,
        [&](index_t lane) -> index_t {
          const index_t tid = warp_base + lane;
          if (tid >= s.threads) return -1;
          return thread_indexing(tid, s.tiles_j).tj * s.nt;
        },
        [&](index_t, float v) { sinkv += v; });
    (void)sinkv;
  });
}

}  // namespace

void sim_dense_gemm(Simulator& sim, ConstViewF A, ConstViewF B, ViewF C,
                    const BlockingParams& params) {
  NMSPMM_CHECK(A.cols() == B.rows());
  NMSPMM_CHECK(C.rows() == A.rows() && C.cols() == B.cols());
  NMConfig dense_cfg{1, 1, static_cast<int>(params.ns)};
  BlockingParams p = params;
  if (p.ks == 0)
    p.ks = derive_ks(dense_cfg, p.ms, p.ns,
                     static_cast<std::size_t>(sim.gpu().max_smem_bytes_per_sm) / 2,
                     A.cols());
  KernelShape s = make_shape(p, dense_cfg);
  s.ws = p.ks;  // dense: the whole chunk is the reduction extent

  const Dim2 grid{ceil_div(B.cols(), s.ns), ceil_div(A.rows(), s.ms)};
  sim.launch(grid, s.threads, [&](Block& blk) {
    float* As = blk.shared_alloc(s.ms * s.ks);
    float* Bs = blk.shared_alloc(s.ks * s.ns);
    std::vector<float> Ct(static_cast<std::size_t>(s.threads * s.mt * s.nt),
                          0.0f);
    const index_t bi = blk.block_idx().y * s.ms;
    const index_t bj = blk.block_idx().x * s.ns;
    for (index_t k0 = 0; k0 < A.cols(); k0 += s.ks) {
      const index_t kb = std::min(s.ks, A.cols() - k0);
      clear_tile(As, s.ms * s.ks);
      clear_tile(Bs, s.ks * s.ns);
      load_tile(blk, A, bi, s.ms, k0, kb, As, s.ks);
      load_tile(blk, B, k0, kb, bj, s.ns, Bs, s.ns);
      blk.sync();
      smblock_compute(blk, s, kb, As, s.ks, Bs, Ct, s.ns,
                      [](index_t step, index_t) { return step; });
      blk.sync();
    }
    // StoreFrag: every thread writes its register tile back.
    blk.for_each_warp([&](Warp& w) {
      const index_t warp_base = w.warp_id() * blk.gpu().warp_size;
      for (index_t ii = 0; ii < s.mt; ++ii) {
        for (index_t jj = 0; jj < s.nt; ++jj) {
          w.gmem_store(
              [&](index_t lane) -> float* {
                const index_t tid = warp_base + lane;
                if (tid >= s.threads) return nullptr;
                const ThreadCoord tc = thread_indexing(tid, s.tiles_j);
                const index_t i = bi + tc.ti * s.mt + ii;
                const index_t j = bj + tc.tj * s.nt + jj;
                if (i >= C.rows() || j >= C.cols()) return nullptr;
                return &C(i, j);
              },
              [&](index_t lane) {
                const index_t tid = warp_base + lane;
                return Ct[static_cast<std::size_t>(tid * s.mt * s.nt +
                                                   ii * s.nt + jj)];
              });
        }
      }
    });
  });
}

namespace {

/// Shared implementation of the two NM-SpMM device kernels.
void sim_spmm_impl(Simulator& sim, ConstViewF A, const CompressedNM& B,
                   ViewF C, const BlockingParams& params,
                   const ColInfo* col_info) {
  const NMConfig& cfg = B.config;
  NMSPMM_CHECK(A.cols() == B.orig_rows);
  NMSPMM_CHECK(C.rows() == A.rows() && C.cols() == B.cols);
  BlockingParams p = params;
  NMSPMM_CHECK_MSG(p.ks > 0 && p.ks % cfg.m == 0, "ks must be set");
  const KernelShape s = make_shape(p, cfg);
  const index_t L = cfg.vector_length;
  // The simulated kernel keeps Listing 2's block-local group arithmetic,
  // which requires blocks to align with pruning-window groups.
  NMSPMM_CHECK_MSG(s.ns % L == 0,
                   "simulated NM-SpMM requires ns to be a multiple of L");
  const index_t pk = cfg.padded_k(A.cols());

  const Dim2 grid{ceil_div(B.cols, s.ns), ceil_div(A.rows(), s.ms)};
  sim.launch(grid, s.threads, [&](Block& blk) {
    // Shared allocations: packed As only needs the col_info footprint.
    const index_t bj = blk.block_idx().x * s.ns;
    const index_t bi = blk.block_idx().y * s.ms;
    const index_t nb = bj / s.ns;

    index_t max_cols = s.ks;
    if (col_info != nullptr) {
      max_cols = 0;
      for (index_t c = 0; c < col_info->num_chunks(); ++c)
        max_cols = std::max(
            max_cols,
            static_cast<index_t>(col_info->plan(c, nb).cols.size()));
    }
    float* As = blk.shared_alloc(s.ms * max_cols);
    float* Bs = blk.shared_alloc(s.ws * s.ns);
    std::vector<float> Ct(static_cast<std::size_t>(s.threads * s.mt * s.nt),
                          0.0f);
    const index_t g0 = bj / L;  // first pruning-window group of the block
    const index_t num_chunks = ceil_div(pk, s.ks);
    for (index_t chunk = 0; chunk < num_chunks; ++chunk) {
      const index_t k0 = chunk * s.ks;
      const index_t u0 = chunk * s.ws;
      const index_t wb = std::min(s.ws, B.rows() - u0);
      clear_tile(Bs, s.ws * s.ns);
      load_tile(blk, B.values.view(), u0, wb, bj, s.ns, Bs, s.ns);

      index_t staged_cols;
      if (col_info == nullptr) {
        // Non-packing strategy: stage the full working set of As.
        staged_cols = s.ks;
        clear_tile(As, s.ms * s.ks);
        load_tile(blk, A, bi, s.ms, k0, std::min(s.ks, A.cols() - k0), As,
                  s.ks);
      } else {
        // Packing strategy: gather only the col_info columns.
        const PackPlan& plan = col_info->plan(chunk, nb);
        staged_cols = static_cast<index_t>(plan.cols.size());
        clear_tile(As, s.ms * max_cols);
        const index_t threads = blk.num_threads();
        const index_t total = s.ms * staged_cols;
        blk.for_each_warp([&](Warp& w) {
          const index_t warp_base = w.warp_id() * blk.gpu().warp_size;
          for (index_t e0 = 0; e0 < total; e0 += threads) {
            w.gmem_load(
                [&](index_t lane) -> const float* {
                  const index_t e = e0 + warp_base + lane;
                  if (e >= total) return nullptr;
                  const index_t r = e / staged_cols;
                  const index_t cc = e % staged_cols;
                  const index_t src_col =
                      k0 + plan.cols[static_cast<std::size_t>(cc)];
                  if (bi + r >= A.rows() || src_col >= A.cols())
                    return nullptr;
                  return &A(bi + r, src_col);
                },
                [&](index_t lane, float v) {
                  const index_t e = e0 + warp_base + lane;
                  As[(e / staged_cols) * max_cols + e % staged_cols] = v;
                });
          }
        });
      }
      blk.sync();

      const index_t lda = col_info == nullptr ? s.ks : max_cols;
      if (col_info == nullptr) {
        smblock_compute(blk, s, wb, As, lda, Bs, Ct, L,
                        [&](index_t pp, index_t g_local) {
                          return (pp / cfg.n) * cfg.m +
                                 B.indices(u0 + pp, g0 + g_local);
                        });
      } else {
        const PackPlan& plan = col_info->plan(chunk, nb);
        smblock_compute(blk, s, wb, As, lda, Bs, Ct, L,
                        [&](index_t pp, index_t g_local) {
                          return static_cast<index_t>(
                              plan.remapped(pp, g_local));
                        });
      }
      blk.sync();
    }

    blk.for_each_warp([&](Warp& w) {
      const index_t warp_base = w.warp_id() * blk.gpu().warp_size;
      for (index_t ii = 0; ii < s.mt; ++ii) {
        for (index_t jj = 0; jj < s.nt; ++jj) {
          w.gmem_store(
              [&](index_t lane) -> float* {
                const index_t tid = warp_base + lane;
                if (tid >= s.threads) return nullptr;
                const ThreadCoord tc = thread_indexing(tid, s.tiles_j);
                const index_t i = bi + tc.ti * s.mt + ii;
                const index_t j = bj + tc.tj * s.nt + jj;
                if (i >= C.rows() || j >= C.cols()) return nullptr;
                return &C(i, j);
              },
              [&](index_t lane) {
                const index_t tid = warp_base + lane;
                return Ct[static_cast<std::size_t>(tid * s.mt * s.nt +
                                                   ii * s.nt + jj)];
              });
        }
      }
    });
  });
}

}  // namespace

void sim_spmm(Simulator& sim, ConstViewF A, const CompressedNM& B,
              ViewF C, const BlockingParams& params) {
  sim_spmm_impl(sim, A, B, C, params, nullptr);
}

void sim_spmm_packed(Simulator& sim, ConstViewF A, const CompressedNM& B,
                     ViewF C, const BlockingParams& params,
                     const ColInfo& col_info) {
  NMSPMM_CHECK(col_info.ks() == params.ks && col_info.ns() == params.ns);
  sim_spmm_impl(sim, A, B, C, params, &col_info);
}

}  // namespace nmspmm::gpusim
