#include "core/kernel_params.hpp"

#include <algorithm>
#include <sstream>

namespace nmspmm {

std::string BlockingParams::to_string() const {
  std::ostringstream os;
  os << "ms=" << ms << " ns=" << ns << " ks=" << ks << " mt=" << mt
     << " nt=" << nt << " mr=" << mr << " nr=" << nr;
  return os.str();
}

const char* to_string(SizeClass c) {
  switch (c) {
    case SizeClass::kSmall: return "small";
    case SizeClass::kMedium: return "medium";
    case SizeClass::kLarge: return "large";
  }
  return "?";
}

BlockingParams table1_preset(SizeClass size_class) {
  // Table I of the paper.
  switch (size_class) {
    case SizeClass::kSmall:
      return BlockingParams{32, 32, 0, 4, 4, 16, 32};
    case SizeClass::kMedium:
      return BlockingParams{32, 64, 0, 8, 4, 32, 32};
    case SizeClass::kLarge:
      return BlockingParams{64, 128, 0, 8, 8, 64, 32};
  }
  return BlockingParams{};
}

SizeClass classify_size(index_t m, index_t n, index_t k) {
  // Work-volume heuristic calibrated on Table II: A,B small; C,D medium;
  // E,F large. log2(m*n*k): A=27, B=29, C=31, D=32, E=36, F=36.
  const double work = static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(k);
  if (work <= 1.1e9) return SizeClass::kSmall;      // up to ~1024^3 / 8
  if (work <= 1.8e10) return SizeClass::kMedium;    // up to ~2048^3 * 2
  return SizeClass::kLarge;
}

index_t derive_ks(const NMConfig& cfg, index_t ms, index_t ns,
                  std::size_t smem_bytes, index_t k) {
  // Eq. 5: 8*ks*(ms + N*ns/M) <= SM_Size  (the factor 8 = sizeof(float) *
  // 2 for keeping half of shared memory free for buffering).
  const double denom =
      8.0 * (static_cast<double>(ms) +
             static_cast<double>(cfg.n) * static_cast<double>(ns) /
                 static_cast<double>(cfg.m));
  const double raw = static_cast<double>(smem_bytes) / denom;
  // Clamp before the index_t conversion: a huge budget would overflow the
  // cast, and anything past kMaxKs would wrap the uint16 index staging.
  index_t ks = raw >= static_cast<double>(kMaxKs)
                   ? kMaxKs
                   : static_cast<index_t>(raw);
  ks = (ks / cfg.m) * cfg.m;              // whole pruning windows only
  ks = std::min(ks, cfg.padded_k(k));     // never exceed the (padded) depth
  ks = std::max<index_t>(ks, cfg.m);      // at least one window
  return ks;
}

BlockingParams cpu_blocking(const NMConfig& cfg, index_t k) {
  BlockingParams p{.ms = 32, .ns = 64};
  p.ks = derive_ks(cfg, p.ms, p.ns, kCpuKsBudgetBytes, k);
  return p;
}

std::size_t block_smem_bytes(const BlockingParams& p, const NMConfig& cfg,
                             bool double_buffered) {
  const index_t ws = p.ws(cfg);
  const index_t qs = p.qs(cfg);
  // As is ms x ks floats, Bs is ws x ns floats, Ds is ws x qs bytes.
  std::size_t bytes = static_cast<std::size_t>(p.ms) * p.ks * sizeof(float) +
                      static_cast<std::size_t>(ws) * p.ns * sizeof(float) +
                      static_cast<std::size_t>(ws) * qs;
  if (double_buffered) bytes *= 2;
  return bytes;
}

index_t registers_per_thread(const BlockingParams& p) {
  return p.mt + p.nt + p.mt * p.nt;
}

void validate_params(const BlockingParams& p, const NMConfig& cfg,
                     std::size_t smem_bytes, index_t k) {
  cfg.validate();
  NMSPMM_CHECK_MSG(p.ms > 0 && p.ns > 0 && p.mt > 0 && p.nt > 0,
                   "blocking parameters must be positive: " << p.to_string());
  NMSPMM_CHECK_MSG(p.ms % 32 == 0 && p.ns % 32 == 0,
                   "ms and ns must be multiples of 32 to avoid shared-memory "
                   "bank conflicts (Section III-B1): " << p.to_string());
  NMSPMM_CHECK_MSG(p.ms % p.mt == 0 && p.ns % p.nt == 0,
                   "thread tile must divide the block tile: " << p.to_string());
  NMSPMM_CHECK_MSG(registers_per_thread(p) <= 255,
                   "register budget exceeded: mt+nt+mt*nt = "
                       << registers_per_thread(p) << " > 255");
  NMSPMM_CHECK_MSG(p.ks > 0 && p.ks % cfg.m == 0,
                   "ks must be a positive multiple of M: ks=" << p.ks);
  NMSPMM_CHECK_MSG(p.ks <= kMaxKs,
                   "ks=" << p.ks << " exceeds " << kMaxKs
                         << ": within-chunk column offsets are staged in "
                            "uint16 buffers and would silently wrap");
  NMSPMM_CHECK_MSG(p.ks <= cfg.padded_k(k),
                   "ks exceeds the padded problem depth: ks=" << p.ks
                       << " k=" << k);
  NMSPMM_CHECK_MSG(
      block_smem_bytes(p, cfg, /*double_buffered=*/false) <= smem_bytes,
      "block working set " << block_smem_bytes(p, cfg, false)
                           << " B exceeds shared-memory budget " << smem_bytes
                           << " B (Eq. 4)");
}

BlockingParams make_params(index_t m, index_t n, index_t k,
                           const NMConfig& cfg, std::size_t smem_bytes) {
  BlockingParams p = table1_preset(classify_size(m, n, k));
  // Keep half of shared memory for buffering (Eq. 4's 0.5 factor is the
  // 8x constant inside derive_ks).
  p.ks = derive_ks(cfg, p.ms, p.ns, smem_bytes, k);
  return p;
}

}  // namespace nmspmm
