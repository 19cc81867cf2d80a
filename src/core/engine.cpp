#include "core/engine.hpp"

#include <bit>
#include <cstdint>
#include <sstream>
#include <utility>

#include "util/hash.hpp"

namespace nmspmm {

namespace {

/// Cheap content fingerprint of caller-owned weights: FNV over the shape
/// plus strided samples of the values and index matrices. Guards the
/// wrapped-copy cache against the two ways the (address, buffer, shape,
/// config) identity can lie — an allocator handing a recycled buffer to
/// a different same-shape matrix (near-certain detection: independent
/// contents differ in the samples), and in-place mutation of the values
/// between calls (best-effort: only edits touching a sampled position
/// are caught — mutating weights the engine has wrapped is outside the
/// overload's contract). O(1) work (128 samples) per call.
std::uint64_t weights_fingerprint(const CompressedNM& B) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  constexpr index_t kSamples = 64;
  const index_t nv = B.rows() * B.cols;
  for (index_t s = 0; s < std::min(kSamples, nv); ++s) {
    const index_t pos = nv <= kSamples ? s : s * (nv - 1) / (kSamples - 1);
    mix(std::bit_cast<std::uint32_t>(B.values(pos / B.cols, pos % B.cols)));
  }
  const index_t nd = B.rows() * B.num_groups();
  for (index_t s = 0; s < std::min(kSamples, nd); ++s) {
    const index_t pos = nd <= kSamples ? s : s * (nd - 1) / (kSamples - 1);
    mix(B.indices(pos / B.num_groups(), pos % B.num_groups()));
  }
  return h;
}

}  // namespace

std::size_t Engine::KeyHash::operator()(const Key& k) const noexcept {
  std::size_t h = std::hash<const void*>{}(k.weights);
  hash_combine(h, static_cast<std::size_t>(k.bucket_m));
  hash_combine(h, hash_value(k.options));
  return h;
}

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  if (options_.plan_cache_capacity == 0) options_.plan_cache_capacity = 1;
  if (options_.min_batch_bucket < 1) options_.min_batch_bucket = 1;
  // Aliases the process-global pool for the default thread count, so a
  // process mixing engines and standalone plans runs one worker set.
  pool_ = ThreadPool::shared(options_.num_threads);
  store_ = options_.weight_store != nullptr ? options_.weight_store
                                            : mem::WeightStore::global();
}

index_t Engine::bucket_batch(index_t m, index_t min_bucket) {
  if (min_bucket < 1) min_bucket = 1;
  if (m <= min_bucket) return min_bucket;
  // 2^62 is the largest power of two an int64 index_t can hold. Doubling
  // past it would signed-overflow (UB that manifested as an infinite
  // loop); batches beyond it get an exact, unbucketed plan instead.
  constexpr index_t kMaxBucket = index_t{1} << 62;
  if (m > kMaxBucket) return m;
  index_t bucket = min_bucket;
  while (bucket < m) bucket *= 2;
  return bucket;
}

StatusOr<std::shared_ptr<const SpmmPlan>> Engine::plan_for(
    index_t m, std::shared_ptr<const CompressedNM> B, SpmmOptions options) {
  if (B == nullptr) {
    return Status::InvalidArgument("weights shared_ptr is null");
  }
  if (m < 1) {
    std::ostringstream os;
    os << "batch m=" << m << " must be positive";
    return Status::InvalidArgument(os.str());
  }
  // The engine's pool (or its serial mode) decides the threading, not
  // the per-call option — normalize it so it can't fragment the cache,
  // and so a serial engine's null pool_ stays serial inside the plan.
  // Residency is engine policy for the same reason.
  options.num_threads = normalized_num_threads();
  options.residency = options_.residency;
  if (options.residency == mem::ResidencyMode::kPackedOnly &&
      options.variant == KernelVariant::kReference) {
    return Status::FailedPrecondition(
        "packed-only residency releases the B' values after packing; the "
        "reference (unpacked) variant cannot serve such a plan");
  }
  Key key{B.get(), bucket_batch(m, options_.min_batch_bucket), options};

  {
    std::lock_guard lock(mutex_);
    if (auto it = index_.find(key); it != index_.end()) {
      // The raw key pointer is only trustworthy while the matrix it was
      // built for is alive (packed-only plans do not keep it alive
      // themselves): a dead origin means the address may belong to a
      // different matrix now — rebuild instead of serving stale tiles.
      if (it->second->origin.lock() == B) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second);  // bump to front
        return it->second->plan;
      }
      lru_.erase(it->second);
      index_.erase(it);
      ++stats_.evictions;
    }
    ++stats_.misses;
  }

  // Build outside the lock: pre-processing is the expensive part and
  // must not serialize concurrent requests for other weights. Two
  // threads racing on the same key both build; the loser's plan is
  // dropped in favor of the first insert.
  std::shared_ptr<const SpmmPlan> plan;
  try {
    plan = std::make_shared<const SpmmPlan>(
        SpmmPlan::create(key.bucket_m, B, options, pool_, store_));
  } catch (const CheckError& e) {
    return Status::InvalidArgument(e.what());
  } catch (const std::bad_alloc& e) {
    return Status::ResourceExhausted(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }

  std::lock_guard lock(mutex_);
  if (auto it = index_.find(key); it != index_.end()) {
    if (it->second->origin.lock() == B) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->plan;
    }
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.evictions;
  }
  lru_.push_front(Entry{key, plan, B});
  index_.emplace(key, lru_.begin());
  while (lru_.size() > options_.plan_cache_capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return plan;
}

Status Engine::spmm(ConstViewF A, std::shared_ptr<const CompressedNM> B,
                    ViewF C, SpmmOptions options) {
  auto plan = plan_for(A.rows(), std::move(B), std::move(options));
  NMSPMM_RETURN_IF_ERROR(plan.status());
  return (*plan)->execute(A, C);
}

std::shared_ptr<const CompressedNM> Engine::wrap_weights(
    const CompressedNM& B) {
  const std::uint64_t fp = weights_fingerprint(B);
  auto matches = [&](const WrappedWeights& w) {
    return w.values_data == B.values.data() && w.orig_rows == B.orig_rows &&
           w.cols == B.cols && w.config == B.config && w.fingerprint == fp;
  };
  {
    std::lock_guard lock(mutex_);
    if (auto it = wrapped_.find(&B); it != wrapped_.end()) {
      if (matches(it->second)) return it->second.copy;
      // Address reuse or in-place mutation: a different matrix now lives
      // at &B. Drop the stale wrapper; its plans age out of the LRU
      // cache on their own.
      wrapped_.erase(it);
    }
  }
  // Deep-copy outside the lock — this is the expensive O(weights) step
  // the wrapper cache exists to amortize.
  auto copy = std::make_shared<const CompressedNM>(B);

  std::lock_guard lock(mutex_);
  auto [it, inserted] = wrapped_.try_emplace(&B);
  if (!inserted && matches(it->second)) {
    return it->second.copy;  // racing caller copied first; use theirs
  }
  it->second = WrappedWeights{B.values.data(), B.orig_rows, B.cols, B.config,
                              fp, std::move(copy)};
  // Bound the wrapper map like the plan cache; evicting an arbitrary
  // other entry only costs a re-copy if that matrix comes back.
  while (wrapped_.size() > options_.plan_cache_capacity) {
    auto victim = wrapped_.begin();
    if (victim->first == &B) ++victim;
    wrapped_.erase(victim);
  }
  return it->second.copy;
}

Status Engine::spmm(ConstViewF A, const CompressedNM& B, ViewF C,
                    SpmmOptions options) {
  if (A.rows() < 1) {
    return Status::InvalidArgument("activation batch is empty");
  }
  // The deep copy inside wrap_weights can fail (bad_alloc on huge
  // weights); keep the no-throw Status contract of the serving surface.
  try {
    return spmm(A, wrap_weights(B), C, std::move(options));
  } catch (const CheckError& e) {
    return Status::InvalidArgument(e.what());
  } catch (const std::bad_alloc& e) {
    return Status::ResourceExhausted(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  }
}

Engine::CacheStats Engine::cache_stats() const {
  std::lock_guard lock(mutex_);
  CacheStats stats = stats_;
  stats.size = lru_.size();
  return stats;
}

void Engine::clear_cache() {
  std::lock_guard lock(mutex_);
  index_.clear();
  lru_.clear();
  wrapped_.clear();
}

Engine& Engine::global() {
  static Engine engine;
  return engine;
}

// Deprecated one-shot shim retained for source compatibility; routes
// through the global engine's pool, throwing like the historical API.
void nm_spmm(ConstViewF A, const CompressedNM& B, ViewF C,
             SpmmOptions options) {
  Engine::global().spmm(A, B, C, std::move(options)).check_ok();
}

}  // namespace nmspmm
