#include "core/engine.hpp"

#include <sstream>
#include <utility>

#include "util/hash.hpp"

namespace nmspmm {

std::size_t Engine::KeyHash::operator()(const Key& k) const noexcept {
  std::size_t h = std::hash<const void*>{}(k.weights);
  hash_combine(h, hash_value(k.options));
  return h;
}

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  if (options_.plan_cache_capacity == 0) options_.plan_cache_capacity = 1;
  // Aliases the process-global pool for the default thread count, so a
  // process mixing engines and standalone plans runs one worker set.
  pool_ = ThreadPool::shared(options_.num_threads);
  store_ = options_.weight_store != nullptr ? options_.weight_store
                                            : mem::WeightStore::global();
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
  if (options_.residency == mem::ResidencyMode::kPackedOnly &&
      options.variant == KernelVariant::kReference) {
    return Status::FailedPrecondition(
        "packed-only residency releases the B' values after packing; the "
        "reference (unpacked) variant cannot serve such a plan");
  }
  Key key{B.get(), std::move(options)};

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
        SpmmPlan::create(B, key.options, pool_, store_, options_.residency));
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
}

}  // namespace nmspmm
