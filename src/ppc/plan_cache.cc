#include "ppc/plan_cache.h"

#include <algorithm>

#include "common/macros.h"

namespace ppc {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// SplitMix64 finalizer: PlanIds are fingerprint hashes already, but the
/// extra mix guards against id distributions that collide on low bits.
uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

PlanCache::PlanCache(size_t capacity, size_t shard_count)
    : capacity_(capacity),
      shards_(RoundUpToPowerOfTwo(std::max<size_t>(1, shard_count))) {
  PPC_CHECK(capacity >= 1);
}

PlanCache::Shard& PlanCache::ShardFor(PlanId id) const {
  return shards_[MixId(id) & (shards_.size() - 1)];
}

void PlanCache::Put(PlanId id, std::unique_ptr<PlanNode> plan) {
  PPC_CHECK(id != kNullPlanId && plan != nullptr);
  std::shared_ptr<const PlanNode> shared(std::move(plan));
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(id);
    if (it != shard.entries.end()) {
      it->second.plan = std::move(shared);
      it->second.last_use = Tick();
      it->second.precision_score = 1.0;
      return;
    }
  }
  // Make room before inserting so the incoming plan is never its own
  // eviction victim.
  while (size_.load(std::memory_order_acquire) >= capacity_) {
    if (!EvictOne()) break;
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.entries.try_emplace(id);
    it->second.plan = std::move(shared);
    it->second.last_use = Tick();
    if (inserted) {
      size_.fetch_add(1, std::memory_order_acq_rel);
    } else {
      // A racing Put of the same id landed first: treat as overwrite.
      it->second.precision_score = 1.0;
    }
  }
  // Concurrent inserters may transiently overshoot; converge back down.
  while (size_.load(std::memory_order_acquire) > capacity_) {
    if (!EvictOne()) break;
  }
}

std::shared_ptr<const PlanNode> PlanCache::Get(PlanId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++shard.misses;
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  ++shard.hits;
  it->second.last_use = Tick();
  return it->second.plan;
}

bool PlanCache::Contains(PlanId id) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.entries.count(id) > 0;
}

void PlanCache::SetPrecisionScore(PlanId id, double score) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it != shard.entries.end()) it->second.precision_score = score;
}

std::optional<double> PlanCache::PrecisionScore(PlanId id) const {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) return std::nullopt;
  return it->second.precision_score;
}

void PlanCache::Erase(PlanId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.entries.erase(id) > 0) {
    size_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void PlanCache::Clear() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (Shard& shard : shards_) locks.emplace_back(shard.mu);
  for (Shard& shard : shards_) shard.entries.clear();
  size_.store(0, std::memory_order_release);
}

std::vector<PlanId> PlanCache::PlanIds() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (Shard& shard : shards_) locks.emplace_back(shard.mu);
  std::vector<PlanId> ids;
  for (const Shard& shard : shards_) {
    for (const auto& [id, _] : shard.entries) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool PlanCache::Worse(const Entry& cand, const Entry& best) {
  if (cand.precision_score != best.precision_score) {
    return cand.precision_score < best.precision_score;
  }
  return cand.last_use < best.last_use;
}

bool PlanCache::EvictOne() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (Shard& shard : shards_) locks.emplace_back(shard.mu);

  Shard* victim_shard = nullptr;
  std::map<PlanId, Entry>::iterator victim;
  uint64_t oldest_use = UINT64_MAX;
  for (Shard& shard : shards_) {
    for (auto it = shard.entries.begin(); it != shard.entries.end(); ++it) {
      oldest_use = std::min(oldest_use, it->second.last_use);
      if (victim_shard == nullptr || Worse(it->second, victim->second)) {
        victim_shard = &shard;
        victim = it;
      }
    }
  }
  if (victim_shard == nullptr) return false;
  // Use ticks are unique, so a victim that is not the oldest entry was
  // picked by its precision score.
  if (victim->second.last_use != oldest_use) {
    precision_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  victim_shard->entries.erase(victim);
  size_.fetch_sub(1, std::memory_order_acq_rel);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

PlanCache::Stats PlanCache::GetStats() const {
  Stats stats;
  stats.hits = hits();
  stats.misses = misses();
  stats.evictions = evictions();
  stats.precision_evictions = precision_evictions();
  stats.size = size();
  stats.capacity = capacity_;
  stats.shards.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.shards.push_back(
        ShardStats{shard.entries.size(), shard.hits, shard.misses});
  }
  return stats;
}

}  // namespace ppc
