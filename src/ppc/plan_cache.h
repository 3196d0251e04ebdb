#ifndef PPC_PPC_PLAN_CACHE_H_
#define PPC_PPC_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "plan/fingerprint.h"
#include "plan/plan_node.h"

namespace ppc {

/// Bounded cache of physical plans keyed by PlanId, safe for concurrent
/// callers.
///
/// Eviction follows the paper's signal (Sec. I / IV-E: "performance of the
/// clustering algorithm is monitored to help decide which plans to
/// evict"): the plan with the lowest windowed prediction precision goes
/// first, ties broken by least-recent use.
///
/// The key space is lock-striped into shards (PlanId hash -> shard), so
/// the hot path — Get on a cached plan — takes exactly one shard mutex.
/// Hit/miss/eviction counters and the use clock are atomics shared across
/// shards. Eviction keeps the exact global precision-then-LRU order of
/// the single-map cache by briefly locking every shard (in shard-index
/// order, the cache's one lock-ordering rule) and scanning for the victim;
/// evictions are rare relative to lookups, so the stripe win dominates.
///
/// Get returns a shared_ptr so a plan being executed on one thread cannot
/// be freed by a concurrent eviction or overwrite on another.
class PlanCache {
 public:
  /// `shard_count` is rounded up to a power of two.
  explicit PlanCache(size_t capacity, size_t shard_count = kDefaultShardCount);

  /// Inserts (or refreshes) a plan. May evict. Overwriting an existing id
  /// resets its precision score: the new plan is a fresh re-optimization
  /// and must not inherit the stale plan's eviction rank.
  void Put(PlanId id, std::unique_ptr<PlanNode> plan);

  /// Returns the cached plan or nullptr. Counts as a use. The returned
  /// pointer keeps the plan alive even if it is evicted concurrently.
  std::shared_ptr<const PlanNode> Get(PlanId id);

  /// True if present (does not count as a use).
  bool Contains(PlanId id) const;

  /// Reports the precision score used for eviction ranking (e.g.
  /// prec_k[P] from PrecisionRecallTracker). Unknown plans default to 1.0.
  void SetPrecisionScore(PlanId id, double score);

  /// The current eviction-ranking score of one plan (nullopt when absent).
  /// Does not count as a use.
  std::optional<double> PrecisionScore(PlanId id) const;

  /// Removes one plan (no-op when absent).
  void Erase(PlanId id);

  /// Drops everything (counters are retained).
  void Clear();

  size_t size() const { return size_.load(std::memory_order_acquire); }
  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Evictions whose victim was not the least-recently-used plan, i.e.
  /// the paper's monitoring signal — not mere recency — picked it.
  uint64_t precision_evictions() const {
    return precision_evictions_.load(std::memory_order_relaxed);
  }

  /// Per-shard and aggregate counters for the observability layer. The
  /// aggregate counters are read first, then each shard under its own
  /// lock, so the snapshot is per-field consistent but not a global
  /// atomic cut (fine for monitoring).
  struct ShardStats {
    size_t entries = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t precision_evictions = 0;
    size_t size = 0;
    size_t capacity = 0;
    std::vector<ShardStats> shards;
  };
  Stats GetStats() const;

  std::vector<PlanId> PlanIds() const;

  size_t shard_count() const { return shards_.size(); }

 private:
  static constexpr size_t kDefaultShardCount = 8;

  struct Entry {
    std::shared_ptr<const PlanNode> plan;
    double precision_score = 1.0;
    uint64_t last_use = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::map<PlanId, Entry> entries;
    /// Per-shard lookup outcomes, guarded by mu (Get holds it anyway).
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  Shard& ShardFor(PlanId id) const;
  uint64_t Tick() { return clock_.fetch_add(1, std::memory_order_relaxed) + 1; }
  static bool Worse(const Entry& cand, const Entry& best);
  /// Locks all shards (in index order) and evicts the global victim.
  /// Returns false when the cache is empty. Caller must hold no shard lock.
  bool EvictOne();

  size_t capacity_;
  mutable std::vector<Shard> shards_;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> clock_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> precision_evictions_{0};
};

}  // namespace ppc

#endif  // PPC_PPC_PLAN_CACHE_H_
