// A sharded, thread-safe, LRU-bounded map used by the compilation cache.
//
// Sharding follows the ShardedWorkQueue convention (src/runtime/): an entry
// lives in shard `hash(key) % num_shards`, each shard owns an independent
// mutex + LRU list, so concurrent lookups of unrelated keys never contend.
// Values are handed out by copy — callers store shared_ptr<const T>, which
// makes a hit O(1).
//
// Eviction unlinks an entry under its shard lock and moves its value out to
// the inserting caller, so no value's destructor ever runs under a shard
// lock. The caller decides where the evicted values die: the engine hands
// them to the cache::Reclaimer, which frees them on a background thread.
//
// Determinism note: hit/miss/eviction *timing* depends on thread
// interleaving, but a cached value is always byte-identical to what the
// compute function would produce (entries are immutable once inserted), so
// cached and uncached runs of a pure function agree for any thread count.
#ifndef QO_CACHE_SHARDED_LRU_H_
#define QO_CACHE_SHARDED_LRU_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace qo::cache {

/// Counts of one cache, merged across shards.
struct Stats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;   ///< live entries when read
  size_t capacity = 0;  ///< configured total bound
};

template <typename Key, typename Value, typename Hasher>
class ShardedLruCache {
 public:
  /// `capacity` is the total entry bound across shards (each shard gets an
  /// equal slice, rounded up, at least 1). `num_shards` is clamped to
  /// [1, max(capacity, 1)], so no shard is empty by construction.
  ShardedLruCache(size_t capacity, int num_shards)
      : capacity_(capacity),
        shards_(std::min(static_cast<size_t>(std::max(num_shards, 1)),
                         std::max<size_t>(capacity, 1))) {
    // Ceiling division that cannot overflow, even at capacity SIZE_MAX.
    const size_t n = shards_.size();
    per_shard_capacity_ =
        std::max<size_t>(capacity_ / n + (capacity_ % n != 0 ? 1 : 0), 1);
  }

  /// Returns the cached value and refreshes its recency, or nullopt.
  std::optional<Value> Get(const Key& key) {
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->second;
  }

  /// Inserts (or refreshes) `key`, evicting the shard's least-recently-used
  /// entries beyond capacity. Returns the resident value: on an insert race
  /// the first writer wins and later writers receive the existing entry, so
  /// every caller observes one consistent value per key. Evicted values are
  /// appended to `*evicted`; with a null `evicted` they die on return,
  /// after the shard lock is released.
  Value Insert(const Key& key, Value value,
               std::vector<Value>* evicted = nullptr) {
    std::vector<Value> dropped;  // destroyed after `lock` below
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->second;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.lru.begin());
    if (shard.index.size() > per_shard_capacity_) {
      EvictOverflow(shard, evicted != nullptr ? evicted : &dropped);
    }
    return shard.lru.front().second;
  }

  /// Get-or-insert in one call. `compute` runs WITHOUT the shard lock (it
  /// may be arbitrarily expensive — a full compilation); two threads racing
  /// on the same missing key both compute, and Insert keeps the first.
  /// Evicted values are handed back as in Insert.
  Value GetOrCompute(const Key& key, const std::function<Value()>& compute,
                     std::vector<Value>* evicted = nullptr) {
    if (std::optional<Value> hit = Get(key)) return std::move(*hit);
    return Insert(key, compute(), evicted);
  }

  size_t size() const {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.index.size();
    }
    return n;
  }

  size_t num_shards() const { return shards_.size(); }

  /// The per-shard counts, each read under its shard lock, summed.
  Stats stats() const {
    Stats out;
    out.capacity = capacity_;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      out.hits += shard.hits;
      out.misses += shard.misses;
      out.evictions += shard.evictions;
      out.entries += shard.index.size();
    }
    return out;
  }

 private:
  /// Cache-line aligned for the heap layout it gives, not for false
  /// sharing (a Shard spans several lines either way). Measured on x86-64
  /// with glibc 2.36: unpadded, the set-up of qobench `offline` (five
  /// engines built ~100 times per process) takes 15% more minor page
  /// faults, and its median setup_s was 11-24% higher in three A/B runs.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::list<std::pair<Key, Value>> lru;  ///< front = most recent
    std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                       Hasher>
        index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// Unlinks the shard's least-recently-used entries beyond its slice and
  /// moves their values to `*out`. Out of line: only a miss that overflows
  /// its shard pays for it.
  [[gnu::noinline]] void EvictOverflow(Shard& shard, std::vector<Value>* out) {
    while (shard.index.size() > per_shard_capacity_) {
      out->push_back(std::move(shard.lru.back().second));
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      ++shard.evictions;
    }
  }

  Shard& ShardOf(const Key& key) {
    return shards_[Hasher{}(key) % shards_.size()];
  }

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
};

}  // namespace qo::cache

#endif  // QO_CACHE_SHARDED_LRU_H_
