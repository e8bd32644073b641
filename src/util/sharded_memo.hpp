// ShardedMemo: the one thread-safe, shape-keyed memo table of the repo.
//
// sched::EvalCache (per-layer LayerCosts) and serve::ModelPool (per-shape
// model entries) are both this table with their own key and value types.
//
// Contract:
//   * lookup(key, compute) returns the value stored under `key`, calling
//     compute() on a miss, and whether this call inserted it. compute() runs OUTSIDE any lock, so it
//     may be slow and may itself use the memo (other keys). The memoized
//     functions are pure, so two threads racing on one key compute equal
//     values; the first insert wins and both callers get the stored one.
//   * Returned references stay valid until clear() or destruction: values
//     live in the nodes of an unordered_map, which never move on rehash.
//   * hits() + misses() counts lookups. misses() counts inserts, so a
//     racing loser counts as a hit and entries() == misses() until clear().
//   * The table is split into kShards shards by key hash; each shard is a
//     std::shared_mutex-guarded map (lookups share, inserts exclusive).
//
// Telemetry: every instance feeds the process-wide memo.hits /
// memo.misses / memo.evictions counters; publish_hit_rate() writes the
// memo.hit_pct gauge (once per sweep, never per lookup).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

#include "util/telemetry.hpp"

namespace fuse::util {

/// Word-wise 64-bit mix of a sequence of integer words (splitmix64
/// finalizer per word). Picks memo shards and buckets only — never
/// persisted, never feeds a result.
template <typename Words>
std::uint64_t hash_words(const Words& words, std::uint64_t seed = 0) {
  std::uint64_t hash = seed ^ 0x9e3779b97f4a7c15ULL;
  for (const auto word : words) {
    hash ^= static_cast<std::uint64_t>(word);
    hash *= 0xbf58476d1ce4e5b9ULL;
    hash ^= hash >> 31;
  }
  hash *= 0x94d049bb133111ebULL;
  return hash ^ (hash >> 29);
}

namespace detail {
inline Counter& memo_hit_metric() {
  static Counter& counter = metrics().counter("memo.hits");
  return counter;
}
inline Counter& memo_miss_metric() {
  static Counter& counter = metrics().counter("memo.misses");
  return counter;
}
inline Counter& memo_eviction_metric() {
  static Counter& counter = metrics().counter("memo.evictions");
  return counter;
}
inline Gauge& memo_hit_pct_gauge() {
  static Gauge& gauge = metrics().gauge("memo.hit_pct");
  return gauge;
}
}  // namespace detail

template <typename K, typename V, typename Hash>
class ShardedMemo {
 public:
  static constexpr std::size_t kShards = 16;

  /// The stored value for `key` and whether this call inserted it (false
  /// on a hit and for the loser of a racing insert).
  template <typename Compute>
  std::pair<const V&, bool> lookup(const K& key, Compute&& compute) {
    Shard& shard = shards_[Hash{}(key) % kShards];
    {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        record(/*hit=*/true);
        return {it->second, false};
      }
    }
    V value = compute();
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    const auto [it, inserted] = shard.map.try_emplace(key, std::move(value));
    record(/*hit=*/!inserted);
    return {it->second, inserted};
  }

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  /// Hit fraction in percent (0 when never queried).
  double hit_rate_pct() const {
    const std::uint64_t hit = hits();
    const std::uint64_t total = hit + misses();
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(hit) /
                            static_cast<double>(total);
  }
  /// Writes hit_rate_pct() to the memo.hit_pct gauge.
  void publish_hit_rate() const {
    detail::memo_hit_pct_gauge().set(
        static_cast<std::int64_t>(hit_rate_pct()));
  }

  std::size_t entries() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      total += shard.map.size();
    }
    return total;
  }

  /// Drops every entry (invalidating returned references) and zeroes the
  /// hit/miss counts.
  void clear() {
    for (Shard& shard : shards_) {
      std::unique_lock<std::shared_mutex> lock(shard.mutex);
      detail::memo_eviction_metric().add(shard.map.size());
      shard.map.clear();
    }
    hits_.store(0);
    misses_.store(0);
  }

 private:
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<K, V, Hash> map;
  };

  void record(bool hit) {
    if (hit) {
      hits_.fetch_add(1);
      detail::memo_hit_metric().add();
    } else {
      misses_.fetch_add(1);
      detail::memo_miss_metric().add();
    }
  }

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace fuse::util
