#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

/// \file result_cache.h
/// A deterministic query result cache for the serving tier.
///
/// The session API's amortization bet — mine Stage I once, answer many
/// top-K queries — extends one level up: under real traffic identical
/// queries repeat, and because top-K results are byte-deterministic at any
/// thread count (docs/SERVING.md, determinism contract), a cached result
/// is *exactly* the result a recomputation would produce, not an
/// approximation. The cache therefore stores the fully rendered response
/// payload of a completed query and returns it verbatim on a repeat.
///
/// Keying: (canonicalized QueryConfig hash, Stage I content key). The
/// query side is `QueryConfig::CanonicalHash` (config.h) — semantically
/// identical requests (e.g. `min_support: 0` vs. the explicit session
/// floor) normalize to the same hash. The artifact side is
/// `MiningSession::stage1_content_key()`, which changes whenever the
/// graph or the mined spider set does, so entries cached against one
/// artifact can never answer for another.
///
/// Bounded LRU: both an entry cap and a byte cap, strict
/// least-recently-used eviction (lookup hits refresh recency), so the
/// eviction sequence is a deterministic function of the access sequence.
/// Either cap set to 0 disables the cache entirely: Lookup always misses
/// and counts nothing, Insert is a no-op — the disabled cache is free.
///
/// Thread-safety: one mutex guards the map, the recency list and the
/// counters. Serving workloads hold the lock for a hash lookup plus a
/// list splice — microseconds against the milliseconds-to-seconds of a
/// query recomputation — so a single lock does not bound throughput
/// before RunQuery does.

namespace spidermine {

/// Capacity limits of a ResultCache. Either cap at 0 disables the cache.
struct ResultCacheConfig {
  /// Maximum number of cached responses.
  int64_t max_entries = 256;
  /// Maximum sum of cached payload bytes (keys and bookkeeping are not
  /// counted; payloads dominate).
  int64_t max_bytes = 64 * 1024 * 1024;
};

/// Counters of one cache, snapshot under the lock by `stats()`.
struct ResultCacheStats {
  int64_t hits = 0;        ///< lookups answered from the cache
  int64_t misses = 0;      ///< lookups that found nothing
  int64_t insertions = 0;  ///< payloads stored
  int64_t evictions = 0;   ///< entries removed to respect the caps
  int64_t entries = 0;     ///< current resident entries
  int64_t bytes = 0;       ///< current resident payload bytes
};

/// A bounded, mutex-protected LRU cache of rendered query responses.
class ResultCache {
 public:
  explicit ResultCache(ResultCacheConfig config) : config_(config) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cache key: canonical query hash x Stage I content key.
  struct Key {
    uint64_t query_hash = 0;
    uint64_t stage1_key = 0;
    bool operator==(const Key& other) const {
      return query_hash == other.query_hash && stage1_key == other.stage1_key;
    }
  };

  /// False when either cap is 0: every operation is then a no-op.
  bool enabled() const {
    return config_.max_entries > 0 && config_.max_bytes > 0;
  }

  /// Returns the cached payload and refreshes its recency, or nullopt.
  /// Counts a hit or a miss; a disabled cache counts nothing.
  std::optional<std::string> Lookup(const Key& key);

  /// Stores \p payload under \p key, evicting least-recently-used entries
  /// until both caps hold. A payload larger than max_bytes on its own is
  /// not cached (it could only evict everything and then overflow). An
  /// insert under an existing key refreshes the payload and recency.
  void Insert(const Key& key, std::string payload);

  /// Snapshot of the counters (thread-safe copy).
  ResultCacheStats stats() const;

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // Mix the two 64-bit halves (splitmix64 finalizer) so unordered_map
      // bucketing does not degenerate when stage1_key is constant, which
      // it is for every single-artifact server.
      uint64_t x = key.query_hash ^ (key.stage1_key * 0x9e3779b97f4a7c15ULL);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };

  struct Entry {
    Key key;
    std::string payload;
  };

  /// Unlinks the least-recently-used entry. Caller holds the lock.
  void EvictOneLocked();

  const ResultCacheConfig config_;
  mutable std::mutex mu_;
  /// Recency order: front = most recently used, back = eviction candidate.
  std::list<Entry> lru_;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  ResultCacheStats stats_;
};

}  // namespace spidermine
