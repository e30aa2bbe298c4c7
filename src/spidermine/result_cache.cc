#include "spidermine/result_cache.h"

#include <utility>

namespace spidermine {

std::optional<std::string> ResultCache::Lookup(const Key& key) {
  if (!enabled()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  // Refresh recency: splice the entry to the front without reallocating.
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->payload;
}

void ResultCache::Insert(const Key& key, std::string payload) {
  if (!enabled()) return;
  const int64_t size = static_cast<int64_t>(payload.size());
  if (size > config_.max_bytes) return;  // could never fit
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent computations of the same query insert the same
    // deterministic payload; refresh bytes and recency either way.
    stats_.bytes += size - static_cast<int64_t>(it->second->payload.size());
    it->second->payload = std::move(payload);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(payload)});
    index_.emplace(key, lru_.begin());
    stats_.bytes += size;
    ++stats_.entries;
    ++stats_.insertions;
  }
  while (stats_.entries > config_.max_entries ||
         stats_.bytes > config_.max_bytes) {
    EvictOneLocked();
  }
}

void ResultCache::EvictOneLocked() {
  const Entry& victim = lru_.back();
  stats_.bytes -= static_cast<int64_t>(victim.payload.size());
  --stats_.entries;
  ++stats_.evictions;
  index_.erase(victim.key);
  lru_.pop_back();
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace spidermine
