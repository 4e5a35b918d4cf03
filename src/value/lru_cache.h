// Sharded DRAM hot-value cache for the log-structured value tier.
//
// Caches the *dereference*, not the index lookup: an entry is (key -> handle,
// bytes) and a Get hit requires the caller to present the handle the index
// currently maps the key to. A stale entry -- left behind by a concurrent
// overwrite, remove, or GC relocation racing the read-side fill -- therefore
// can never be served: the current handle no longer matches and the probe
// misses. That makes the classic invalidate-vs-refill race harmless, so
// Invalidate() on the write paths is an eviction (reclaiming bytes early),
// not a correctness requirement.
//
// Handle comparison alone leaves one hole: a handle is a raw pmem address, so
// once a GC-retired segment's block is reallocated, a NEW record for the same
// key could land at the SAME raw+offset and a surviving stale entry would
// revalidate (ABA). ValueStorage closes it by calling EvictHandleRange over a
// retired segment's address range from the epoch-retire callback -- after the
// grace period (no reader can still Put an old handle in the range) and
// before the block is freed for reuse.
//
// Sharding: hash(key) picks a shard; each shard is an independent
// mutex-protected LRU list + hash map with its own byte budget, so reader
// threads on different shards never contend.
#ifndef PACTREE_SRC_VALUE_LRU_CACHE_H_
#define PACTREE_SRC_VALUE_LRU_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/key.h"

namespace pactree {

struct ValueCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;      // probes that found nothing or a stale handle
  uint64_t evictions = 0;   // entries dropped for space or by Invalidate
  uint64_t bytes = 0;       // resident payload bytes (all shards)
  uint64_t entries = 0;
};

class ValueLruCache {
 public:
  // |capacity_bytes| is the total payload budget across |shards| shards
  // (each shard gets an equal slice). A zero capacity disables the cache:
  // every probe misses and Put is a no-op.
  ValueLruCache(size_t capacity_bytes, uint32_t shards)
      : shard_capacity_(capacity_bytes / std::max<uint32_t>(shards, 1)),
        shards_(std::max<uint32_t>(shards, 1)),
        table_(shards_) {}

  ValueLruCache(const ValueLruCache&) = delete;
  ValueLruCache& operator=(const ValueLruCache&) = delete;

  // Hit iff the key is cached under exactly |handle|; promotes to MRU and
  // copies the bytes out. A handle mismatch (the index moved on) misses and
  // drops the stale entry.
  bool Get(const Key& key, uint64_t handle, std::string* out) {
    if (shard_capacity_ == 0) {
      st_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Shard& sh = table_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.map.find(key);
    if (it == sh.map.end()) {
      st_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (it->second->handle != handle) {
      EraseLocked(sh, it);  // superseded by an overwrite/remove/GC move
      st_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);  // promote to MRU
    *out = it->second->bytes;
    st_hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Installs (or refreshes) the key's entry under |handle|. Values larger
  // than a shard's whole budget are not cached.
  void Put(const Key& key, uint64_t handle, std::string_view bytes) {
    if (shard_capacity_ == 0 || bytes.size() > shard_capacity_) {
      return;
    }
    Shard& sh = table_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      sh.bytes -= it->second->bytes.size();
      it->second->handle = handle;
      it->second->bytes.assign(bytes.data(), bytes.size());
      sh.bytes += bytes.size();
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    } else {
      sh.lru.push_front(Entry{key, handle, std::string(bytes)});
      sh.map[key] = sh.lru.begin();
      sh.bytes += bytes.size();
    }
    while (sh.bytes > shard_capacity_ && !sh.lru.empty()) {
      auto victim = std::prev(sh.lru.end());
      sh.bytes -= victim->bytes.size();
      sh.map.erase(victim->key);
      sh.lru.erase(victim);
      st_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Drops every entry whose handle lies in [lo, hi). Called from a retired
  // value-log segment's epoch callback (see the header comment); correctness
  // against recycled-block ABA DOES depend on this one, unlike Invalidate.
  void EvictHandleRange(uint64_t lo, uint64_t hi) {
    if (shard_capacity_ == 0) {
      return;
    }
    for (Shard& sh : table_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      for (auto it = sh.lru.begin(); it != sh.lru.end();) {
        if (it->handle >= lo && it->handle < hi) {
          sh.bytes -= it->bytes.size();
          sh.map.erase(it->key);
          it = sh.lru.erase(it);
          st_evictions_.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++it;
        }
      }
    }
  }

  // Early eviction on overwrite/remove (correctness does not depend on it;
  // see the header comment).
  void Invalidate(const Key& key) {
    if (shard_capacity_ == 0) {
      return;
    }
    Shard& sh = table_[ShardOf(key)];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      EraseLocked(sh, it);
    }
  }

  ValueCacheStats Stats() const {
    ValueCacheStats s;
    s.hits = st_hits_.load(std::memory_order_relaxed);
    s.misses = st_misses_.load(std::memory_order_relaxed);
    s.evictions = st_evictions_.load(std::memory_order_relaxed);
    for (const auto& sh : table_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      s.bytes += sh.bytes;
      s.entries += sh.map.size();
    }
    return s;
  }

  size_t capacity_bytes() const { return shard_capacity_ * shards_; }

 private:
  struct Entry {
    Key key;
    uint64_t handle;
    std::string bytes;
  };
  using LruList = std::list<Entry>;
  using LruMap = std::unordered_map<Key, LruList::iterator>;
  struct Shard {
    mutable std::mutex mu;
    LruList lru;  // front = MRU
    LruMap map;
    size_t bytes = 0;
  };

  void EraseLocked(Shard& sh, LruMap::iterator it) {
    sh.bytes -= it->second->bytes.size();
    sh.lru.erase(it->second);
    sh.map.erase(it);
    st_evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  uint32_t ShardOf(const Key& key) const {
    uint64_t h = key.Hash();
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;  // fold high bytes down
    h ^= h >> 33;
    return static_cast<uint32_t>(h % shards_);
  }

  const size_t shard_capacity_;
  const uint32_t shards_;
  std::vector<Shard> table_;
  mutable std::atomic<uint64_t> st_hits_{0};
  mutable std::atomic<uint64_t> st_misses_{0};
  mutable std::atomic<uint64_t> st_evictions_{0};
};

}  // namespace pactree

#endif  // PACTREE_SRC_VALUE_LRU_CACHE_H_
