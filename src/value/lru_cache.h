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
// mutex-protected exact LRU with its own payload byte budget, so reader
// threads on different shards never contend.
//
// Layout: a shard keeps its entries in one contiguous array of 64-B records
// (the key's 32-B image inline, the handle, the value pointer and length,
// 32-bit LRU prev/next links and a 32-bit hash-chain link), a power-of-two
// array of 32-bit bucket heads, and a free list threaded through evicted
// entry slots. Each value is one exact-size allocation, so an entry costs
// 64 B + 4-8 B of buckets beside its payload, and a probe is one bucket load
// plus one entry line per chain step.
#ifndef PACTREE_SRC_VALUE_LRU_CACHE_H_
#define PACTREE_SRC_VALUE_LRU_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/key.h"

namespace pactree {

struct ValueCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;      // probes that found nothing or a stale handle
  uint64_t evictions = 0;   // entries dropped for space or by Invalidate
  uint64_t bytes = 0;       // resident payload bytes (all shards)
  uint64_t entries = 0;
  // DRAM the cache holds: payload plus every shard's entry and bucket arrays.
  uint64_t resident_bytes = 0;
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
    const uint64_t h = Mix(key);
    Shard& sh = table_[h % shards_];
    std::lock_guard<std::mutex> lock(sh.mu);
    const uint32_t i = sh.Find(key, h);
    if (i == kNil) {
      st_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Entry& e = sh.entries[i];
    if (e.handle != handle) {
      EraseLocked(sh, i);  // superseded by an overwrite/remove/GC move
      st_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    sh.Unlink(i);
    sh.PushFront(i);  // promote to MRU
    out->assign(e.bytes.get(), e.len);
    st_hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Installs (or refreshes) the key's entry under |handle|. A value larger
  // than a shard's whole budget is not cached, and drops the key's older
  // entry instead.
  void Put(const Key& key, uint64_t handle, std::string_view bytes) {
    if (shard_capacity_ == 0) {
      return;
    }
    const uint64_t h = Mix(key);
    Shard& sh = table_[h % shards_];
    std::lock_guard<std::mutex> lock(sh.mu);
    uint32_t i = sh.Find(key, h);
    if (bytes.size() > shard_capacity_) {
      if (i != kNil) {
        EraseLocked(sh, i);
      }
      return;
    }
    if (i != kNil) {
      sh.Unlink(i);
      sh.bytes -= sh.entries[i].len;
    } else {
      i = sh.Insert(key, h);
    }
    Entry& e = sh.entries[i];
    if (e.bytes == nullptr || e.len != bytes.size()) {
      e.bytes = std::make_unique_for_overwrite<char[]>(bytes.size());
    }
    std::memcpy(e.bytes.get(), bytes.data(), bytes.size());
    e.len = static_cast<uint32_t>(bytes.size());
    e.handle = handle;
    sh.bytes += bytes.size();
    sh.PushFront(i);
    while (sh.bytes > shard_capacity_ && sh.lru_tail != kNil) {
      EraseLocked(sh, sh.lru_tail);
    }
  }

  // Drops every entry whose handle lies in [lo, hi). Called from a retired
  // value-log segment's epoch callback (see the header comment); correctness
  // against recycled-block ABA DOES depend on this one, unlike Invalidate.
  // A linear scan of each shard's entry array.
  void EvictHandleRange(uint64_t lo, uint64_t hi) {
    if (shard_capacity_ == 0) {
      return;
    }
    for (Shard& sh : table_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      for (uint32_t i = 0; i < sh.entries.size(); ++i) {
        const Entry& e = sh.entries[i];
        if (e.bytes != nullptr && e.handle >= lo && e.handle < hi) {
          EraseLocked(sh, i);
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
    const uint64_t h = Mix(key);
    Shard& sh = table_[h % shards_];
    std::lock_guard<std::mutex> lock(sh.mu);
    if (uint32_t i = sh.Find(key, h); i != kNil) {
      EraseLocked(sh, i);
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
      s.entries += sh.live;
      s.resident_bytes += sh.bytes + sh.entries.capacity() * sizeof(Entry) +
                          sh.buckets.capacity() * sizeof(uint32_t);
    }
    return s;
  }

  // Visits every resident entry, one shard at a time under its lock (tests
  // and audits; |fn| must not call back into the cache).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& sh : table_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      for (const Entry& e : sh.entries) {
        if (e.bytes != nullptr) {
          fn(Key::FromBytes(e.key, Key::kMaxLen), e.handle,
             std::string_view(e.bytes.get(), e.len));
        }
      }
    }
  }

  size_t capacity_bytes() const { return shard_capacity_ * shards_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  // A free slot has no bytes and is linked through |next| on the free list.
  struct Entry {
    uint8_t key[Key::kMaxLen];  // the key's zero-padded image (Key::operator==)
    uint64_t handle;
    std::unique_ptr<char[]> bytes;
    uint32_t len;
    uint32_t prev;   // toward MRU
    uint32_t next;   // toward LRU; free-list link when free
    uint32_t chain;  // next entry in the same hash bucket
  };
  static_assert(sizeof(Entry) == 64, "one cache line per entry");

  struct Shard {
    mutable std::mutex mu;
    std::vector<Entry> entries;
    std::vector<uint32_t> buckets;  // power-of-two count; heads of chains
    uint32_t lru_head = kNil;       // MRU
    uint32_t lru_tail = kNil;       // LRU
    uint32_t free_head = kNil;
    uint32_t live = 0;
    size_t bytes = 0;

    uint32_t& BucketHead(uint64_t h) {
      return buckets[static_cast<uint32_t>(h >> 32) & (buckets.size() - 1)];
    }

    uint32_t Find(const Key& key, uint64_t h) {
      if (buckets.empty()) {
        return kNil;
      }
      uint32_t i = BucketHead(h);
      while (i != kNil && std::memcmp(entries[i].key, key.data(), Key::kMaxLen) != 0) {
        i = entries[i].chain;
      }
      return i;
    }

    // Takes a free slot (or appends one) for |key|, chained into its bucket
    // but not yet on the LRU list; the caller fills in the value.
    uint32_t Insert(const Key& key, uint64_t h) {
      uint32_t i = free_head;
      if (i != kNil) {
        free_head = entries[i].next;
      } else {
        i = static_cast<uint32_t>(entries.size());
        entries.emplace_back();
      }
      ++live;
      if (live > buckets.size()) {
        Rehash(std::max<size_t>(16, buckets.size() * 2));
      }
      Entry& e = entries[i];
      std::memcpy(e.key, key.data(), Key::kMaxLen);
      uint32_t& head = BucketHead(h);
      e.chain = head;
      head = i;
      return i;
    }

    // Unchains live entry |i| from its bucket and returns its slot to the
    // free list. It must already be off the LRU list.
    void Release(uint32_t i) {
      Entry& e = entries[i];
      uint32_t* link = &BucketHead(Mix(Key::FromBytes(e.key, Key::kMaxLen)));
      while (*link != i) {
        link = &entries[*link].chain;
      }
      *link = e.chain;
      bytes -= e.len;
      e.bytes.reset();
      e.len = 0;
      e.next = free_head;
      free_head = i;
      --live;
    }

    void Rehash(size_t n) {
      buckets.assign(n, kNil);
      for (uint32_t i = 0; i < entries.size(); ++i) {
        Entry& e = entries[i];
        if (e.bytes != nullptr) {
          uint32_t& head = BucketHead(Mix(Key::FromBytes(e.key, Key::kMaxLen)));
          e.chain = head;
          head = i;
        }
      }
    }

    void Unlink(uint32_t i) {
      Entry& e = entries[i];
      (e.prev == kNil ? lru_head : entries[e.prev].next) = e.next;
      (e.next == kNil ? lru_tail : entries[e.next].prev) = e.prev;
    }

    void PushFront(uint32_t i) {
      Entry& e = entries[i];
      e.prev = kNil;
      e.next = lru_head;
      (lru_head == kNil ? lru_tail : entries[lru_head].prev) = i;
      lru_head = i;
    }
  };

  void EraseLocked(Shard& sh, uint32_t i) {
    sh.Unlink(i);
    sh.Release(i);
    st_evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  // The key's hash with its high bytes folded down: the low bits pick the
  // shard, the high 32 the bucket.
  static uint64_t Mix(const Key& key) {
    uint64_t h = key.Hash();
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;  // fold high bytes down
    h ^= h >> 33;
    return h;
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
