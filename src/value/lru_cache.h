// Sharded DRAM hot-value cache for the log-structured value tier.
//
// The cache is coherent with the key index: a resident entry (key -> handle,
// bytes) always holds the value the index currently maps the key to, so a
// point read may answer from it by key alone, without reading the index or
// any NVM. Three rules keep it so (PacTree, value_ops.cc and pactree.cc):
//
//  1. Evict under the lock. Every store that replaces a key's log-handle
//     value word (an overwriting Insert/Update/InsertValue, Remove, the GC's
//     handle swing) calls Invalidate(key) while it still holds the data
//     node's write lock.
//  2. Fill only under a valid version. A reader that resolved a handle from
//     a data node under read token T installs the bytes with PutIf, whose
//     predicate re-validates T under the shard mutex. A writer locks the node
//     before it evicts, and it evicts under that same mutex, so either the
//     fill's validation sees the lock (nothing is installed) or the fill
//     precedes the eviction (which then drops it). No writer can slip between
//     the check and the insert.
//  3. Probe first. Get(key) answers a point read before the index is touched.
//
// The snapshot resolver ScanValues holds a handle fetched earlier and must
// return that handle's bytes, so it uses the handle-checked Get(key, handle)
// and never fills: it has no node token to validate against. A handle is a raw pmem address, so once a GC-retired
// segment's block is reallocated a new record can land at the same address;
// EvictHandleRange, called from the retired segment's epoch callback (after
// the grace period, before the block is reused), drops every entry in the
// old range. Under the rules above no entry should still point there; the
// range eviction keeps handle-checked hits safe from that ABA on its own.
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
  uint64_t misses = 0;      // probes that found nothing or another handle
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
  // every probe misses and PutIf installs nothing.
  ValueLruCache(size_t capacity_bytes, uint32_t shards)
      : shard_capacity_(capacity_bytes / std::max<uint32_t>(shards, 1)),
        shards_(std::max<uint32_t>(shards, 1)),
        table_(shards_) {}

  ValueLruCache(const ValueLruCache&) = delete;
  ValueLruCache& operator=(const ValueLruCache&) = delete;

  // Key-only probe for point reads: hit iff the key is resident (the entry is
  // current by the coherence rules above); promotes to MRU and copies the
  // bytes out.
  bool Get(const Key& key, std::string* out) {
    return Probe(key, [](const Entry&) { return true; }, out);
  }

  // Handle-checked probe for snapshot resolvers: hit iff the key is cached
  // under exactly |handle|. A mismatch misses and keeps the entry, which is
  // newer than the caller's snapshot.
  bool Get(const Key& key, uint64_t handle, std::string* out) {
    return Probe(key, [handle](const Entry& e) { return e.handle == handle; }, out);
  }

  // Installs (or refreshes) the key's entry under |handle| iff |pred()| holds;
  // |pred| runs under the shard mutex, so an eviction by a writer that
  // invalidated it cannot slip in between. Returns whether it installed. A
  // value larger than a shard's whole budget is not cached, and drops the
  // key's older entry instead.
  template <typename Pred>
  bool PutIf(const Key& key, uint64_t handle, std::string_view bytes, Pred&& pred) {
    if (shard_capacity_ == 0) {
      return false;
    }
    const uint64_t h = Mix(key);
    Shard& sh = table_[h % shards_];
    std::lock_guard<std::mutex> lock(sh.mu);
    if (!pred()) {
      return false;
    }
    uint32_t i = sh.Find(key, h);
    if (bytes.size() > shard_capacity_) {
      if (i != kNil) {
        EraseLocked(sh, i);
      }
      return false;
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
    return true;
  }

  // Drops every entry whose handle lies in [lo, hi). Called from a retired
  // value-log segment's epoch callback (see the header comment). A linear
  // scan of each shard's entry array.
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

  // Drops the key's entry. Writers call it under the data node's write lock
  // (rule 1 of the header comment); key-only hits depend on it.
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

  template <typename Match>
  bool Probe(const Key& key, Match&& match, std::string* out) {
    if (shard_capacity_ == 0) {
      st_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const uint64_t h = Mix(key);
    Shard& sh = table_[h % shards_];
    std::lock_guard<std::mutex> lock(sh.mu);
    const uint32_t i = sh.Find(key, h);
    if (i == kNil || !match(sh.entries[i])) {
      st_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Entry& e = sh.entries[i];
    sh.Unlink(i);
    sh.PushFront(i);  // promote to MRU
    out->assign(e.bytes.get(), e.len);
    st_hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

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
