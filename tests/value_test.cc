// Tiered value storage tests: inline handle codec, the standalone
// log-structured ValueStorage (append/read, torn-record rejection, GC
// relocation against a map sink), the DRAM hot-value cache, and the
// PacTree-integrated value API (scans, batched gets, overwrite/remove
// invalidation, an std::map oracle property test with random inline GC,
// concurrent readers vs GC for TSan, the cache's coherence with the index
// under racing writers, and reopen recovery).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/topology.h"
#include "src/pactree/pactree.h"
#include "src/pmem/pptr.h"
#include "src/runtime/workers.h"
#include "src/sync/epoch.h"
#include "src/value/lru_cache.h"
#include "src/value/value_handle.h"
#include "src/value/value_storage.h"

namespace pactree {
namespace {

// Deterministic payload: byte i of (seed, len) is a mix of both, so a
// mismatched read cannot accidentally verify.
std::string MakeValue(uint64_t seed, size_t len) {
  std::string v(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    v[i] = static_cast<char>((seed * 131 + i * 7 + len) & 0xff);
  }
  return v;
}

// Value number |v| of key index |k|: the version in its first 8 bytes, so a
// read names the write it returns; 64-563 B, so it always goes to the log.
std::string VersionedValue(uint64_t k, uint64_t v) {
  std::string out = MakeValue(k * 7919 + v, 64 + (k * 131 + v * 37) % 500);
  std::memcpy(out.data(), &v, sizeof(v));
  return out;
}

// Cache-only tests fill with a predicate that always holds (PacTree's fills
// validate a data-node token instead).
void Fill(ValueLruCache& cache, const Key& key, uint64_t handle,
          std::string_view bytes) {
  cache.PutIf(key, handle, bytes, [] { return true; });
}

// ---------------------------------------------------------------------------
// Inline codec
// ---------------------------------------------------------------------------

TEST(ValueHandleTest, InlineRoundTripAllLengths) {
  for (size_t len = 0; len <= kMaxInlineValue; ++len) {
    std::string in = MakeValue(len + 1, len);
    uint64_t h = EncodeInlineValue(in);
    EXPECT_TRUE(ValueHandleIsInline(h));
    EXPECT_NE(h, 0u);  // tag bit: an inline handle is never the null word
    std::string out;
    DecodeInlineValue(h, &out);
    EXPECT_EQ(out, in) << "len=" << len;
  }
}

TEST(ValueHandleTest, LogHandlesAreNotInline) {
  // PPtr raws keep bit 63 clear (pool ids are far below 2^15), so no real
  // log handle can alias the inline tag.
  EXPECT_FALSE(ValueHandleIsInline(0));
  EXPECT_FALSE(ValueHandleIsInline((100ULL << 48) | 0x1234));
}

// ---------------------------------------------------------------------------
// Standalone ValueStorage
// ---------------------------------------------------------------------------

// Index stand-in for GC: a mutex-protected map of current handles.
class MapSink : public ValueGcSink {
 public:
  bool CurrentValueHandle(const Key& key, uint64_t* handle) const override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    *handle = it->second;
    return true;
  }
  bool CasValueHandle(const Key& key, uint64_t old_handle,
                      uint64_t new_handle) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end() || it->second != old_handle) {
      return false;
    }
    it->second = new_handle;
    return true;
  }
  void Set(const Key& key, uint64_t handle) {
    std::lock_guard<std::mutex> lock(mu_);
    map_[key] = handle;
  }
  void Erase(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    map_.erase(key);
  }
  uint64_t Get(const Key& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    return it == map_.end() ? 0 : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<Key, uint64_t> map_;
};

class ValueStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    ValueStorage::Destroy("vs_test");
    opts_.name = "vs_test";
    opts_.pool_id_base = 180;
    opts_.pool_size = 64 << 20;
    opts_.segment_size = 32 << 10;  // small: rotation + GC within a test
    opts_.arenas = 1;               // deterministic placement
    opts_.async = false;            // no background GC; tests drive GcPass
    store_ = ValueStorage::Open(opts_, &sink_);
    ASSERT_NE(store_, nullptr);
  }

  void TearDown() override {
    store_.reset();
    EpochManager::Instance().DrainAll();
    ValueStorage::Destroy("vs_test");
  }

  void Reopen() {
    store_.reset();
    EpochManager::Instance().DrainAll();
    store_ = ValueStorage::Open(opts_, &sink_);
    ASSERT_NE(store_, nullptr);
  }

  ValueStorageOptions opts_;
  MapSink sink_;
  std::unique_ptr<ValueStorage> store_;
};

TEST_F(ValueStorageTest, AppendReadSizes) {
  // 64 B .. 4 KiB: every size round-trips byte-exactly (4 KiB spans multiple
  // of the 32 KiB segments' worth of appends, forcing rotation).
  std::vector<std::pair<uint64_t, std::string>> written;
  for (size_t len : {64u, 100u, 512u, 1024u, 4096u}) {
    for (int i = 0; i < 8; ++i) {
      Key k = Key::FromInt(len * 100 + i);
      std::string v = MakeValue(len + i, len);
      uint64_t h = 0;
      ASSERT_EQ(store_->Append(k, v, &h), Status::kOk);
      EXPECT_FALSE(ValueHandleIsInline(h));
      written.emplace_back(h, v);
      sink_.Set(k, h);  // Append itself counts the record live
    }
  }
  size_t idx = 0;
  for (size_t len : {64u, 100u, 512u, 1024u, 4096u}) {
    for (int i = 0; i < 8; ++i) {
      Key k = Key::FromInt(len * 100 + i);
      std::string out;
      ASSERT_EQ(store_->Read(written[idx].first, k, &out), Status::kOk);
      EXPECT_EQ(out, written[idx].second);
      ++idx;
    }
  }
  EXPECT_EQ(store_->Stats().appends, written.size());
}

TEST_F(ValueStorageTest, OversizeRejected) {
  std::string big(store_->max_value_bytes() + 1, 'x');
  uint64_t h = 0;
  EXPECT_EQ(store_->Append(Key::FromInt(1), big, &h), Status::kFull);
}

TEST_F(ValueStorageTest, TornRecordRejected) {
  Key k = Key::FromInt(42);
  std::string v = MakeValue(42, 256);
  uint64_t h = 0;
  ASSERT_EQ(store_->Append(k, v, &h), Status::kOk);
  std::string out;
  ASSERT_EQ(store_->Read(h, k, &out), Status::kOk);

  // Flip one payload byte behind the checksum's back -- a torn write image.
  uint8_t* bytes = PPtr<uint8_t>(h).get();
  ASSERT_NE(bytes, nullptr);
  bytes[sizeof(ValueRecordHeader) + k.size() + 17] ^= 0x5a;
  EXPECT_EQ(store_->Read(h, k, &out), Status::kRetry);
  bytes[sizeof(ValueRecordHeader) + k.size() + 17] ^= 0x5a;  // restore
  ASSERT_EQ(store_->Read(h, k, &out), Status::kOk);
  EXPECT_EQ(out, v);

  // Wrong key for a valid record is equally rejected (handle misdirection).
  EXPECT_EQ(store_->Read(h, Key::FromInt(43), &out), Status::kRetry);
  EXPECT_GE(store_->Stats().read_retries, 2u);
}

TEST_F(ValueStorageTest, GcRelocatesLiveAndDropsDead) {
  // Fill segments with records, then kill most of them; GC must relocate the
  // survivors (readable at their NEW handle via the sink) and retire space.
  const size_t kLen = 1000;
  const int kKeys = 96;  // ~4 segments of 32 KiB at ~1 KiB/record
  for (int i = 0; i < kKeys; ++i) {
    Key k = Key::FromInt(i);
    uint64_t h = 0;
    ASSERT_EQ(store_->Append(k, MakeValue(i, kLen), &h), Status::kOk);
    sink_.Set(k, h);
  }
  for (int i = 0; i < kKeys; ++i) {
    if (i % 4 != 0) {  // keep every 4th
      store_->MarkDead(sink_.Get(Key::FromInt(i)));
      sink_.Erase(Key::FromInt(i));
    }
  }
  size_t relocated = 0;
  for (int round = 0; round < 16; ++round) {
    relocated += store_->GcPass();
  }
  EXPECT_GT(store_->Stats().gc_segments_compacted, 0u);
  EXPECT_GT(relocated, 0u);
  for (int i = 0; i < kKeys; i += 4) {
    Key k = Key::FromInt(i);
    std::string out;
    ASSERT_EQ(store_->Read(sink_.Get(k), k, &out), Status::kOk);
    EXPECT_EQ(out, MakeValue(i, kLen));
  }
  // Retired segments' blocks are reclaimed only after the epochs drain.
  for (int i = 0; i < 8; ++i) {
    EpochManager::Instance().TryAdvanceAndReclaim();
  }
}

TEST_F(ValueStorageTest, ReopenAdoptsPersistedSegmentSize) {
  // The segment size is stamped into the root at creation; reopening with a
  // different configured size must adopt the persisted one, or tail scans and
  // append bounds would run past (or truncate) blocks allocated at the old
  // size.
  const size_t created_max = store_->max_value_bytes();
  std::vector<uint64_t> handles;
  for (int i = 0; i < 30; ++i) {
    Key k = Key::FromInt(i);
    uint64_t h = 0;
    ASSERT_EQ(store_->Append(k, MakeValue(i, 900), &h), Status::kOk);
    handles.push_back(h);
  }
  for (size_t configured : {size_t{256} << 10, size_t{8} << 10}) {
    opts_.segment_size = configured;  // both larger and smaller than created
    Reopen();
    EXPECT_EQ(store_->max_value_bytes(), created_max) << configured;
    for (int i = 0; i < 30; ++i) {
      std::string out;
      ASSERT_EQ(store_->Read(handles[i], Key::FromInt(i), &out), Status::kOk)
          << "configured=" << configured << " i=" << i;
      EXPECT_EQ(out, MakeValue(i, 900));
    }
    // Fresh appends keep working at the adopted size.
    uint64_t h = 0;
    ASSERT_EQ(store_->Append(Key::FromInt(1000), MakeValue(1000, 500), &h),
              Status::kOk);
    std::string out;
    ASSERT_EQ(store_->Read(h, Key::FromInt(1000), &out), Status::kOk);
  }
  opts_.segment_size = 32 << 10;  // restore for TearDown symmetry
}

TEST_F(ValueStorageTest, RecoverTailsAcrossReopen) {
  std::vector<uint64_t> handles;
  for (int i = 0; i < 20; ++i) {
    Key k = Key::FromInt(i);
    uint64_t h = 0;
    ASSERT_EQ(store_->Append(k, MakeValue(i, 700), &h), Status::kOk);
    handles.push_back(h);
    sink_.Set(k, h);
  }
  Reopen();
  // Every acked record survives the reopen; recovered segments are sealed
  // with live counts rebuilt by the caller (here: AddLiveHandle).
  for (int i = 0; i < 20; ++i) {
    Key k = Key::FromInt(i);
    std::string out;
    ASSERT_EQ(store_->Read(handles[i], k, &out), Status::kOk);
    EXPECT_EQ(out, MakeValue(i, 700));
    store_->AddLiveHandle(handles[i]);
  }
  EXPECT_GT(store_->Stats().segments, 0u);
  EXPECT_GT(store_->Stats().live_bytes, 0u);
}

// ---------------------------------------------------------------------------
// DRAM hot-value cache
// ---------------------------------------------------------------------------

TEST(ValueLruCacheTest, KeyAndHandleProbesAndEviction) {
  ValueLruCache cache(4096, 1);
  Key k = Key::FromInt(7);
  std::string out;
  EXPECT_FALSE(cache.Get(k, &out));
  EXPECT_FALSE(cache.Get(k, 111, &out));
  Fill(cache, k, 111, "hello");
  EXPECT_TRUE(cache.Get(k, &out));
  EXPECT_EQ(out, "hello");
  out.clear();
  EXPECT_TRUE(cache.Get(k, 111, &out));
  EXPECT_EQ(out, "hello");
  // Another handle (a snapshot older than the entry) misses, and the entry,
  // which is newer, stays.
  EXPECT_FALSE(cache.Get(k, 222, &out));
  EXPECT_TRUE(cache.Get(k, 111, &out));

  // Byte budget: filling past capacity evicts LRU entries.
  for (int i = 0; i < 64; ++i) {
    Fill(cache, Key::FromInt(100 + i), 1000 + i, std::string(256, 'v'));
  }
  ValueCacheStats s = cache.Stats();
  EXPECT_LE(s.bytes, 4096u);
  EXPECT_GT(s.evictions, 0u);

  // Invalidate drops the entry for both probes.
  Key k2 = Key::FromInt(163);
  ASSERT_TRUE(cache.Get(k2, &out));
  cache.Invalidate(k2);
  EXPECT_FALSE(cache.Get(k2, &out));
  EXPECT_FALSE(cache.Get(k2, 1063, &out));
}

TEST(ValueLruCacheTest, PutIfWithFailingPredicateInstallsNothing) {
  ValueLruCache cache(4096, 1);
  const Key k = Key::FromInt(9);
  const Key other = Key::FromInt(10);
  Fill(cache, other, 50, "other");
  const ValueCacheStats before = cache.Stats();
  int calls = 0;
  auto fail = [&] {
    ++calls;
    return false;
  };
  // Absent key: no entry appears.
  EXPECT_FALSE(cache.PutIf(k, 70, "fresh", fail));
  std::string out;
  EXPECT_FALSE(cache.Get(k, &out));
  // Resident key: neither its bytes nor its handle change, and nothing else
  // is evicted.
  Fill(cache, k, 60, "resident");
  EXPECT_FALSE(cache.PutIf(k, 71, "replacement", fail));
  EXPECT_FALSE(cache.PutIf(k, 72, std::string(4097, 'x'), fail));  // oversize
  EXPECT_TRUE(cache.Get(k, 60, &out));
  EXPECT_EQ(out, "resident");
  EXPECT_TRUE(cache.Get(other, 50, &out));
  EXPECT_EQ(calls, 3);
  const ValueCacheStats after = cache.Stats();
  EXPECT_EQ(after.entries, before.entries + 1);
  EXPECT_EQ(after.bytes, before.bytes + 8);
  EXPECT_EQ(after.evictions, before.evictions);
  // A holding predicate installs.
  EXPECT_TRUE(cache.PutIf(k, 73, "new", [] { return true; }));
  EXPECT_TRUE(cache.Get(k, 73, &out));
  EXPECT_EQ(out, "new");
}

TEST(ValueLruCacheTest, EvictHandleRange) {
  // The recycled-block ABA guard: every entry whose handle falls in a retired
  // segment's address range is dropped, entries outside survive.
  ValueLruCache cache(1 << 16, 4);
  for (int i = 0; i < 32; ++i) {
    Fill(cache, Key::FromInt(i), 10000 + i * 8, "in-range");
    Fill(cache, Key::FromInt(100 + i), 90000 + i * 8, "outside");
  }
  cache.EvictHandleRange(10000, 10000 + 32 * 8);
  std::string out;
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(cache.Get(Key::FromInt(i), 10000 + i * 8, &out)) << i;
    EXPECT_TRUE(cache.Get(Key::FromInt(100 + i), 90000 + i * 8, &out)) << i;
  }
  // Half-open range: a handle exactly at |hi| is not evicted.
  Fill(cache, Key::FromInt(200), 5000, "lo");
  Fill(cache, Key::FromInt(201), 6000, "hi");
  cache.EvictHandleRange(5000, 6000);
  EXPECT_FALSE(cache.Get(Key::FromInt(200), 5000, &out));
  EXPECT_TRUE(cache.Get(Key::FromInt(201), 6000, &out));
}

TEST(ValueLruCacheTest, ZeroCapacityDisables) {
  ValueLruCache cache(0, 4);
  Fill(cache, Key::FromInt(1), 11, "x");
  std::string out;
  EXPECT_FALSE(cache.Get(Key::FromInt(1), 11, &out));
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(ValueLruCacheTest, OversizePutDropsOlderEntry) {
  ValueLruCache cache(4096, 1);
  Key k = Key::FromInt(5);
  Fill(cache, k, 10, "old");
  Fill(cache, k, 11, std::string(4097, 'x'));  // larger than the shard budget
  std::string out;
  EXPECT_FALSE(cache.Get(k, 10, &out));
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
}

// Reference LRU for the model test: the std::list + unordered_map layout
// with the cache's shard function, per-shard budget and eviction order.
class ListLruModel {
 public:
  ListLruModel(size_t capacity_bytes, uint32_t shards)
      : shard_capacity_(capacity_bytes / shards), shards_(shards), table_(shards) {}

  bool Get(const Key& key, std::string* out) { return Get(key, kAnyHandle, out); }

  bool Get(const Key& key, uint64_t handle, std::string* out) {
    Shard& sh = ShardOf(key);
    auto it = sh.map.find(key);
    if (it == sh.map.end()) {
      ++misses;
      return false;
    }
    if (handle != kAnyHandle && it->second->handle != handle) {
      ++misses;
      return false;
    }
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    *out = it->second->bytes;
    ++hits;
    return true;
  }

  void Put(const Key& key, uint64_t handle, std::string_view bytes) {
    Shard& sh = ShardOf(key);
    auto it = sh.map.find(key);
    if (bytes.size() > shard_capacity_) {
      if (it != sh.map.end()) {
        Erase(sh, it->second);
      }
      return;
    }
    if (it != sh.map.end()) {
      sh.bytes -= it->second->bytes.size();
      sh.lru.erase(it->second);
    } else {
      ++created;
    }
    sh.lru.push_front(Entry{key, handle, std::string(bytes)});
    sh.map[key] = sh.lru.begin();
    sh.bytes += bytes.size();
    while (sh.bytes > shard_capacity_) {
      Erase(sh, std::prev(sh.lru.end()));
      ++space_evictions;
    }
  }

  void Invalidate(const Key& key) {
    Shard& sh = ShardOf(key);
    if (auto it = sh.map.find(key); it != sh.map.end()) {
      Erase(sh, it->second);
    }
  }

  void EvictHandleRange(uint64_t lo, uint64_t hi) {
    for (Shard& sh : table_) {
      for (auto it = sh.lru.begin(); it != sh.lru.end();) {
        auto cur = it++;
        if (cur->handle >= lo && cur->handle < hi) {
          Erase(sh, cur);
        }
      }
    }
  }

  uint64_t bytes() const {
    uint64_t b = 0;
    for (const Shard& sh : table_) {
      b += sh.bytes;
    }
    return b;
  }
  uint64_t entries() const {
    uint64_t n = 0;
    for (const Shard& sh : table_) {
      n += sh.map.size();
    }
    return n;
  }

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t created = 0;  // entries made for a key not resident
  uint64_t space_evictions = 0;  // LRU-tail drops for the byte budget

 private:
  static constexpr uint64_t kAnyHandle = UINT64_MAX;

  struct Entry {
    Key key;
    uint64_t handle;
    std::string bytes;
  };
  struct Shard {
    std::list<Entry> lru;  // front = MRU
    std::unordered_map<Key, std::list<Entry>::iterator> map;
    size_t bytes = 0;
  };

  void Erase(Shard& sh, std::list<Entry>::iterator it) {
    sh.bytes -= it->bytes.size();
    sh.map.erase(it->key);
    sh.lru.erase(it);
    ++evictions;
  }

  // Must pick the same shard as ValueLruCache.
  Shard& ShardOf(const Key& key) {
    uint64_t h = key.Hash();
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return table_[h % shards_];
  }

  const size_t shard_capacity_;
  const uint32_t shards_;
  std::vector<Shard> table_;
};

// Drives the cache and the reference with one fixed-seed op stream: every
// Get result and every counter must match after every op.
void RunLruModel(uint32_t shards) {
  constexpr size_t kCapacity = 32 << 10;
  constexpr uint64_t kKeys = 300;
  ValueLruCache cache(kCapacity, shards);
  ListLruModel model(kCapacity, shards);
  Rng rng(20260 + shards);
  std::vector<Key> keys;
  for (uint64_t i = 0; i < kKeys; ++i) {
    // Mixed key lengths, some with interior zero bytes.
    keys.push_back(i % 3 == 0 ? Key::FromInt(i * 977)
                              : Key::FromString("user" + std::to_string(i * 7919) +
                                                std::string(i % 11, 'k')));
  }
  std::vector<uint64_t> handle(kKeys, 0);  // the key's current handle
  uint64_t next_handle = 8;
  for (int op = 0; op < 60000; ++op) {
    // A hot tenth of the keys gets half the ops.
    const uint64_t k = rng.Uniform(rng.Uniform(2) == 0 ? kKeys / 10 : kKeys);
    const uint64_t r = rng.Uniform(100);
    std::string got;
    std::string want;
    if (r < 25) {
      bool hit = cache.Get(keys[k], handle[k], &got);
      ASSERT_EQ(hit, model.Get(keys[k], handle[k], &want)) << "op " << op;
      if (hit) {
        ASSERT_EQ(got, want) << "op " << op;
      }
    } else if (r < 45) {
      bool hit = cache.Get(keys[k], &got);
      ASSERT_EQ(hit, model.Get(keys[k], &want)) << "op " << op;
      if (hit) {
        ASSERT_EQ(got, want) << "op " << op;
      }
    } else if (r < 53) {
      // A stale (older) or never-issued handle.
      uint64_t h = rng.Uniform(2) == 0 && handle[k] > 8 ? handle[k] - 8 : next_handle + 8;
      bool hit = cache.Get(keys[k], h, &got);
      ASSERT_EQ(hit, model.Get(keys[k], h, &want)) << "op " << op;
      ASSERT_FALSE(hit && got != want) << "op " << op;
    } else if (r < 91) {
      // A fresh handle (the index moved on) or a refill of the current one;
      // either way the size is redrawn, so a live entry changes size.
      if (rng.Uniform(4) != 0) {
        handle[k] = next_handle;
        next_handle += 8;
      }
      std::string v = MakeValue(handle[k], 1 + rng.Uniform(640));
      Fill(cache, keys[k], handle[k], v);
      model.Put(keys[k], handle[k], v);
    } else if (r < 93) {
      std::string v = MakeValue(k, kCapacity / shards + 1 + rng.Uniform(64));
      Fill(cache, keys[k], handle[k], v);
      model.Put(keys[k], handle[k], v);
    } else if (r < 98) {
      cache.Invalidate(keys[k]);
      model.Invalidate(keys[k]);
    } else {
      // A window of up to 32 issued handles starting exactly at a live one
      // (evicted); |hi| may be exactly another key's handle (kept).
      const uint64_t lo = handle[k];
      const uint64_t hi = lo + 8 * (1 + rng.Uniform(32));
      cache.EvictHandleRange(lo, hi);
      model.EvictHandleRange(lo, hi);
    }
    ValueCacheStats s = cache.Stats();
    ASSERT_EQ(s.bytes, model.bytes()) << "op " << op;
    ASSERT_EQ(s.entries, model.entries()) << "op " << op;
    ASSERT_EQ(s.hits, model.hits) << "op " << op;
    ASSERT_EQ(s.misses, model.misses) << "op " << op;
    ASSERT_EQ(s.evictions, model.evictions) << "op " << op;
  }
  // Enough churn to recycle slots many times over, and recycled they were:
  // the entry and bucket arrays stay within twice the key universe.
  EXPECT_GT(model.created, 10 * kKeys);
  EXPECT_GT(model.space_evictions, 1000u);  // the LRU order was exercised
  ValueCacheStats s = cache.Stats();
  EXPECT_GT(s.hits, 1000u);
  EXPECT_LE(s.resident_bytes - s.bytes, 2 * kKeys * (64 + 4) + shards * 16 * 4);
}

TEST(ValueLruCacheTest, MatchesListLruModelOneShard) { RunLruModel(1); }

TEST(ValueLruCacheTest, MatchesListLruModelEightShards) { RunLruModel(8); }

TEST(ValueLruCacheTest, ConcurrentOpsWithRangeEviction) {
  // Two threads Get/Put/Invalidate while a third evicts handle ranges. The
  // retired range [kLo, kHi) follows the value log's protocol: writers stop
  // putting its handles, the evictor waits for both to pass a quiescent
  // point (the grace period), then evicts it while they keep running.
  constexpr uint64_t kLo = 1 << 20;
  constexpr uint64_t kHi = 2 << 20;
  constexpr uint64_t kKeys = 512;
  ValueLruCache cache(64 << 10, 8);
  auto value_of = [](uint64_t h) { return MakeValue(h, 8 + h % 509); };
  std::atomic<bool> retired{false};
  std::atomic<bool> done{false};
  std::atomic<int> quiesced{0};
  std::atomic<uint64_t> bad_hits{0};
  RunWorkerThreads(3, [&](uint32_t t) {
    Rng rng(77 + t);
    if (t == 2) {
      for (int round = 0; round < 200; ++round) {
        const uint64_t lo = (4 << 20) + rng.Uniform(1 << 16);
        cache.EvictHandleRange(lo, lo + rng.Uniform(1 << 16));
        if (round == 100) {
          retired.store(true);
          while (quiesced.load() < 2) {
            std::this_thread::yield();
          }
          cache.EvictHandleRange(kLo, kHi);
        }
      }
      done.store(true);
      return;
    }
    bool seen = false;
    std::string out;
    for (uint64_t i = 0; i < 30000 || !done.load(); ++i) {
      if (!seen && retired.load()) {
        seen = true;
        quiesced.fetch_add(1);
      }
      const Key k = Key::FromInt(rng.Uniform(kKeys));
      const uint64_t h = (!seen && rng.Uniform(2) == 0 ? kLo : 4 << 20) +
                         rng.Uniform(1 << 16);
      switch (rng.Uniform(3)) {
        case 0:
          if (cache.Get(k, h, &out) && out != value_of(h)) {
            bad_hits.fetch_add(1);
          }
          break;
        case 1:
          Fill(cache, k, h, value_of(h));
          break;
        default:
          cache.Invalidate(k);
      }
    }
  });
  EXPECT_EQ(bad_hits.load(), 0u);
  uint64_t bytes = 0;
  uint64_t entries = 0;
  uint64_t in_range = 0;
  cache.ForEach([&](const Key&, uint64_t h, std::string_view v) {
    bytes += v.size();
    ++entries;
    in_range += h >= kLo && h < kHi;
    EXPECT_EQ(v, value_of(h));
  });
  EXPECT_EQ(in_range, 0u);
  ValueCacheStats s = cache.Stats();
  EXPECT_EQ(s.bytes, bytes);
  EXPECT_EQ(s.entries, entries);
  EXPECT_LE(s.bytes, 64u << 10);
  EXPECT_GT(entries, 0u);
}

// ---------------------------------------------------------------------------
// PacTree integration
// ---------------------------------------------------------------------------

class PacTreeValueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PacTree::Destroy("ptv_test");
    opts_.name = "ptv_test";
    opts_.pool_id_base = 140;
    opts_.pool_size = 256 << 20;
    opts_.value_storage = true;
    opts_.value_segment_size = 32 << 10;
    opts_.value_cache_bytes = 64 << 10;
    opts_.value_arenas = 1;
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  void TearDown() override {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("ptv_test");
  }

  void Reopen() {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  PacTreeOptions opts_;
  std::unique_ptr<PacTree> tree_;
};

TEST_F(PacTreeValueTest, RoundTripInlineAndLog) {
  // 0..7 B inline, 64 B..4 KiB through the log; same API either way.
  for (size_t len : {0u, 3u, 7u, 64u, 256u, 1024u, 4096u}) {
    Key k = Key::FromInt(len);
    ASSERT_EQ(tree_->InsertValue(k, MakeValue(len, len)), Status::kOk) << len;
  }
  for (size_t len : {0u, 3u, 7u, 64u, 256u, 1024u, 4096u}) {
    Key k = Key::FromInt(len);
    std::string out;
    ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk) << len;
    EXPECT_EQ(out, MakeValue(len, len)) << len;
  }
  PacTreeStats s = tree_->Stats();
  EXPECT_TRUE(s.value_enabled);
  EXPECT_EQ(s.value.appends, 4u);  // only the four over-inline sizes
  // The four log values are cached; resident DRAM counts their entry and
  // bucket arrays on top of the payload.
  EXPECT_EQ(s.value_cache.entries, 4u);
  EXPECT_EQ(s.value_cache.bytes, 64u + 256 + 1024 + 4096);
  EXPECT_GT(s.value_cache.resident_bytes, s.value_cache.bytes);
}

TEST_F(PacTreeValueTest, OverwriteAndRemoveInvalidate) {
  Key k = Key::FromInt(5);
  ASSERT_EQ(tree_->InsertValue(k, MakeValue(1, 300)), Status::kOk);
  std::string out;
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);  // fills the cache
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);  // hits it
  EXPECT_EQ(out, MakeValue(1, 300));

  // Overwrite large->large, then ->inline, then remove: each transition must
  // be visible immediately (no stale cache serve).
  ASSERT_EQ(tree_->InsertValue(k, MakeValue(2, 500)), Status::kExists);
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);
  EXPECT_EQ(out, MakeValue(2, 500));
  ASSERT_EQ(tree_->InsertValue(k, "tiny"), Status::kExists);
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);
  EXPECT_EQ(out, "tiny");
  ASSERT_EQ(tree_->InsertValue(k, MakeValue(3, 900)), Status::kExists);
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);
  EXPECT_EQ(out, MakeValue(3, 900));
  ASSERT_EQ(tree_->Remove(k), Status::kOk);
  EXPECT_EQ(tree_->LookupValue(k, &out), Status::kNotFound);
  // Each replaced log record was marked dead once, and the remove evicted
  // the key's cache entry.
  EXPECT_EQ(tree_->Stats().value.live_bytes, 0u);
  EXPECT_EQ(tree_->value_cache()->Stats().entries, 0u);
}

TEST_F(PacTreeValueTest, ScanValues) {
  const int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) {
    size_t len = (i % 3 == 0) ? 5 : 128 + i;  // inline/log mix
    ASSERT_EQ(tree_->InsertValue(Key::FromInt(i), MakeValue(i, len)),
              Status::kOk);
  }

  std::vector<std::pair<Key, std::string>> scanned;
  EXPECT_EQ(tree_->ScanValues(Key::FromInt(50), 40, &scanned), 40u);
  for (size_t j = 0; j < scanned.size(); ++j) {
    int i = 50 + static_cast<int>(j);
    EXPECT_EQ(scanned[j].first, Key::FromInt(i));
    size_t len = (i % 3 == 0) ? 5 : 128 + i;
    EXPECT_EQ(scanned[j].second, MakeValue(i, len));
  }
}

TEST_F(PacTreeValueTest, OracleWithGcAndEvictions) {
  // Random upserts/removes against an std::map oracle, with inline GC rounds
  // sprinkled in. The tiny cache budget (64 KiB vs ~1 MiB of live values)
  // keeps evictions and refills constant; GC keeps relocating live records.
  Rng rng(20260809);
  std::map<Key, std::string> oracle;
  const int kOps = 4000;
  for (int op = 0; op < kOps; ++op) {
    uint64_t id = rng.Uniform(400);
    Key k = Key::FromInt(id);
    uint64_t dice = rng.Uniform(100);
    if (dice < 70) {
      size_t len = 1 + rng.Uniform(2000);
      if (dice < 10) {
        len = rng.Uniform(kMaxInlineValue + 1);  // inline mix
      }
      std::string v = MakeValue(rng.Next(), len);
      Status s = tree_->InsertValue(k, v);
      ASSERT_TRUE(s == Status::kOk || s == Status::kExists);
      oracle[k] = std::move(v);
    } else if (dice < 85) {
      Status s = tree_->Remove(k);
      EXPECT_EQ(s == Status::kOk, oracle.erase(k) == 1) << "op " << op;
    } else if (dice < 95) {
      std::string out;
      Status s = tree_->LookupValue(k, &out);
      auto it = oracle.find(k);
      if (it == oracle.end()) {
        EXPECT_EQ(s, Status::kNotFound) << "op " << op;
      } else {
        ASSERT_EQ(s, Status::kOk) << "op " << op;
        EXPECT_EQ(out, it->second) << "op " << op;
      }
    } else {
      tree_->CompactValues();
    }
  }
  for (const auto& [k, v] : oracle) {
    std::string out;
    ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);
    EXPECT_EQ(out, v);
  }
  // Full scan agrees with the oracle too (resolved values, ordered).
  std::vector<std::pair<Key, std::string>> scanned;
  tree_->ScanValues(Key::Min(), oracle.size() + 10, &scanned);
  ASSERT_EQ(scanned.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : scanned) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST_F(PacTreeValueTest, ConcurrentReadersVsGc) {
  // Writers churn overwrites (creating garbage), a collector compacts, and
  // readers must always observe some complete write's value -- never torn
  // bytes, never a vanished key. TSan-checked via the tsan label.
  const int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(tree_->InsertValue(Key::FromInt(i), MakeValue(i, 512)),
              Status::kOk);
  }
  RunWorkerThreads(4, [&](uint32_t t) {
    Rng rng(1000 + t);
    if (t == 0) {  // writer
      for (int op = 0; op < 1500; ++op) {
        uint64_t id = rng.Uniform(kKeys);
        uint64_t seed = id * 1000 + rng.Uniform(900);
        ASSERT_EQ(tree_->InsertValue(Key::FromInt(id), MakeValue(seed, 512)),
                  Status::kExists);
      }
    } else if (t == 1) {  // collector + stats poller
      for (int op = 0; op < 300; ++op) {
        tree_->CompactValues();
        // Stats() reads segment append cursors concurrently with writers --
        // the cross-lock read TSan checks against Append's cursor bump.
        tree_->Stats();
      }
    } else {  // readers
      for (int op = 0; op < 3000; ++op) {
        uint64_t id = rng.Uniform(kKeys);
        std::string out;
        ASSERT_EQ(tree_->LookupValue(Key::FromInt(id), &out), Status::kOk);
        ASSERT_EQ(out.size(), 512u);
        // Any complete write for key id has byte 0 == (seed*131+512)&0xff
        // with seed in [id*1000, id*1000+1000) or seed == id; recomputing the
        // whole pattern from the observed first byte proves non-torn bytes.
        bool matched = false;
        for (uint64_t seed = id * 1000; seed < id * 1000 + 1000 && !matched;
             ++seed) {
          if (MakeValue(seed, 512)[0] == out[0]) {
            matched = (out == MakeValue(seed, 512));
          }
        }
        if (!matched) {
          matched = (out == MakeValue(id, 512));  // the initial insert
        }
        ASSERT_TRUE(matched) << "torn or stale-garbage value for key " << id;
      }
    }
  });
  std::string why;
  tree_->DrainSmoLogs();
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

TEST_F(PacTreeValueTest, ReadsNeverOlderThanAckedWritesOrEarlierReads) {
  // Two writers overwrite, remove and re-insert a small key set (each key has
  // one writer, so its writes are numbered in order), two readers resolve it
  // through LookupValue's cache-first path and ScanValues' index-first,
  // handle-checked one (a length-1 scan from the key), and a fifth thread
  // runs GC. Write v of a key is published in acked[] after it returns, and
  // every read publishes the write it returned in seen[]. A read must return a write no older than either as they were
  // when it started: a cache hit may never serve a value the index has
  // moved past.
  constexpr uint64_t kSeed = 20261020;
  constexpr uint64_t kKeys = 8;
  constexpr uint64_t kWritesPerKey = 2000;
  enum : uint8_t { kUnset = 0, kPut = 1, kRemove = 2 };
  // kind[k * kStride + v]: what write v of key k is, stored before it starts.
  constexpr uint64_t kStride = kWritesPerKey + 2;
  std::vector<std::atomic<uint8_t>> kind(kKeys * kStride);
  std::atomic<uint64_t> acked[kKeys];
  std::atomic<uint64_t> seen[kKeys];  // newest put any finished read returned
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(tree_->InsertValue(Key::FromInt(k), VersionedValue(k, 0)), Status::kOk);
    kind[k * kStride].store(kPut);
    acked[k].store(0);
    seen[k].store(0);
  }
  std::atomic<int> writers_left{2};
  std::atomic<uint64_t> violations{0};
  auto report = [&](uint64_t k, const std::string& what) {
    if (violations.fetch_add(1) < 5) {
      ADD_FAILURE() << "seed " << kSeed << ", key " << k << ": " << what;
    }
  };
  RunWorkerThreads(5, [&](uint32_t t) {
    Rng rng(kSeed + t);
    if (t < 2) {  // writer t owns the keys k with k % 2 == t
      std::vector<bool> present(kKeys, true);
      for (uint64_t v = 1; v <= kWritesPerKey; ++v) {
        for (uint64_t k = t; k < kKeys; k += 2) {
          const Key key = Key::FromInt(k);
          const bool remove = present[k] && rng.Uniform(8) == 0;
          kind[k * kStride + v].store(remove ? kRemove : kPut);
          const Status s =
              remove ? tree_->Remove(key) : tree_->InsertValue(key, VersionedValue(k, v));
          const Status want = remove || !present[k] ? Status::kOk : Status::kExists;
          if (s != want) {
            report(k, "write " + std::to_string(v) + " returned " + StatusString(s));
          }
          present[k] = !remove;
          acked[k].store(v, std::memory_order_release);
        }
      }
      writers_left.fetch_sub(1);
    } else if (t < 4) {  // readers
      std::string out;
      std::vector<std::pair<Key, std::string>> scanned;
      while (writers_left.load() > 0) {
        const uint64_t k = rng.Uniform(kKeys);
        const Key key = Key::FromInt(k);
        const uint64_t floor = std::max(acked[k].load(std::memory_order_acquire),
                                        seen[k].load(std::memory_order_acquire));
        Status s;
        if (rng.Uniform(4) != 0) {
          s = tree_->LookupValue(key, &out);
        } else {
          tree_->ScanValues(key, 1, &scanned);
          s = !scanned.empty() && scanned[0].first == key ? Status::kOk : Status::kNotFound;
          if (s == Status::kOk) {
            out = scanned[0].second;
          }
        }
        // The newest write that may have taken effect by now: the in-flight one.
        const uint64_t last = acked[k].load(std::memory_order_acquire) + 1;
        if (s == Status::kNotFound) {
          bool removed = false;
          for (uint64_t v = floor; v <= last && !removed; ++v) {
            removed = kind[k * kStride + v].load() == kRemove;
          }
          if (!removed) {
            report(k, "not found, but no remove among writes " + std::to_string(floor) +
                          ".." + std::to_string(last));
          }
          continue;
        }
        uint64_t r = UINT64_MAX;
        if (s == Status::kOk && out.size() >= sizeof(r)) {
          std::memcpy(&r, out.data(), sizeof(r));
        }
        if (s != Status::kOk || r < floor || r > last ||
            kind[k * kStride + r].load() != kPut || out != VersionedValue(k, r)) {
          report(k, std::string("read ") + StatusString(s) + " write " + std::to_string(r) +
                        ", expected a put among writes " + std::to_string(floor) + ".." +
                        std::to_string(last));
          continue;
        }
        uint64_t prev = seen[k].load();
        while (prev < r && !seen[k].compare_exchange_weak(prev, r)) {
        }
      }
    } else {  // GC rounds relocate live records under the readers
      while (writers_left.load() > 0) {
        tree_->CompactValues();
      }
    }
  });
  EXPECT_EQ(violations.load(), 0u) << "seed " << kSeed;
  for (uint64_t k = 0; k < kKeys; ++k) {
    std::string out;
    const uint64_t v = acked[k].load();
    if (kind[k * kStride + v].load() == kRemove) {
      EXPECT_EQ(tree_->LookupValue(Key::FromInt(k), &out), Status::kNotFound) << k;
    } else {
      ASSERT_EQ(tree_->LookupValue(Key::FromInt(k), &out), Status::kOk) << k;
      EXPECT_EQ(out, VersionedValue(k, v)) << k;
    }
  }
}

TEST_F(PacTreeValueTest, OverwriteEvictsBeforeTheIndexShowsIt) {
  // A writer evicts the key's cache entry while it still holds the data
  // node's lock. Here a fill whose predicate waits holds the key's cache
  // shard, so the writer's eviction waits too; meanwhile an index reader must
  // not see the new handle. Were the eviction after the unlock, it would, and
  // a read could return the new value before a later cache hit the old one.
  const Key k = Key::FromInt(3);
  ASSERT_EQ(tree_->InsertValue(k, MakeValue(1, 300)), Status::kOk);
  uint64_t old_handle = 0;
  ASSERT_EQ(tree_->Lookup(k, &old_handle), Status::kOk);
  std::string out;
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);  // now resident
  std::atomic<bool> holding{false};
  std::atomic<bool> released{false};
  std::atomic<bool> saw_new{false};
  bool saw_new_while_held = false;
  RunWorkerThreads(3, [&](uint32_t t) {
    if (t == 0) {
      bool held = false;
      EXPECT_FALSE(tree_->value_cache()->PutIf(k, old_handle, "unused", [&] {
        held = true;
        holding.store(true);
        const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
        while (!saw_new.load() && std::chrono::steady_clock::now() < until) {
          std::this_thread::yield();
        }
        saw_new_while_held = saw_new.load();
        return false;
      }));
      EXPECT_TRUE(held) << "PutIf did not evaluate its predicate";
      holding.store(true);  // unblocks the other two either way
      released.store(true);
      return;
    }
    while (!holding.load()) {
      std::this_thread::yield();
    }
    if (t == 1) {
      EXPECT_EQ(tree_->InsertValue(k, MakeValue(2, 300)), Status::kExists);
      return;
    }
    while (!released.load()) {
      uint64_t h = 0;
      ASSERT_EQ(tree_->Lookup(k, &h), Status::kOk);
      if (h != old_handle) {
        saw_new.store(true);
        return;
      }
    }
  });
  EXPECT_FALSE(saw_new_while_held) << "the index showed the overwrite before its eviction";
  ASSERT_EQ(tree_->LookupValue(k, &out), Status::kOk);
  EXPECT_EQ(out, MakeValue(2, 300));
}

TEST_F(PacTreeValueTest, ReopenRecoversValues) {
  const int kKeys = 300;
  for (int i = 0; i < kKeys; ++i) {
    size_t len = (i % 5 == 0) ? 4 : 200 + (i % 1000);
    ASSERT_EQ(tree_->InsertValue(Key::FromInt(i), MakeValue(i, len)),
              Status::kOk);
  }
  // Churn some garbage + a GC round so recovery sees compacted segments.
  for (int i = 0; i < kKeys; i += 3) {
    ASSERT_EQ(tree_->InsertValue(Key::FromInt(i), MakeValue(i + 7, 333)),
              Status::kExists);
  }
  tree_->CompactValues();
  Reopen();
  for (int i = 0; i < kKeys; ++i) {
    std::string out;
    ASSERT_EQ(tree_->LookupValue(Key::FromInt(i), &out), Status::kOk) << i;
    if (i % 3 == 0) {
      EXPECT_EQ(out, MakeValue(i + 7, 333));
    } else {
      size_t len = (i % 5 == 0) ? 4 : 200 + (i % 1000);
      EXPECT_EQ(out, MakeValue(i, len));
    }
  }
  // Live counts were rebuilt: the log reports live bytes and GC still works.
  PacTreeStats s = tree_->Stats();
  EXPECT_TRUE(s.value_enabled);
  EXPECT_GT(s.value.live_bytes, 0u);
  tree_->CompactValues();
}

TEST_F(PacTreeValueTest, ValueModeStickyAcrossReopen) {
  // A tree that ever ran with the value tier must reopen with it even when
  // the option is dropped (crash harnesses reopen by name only).
  ASSERT_EQ(tree_->InsertValue(Key::FromInt(1), MakeValue(1, 400)), Status::kOk);
  tree_.reset();
  EpochManager::Instance().DrainAll();
  PacTreeOptions bare;
  bare.name = opts_.name;
  bare.pool_id_base = opts_.pool_id_base;
  bare.pool_size = opts_.pool_size;
  tree_ = PacTree::Open(bare);
  ASSERT_NE(tree_, nullptr);
  std::string out;
  ASSERT_EQ(tree_->LookupValue(Key::FromInt(1), &out), Status::kOk);
  EXPECT_EQ(out, MakeValue(1, 400));
  EXPECT_TRUE(tree_->Stats().value_enabled);
}

}  // namespace
}  // namespace pactree
