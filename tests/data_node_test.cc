#include "src/pactree/data_node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/stats.h"
#include "src/nvm/topology.h"
#include "src/pmem/heap.h"
#include "src/pmem/registry.h"

namespace pactree {
namespace {

class DataNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PmemHeap::Destroy("dn_test");
    PmemHeapOptions opts;
    opts.pool_id_base = 80;
    opts.pool_size = 16 << 20;
    heap_ = PmemHeap::OpenOrCreate("dn_test", opts);
    ASSERT_NE(heap_, nullptr);
    node_ = static_cast<DataNode*>(heap_->Alloc(sizeof(DataNode)).get());
    ASSERT_NE(node_, nullptr);
    ResetNode();
  }

  void TearDown() override {
    heap_.reset();
    PmemHeap::Destroy("dn_test");
  }

  void ResetNode(const Key& anchor = Key::Min()) {
    std::memset(static_cast<void*>(node_), 0, sizeof(DataNode));
    node_->anchor = anchor;
  }

  std::unique_ptr<PmemHeap> heap_;
  DataNode* node_ = nullptr;
};

TEST(DataNodeLayoutTest, HeaderSlotsAndArena) {
  EXPECT_EQ(sizeof(DataNode), 2048u);
  EXPECT_EQ(offsetof(DataNode, anchor), 64u);
  EXPECT_EQ(offsetof(DataNode, fp), 128u);
  EXPECT_EQ(offsetof(DataNode, perm), 192u);
  // 64 16-B slot records (value, 8-B key word) right after the header, then
  // the 768-B arena of suffix tails.
  EXPECT_EQ(offsetof(DataNode, slots), 256u);
  EXPECT_EQ(sizeof(DataNode::Slot), 16u);
  EXPECT_EQ(offsetof(DataNode::Slot, value), 0u);
  EXPECT_EQ(offsetof(DataNode::Slot, kw), 8u);
  EXPECT_EQ(kWholeInlineBytes, 7u);
  EXPECT_EQ(kArenaHeadBytes, 4u);
  EXPECT_EQ(offsetof(DataNode, arena), 1280u);
  EXPECT_EQ(kArenaBytes, 768u);
}

TEST_F(DataNodeTest, FillAndFindSlot) {
  Key k = Key::FromInt(1234);
  node_->FillSlot(5, k, k.Fingerprint(), 99);
  EXPECT_EQ(node_->FindKey(k, k.Fingerprint()), -1) << "invisible until bitmap set";
  node_->PublishBitmap(1ULL << 5);
  EXPECT_EQ(node_->FindKey(k, k.Fingerprint()), 5);
  EXPECT_EQ(node_->ValueAt(5), 99u);
  EXPECT_EQ(node_->KeyAt(5), k);
}

TEST_F(DataNodeTest, BitmapIsVisibilityPivot) {
  Key a = Key::FromInt(1);
  Key b = Key::FromInt(2);
  node_->FillSlot(0, a, a.Fingerprint(), 10);
  node_->FillSlot(1, b, b.Fingerprint(), 20);
  node_->PublishBitmap(0b01);
  EXPECT_GE(node_->FindKey(a, a.Fingerprint()), 0);
  EXPECT_EQ(node_->FindKey(b, b.Fingerprint()), -1);
  node_->PublishBitmap(0b10);  // one atomic store flips both (update protocol)
  EXPECT_EQ(node_->FindKey(a, a.Fingerprint()), -1);
  EXPECT_GE(node_->FindKey(b, b.Fingerprint()), 0);
}

TEST_F(DataNodeTest, FindFreeSlotScansBitmap) {
  EXPECT_EQ(node_->FindFreeSlot(), 0);
  node_->PublishBitmap(0b111);
  EXPECT_EQ(node_->FindFreeSlot(), 3);
  node_->PublishBitmap(~0ULL);
  EXPECT_EQ(node_->FindFreeSlot(), -1);
}

TEST_F(DataNodeTest, FingerprintFilterNeverMissesAndRarelyLies) {
  // Property: FindKey(k) finds exactly the slot holding k, for random fills.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    ResetNode();
    int n = 1 + static_cast<int>(rng.Uniform(kDataNodeEntries));
    uint64_t bitmap = 0;
    std::vector<uint64_t> keys;
    for (int i = 0; i < n; ++i) {
      uint64_t kv = rng.Next();
      Key k = Key::FromInt(kv);
      node_->FillSlot(i, k, k.Fingerprint(), kv ^ 0xabc);
      bitmap |= 1ULL << i;
      keys.push_back(kv);
    }
    node_->PublishBitmap(bitmap);
    for (int i = 0; i < n; ++i) {
      Key k = Key::FromInt(keys[i]);
      int slot = node_->FindKey(k, k.Fingerprint());
      ASSERT_EQ(slot, i);
      ASSERT_EQ(node_->ValueAt(slot), keys[i] ^ 0xabc);
    }
    // Absent keys are not found.
    for (int probe = 0; probe < 16; ++probe) {
      uint64_t kv = rng.Next();
      if (std::find(keys.begin(), keys.end(), kv) != keys.end()) {
        continue;
      }
      Key k = Key::FromInt(kv);
      ASSERT_EQ(node_->FindKey(k, k.Fingerprint()), -1);
    }
  }
}

TEST_F(DataNodeTest, ComputeSortedOrderIsSorted) {
  Rng rng(5);
  uint64_t bitmap = 0;
  // Scatter 40 keys into random slots.
  for (int placed = 0; placed < 40;) {
    int slot = static_cast<int>(rng.Uniform(kDataNodeEntries));
    if (bitmap & (1ULL << slot)) {
      continue;
    }
    Key k = Key::FromInt(rng.Next());
    node_->FillSlot(slot, k, k.Fingerprint(), 0);
    bitmap |= 1ULL << slot;
    placed++;
  }
  node_->PublishBitmap(bitmap);
  uint8_t order[kDataNodeEntries];
  int n = node_->ComputeSortedOrder(order);
  ASSERT_EQ(n, 40);
  for (int i = 1; i < n; ++i) {
    EXPECT_LT(node_->KeyAt(order[i - 1]).Compare(node_->KeyAt(order[i])), 0);
  }
}

TEST_F(DataNodeTest, SimdAndScalarFingerprintMatchAgree) {
  // The AVX2 path and a reference scalar implementation must agree on every
  // candidate set, including fingerprint collisions on non-matching keys
  // (random per-slot fingerprints force both true and false candidates).
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    ResetNode();
    uint64_t bitmap = rng.Next();
    for (size_t i = 0; i < kDataNodeEntries; ++i) {
      Key k = Key::FromInt(rng.Next());
      node_->FillSlot(static_cast<int>(i), k, static_cast<uint8_t>(rng.Next()), 0);
    }
    node_->PublishBitmap(bitmap);
    uint8_t probe_fp = static_cast<uint8_t>(rng.Next());
    Key probe = Key::FromInt(rng.Next());  // almost surely absent
    int simd = node_->FindKey(probe, probe_fp);
    // Scalar reference over the accessor surface.
    int ref = -1;
    for (size_t i = 0; i < kDataNodeEntries; ++i) {
      if ((bitmap >> i & 1) && node_->fp[i] == probe_fp &&
          node_->KeyEquals(static_cast<int>(i), probe)) {
        ref = static_cast<int>(i);
        break;
      }
    }
    ASSERT_EQ(simd, ref);
  }
}

TEST_F(DataNodeTest, SiblingPointerStores) {
  node_->StoreNextPersist(0x1234500);
  node_->StorePrevPersist(0x6789a00);
  EXPECT_EQ(node_->NextRaw(), 0x1234500u);
  EXPECT_EQ(node_->PrevRaw(), 0x6789a00u);
  EXPECT_FALSE(node_->IsDeleted());
}

// Oracle property test: a random churn of fills, republishes (updates), and
// bitmap-clears (removes) against a std::map must stay observationally equal
// through FindKey / KeyAt / ValueAt / ComputeSortedOrder / SortedEntries, with
// periodic arena compactions thrown in. Three key shapes: string keys whose
// 4-B suffix past the anchor sits whole in the key word, string keys with a
// 21-B suffix (the arena fills, so compactions move live tails), and 8-B
// integer keys sharing the anchor's first byte.
TEST_F(DataNodeTest, RandomChurnMatchesMapOracle) {
  // A scan's decode must equal the sorted order plus KeyAt/ValueAt per slot,
  // whether another reader is mid-rebuild of the permutation array (nothing
  // is published), the array is stale (rebuilt and published) or valid
  // (reused).
  auto check_sorted_entries = [&] {
    uint8_t order[kDataNodeEntries];
    const int n = node_->ComputeSortedOrder(order);
    const uint64_t version = node_->lock.ReadLock();
    std::pair<Key, uint64_t> got[kDataNodeEntries];
    auto expect_model = [&] {
      ASSERT_EQ(node_->SortedEntries(version, got), n);
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(got[i].first, node_->KeyAt(order[i])) << i;
        ASSERT_EQ(got[i].second, node_->ValueAt(order[i])) << i;
      }
    };
    node_->perm_version = kPermBuilding;
    expect_model();
    ASSERT_EQ(node_->perm_version, kPermBuilding);
    node_->perm_version = 0;
    expect_model();
    ASSERT_EQ(node_->perm_version, version);
    expect_model();
    // A stale-token publish after a bitmap change: a current reader publishes
    // the new order, then a reader still holding |version| rebuilds over it.
    // It must decode the current state and leave nothing published, so the
    // next current reader gets the new order.
    if (n > 0) {
      const uint64_t old_bitmap = node_->Bitmap();
      node_->lock.WriteLock();
      node_->PublishBitmap(old_bitmap & ~(1ULL << order[0]));
      node_->lock.WriteUnlock();
      const uint64_t now = node_->lock.ReadLock();
      ASSERT_EQ(node_->SortedEntries(now, got), n - 1);
      ASSERT_EQ(node_->perm_version, now);
      ASSERT_EQ(node_->SortedEntries(version, got), n - 1);
      ASSERT_EQ(node_->perm_version, 0u);
      ASSERT_EQ(node_->SortedEntries(now, got), n - 1);
      for (int i = 1; i < n; ++i) {
        ASSERT_EQ(got[i - 1].first, node_->KeyAt(order[i])) << i;
        ASSERT_EQ(got[i - 1].second, node_->ValueAt(order[i])) << i;
      }
      node_->lock.WriteLock();
      node_->PublishBitmap(old_bitmap);
    } else {
      node_->lock.WriteLock();
    }
    // A writer's lock release makes the published order stale.
    node_->lock.WriteUnlock();
  };
  for (int shape = 0; shape < 3; ++shape) {
    SCOPED_TRACE(shape);
    Rng rng(42);
    const Key anchor = shape == 2 ? Key::FromInt(0x5a10203040506071ULL)
                                  : Key::FromString("user/0000/");
    ResetNode(anchor);
    auto key_of = [&](uint32_t u) {
      if (shape == 2) {
        return Key::FromInt(0x5a80000000000001ULL + (uint64_t{u} << 28) + u);
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf),
                    shape == 0 ? "user/0000/%04u" : "user/0000/arena-tail-bytes-%04u",
                    u);
      return Key::FromString(buf);
    };
    std::map<Key, uint64_t> oracle;
    std::map<Key, int> slot_of;
    uint64_t bitmap = 0;
    for (int step = 0; step < 4000; ++step) {
      const uint32_t op = static_cast<uint32_t>(rng.Uniform(10));
      Key k = key_of(static_cast<uint32_t>(rng.Uniform(300)));
      if (op < 6) {  // upsert
        if (bitmap == ~0ULL || !node_->SuffixRoomFor(k)) {
          if (node_->CompactArenaLocked() == 0 || !node_->SuffixRoomFor(k)) {
            continue;  // a real writer would split here
          }
        }
        if (bitmap == ~0ULL) {
          continue;
        }
        int free = __builtin_ctzll(~bitmap);
        node_->FillSlot(free, k, k.Fingerprint(), rng.Next());
        uint64_t bm = bitmap | (1ULL << free);
        auto it = slot_of.find(k);
        if (it != slot_of.end()) {
          bm &= ~(1ULL << it->second);  // update protocol: both bits flip at once
        }
        node_->PublishBitmap(bm);
        bitmap = bm;
        oracle[k] = node_->ValueAt(free);
        slot_of[k] = free;
      } else if (op < 8) {  // remove
        auto it = slot_of.find(k);
        if (it == slot_of.end()) {
          continue;
        }
        bitmap &= ~(1ULL << it->second);
        node_->PublishBitmap(bitmap);
        oracle.erase(k);
        slot_of.erase(it);
      } else {  // compaction at an arbitrary point must be invisible to readers
        node_->CompactArenaLocked();
      }
      if (step % 97 == 0 || step == 3999) {
        // Full oracle check.
        ASSERT_EQ(static_cast<size_t>(node_->CountLive()), oracle.size());
        for (const auto& [ok, ov] : oracle) {
          int slot = node_->FindKey(ok, ok.Fingerprint());
          ASSERT_GE(slot, 0) << ok.ToString();
          ASSERT_EQ(node_->KeyAt(slot), ok);
          ASSERT_EQ(node_->ValueAt(slot), ov);
        }
        uint8_t order[kDataNodeEntries];
        int n = node_->ComputeSortedOrder(order);
        ASSERT_EQ(static_cast<size_t>(n), oracle.size());
        auto oit = oracle.begin();
        for (int i = 0; i < n; ++i, ++oit) {
          ASSERT_EQ(node_->KeyAt(order[i]), oit->first);
        }
        check_sorted_entries();
        if (HasFatalFailure()) {
          return;
        }
      }
    }
    // The shapes cover both key-word forms: only the long suffixes use the
    // arena.
    EXPECT_EQ(node_->arena_cursor != 0, shape == 1);
  }
}

// The media cost of a cold scan of one node (SortedEntries), read off the
// pool's counters: the header line, each slot line holding a live slot, and
// the arena below its cursor.
TEST_F(DataNodeTest, ColdScanReadsLiveExtentOnly) {
  const NvmThreadCounters& c = LocalNvmCounters(ToPPtr(node_).pool());
  // Fills |slots| with |keys| and returns the XPLines a cold scan reads.
  auto cold_scan_lines = [&](const Key& anchor, const std::vector<int>& slots,
                             const std::vector<Key>& keys) -> uint64_t {
    ResetNode(anchor);
    uint64_t bitmap = 0;
    for (size_t i = 0; i < slots.size(); ++i) {
      EXPECT_TRUE(node_->SuffixRoomFor(keys[i]));
      node_->FillSlot(slots[i], keys[i], keys[i].Fingerprint(), i);
      bitmap |= 1ULL << slots[i];
    }
    node_->PublishBitmap(bitmap);
    DropThreadReadCache();
    const uint64_t misses = c.read_misses.load();
    const uint64_t bytes = c.media_read_bytes.load();
    std::pair<Key, uint64_t> got[kDataNodeEntries];
    EXPECT_EQ(node_->SortedEntries(node_->lock.ReadLock(), got),
              static_cast<int>(slots.size()));
    std::vector<Key> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(got[i].first, sorted[i]) << i;
    }
    const uint64_t lines = c.read_misses.load() - misses;
    EXPECT_EQ(c.media_read_bytes.load() - bytes, lines * 256);
    return lines;
  };
  // 8-B integer keys sharing only the anchor's first byte, live in slot
  // lines 0, 1 and 3 (slots 0-15, 16-31, 48-63): header + 3 slot lines.
  {
    SCOPED_TRACE("int keys");
    const std::vector<int> slots = {0, 5, 15, 16, 31, 48, 63};
    std::vector<Key> keys;
    for (int s : slots) {
      keys.push_back(Key::FromInt(0x5a80000000000001ULL + (uint64_t(s) << 32)));
    }
    EXPECT_EQ(cold_scan_lines(Key::FromInt(0x5a10203040506071ULL), slots, keys),
              4u);
    EXPECT_EQ(node_->arena_cursor, 0);
  }
  // String keys with distinct 20-B suffixes past "node/" (16 arena bytes
  // each): the header, the live slot lines, and ceil(cursor / 256) arena
  // lines.
  for (const auto& [nkeys, stride] : {std::pair{7, 9}, std::pair{20, 1},
                                      std::pair{32, 2}, std::pair{48, 1}}) {
    SCOPED_TRACE(testing::Message() << nkeys << " keys, slot stride " << stride);
    std::vector<int> slots;
    std::vector<Key> keys;
    uint64_t live = 0;
    for (int i = 0; i < nkeys; ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "node/suffix-tailbytes-%03d", 997 - i);
      slots.push_back(i * stride);
      keys.push_back(Key::FromString(buf));
      live |= 1ULL << (i * stride);
    }
    const uint64_t got = cold_scan_lines(Key::FromString("node/"), slots, keys);
    uint64_t slot_lines = 0;
    for (int l = 0; l < 4; ++l) {
      slot_lines += (live >> (16 * l) & 0xffff) != 0;
    }
    EXPECT_EQ(node_->arena_cursor, nkeys * 16);
    EXPECT_EQ(got, 1 + slot_lines + (node_->arena_cursor + 255) / 256);
    EXPECT_LT(got, 8u);
  }
}

TEST_F(DataNodeTest, ArenaCompactionReclaimsDeadSuffixes) {
  const Key anchor = Key::FromString("k/");
  ResetNode(anchor);
  // Fill 32 slots with distinct 14-byte suffixes, then kill every other slot.
  uint64_t bitmap = 0;
  for (int i = 0; i < 32; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "k/suffix-%05d", i);
    Key k = Key::FromString(buf);
    node_->FillSlot(i, k, k.Fingerprint(), i);
    bitmap |= 1ULL << i;
  }
  node_->PublishBitmap(bitmap);
  const uint16_t before = node_->arena_cursor;
  ASSERT_GT(before, 0);
  uint64_t survivors = 0;
  for (int i = 0; i < 32; i += 2) {
    survivors |= 1ULL << i;
  }
  node_->PublishBitmap(survivors);
  const size_t reclaimed = node_->CompactArenaLocked();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(node_->arena_cursor, before);
  // Survivors read back exactly, through descriptors that were swung.
  for (int i = 0; i < 32; i += 2) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "k/suffix-%05d", i);
    Key k = Key::FromString(buf);
    ASSERT_EQ(node_->FindKey(k, k.Fingerprint()), i);
    ASSERT_EQ(node_->KeyAt(i), k);
  }
}

// The overwrite protocol: a live key's new value is stored into its own
// slot's value word, one 8-B store persisted by one flush and one fence. The
// record, the fingerprint, the arena and the bitmap never change, so update
// churn neither consumes slots nor leaks arena tails.
TEST_F(DataNodeTest, OverwriteChurnStoresTheValueWordInPlace) {
  const Key anchor = Key::FromString("a/");
  ResetNode(anchor);
  Key k = Key::FromString("a/the-same-long-suffix-bytes");
  node_->FillSlot(0, k, k.Fingerprint(), 0);
  node_->PublishBitmap(1);
  const DataNode::Slot record = node_->slots[0];
  const uint8_t fp = node_->fp[0];
  const uint16_t cursor = node_->arena_cursor;
  ASSERT_GT(cursor, 0) << "the key is arena-form";
  NvmThreadCounters& pool = LocalNvmCounters(heap_->pool(0)->pool_id());
  const uint64_t flushes = pool.flushes.load();
  const uint64_t fences = LocalNvmCounters().fences.load();
  for (uint64_t round = 1; round <= 200; ++round) {
    node_->StoreValuePersist(0, round);
    ASSERT_EQ(node_->ValueAt(0), round);
  }
  EXPECT_EQ(pool.flushes.load() - flushes, 200u);
  EXPECT_EQ(LocalNvmCounters().fences.load() - fences, 200u);
  EXPECT_EQ(node_->Bitmap(), 1u);
  EXPECT_EQ(node_->slots[0].kw, record.kw);
  EXPECT_EQ(node_->fp[0], fp);
  EXPECT_EQ(node_->arena_cursor, cursor);
  EXPECT_EQ(node_->FindKey(k, k.Fingerprint()), 0);
  EXPECT_EQ(node_->KeyAt(0), k);
}

TEST_F(DataNodeTest, SuffixRoomForReportsSharingAndExhaustion) {
  ResetNode(Key::Min());
  // Burn the arena down to < 28 free bytes with distinct 32-byte keys (28
  // arena bytes each: the first 4 suffix bytes sit in the slot record).
  uint64_t bitmap = 0;
  int slot = 0;
  while (kArenaBytes - node_->arena_cursor >= 28) {
    char buf[33];
    std::snprintf(buf, sizeof(buf), "long-key-%019d-pad", slot);
    Key k = Key::FromBytes(buf, 32);
    ASSERT_TRUE(node_->SuffixRoomFor(k));
    node_->FillSlot(slot, k, k.Fingerprint(), 0);
    bitmap |= 1ULL << slot;
    ++slot;
  }
  node_->PublishBitmap(bitmap);
  // A new 32-byte key no longer fits by cursor...
  Key fresh = Key::FromString("long-key-does-not-fit-anymore!!!");
  ASSERT_EQ(fresh.size(), 32u);
  EXPECT_FALSE(node_->SuffixRoomFor(fresh));
  // ...but a key identical to a live one is admitted via sharing.
  EXPECT_TRUE(node_->SuffixRoomFor(node_->KeyAt(0)));
  // An anchor-equal key (empty suffix) always fits.
  EXPECT_TRUE(node_->SuffixRoomFor(Key::Min()));
}

// Keys of |klen| bytes whose suffix past the anchor is exactly |slen| bytes,
// on both sides of the whole-inline limit (7 B), for every split of a longer
// suffix between the key word's head and the arena tail, and for keys shorter
// than the 7-byte window: each one reads back through KeyAt, matches itself
// in KeyEquals, and is found by FindKey, while keys that differ in one byte
// -- of the suffix's start, of its end, or of the anchor-shared prefix -- are
// not.
TEST_F(DataNodeTest, SuffixLengthsRoundTrip) {
  const std::pair<size_t, size_t> cases[] = {
      {32, 0}, {32, 1}, {32, 3}, {32, 4}, {32, 5}, {32, 6}, {32, 7}, {32, 8},
      {32, 9}, {32, 16}, {32, 28}, {32, 32}, {1, 1}, {3, 3}, {3, 1}, {6, 6},
      {6, 2}};
  for (const auto& [klen, slen] : cases) {
    SCOPED_TRACE(testing::Message() << "klen " << klen << " slen " << slen);
    const std::string anchor_bytes(klen - slen, 'a');
    ResetNode(Key::FromString(anchor_bytes));
    // Neighbours differ from each other in the last suffix byte only; with
    // slen == 0 the anchor itself is the one key.
    const int nkeys = slen == 0 ? 1 : 8;
    std::vector<Key> keys;
    uint64_t bitmap = 0;
    for (int i = 0; i < nkeys; ++i) {
      std::string suffix(slen, 'm');
      if (slen != 0) {
        suffix.back() = static_cast<char>('b' + i);
      }
      Key k = Key::FromString(anchor_bytes + suffix);
      ASSERT_EQ(node_->ArenaNeed(k), slen > 7 ? slen - 4 : 0);
      ASSERT_TRUE(node_->SuffixRoomFor(k));
      node_->FillSlot(3 * i, k, k.Fingerprint(), 100 + i);
      bitmap |= 1ULL << (3 * i);
      keys.push_back(k);
    }
    node_->PublishBitmap(bitmap);
    EXPECT_EQ(node_->arena_cursor, slen > 7 ? 8 * (slen - 4) : 0);
    for (int i = 0; i < nkeys; ++i) {
      const Key& k = keys[i];
      EXPECT_EQ(node_->KeyAt(3 * i), k);
      EXPECT_TRUE(node_->KeyEquals(3 * i, k));
      EXPECT_EQ(node_->FindKey(k, k.Fingerprint()), 3 * i);
      EXPECT_EQ(node_->ValueAt(3 * i), static_cast<uint64_t>(100 + i));
    }
    if (slen == 0) {
      continue;
    }
    // Slot 0's key with one byte changed: the first suffix byte (in the
    // key word), the last one (in the arena tail when the suffix has one),
    // and the last anchor-shared byte (inside the stored 7-byte window when
    // the key is whole-inline). A key one byte shorter is not equal either.
    const std::string key0(keys[0].data(), keys[0].data() + keys[0].size());
    for (size_t at : {anchor_bytes.size(), klen - 1, anchor_bytes.size() - 1}) {
      if (at >= klen) {
        continue;  // no anchor-shared byte when slen == klen
      }
      std::string off = key0;
      off[at] = 'z';
      Key miss = Key::FromString(off);
      EXPECT_FALSE(node_->KeyEquals(0, miss)) << at;
      EXPECT_EQ(node_->FindKey(miss, miss.Fingerprint()), -1) << at;
    }
    Key shorter = Key::FromString(key0.substr(0, klen - 1));
    EXPECT_FALSE(node_->KeyEquals(0, shorter));
  }
}

// A node anchored at a random 8-B integer key and filled with 64 keys
// that share only its first byte (the benchmark's int-key shape): every
// suffix is at most 7 B, so no key touches the arena, and every key still
// reads back through KeyAt, KeyEquals, FindKey and the sorted order.
TEST_F(DataNodeTest, IntKeysLeaveTheArenaEmpty) {
  Rng rng(2204);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    const uint64_t anchor = rng.Next() | 1;
    ResetNode(Key::FromInt(anchor));
    std::map<Key, int> slot_of;
    while (slot_of.size() < kDataNodeEntries) {
      // First byte of the anchor, second byte different: 7-B suffixes.
      uint64_t v = (anchor & 0xff00000000000000ULL) | (rng.Next() >> 8);
      if (((v ^ anchor) >> 48 & 0xff) == 0) {
        v ^= 1ULL << 48;
      }
      Key k = Key::FromInt(v);
      if (slot_of.count(k) != 0) {
        continue;
      }
      const int slot = static_cast<int>(slot_of.size());
      ASSERT_EQ(node_->ArenaNeed(k), 0u);
      node_->FillSlot(slot, k, k.Fingerprint(), v);
      slot_of[k] = slot;
    }
    node_->PublishBitmap(~0ULL);
    EXPECT_EQ(node_->arena_cursor, 0);
    for (const auto& [k, slot] : slot_of) {
      ASSERT_EQ(node_->KeyAt(slot), k);
      ASSERT_TRUE(node_->KeyEquals(slot, k));
      ASSERT_EQ(node_->FindKey(k, k.Fingerprint()), slot);
      ASSERT_EQ(node_->ValueAt(slot), k.ToInt());
    }
    uint8_t order[kDataNodeEntries];
    ASSERT_EQ(node_->ComputeSortedOrder(order), static_cast<int>(kDataNodeEntries));
    auto it = slot_of.begin();
    for (size_t i = 0; i < kDataNodeEntries; ++i, ++it) {
      ASSERT_EQ(order[i], it->second);
    }
  }
}

// The media cost of a cold point hit on a node, read off the pool's
// counters: the header line (what FindDataNode's jump walk reads), the slot
// record's line (key word and value) and, only for a suffix longer than the
// 7 bytes a key word holds whole, one arena line -- nothing else.
TEST_F(DataNodeTest, ColdCompactHitReadsHeaderSlotAndArenaLines) {
  const NvmThreadCounters& c = LocalNvmCounters(ToPPtr(node_).pool());
  // Fills a full node anchored at |anchor| with |keys| and checks that each
  // key with a unique fingerprint costs exactly |lines| XPLines cold.
  auto measure = [&](const Key& anchor, const std::vector<Key>& keys,
                     uint64_t lines) {
    ResetNode(anchor);
    for (int i = 0; i < static_cast<int>(kDataNodeEntries); ++i) {
      ASSERT_TRUE(node_->SuffixRoomFor(keys[i]));
      node_->FillSlot(i, keys[i], keys[i].Fingerprint(), i);
    }
    node_->PublishBitmap(~0ULL);
    int measured = 0;
    for (int i = 0; i < static_cast<int>(kDataNodeEntries); ++i) {
      const Key& k = keys[i];
      // Only keys whose fingerprint is unique in the node: a collision reads
      // the colliding slot too.
      int same_fp = 0;
      for (const Key& o : keys) {
        same_fp += o.Fingerprint() == k.Fingerprint();
      }
      if (same_fp != 1) {
        continue;
      }
      DropThreadReadCache();
      const uint64_t misses = c.read_misses.load();
      const uint64_t bytes = c.media_read_bytes.load();
      const uint64_t prefetches = c.read_prefetches.load();
      AnnotateNvmRead(node_, DataNode::kProbeSpanBytes);
      int slot = node_->FindKey(k, k.Fingerprint());
      ASSERT_EQ(slot, i);
      AnnotateNvmRead(node_->ValueSlot(slot), sizeof(uint64_t));
      ASSERT_EQ(node_->ValueAt(slot), static_cast<uint64_t>(i));
      EXPECT_EQ(c.read_misses.load() - misses, lines);
      EXPECT_EQ(c.media_read_bytes.load() - bytes, lines * 256);
      EXPECT_EQ(c.read_prefetches.load() - prefetches, 0u);
      ++measured;
    }
    EXPECT_GT(measured, 32);
  };
  // Suffixes of 2..12 bytes past "node/". Arena tails (8 and 12 B suffixes:
  // 4 and 8 bytes) are appended from the arena's XPLine-aligned start, so
  // none crosses an XPLine boundary.
  for (size_t slen : {2, 4, 5, 6, 7, 8, 12}) {
    SCOPED_TRACE(slen);
    std::vector<Key> keys;
    for (int i = 0; i < static_cast<int>(kDataNodeEntries); ++i) {
      std::string suffix(slen, 'k');
      suffix[slen - 2] = static_cast<char>('A' + i / 8);
      suffix[slen - 1] = static_cast<char>('A' + i % 8);
      keys.push_back(Key::FromString("node/" + suffix));
    }
    measure(Key::FromString("node/"), keys, slen > kWholeInlineBytes ? 3 : 2);
  }
  // 8-B integer keys sharing only their first byte with an 8-B anchor.
  {
    SCOPED_TRACE("int keys");
    const uint64_t anchor = 0x5a10203040506071ULL;
    std::vector<Key> keys;
    for (uint64_t i = 0; i < kDataNodeEntries; ++i) {
      keys.push_back(Key::FromInt(0x5a80000000000001ULL + (i << 32) + (i << 8)));
      ASSERT_EQ(keys.back().size(), 8u);
    }
    measure(Key::FromInt(anchor), keys, 2);
  }
}

}  // namespace
}  // namespace pactree
