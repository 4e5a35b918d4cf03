#include "src/pactree/pactree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/compiler.h"
#include "src/common/failpoint.h"
#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/stats.h"
#include "src/nvm/topology.h"
#include "src/pmem/heap.h"
#include "src/sync/epoch.h"

namespace pactree {
namespace {

class PacTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PacTree::Destroy("pt_test");
    opts_.name = "pt_test";
    opts_.pool_id_base = 100;
    opts_.pool_size = 256 << 20;
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  void TearDown() override {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("pt_test");
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

TEST_F(PacTreeTest, EmptyLookup) {
  uint64_t v;
  EXPECT_EQ(tree_->Lookup(Key::FromInt(1), &v), Status::kNotFound);
  EXPECT_EQ(tree_->Size(), 0u);
}

TEST_F(PacTreeTest, InsertLookupBasic) {
  EXPECT_EQ(tree_->Insert(Key::FromInt(10), 100), Status::kOk);
  uint64_t v = 0;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(10), &v), Status::kOk);
  EXPECT_EQ(v, 100u);
  EXPECT_EQ(tree_->Insert(Key::FromInt(10), 200), Status::kExists);
  ASSERT_EQ(tree_->Lookup(Key::FromInt(10), &v), Status::kOk);
  EXPECT_EQ(v, 200u);
}

TEST_F(PacTreeTest, UpdateRequiresExistence) {
  EXPECT_EQ(tree_->Update(Key::FromInt(5), 1), Status::kNotFound);
  tree_->Insert(Key::FromInt(5), 1);
  EXPECT_EQ(tree_->Update(Key::FromInt(5), 2), Status::kOk);
  uint64_t v;
  tree_->Lookup(Key::FromInt(5), &v);
  EXPECT_EQ(v, 2u);
}

TEST_F(PacTreeTest, RemoveBasic) {
  tree_->Insert(Key::FromInt(1), 1);
  EXPECT_EQ(tree_->Remove(Key::FromInt(1)), Status::kOk);
  EXPECT_EQ(tree_->Remove(Key::FromInt(1)), Status::kNotFound);
  EXPECT_EQ(tree_->Lookup(Key::FromInt(1), nullptr), Status::kNotFound);
}

TEST_F(PacTreeTest, SplitsUnderSequentialLoad) {
  constexpr uint64_t kN = 100000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 7), Status::kOk) << i;
  }
  EXPECT_GT(tree_->Stats().splits, kN / 64) << "node splits must have happened";
  for (uint64_t i = 0; i < kN; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), Status::kOk) << i;
    ASSERT_EQ(v, i + 7);
  }
  EXPECT_EQ(tree_->Size(), kN);
  std::string why;
  tree_->DrainSmoLogs();
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

TEST_F(PacTreeTest, RandomKeysAgainstModel) {
  Rng rng(2024);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 80000; ++i) {
    uint64_t k = rng.Next() >> 16;
    model[k] = i;
    tree_->Insert(Key::FromInt(k), i);
  }
  for (const auto& [k, v] : model) {
    uint64_t got;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(k), &got), Status::kOk) << k;
    ASSERT_EQ(got, v);
  }
  EXPECT_EQ(tree_->Size(), model.size());
}

TEST_F(PacTreeTest, StringKeys) {
  Rng rng(7);
  std::map<std::string, uint64_t> model;
  for (int i = 0; i < 40000; ++i) {
    std::string s = "user" + std::to_string(rng.Uniform(10000000));
    model[s] = i;
    tree_->Insert(Key::FromString(s), i);
  }
  for (const auto& [k, v] : model) {
    uint64_t got;
    ASSERT_EQ(tree_->Lookup(Key::FromString(k), &got), Status::kOk) << k;
    ASSERT_EQ(got, v);
  }
}

// The top of the trie -- the N256 root, the node under 'u', the levels below
// it -- is visited by every "user..." lookup. With a search heap far below the
// modeled read cache's 1 MiB reach, a repeated lookup must find that whole path
// cached. Without chunk coloring the root and the 'u' node sit at the same
// offset of their 1 MiB chunks, share a direct-mapped slot, and evict each
// other on every lookup.
TEST_F(PacTreeTest, HotTriePathStaysInModeledCache) {
  Rng rng(11);
  std::vector<Key> keys;
  for (int i = 0; i < 20000; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "user%019llu",
                  static_cast<unsigned long long>(rng.Next() >> 1));
    keys.push_back(Key::FromString(buf));
    ASSERT_EQ(tree_->Insert(keys.back(), i), Status::kOk);
  }
  tree_->DrainSmoLogs();
  const PmemHeap* search = tree_->search_heap();
  uint64_t live = 0;
  for (uint32_t p = 0; p < search->pool_count(); ++p) {
    live += search->pool(p)->LiveBytes();
  }
  ASSERT_LT(live, 512u << 10) << "the search heap must fit the modeled cache easily";
  auto search_misses = [&] {
    uint64_t m = 0;
    for (uint32_t p = 0; p < search->pool_count(); ++p) {
      m += LocalNvmCounters(search->pool(p)->pool_id()).read_misses.load();
    }
    return m;
  };
  const Key& k = keys[4321];
  uint64_t v = 0;
  ASSERT_EQ(tree_->Lookup(k, &v), Status::kOk);  // warm-up
  const uint64_t before = search_misses();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(tree_->Lookup(k, &v), Status::kOk);
    ASSERT_EQ(v, 4321u);
  }
  EXPECT_EQ(search_misses() - before, 0u);
}

TEST_F(PacTreeTest, ScanMatchesSortedModel) {
  Rng rng(31);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 50000; ++i) {
    uint64_t k = rng.Next() >> 20;
    model[k] = i;
    tree_->Insert(Key::FromInt(k), i);
  }
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t start = rng.Next() >> 20;
    std::vector<std::pair<Key, uint64_t>> out;
    size_t n = tree_->Scan(Key::FromInt(start), 100, &out);
    auto it = model.lower_bound(start);
    size_t expect = 0;
    for (auto jt = it; jt != model.end() && expect < 100; ++jt) {
      expect++;
    }
    ASSERT_EQ(n, expect) << start;
    for (size_t i = 0; i < n; ++i, ++it) {
      ASSERT_EQ(out[i].first.ToInt(), it->first);
      ASSERT_EQ(out[i].second, it->second);
    }
  }
}

// A cold scan over dense integer keys reads each data node's header line and
// the slot lines that hold live slots, never the arena (every key word is
// whole-inline): at most 5 of a node's 8 XPLines.
TEST_F(PacTreeTest, ColdScanReadsLiveExtentOfEachNode) {
  constexpr uint64_t kKeys = 20000;
  // Shuffled inserts spread each node's live slots over its slot lines.
  std::vector<uint64_t> keys(kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    keys[i] = i;
  }
  Rng rng(8);
  for (uint64_t i = kKeys - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Uniform(i + 1)]);
  }
  for (uint64_t k : keys) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(k), k), Status::kOk);
  }
  tree_->DrainSmoLogs();
  const PmemHeap* data = tree_->data_heap();
  auto data_read_bytes = [&] {
    uint64_t b = 0;
    for (uint32_t p = 0; p < data->pool_count(); ++p) {
      b += LocalNvmCounters(data->pool(p)->pool_id()).media_read_bytes.load();
    }
    return b;
  };
  DropThreadReadCache();
  const uint64_t locks = tree_->Stats().node_locks;
  const uint64_t bytes = data_read_bytes();
  std::vector<std::pair<Key, uint64_t>> out;
  ASSERT_EQ(tree_->Scan(Key::Min(), kKeys, &out), kKeys);
  const uint64_t nodes = tree_->Stats().node_locks - locks;
  const uint64_t lines = (data_read_bytes() - bytes) / 256;
  ASSERT_GT(nodes, kKeys / kDataNodeEntries);
  EXPECT_LE(lines, 5 * nodes) << lines << " XPLines over " << nodes << " nodes";
}

// Block-grid coloring seen from the tree: 2 KiB data nodes drawn from eight
// or more chunks put their header lines on all 8 XPLine residues mod 2 KiB
// (on unshifted grids every header sits on residue 0, one eighth of the
// modeled read cache's sets). So a hot set of nodes at the same block index
// in different chunks stays cached: its second pass misses far less.
TEST_F(PacTreeTest, DataNodeHeadersSpreadOverTheReadCache) {
  // Sequential keys leave half-full nodes: ~32 keys each, 511 per chunk, so
  // 150k keys fill about nine chunks.
  constexpr uint64_t kKeys = 150000;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i), Status::kOk);
  }
  tree_->DrainSmoLogs();
  std::vector<std::pair<Key, uintptr_t>> nodes;  // anchor, node address
  tree_->search_layer()->ForEach([&](const Key& anchor, uint64_t raw) {
    nodes.emplace_back(anchor, reinterpret_cast<uintptr_t>(PPtr<void>(raw).get()));
  });
  ASSERT_GT(nodes.size(), 8u * 511);
  std::set<uintptr_t> residues;
  for (const auto& node : nodes) {
    residues.insert(node.second / kXpLineSize % 8);
  }
  EXPECT_EQ(residues.size(), 8u) << "data node headers use only part of the cache's sets";

  // Hot set: every 16th node, a few hundred keys from distinct nodes.
  std::vector<Key> hot;
  for (size_t i = 1; i < nodes.size(); i += 16) {
    hot.push_back(nodes[i].first);
  }
  const PmemHeap* data = tree_->data_heap();
  auto data_misses = [&] {
    uint64_t n = 0;
    for (uint32_t p = 0; p < data->pool_count(); ++p) {
      n += LocalNvmCounters(data->pool(p)->pool_id()).read_misses.load();
    }
    return n;
  };
  DropThreadReadCache();
  for (const Key& k : hot) {
    ASSERT_EQ(tree_->Lookup(k, nullptr), Status::kOk);
  }
  const uint64_t warm = data_misses();
  for (const Key& k : hot) {
    ASSERT_EQ(tree_->Lookup(k, nullptr), Status::kOk);
  }
  const double per_lookup =
      static_cast<double>(data_misses() - warm) / static_cast<double>(hot.size());
  // Unshifted grids miss on both data lines of every hot lookup (2.0); the
  // shifted ones about 0.6.
  EXPECT_LE(per_lookup, 1.0) << hot.size() << " hot nodes";
}

TEST_F(PacTreeTest, MergeOnMassDelete) {
  constexpr uint64_t kN = 50000;
  for (uint64_t i = 0; i < kN; ++i) {
    tree_->Insert(Key::FromInt(i), i);
  }
  for (uint64_t i = 0; i < kN; ++i) {
    if (i % 10 != 0) {
      ASSERT_EQ(tree_->Remove(Key::FromInt(i)), Status::kOk) << i;
    }
  }
  EXPECT_GT(tree_->Stats().merges, 0u) << "merges must trigger on underflow";
  tree_->DrainSmoLogs();
  for (uint64_t i = 0; i < kN; ++i) {
    Status expect = (i % 10 == 0) ? Status::kOk : Status::kNotFound;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), nullptr), expect) << i;
  }
  EXPECT_EQ(tree_->Size(), kN / 10);
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
  // Scans across merged regions stay correct.
  std::vector<std::pair<Key, uint64_t>> out;
  size_t n = tree_->Scan(Key::FromInt(0), 1000, &out);
  ASSERT_EQ(n, 1000u);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i].first.ToInt(), i * 10);
  }
}

TEST_F(PacTreeTest, PersistsAcrossReopen) {
  constexpr uint64_t kN = 30000;
  for (uint64_t i = 0; i < kN; ++i) {
    tree_->Insert(Key::FromInt(i * 3), i);
  }
  Reopen();
  EXPECT_EQ(tree_->Size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i * 3), &v), Status::kOk) << i;
    ASSERT_EQ(v, i);
  }
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
  // And it is still writable.
  tree_->Insert(Key::FromInt(1), 42);
  uint64_t v;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(1), &v), Status::kOk);
  EXPECT_EQ(v, 42u);
}

// A 28-byte string key ("key/" + 24 digits). Against the head node's all-zero
// anchor the shared prefix is empty, so each distinct key costs its whole
// suffix less the 4 inline head bytes: 24 bytes of arena -- integer keys would
// share their leading zero bytes with the anchor and leak almost nothing.
Key ChurnKey(uint64_t i) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "key/%024llu", static_cast<unsigned long long>(i));
  return Key::FromString(buf);
}

TEST_F(PacTreeTest, ArenaChurnCompactsInsteadOfSplitting) {
  // Insert+remove churn of distinct keys leaks dead suffixes in a data
  // node's arena without consuming slots. 16 live keys plus 16 churn cycles,
  // 24 arena bytes each, put the cursor exactly at the 768-byte arena limit
  // (32 x 24) with 48 slots free: the next insert must reclaim via
  // CompactArenaLocked, not split. (This is also the base state of the PacTreeCompactArenaCompaction
  // crash sweep -- this test pins the arithmetic the sweep's premise rests
  // on.)
  for (uint64_t i = 1; i <= 16; ++i) {
    ASSERT_EQ(tree_->Insert(ChurnKey(i), i), Status::kOk);
  }
  for (uint64_t j = 0; j < 16; ++j) {
    ASSERT_EQ(tree_->Insert(ChurnKey(1000 + j), j + 1), Status::kOk);
    ASSERT_EQ(tree_->Remove(ChurnKey(1000 + j)), Status::kOk);
  }
  ASSERT_EQ(tree_->Stats().arena_compactions, 0u);
  ASSERT_EQ(tree_->Insert(ChurnKey(500), 501), Status::kOk);
  EXPECT_GE(tree_->Stats().arena_compactions, 1u);
  EXPECT_EQ(tree_->Stats().splits, 0u);
  for (uint64_t i = 1; i <= 16; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(ChurnKey(i), &v), Status::kOk) << i;
    ASSERT_EQ(v, i);
  }
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

// A 32-byte key: a distinct 4-byte prefix (first byte distinct too, like a
// hash or shard prefix) and a 28-byte remainder common to every key.
Key SharedTailKey(uint64_t i) {
  uint8_t b[Key::kMaxLen];
  b[0] = static_cast<uint8_t>(3 * i + 1);
  b[1] = static_cast<uint8_t>(37 * i);
  b[2] = static_cast<uint8_t>(91 * i);
  b[3] = static_cast<uint8_t>(13 * i);
  std::memset(b + 4, 'r', sizeof(b) - 4);
  return Key::FromBytes(b, sizeof(b));
}

TEST_F(PacTreeTest, SlotFullSplitOfSharedTailKeysFitsTheNewArena) {
  // Under the head node's all-zero anchor each key's inline head holds its
  // prefix and all 64 keys share ONE 28-B arena tail, so the node fills by
  // slot count. Against a split anchor from the set the keys share no bytes:
  // each moved key needs its own 28-B tail, and half the node (31 keys besides
  // the new anchor, 868 B) would overflow a fresh 768-B arena. The split must
  // move fewer keys instead of losing one.
  for (uint64_t i = 0; i < kDataNodeEntries; ++i) {
    ASSERT_EQ(tree_->Insert(SharedTailKey(i), i + 1), Status::kOk) << i;
  }
  ASSERT_EQ(tree_->Stats().splits, 0u);
  ASSERT_EQ(tree_->Insert(SharedTailKey(64), 65), Status::kOk);
  EXPECT_EQ(tree_->Stats().splits, 1u);
  auto check_all = [&] {
    for (uint64_t i = 0; i <= 64; ++i) {
      uint64_t v;
      ASSERT_EQ(tree_->Lookup(SharedTailKey(i), &v), Status::kOk) << i;
      ASSERT_EQ(v, i + 1) << i;
    }
    std::vector<std::pair<Key, uint64_t>> out;
    tree_->Scan(Key::Min(), 100, &out);
    ASSERT_EQ(out.size(), 65u);
    for (uint64_t i = 0; i <= 64; ++i) {
      EXPECT_EQ(out[i].first, SharedTailKey(i)) << i;
      EXPECT_EQ(out[i].second, i + 1) << i;
    }
    EXPECT_EQ(tree_->Size(), 65u);
    std::string why;
    tree_->DrainSmoLogs();
    EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
  };
  check_all();
  Reopen();
  check_all();
}

// The head data node: every key of the single-node trees below lives there.
DataNode* HeadNode(PacTree* tree) {
  uint64_t raw = 0;
  EXPECT_EQ(tree->search_layer()->Lookup(Key::Min(), &raw), Status::kOk);
  return PPtr<DataNode>(raw).get();
}

// An overwrite stores the new value into the key's own slot: Update and an
// overwriting Insert leave the slot index, the bitmap, the fingerprint, the
// key word and the arena cursor as they were.
TEST_F(PacTreeTest, OverwriteKeepsTheSlotRecordAndArena) {
  for (uint64_t i = 1; i <= 8; ++i) {
    ASSERT_EQ(tree_->Insert(ChurnKey(i), i), Status::kOk);
  }
  DataNode* node = HeadNode(tree_.get());
  const Key k = ChurnKey(5);
  const int slot = node->FindKey(k, k.Fingerprint());
  ASSERT_GE(slot, 0);
  const uint64_t bitmap = node->Bitmap();
  const uint64_t kw = node->slots[slot].kw;
  const uint8_t fp = node->fp[slot];
  const uint16_t cursor = node->arena_cursor;
  ASSERT_GT(cursor, 0) << "ChurnKey suffixes are arena-form";
  auto expect_in_place = [&](uint64_t want) {
    EXPECT_EQ(node->FindKey(k, k.Fingerprint()), slot);
    EXPECT_EQ(node->Bitmap(), bitmap);
    EXPECT_EQ(node->slots[slot].kw, kw);
    EXPECT_EQ(node->fp[slot], fp);
    EXPECT_EQ(node->arena_cursor, cursor);
    uint64_t v = 0;
    ASSERT_EQ(tree_->Lookup(k, &v), Status::kOk);
    EXPECT_EQ(v, want);
  };
  ASSERT_EQ(tree_->Update(k, 555), Status::kOk);
  expect_in_place(555);
  ASSERT_EQ(tree_->Insert(k, 556), Status::kExists);
  expect_in_place(556);
  EXPECT_EQ(tree_->Stats().splits, 0u);
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

// A node with all 64 slots live takes overwrites without a split: they need
// no free slot.
TEST_F(PacTreeTest, OverwriteInAFullNodeDoesNotSplit) {
  for (uint64_t i = 1; i <= kDataNodeEntries; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i), Status::kOk);
  }
  ASSERT_EQ(HeadNode(tree_.get())->CountLive(), 64);
  ASSERT_EQ(tree_->Stats().splits, 0u);
  for (uint64_t round = 0; round < 3; ++round) {
    for (uint64_t i = 1; i <= kDataNodeEntries; ++i) {
      ASSERT_EQ(tree_->Update(Key::FromInt(i), 1000 * round + i), Status::kOk);
      ASSERT_EQ(tree_->Insert(Key::FromInt(i), 2000 * round + i), Status::kExists);
    }
  }
  EXPECT_EQ(tree_->Stats().splits, 0u);
  for (uint64_t i = 1; i <= kDataNodeEntries; ++i) {
    uint64_t v = 0;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), Status::kOk);
    EXPECT_EQ(v, 4000 + i);
  }
}

// A value-GC handle swing is an in-place overwrite too, so it allocates
// nothing: it succeeds in a full node while every pool allocation on the
// collecting thread fails.
TEST_F(PacTreeTest, ValueGcSwingSucceedsWhileAllocationFails) {
  tree_.reset();
  EpochManager::Instance().DrainAll();
  PacTree::Destroy(opts_.name);
  opts_.value_storage = true;
  opts_.value_segment_size = 32 << 10;  // ~31 records of 1 KiB per segment
  opts_.value_arenas = 1;
  opts_.async_search_update = false;  // no GC service: the test drives GC
  tree_ = PacTree::Open(opts_);
  ASSERT_NE(tree_, nullptr);
  auto big = [](uint64_t seed) { return std::string(1000, static_cast<char>('a' + seed % 26)); };
  // Key 1 holds the one live record of the first segment; keys 2..64 fill
  // the head node. Overwriting key 2 with log records fills that segment
  // with dead copies, seals it and leaves a second segment with room.
  ASSERT_EQ(tree_->InsertValue(Key::FromInt(1), big(1)), Status::kOk);
  for (uint64_t i = 2; i <= kDataNodeEntries; ++i) {
    ASSERT_EQ(tree_->InsertValue(Key::FromInt(i), "v"), Status::kOk);
  }
  for (uint64_t r = 0; r < 35; ++r) {
    ASSERT_EQ(tree_->InsertValue(Key::FromInt(2), big(r)), Status::kExists);
  }
  ASSERT_EQ(HeadNode(tree_.get())->CountLive(), 64);
  ASSERT_EQ(tree_->Stats().splits, 0u);
  uint64_t old_handle = 0;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(1), &old_handle), Status::kOk);

  FailPoints::Arm("pmem/alloc", FailPointTrigger::EveryNth(1));
  const size_t items = tree_->CompactValues();
  const uint64_t failed_allocs = FailPoints::TriggerCount("pmem/alloc");
  FailPoints::Disarm("pmem/alloc");

  EXPECT_EQ(failed_allocs, 0u) << "the pass tried to allocate";
  const PacTreeStats st = tree_->Stats();
  EXPECT_EQ(st.value.gc_segments_compacted, 1u);
  EXPECT_EQ(items, 2u) << "one record relocated, one segment retired";
  EXPECT_EQ(st.splits, 0u);
  uint64_t new_handle = 0;
  ASSERT_EQ(tree_->Lookup(Key::FromInt(1), &new_handle), Status::kOk);
  EXPECT_NE(new_handle, old_handle);
  std::string got;
  ASSERT_EQ(tree_->LookupValue(Key::FromInt(1), &got), Status::kOk);
  EXPECT_EQ(got, big(1));
  ASSERT_EQ(tree_->LookupValue(Key::FromInt(2), &got), Status::kOk);
  EXPECT_EQ(got, big(34));
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

// Two updaters overwrite a few hot keys (Update and overwriting Insert)
// while two readers look them up and scan them: every value read is one
// some writer wrote to that key. A value carries its key in the high half.
TEST_F(PacTreeTest, ConcurrentOverwritesReadWrittenValues) {
  constexpr uint64_t kHot = 6;
  constexpr uint64_t kWrites = 20000;
  auto tag = [](uint64_t key, uint64_t writer, uint64_t seq) {
    return key << 32 | writer << 24 | seq;
  };
  for (uint64_t k = 1; k <= kHot; ++k) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(k), tag(k, 0, 0)), Status::kOk);
  }
  auto written = [&](uint64_t key, uint64_t v) {
    return v >> 32 == key && (v >> 24 & 0xff) <= 2 && (v & 0xffffff) < kWrites;
  };
  std::atomic<int> writers_left{2};
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (uint64_t w = 1; w <= 2; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(w);
      for (uint64_t seq = 0; seq < kWrites; ++seq) {
        const uint64_t k = 1 + rng.Uniform(kHot);
        const Status s = seq % 2 == 0 ? tree_->Update(Key::FromInt(k), tag(k, w, seq))
                                      : tree_->Insert(Key::FromInt(k), tag(k, w, seq));
        if (s != (seq % 2 == 0 ? Status::kOk : Status::kExists)) {
          bad.fetch_add(1);
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (uint64_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(100 + r);
      std::vector<std::pair<Key, uint64_t>> out;
      do {
        const uint64_t k = 1 + rng.Uniform(kHot);
        uint64_t v = 0;
        if (tree_->Lookup(Key::FromInt(k), &v) != Status::kOk || !written(k, v)) {
          bad.fetch_add(1);
        }
        if (tree_->Scan(Key::FromInt(1), kHot, &out) != kHot) {
          bad.fetch_add(1);
        }
        for (const auto& [key, value] : out) {
          if (!written(key.ToInt(), value)) {
            bad.fetch_add(1);
          }
        }
        reads.fetch_add(1);
      } while (writers_left.load() > 0);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(tree_->Stats().splits, 0u);
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

// Media write bytes of an upsert-heavy stream over a bounded key set (30k
// upserts, ~2k distinct keys), data and log heaps together. A fresh key
// fills a slot and publishes the bitmap: its slot line and its header line.
// An overwrite stores its slot's value word in place: at most its slot line.
TEST_F(PacTreeTest, UpsertStreamWritesOverwritesInPlace) {
  constexpr uint64_t kN = 30000;
  constexpr uint64_t kDomain = 2000;
  Rng rng(99);
  std::vector<uint64_t> keys(kN);
  std::set<uint64_t> seen;
  for (auto& k : keys) {
    k = rng.Uniform(kDomain);
    seen.insert(k);
  }
  const uint64_t distinct = seen.size();

  tree_.reset();
  EpochManager::Instance().DrainAll();
  PacTree::Destroy(opts_.name);
  opts_.async_search_update = false;  // deterministic: no background services
  tree_ = PacTree::Open(opts_);
  ASSERT_NE(tree_, nullptr);
  const uint64_t data0 = tree_->data_heap()->MediaStats().media_write_bytes;
  const uint64_t log0 = tree_->log_heap()->MediaStats().media_write_bytes;
  for (uint64_t k : keys) {
    tree_->Insert(Key::FromInt(k), k);
  }
  const uint64_t written = tree_->data_heap()->MediaStats().media_write_bytes - data0 +
                           tree_->log_heap()->MediaStats().media_write_bytes - log0;
  EXPECT_EQ(tree_->Size(), distinct);
  EXPECT_LE(written, distinct * 2 * kXpLineSize + (kN - distinct) * kXpLineSize)
      << "overwrites must write in place";
}

// Every byte of the index's pool files (single pool per heap).
std::vector<std::string> ReadPoolFiles(const std::string& name) {
  std::vector<std::string> files;
  for (const char* heap : {".search", ".data", ".log"}) {
    std::ifstream in(NvmConfig::DefaultPoolDir() + "/" + name + heap + ".0.pool",
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << name << heap;
    files.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

TEST_F(PacTreeTest, RefusesOtherLayoutPoolsAndLeavesFilesUntouched) {
  // A pool whose root carries another layout's magic must fail Open with a
  // status naming it and keep every byte of every pool file: "PACTREE1"
  // pools hold 48-B ArtLeaf search-layer records this build would misread
  // as data nodes, "PACTREE2" compact nodes keep values, descriptors and
  // suffixes where this build's 16-B slot records are, "PACTREE3" records
  // hold a 4-B descriptor and 4 head bytes where this build reads one key
  // word, "PACTREE4" nodes carry a format byte and may be 3072-B full-key
  // nodes, "PACTREE5" roots hold op-log rings of a DRAM write buffer whose
  // acked ops nothing in this build would replay, and an unknown magic is a
  // corrupt root, not a fresh pool. A pool of layout version 1 put its data
  // nodes on unshifted chunk grids, where this build would look for them one
  // shift too far.
  PacTreeOptions o = opts_;
  o.name = "pt_layout";
  o.pool_size = 16 << 20;
  o.per_numa_pools = false;
  PacTree::Destroy(o.name);
  {
    auto t = PacTree::Open(o);
    ASSERT_NE(t, nullptr);
    for (uint64_t i = 0; i < 1000; ++i) {
      ASSERT_EQ(t->Insert(Key::FromInt(i), i), Status::kOk);
    }
  }
  EpochManager::Instance().DrainAll();
  uint64_t fresh_magic = 0;
  ASSERT_EQ(PmemHeap::PeekRoot(o.name + ".data", &fresh_magic), Status::kOk);
  EXPECT_EQ(fresh_magic, 0x3645455254434150ULL);  // "PACTREE6"
  struct Row {
    uint32_t pool_layout;
    uint64_t magic;
    Status want;
  };
  const Row rows[] = {
      {kPoolLayoutVersion, 0x3145455254434150ULL, Status::kOldLayout},  // "PACTREE1"
      {kPoolLayoutVersion, 0x3245455254434150ULL, Status::kOldLayout},  // "PACTREE2"
      {kPoolLayoutVersion, 0x3345455254434150ULL, Status::kOldLayout},  // "PACTREE3"
      {kPoolLayoutVersion, 0x3445455254434150ULL, Status::kOldLayout},  // "PACTREE4"
      {kPoolLayoutVersion, 0x3545455254434150ULL, Status::kOldLayout},  // "PACTREE5"
      {kPoolLayoutVersion, 0x0123456789abcdefULL, Status::kCorrupted},
      {1, 0x3645455254434150ULL, Status::kOldLayout},  // "PACTREE6" root, layout 1
  };
  for (const auto& [pool_layout, magic, want] : rows) {
    {
      PmemHeapOptions h;
      h.pool_size = o.pool_size;
      h.single_pool = true;
      h.pool_id_base = static_cast<uint16_t>(o.pool_id_base + 8);
      auto data = PmemHeap::OpenOrCreate(o.name + ".data", h);
      ASSERT_NE(data, nullptr);
      uint64_t* root_magic = data->Root<uint64_t>();  // PacRoot's first word
      *root_magic = magic;
      PersistFence(root_magic, sizeof(uint64_t));
    }
    if (pool_layout != kPoolLayoutVersion) {
      for (const char* heap : {".search", ".data", ".log"}) {
        std::fstream f(NvmConfig::DefaultPoolDir() + "/" + o.name + heap + ".0.pool",
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.is_open()) << heap;
        f.seekp(offsetof(PoolHeader, layout_version));
        f.write(reinterpret_cast<const char*>(&pool_layout), sizeof(pool_layout));
      }
    }
    std::vector<std::string> before = ReadPoolFiles(o.name);
    Status st = Status::kOk;
    EXPECT_EQ(PacTree::Open(o, &st), nullptr);
    EXPECT_EQ(st, want) << StatusString(st);
    EXPECT_TRUE(ReadPoolFiles(o.name) == before) << "a refused open wrote to the pool";
  }
  PacTree::Destroy(o.name);
}

TEST_F(PacTreeTest, SyncSearchLayerMode) {
  tree_.reset();
  PacTree::Destroy("pt_test");
  opts_.async_search_update = false;
  tree_ = PacTree::Open(opts_);
  ASSERT_NE(tree_, nullptr);
  for (uint64_t i = 0; i < 30000; ++i) {
    tree_->Insert(Key::FromInt(i), i);
  }
  for (uint64_t i = 0; i < 30000; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), Status::kOk);
  }
  // In sync mode every lookup should land directly on the target node.
  auto stats = tree_->Stats();
  EXPECT_GT(stats.jump_hops[0], 0u);
}

TEST_F(PacTreeTest, DramSearchLayerModeSurvivesReopenByRebuild) {
  tree_.reset();
  PacTree::Destroy("pt_test");
  opts_.dram_search_layer = true;
  tree_ = PacTree::Open(opts_);
  ASSERT_NE(tree_, nullptr);
  for (uint64_t i = 0; i < 20000; ++i) {
    tree_->Insert(Key::FromInt(i), i);
  }
  tree_.reset();
  EpochManager::Instance().DrainAll();
  tree_ = PacTree::Open(opts_);
  ASSERT_NE(tree_, nullptr);
  for (uint64_t i = 0; i < 20000; i += 91) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i), &v), Status::kOk) << i;
  }
  EXPECT_EQ(tree_->Size(), 20000u);
}

TEST_F(PacTreeTest, NonSelectivePersistenceMode) {
  tree_.reset();
  PacTree::Destroy("pt_test");
  opts_.selective_persistence = false;
  tree_ = PacTree::Open(opts_);
  ASSERT_NE(tree_, nullptr);
  for (uint64_t i = 0; i < 10000; ++i) {
    tree_->Insert(Key::FromInt(i), i);
  }
  std::vector<std::pair<Key, uint64_t>> out;
  EXPECT_EQ(tree_->Scan(Key::FromInt(100), 50, &out), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(out[i].first.ToInt(), 100 + i);
  }
}

TEST_F(PacTreeTest, JumpHopsObservedUnderAsyncUpdates) {
  // Heavy sequential inserts outpace the updater (worst case for the async
  // design); the jump-node fix-up must absorb the inconsistency.
  for (uint64_t i = 0; i < 100000; ++i) {
    tree_->Insert(Key::FromInt(i), i);
  }
  auto s = tree_->Stats();
  uint64_t total = s.jump_hops[0] + s.jump_hops[1] + s.jump_hops[2] + s.jump_hops[3];
  EXPECT_GT(total, 0u);
  // Once the search layer catches up, lookups land directly on the target.
  tree_->DrainSmoLogs();
  auto before = tree_->Stats();
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t v;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(i * 97 % 100000), &v), Status::kOk);
  }
  auto after = tree_->Stats();
  EXPECT_EQ(after.jump_hops[0] - before.jump_hops[0], 1000u)
      << "all post-drain lookups must be direct (paper §6.7)";
}

TEST_F(PacTreeTest, ConcurrentInsertLookup) {
  constexpr int kWriters = 3;
  constexpr uint64_t kPerThread = 30000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t k = i * kWriters + t;
        tree_->Insert(Key::FromInt(k), k);
      }
    });
  }
  std::atomic<bool> fail{false};
  std::thread reader([&] {
    Rng rng(5);
    for (int i = 0; i < 50000; ++i) {
      uint64_t k = rng.Uniform(kPerThread * kWriters);
      uint64_t v;
      if (tree_->Lookup(Key::FromInt(k), &v) == Status::kOk && v != k) {
        fail.store(true);
      }
    }
  });
  for (auto& th : threads) {
    th.join();
  }
  reader.join();
  EXPECT_FALSE(fail.load());
  EXPECT_EQ(tree_->Size(), kPerThread * kWriters);
  tree_->DrainSmoLogs();
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

TEST_F(PacTreeTest, ConcurrentMixedOpsInvariants) {
  constexpr uint64_t kSpace = 40000;
  for (uint64_t i = 0; i < kSpace; i += 2) {
    tree_->Insert(Key::FromInt(i), i);
  }
  std::vector<std::thread> threads;
  std::atomic<bool> fail{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 100);
      std::vector<std::pair<Key, uint64_t>> out;
      for (int i = 0; i < 20000; ++i) {
        uint64_t k = rng.Uniform(kSpace);
        switch (rng.Uniform(5)) {
          case 0:
            tree_->Insert(Key::FromInt(k), k);
            break;
          case 1:
            tree_->Remove(Key::FromInt(k));
            break;
          case 2: {
            tree_->Scan(Key::FromInt(k), 20, &out);
            for (size_t j = 1; j < out.size(); ++j) {
              if (!(out[j - 1].first < out[j].first)) {
                fail.store(true);
              }
            }
            break;
          }
          default: {
            uint64_t v;
            if (tree_->Lookup(Key::FromInt(k), &v) == Status::kOk && v != k) {
              fail.store(true);
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(fail.load());
  tree_->DrainSmoLogs();
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

// A 29-B key whose bytes after the first few differ from any anchor's, and
// whose arena tail (the suffix past its 4 head bytes) is distinct per key.
Key LongSuffixKey(uint64_t i) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "s%05llu-long-string-tail-%05llu",
                static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(i));
  return Key::FromString(buf);
}

// Scanners over long-suffix string keys race writers whose inserts and
// removes fill the nodes' arenas with dead tails, so inserts compact arenas
// and split nodes under the scanners. Every scan must start at or after its
// start key, be strictly ascending, and carry the value that names each key.
TEST_F(PacTreeTest, ConcurrentStringScansRaceArenaCompactions) {
  constexpr uint64_t kSpace = 6000;
  for (uint64_t i = 0; i < kSpace; i += 2) {
    ASSERT_EQ(tree_->Insert(LongSuffixKey(i), i), Status::kOk);
  }
  std::atomic<int> writers_left{2};
  std::atomic<bool> fail{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 300);
      for (int i = 0; i < 15000; ++i) {
        const uint64_t k = rng.Uniform(kSpace);
        if (rng.Uniform(2) == 0) {
          tree_->Insert(LongSuffixKey(k), k);
        } else {
          tree_->Remove(LongSuffixKey(k));
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 400);
      std::vector<std::pair<Key, uint64_t>> out;
      while (writers_left.load() > 0) {
        const Key start = LongSuffixKey(rng.Uniform(kSpace));
        tree_->Scan(start, 40, &out);
        for (size_t j = 0; j < out.size(); ++j) {
          if (out[j].first < start || out[j].second >= kSpace ||
              out[j].first != LongSuffixKey(out[j].second) ||
              (j > 0 && !(out[j - 1].first < out[j].first))) {
            fail.store(true);
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(fail.load());
  EXPECT_GT(tree_->Stats().arena_compactions, 0u);
  tree_->DrainSmoLogs();
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

TEST_F(PacTreeTest, ReopenAfterMixedWorkloadPreservesEverything) {
  Rng rng(55);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 50000; ++i) {
    uint64_t k = rng.Uniform(100000);
    if (rng.Uniform(4) == 0) {
      model.erase(k);
      tree_->Remove(Key::FromInt(k));
    } else {
      model[k] = i;
      tree_->Insert(Key::FromInt(k), i);
    }
  }
  Reopen();
  EXPECT_EQ(tree_->Size(), model.size());
  for (const auto& [k, v] : model) {
    uint64_t got;
    ASSERT_EQ(tree_->Lookup(Key::FromInt(k), &got), Status::kOk) << k;
    ASSERT_EQ(got, v);
  }
  // Scan equivalence.
  std::vector<std::pair<Key, uint64_t>> out;
  tree_->Scan(Key::Min(), model.size() + 10, &out);
  ASSERT_EQ(out.size(), model.size());
  auto it = model.begin();
  for (size_t i = 0; i < out.size(); ++i, ++it) {
    ASSERT_EQ(out[i].first.ToInt(), it->first);
  }
}

}  // namespace
}  // namespace pactree
