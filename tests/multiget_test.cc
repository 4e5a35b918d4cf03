// Batched read pipeline tests (src/pactree/multiget.cc + the RangeIndex
// default): property check against a std::map oracle, duplicate /
// out-of-order keys, MultiScan vs per-call Scan, pipeline stat counters, a
// crash-sweep-style window proving the batched read path emits zero
// persistence events, and concurrent writers + forced drains (tsan label).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/index/range_index.h"
#include "src/nvm/config.h"
#include "src/nvm/stats.h"
#include "src/nvm/topology.h"
#include "src/pactree/pactree.h"
#include "src/sync/epoch.h"

namespace pactree {
namespace {

class MultiGetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PacTree::Destroy("mget_test");
    opts_.name = "mget_test";
    opts_.pool_id_base = 880;
    opts_.pool_size = 256 << 20;
  }

  void TearDown() override {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("mget_test");
  }

  void Open() {
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  PacTreeOptions opts_;
  std::unique_ptr<PacTree> tree_;
};

// Random upserts/removes mirrored into a std::map, then random batches
// (duplicates, out-of-order, absent keys) checked against both the oracle
// and per-key Lookup.
void RunOracleProperty(PacTree* tree, uint64_t seed) {
  Rng rng(seed);
  std::map<uint64_t, uint64_t> oracle;
  const uint64_t domain = 8000;
  for (uint64_t op = 0; op < 4000; ++op) {
    uint64_t k = rng.Uniform(domain);
    if (rng.Uniform(4) == 0) {
      tree->Remove(Key::FromInt(k));
      oracle.erase(k);
    } else {
      uint64_t v = op + 1;
      tree->Insert(Key::FromInt(k), v);
      oracle[k] = v;
    }
  }
  for (int batch = 0; batch < 200; ++batch) {
    size_t n = 1 + rng.Uniform(33);
    std::vector<Key> keys(n);
    std::vector<uint64_t> picks(n);
    for (size_t i = 0; i < n; ++i) {
      // ~1/8 duplicates of the previous key; picks range over 2x the domain
      // so roughly half the batch misses.
      picks[i] = (i > 0 && rng.Uniform(8) == 0) ? picks[i - 1]
                                                : rng.Uniform(2 * domain);
      keys[i] = Key::FromInt(picks[i]);
    }
    std::vector<uint64_t> values(n, 0);
    std::vector<Status> st(n, Status::kOk);
    size_t found =
        tree->MultiGet(std::span<const Key>(keys), values.data(), st.data());
    size_t expect_found = 0;
    for (size_t i = 0; i < n; ++i) {
      auto it = oracle.find(picks[i]);
      uint64_t lv = 0;
      Status ls = tree->Lookup(keys[i], &lv);
      ASSERT_EQ(st[i], ls) << "key " << picks[i];
      if (it == oracle.end()) {
        ASSERT_EQ(st[i], Status::kNotFound) << "key " << picks[i];
      } else {
        ++expect_found;
        ASSERT_EQ(st[i], Status::kOk) << "key " << picks[i];
        ASSERT_EQ(values[i], it->second) << "key " << picks[i];
        ASSERT_EQ(lv, it->second) << "key " << picks[i];
      }
    }
    ASSERT_EQ(found, expect_found);
  }
}

TEST_F(MultiGetTest, OracleProperty) {
  Open();
  RunOracleProperty(tree_.get(), 0xabcdef);
}

TEST_F(MultiGetTest, DuplicatesUnsortedAndNullStatuses) {
  Open();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1), Status::kOk);
  }
  // Reverse order, duplicates, and one miss; statuses omitted.
  std::vector<Key> keys = {Key::FromInt(70), Key::FromInt(3), Key::FromInt(70),
                           Key::FromInt(500), Key::FromInt(3)};
  std::vector<uint64_t> values(keys.size(), 0);
  EXPECT_EQ(tree_->MultiGet(std::span<const Key>(keys), values.data(), nullptr),
            4u);
  EXPECT_EQ(values[0], 71u);
  EXPECT_EQ(values[1], 4u);
  EXPECT_EQ(values[2], 71u);
  EXPECT_EQ(values[4], 4u);
  // With statuses: the miss is reported in place, values[3] untouched.
  std::vector<Status> st(keys.size(), Status::kOk);
  values.assign(keys.size(), 0);
  EXPECT_EQ(tree_->MultiGet(std::span<const Key>(keys), values.data(), st.data()),
            4u);
  EXPECT_EQ(st[3], Status::kNotFound);
  EXPECT_EQ(values[3], 0u);
}

TEST_F(MultiGetTest, MultiScanMatchesScan) {
  Open();
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i * 2), i), Status::kOk);
  }
  tree_->DrainSmoLogs();
  // Out-of-order starts, varying counts, one past-the-end start.
  std::vector<Key> starts = {Key::FromInt(1999), Key::FromInt(0),
                             Key::FromInt(777), Key::FromInt(999999)};
  std::vector<size_t> counts = {50, 10, 128, 5};
  std::vector<std::vector<std::pair<Key, uint64_t>>> batched;
  tree_->MultiScan(std::span<const Key>(starts),
                   std::span<const size_t>(counts), &batched);
  ASSERT_EQ(batched.size(), starts.size());
  for (size_t i = 0; i < starts.size(); ++i) {
    std::vector<std::pair<Key, uint64_t>> single;
    tree_->Scan(starts[i], counts[i], &single);
    ASSERT_EQ(batched[i].size(), single.size()) << "start " << i;
    for (size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(batched[i][j].first, single[j].first);
      EXPECT_EQ(batched[i][j].second, single[j].second);
    }
  }
}

TEST_F(MultiGetTest, PipelineStatCounters) {
  Open();
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1), Status::kOk);
  }
  tree_->DrainSmoLogs();
  PacTreeStats s0 = tree_->Stats();
  // A node-clustered batch: 32 consecutive dense keys span only a few
  // 64-slot data nodes, so node-grouping must produce far fewer groups
  // (and read locks) than keys.
  std::vector<Key> keys;
  for (uint64_t i = 0; i < 32; ++i) {
    keys.push_back(Key::FromInt(1000 + i));
  }
  std::vector<uint64_t> values(keys.size(), 0);
  EXPECT_EQ(tree_->MultiGet(std::span<const Key>(keys), values.data(), nullptr),
            keys.size());
  PacTreeStats s1 = tree_->Stats();
  EXPECT_EQ(s1.multiget_batches - s0.multiget_batches, 1u);
  EXPECT_EQ(s1.multiget_keys - s0.multiget_keys, keys.size());
  uint64_t groups = s1.multiget_node_groups - s0.multiget_node_groups;
  EXPECT_GE(groups, 1u);
  EXPECT_LE(groups, 4u);  // 32 consecutive keys over 64-slot nodes
  EXPECT_EQ(s1.epoch_enters - s0.epoch_enters, 1u);  // one guard per batch
  EXPECT_LT(s1.node_locks - s0.node_locks, keys.size());
  // hop_hist is the widened histogram behind the legacy jump_hops buckets.
  uint64_t hist = 0, legacy = 0;
  for (int b = 0; b < kHopHistBuckets; ++b) {
    hist += s1.hop_hist[b];
  }
  for (int b = 0; b < 4; ++b) {
    legacy += s1.jump_hops[b];
  }
  EXPECT_EQ(hist, legacy);
}

// Crash-sweep-style check: a quiesced tree is read through MultiGet/MultiScan
// and the media model must record ZERO persistence events (no XPLine
// write-backs, no flushes, no fences) -- so no crash point inside the batched
// read path can ever torn-write or lose state.
TEST_F(MultiGetTest, ReadPathNeverPersists) {
  opts_.async_search_update = false;
  Open();
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1), Status::kOk);
  }
  tree_->DrainSmoLogs();
  NvmStatsSnapshot w0 = GlobalNvmStats();
  Rng rng(99);
  std::vector<Key> keys(16);
  std::vector<uint64_t> values(16, 0);
  for (int batch = 0; batch < 200; ++batch) {
    for (auto& k : keys) {
      k = Key::FromInt(rng.Uniform(4000));
    }
    tree_->MultiGet(std::span<const Key>(keys), values.data(), nullptr);
  }
  std::vector<Key> starts = {Key::FromInt(0), Key::FromInt(1500)};
  std::vector<size_t> counts = {200, 200};
  std::vector<std::vector<std::pair<Key, uint64_t>>> out;
  tree_->MultiScan(std::span<const Key>(starts), std::span<const size_t>(counts),
                   &out);
  NvmStatsSnapshot d = GlobalNvmStats() - w0;
  EXPECT_EQ(d.media_write_bytes, 0u);
  EXPECT_EQ(d.flushes, 0u);
  EXPECT_EQ(d.fences, 0u);
  EXPECT_GT(d.media_read_bytes, 0u);
}

// Concurrent writers upsert a volatile key range and force SMO drains while
// readers stream MultiGet batches mixing stable and volatile keys: stable
// keys must always resolve exactly as per-key Lookup would, under splits,
// drains, and group retries (tsan label exercises the data races).
TEST_F(MultiGetTest, ConcurrentWritersAndForcedDrains) {
  Open();
  const uint64_t stable = 4000, volat = 2000;
  for (uint64_t i = 0; i < stable; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1), Status::kOk);
  }
  tree_->DrainSmoLogs();
  std::atomic<bool> stop{false};
  std::atomic<int> writers_started{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      SetCurrentNumaNode(0);
      Rng rng(17 * w + 5);
      uint64_t round = 0;
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t k = stable + rng.Uniform(volat);
        tree_->Insert(Key::FromInt(k), ++round);
        if (round == 1) {
          writers_started.fetch_add(1, std::memory_order_release);
        }
        if (round % 256 == 0) {
          tree_->DrainSmoLogs();
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      SetCurrentNumaNode(0);
      Rng rng(31 * r + 7);
      std::vector<Key> keys(24);
      std::vector<uint64_t> picks(24);
      std::vector<uint64_t> values(24, 0);
      std::vector<Status> st(24, Status::kOk);
      while (writers_started.load(std::memory_order_acquire) < 2) {
        std::this_thread::yield();  // batches must race the writers
      }
      for (int batch = 0; batch < 400; ++batch) {
        for (size_t i = 0; i < keys.size(); ++i) {
          // 2/3 stable keys (exact value known), 1/3 volatile.
          picks[i] = rng.Uniform(3) < 2 ? rng.Uniform(stable)
                                        : stable + rng.Uniform(volat);
          keys[i] = Key::FromInt(picks[i]);
        }
        tree_->MultiGet(std::span<const Key>(keys), values.data(), st.data());
        for (size_t i = 0; i < keys.size(); ++i) {
          if (picks[i] < stable) {
            if (st[i] != Status::kOk || values[i] != picks[i] + 1) {
              failures.fetch_add(1);
            }
          } else if (st[i] == Status::kOk && values[i] == 0) {
            failures.fetch_add(1);  // found a volatile key with a torn value
          }
        }
      }
    });
  }
  for (size_t i = 2; i < threads.size(); ++i) {
    threads[i].join();  // readers finish first
  }
  stop.store(true, std::memory_order_release);
  threads[0].join();
  threads[1].join();
  tree_->DrainSmoLogs();  // CheckInvariants needs a quiesced tree
  EXPECT_EQ(failures.load(), 0u);
  std::string why;
  EXPECT_TRUE(tree_->CheckInvariants(&why)) << why;
}

// The RangeIndex default MultiGet/MultiScan (loop over Lookup/Scan) keeps
// every baseline index working through the batch harness.
class MapIndex : public RangeIndex {
 public:
  Status Insert(const Key& key, uint64_t value) override {
    map_[key] = value;
    return Status::kOk;
  }
  Status Lookup(const Key& key, uint64_t* value) const override {
    auto it = map_.find(key);
    if (it == map_.end()) {
      return Status::kNotFound;
    }
    *value = it->second;
    return Status::kOk;
  }
  Status Remove(const Key& key) override {
    return map_.erase(key) ? Status::kOk : Status::kNotFound;
  }
  size_t Scan(const Key& start, size_t count,
              std::vector<std::pair<Key, uint64_t>>* out) const override {
    out->clear();
    for (auto it = map_.lower_bound(start); it != map_.end() && out->size() < count;
         ++it) {
      out->push_back(*it);
    }
    return out->size();
  }
  uint64_t Size() const override { return map_.size(); }
  std::string Name() const override { return "map"; }

 private:
  std::map<Key, uint64_t> map_;
};

TEST(RangeIndexDefaultTest, MultiGetLoopsOverLookup) {
  MapIndex idx;
  for (uint64_t i = 0; i < 64; ++i) {
    idx.Insert(Key::FromInt(i * 3), i);
  }
  std::vector<Key> keys = {Key::FromInt(9), Key::FromInt(10), Key::FromInt(0),
                           Key::FromInt(9)};
  std::vector<uint64_t> values(keys.size(), 0);
  std::vector<Status> st(keys.size(), Status::kOk);
  EXPECT_EQ(idx.MultiGet(std::span<const Key>(keys), values.data(), st.data()),
            3u);
  EXPECT_EQ(values[0], 3u);
  EXPECT_EQ(st[1], Status::kNotFound);
  EXPECT_EQ(values[2], 0u);
  EXPECT_EQ(st[2], Status::kOk);
  EXPECT_EQ(values[3], 3u);
  std::vector<Key> starts = {Key::FromInt(100), Key::FromInt(0)};
  std::vector<size_t> counts = {4, 2};
  std::vector<std::vector<std::pair<Key, uint64_t>>> out;
  idx.MultiScan(std::span<const Key>(starts), std::span<const size_t>(counts),
                &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].size(), 4u);
  EXPECT_EQ(out[1].size(), 2u);
  EXPECT_EQ(out[0][0].second, 34u);  // first key >= 100 is 102 = 34*3
  EXPECT_EQ(out[1][0].second, 0u);
}

}  // namespace
}  // namespace pactree
