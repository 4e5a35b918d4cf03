// Point-read path tests (PacTree::Lookup and Scan): a property check against
// a std::map oracle over upserts, removes and absent keys, a
// crash-sweep-style window proving the read path emits zero persistence
// events, and concurrent writers + forced drains (tsan label).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/stats.h"
#include "src/nvm/topology.h"
#include "src/pactree/pactree.h"
#include "src/sync/epoch.h"

namespace pactree {
namespace {

class ReadPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
    PacTree::Destroy("read_path_test");
    opts_.name = "read_path_test";
    opts_.pool_id_base = 880;
    opts_.pool_size = 256 << 20;
  }

  void TearDown() override {
    tree_.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("read_path_test");
  }

  void Open() {
    tree_ = PacTree::Open(opts_);
    ASSERT_NE(tree_, nullptr);
  }

  PacTreeOptions opts_;
  std::unique_ptr<PacTree> tree_;
};

// Random upserts/removes mirrored into a std::map, then random lookups
// (repeats, removed and never-inserted keys) checked against the oracle.
TEST_F(ReadPathTest, OracleProperty) {
  Open();
  Rng rng(0xabcdef);
  std::map<uint64_t, uint64_t> oracle;
  const uint64_t domain = 8000;
  for (uint64_t op = 0; op < 4000; ++op) {
    uint64_t k = rng.Uniform(domain);
    if (rng.Uniform(4) == 0) {
      tree_->Remove(Key::FromInt(k));
      oracle.erase(k);
    } else {
      uint64_t v = op + 1;
      tree_->Insert(Key::FromInt(k), v);
      oracle[k] = v;
    }
  }
  uint64_t pick = 0;
  for (int i = 0; i < 4000; ++i) {
    // ~1/8 repeats of the previous key; picks range over 2x the domain so
    // roughly half the lookups miss.
    if (i == 0 || rng.Uniform(8) != 0) {
      pick = rng.Uniform(2 * domain);
    }
    uint64_t v = 0;
    Status s = tree_->Lookup(Key::FromInt(pick), &v);
    auto it = oracle.find(pick);
    if (it == oracle.end()) {
      ASSERT_EQ(s, Status::kNotFound) << "key " << pick;
    } else {
      ASSERT_EQ(s, Status::kOk) << "key " << pick;
      ASSERT_EQ(v, it->second) << "key " << pick;
    }
  }
}

// Crash-sweep-style check: a quiesced tree is read through Lookup and Scan
// and the media model must record ZERO persistence events (no XPLine
// write-backs, no flushes, no fences) -- so no crash point inside the read
// path can ever torn-write or lose state.
TEST_F(ReadPathTest, ReadPathNeverPersists) {
  opts_.async_search_update = false;
  Open();
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_EQ(tree_->Insert(Key::FromInt(i), i + 1), Status::kOk);
  }
  tree_->DrainSmoLogs();
  NvmStatsSnapshot w0 = GlobalNvmStats();
  Rng rng(99);
  for (int i = 0; i < 3200; ++i) {
    uint64_t v = 0;
    tree_->Lookup(Key::FromInt(rng.Uniform(4000)), &v);
  }
  std::vector<std::pair<Key, uint64_t>> out;
  tree_->Scan(Key::FromInt(0), 200, &out);
  tree_->Scan(Key::FromInt(1500), 200, &out);
  NvmStatsSnapshot d = GlobalNvmStats() - w0;
  EXPECT_EQ(d.media_write_bytes, 0u);
  EXPECT_EQ(d.flushes, 0u);
  EXPECT_EQ(d.fences, 0u);
  EXPECT_GT(d.media_read_bytes, 0u);
}

// Concurrent writers upsert a volatile key range and force SMO drains while
// readers look up a mix of stable and volatile keys and scan stable ranges:
// stable keys must always resolve to their loaded value under splits, drains,
// and read retries (tsan label exercises the data races).
TEST_F(ReadPathTest, ConcurrentWritersAndForcedDrains) {
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
      std::vector<std::pair<Key, uint64_t>> out;
      while (writers_started.load(std::memory_order_acquire) < 2) {
        std::this_thread::yield();  // lookups must race the writers
      }
      for (int i = 0; i < 400 * 24; ++i) {
        // 2/3 stable keys (exact value known), 1/3 volatile.
        uint64_t pick = rng.Uniform(3) < 2 ? rng.Uniform(stable)
                                           : stable + rng.Uniform(volat);
        uint64_t v = 0;
        Status s = tree_->Lookup(Key::FromInt(pick), &v);
        if (pick < stable) {
          if (s != Status::kOk || v != pick + 1) {
            failures.fetch_add(1);
          }
        } else if (s == Status::kOk && v == 0) {
          failures.fetch_add(1);  // found a volatile key with a torn value
        }
        if (i % 24 == 0) {
          // A scan inside the stable range sees exactly its loaded keys.
          uint64_t from = rng.Uniform(stable - 16);
          tree_->Scan(Key::FromInt(from), 16, &out);
          for (size_t j = 0; j < 16; ++j) {
            if (j >= out.size() || out[j].first.ToInt() != from + j ||
                out[j].second != from + j + 1) {
              failures.fetch_add(1);
              break;
            }
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

}  // namespace
}  // namespace pactree
