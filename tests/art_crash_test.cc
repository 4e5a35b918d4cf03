// Strict-ADR crash tests for PDL-ART, with record leaves (the standalone
// index) and node leaves (PACTree's search layer): every acknowledged insert
// must survive a crash in which all unflushed stores are lost (durable
// linearizability), and the allocation-log GC must leave no leaks behind.
#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstddef>
#include <map>

#include "src/art/art.h"
#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/shadow.h"
#include "src/nvm/topology.h"
#include "src/pmem/heap.h"
#include "src/sync/epoch.h"
#include "src/sync/gen_sync.h"

namespace pactree {
namespace {

void OverwriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0) << path;
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t w = ::pwrite(fd, bytes.data() + off, bytes.size() - off,
                         static_cast<off_t>(off));
    ASSERT_GT(w, 0);
    off += static_cast<size_t>(w);
  }
  ::close(fd);
}

class ArtCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    GlobalNvmConfig().numa_nodes = 1;
    SetCurrentNumaNode(0);
  }
  void TearDown() override {
    ShadowHeap::Disable();
    EpochManager::Instance().DrainAll();
    PmemHeap::Destroy("art_crash");
  }

  void RunCrashPoint(int ops, CrashMode mode, uint64_t seed) {
    PmemHeap::Destroy("art_crash");
    PmemHeapOptions hopts;
    hopts.pool_id_base = 340;
    hopts.pool_size = 64 << 20;
    auto heap = PmemHeap::OpenOrCreate("art_crash", hopts);
    ASSERT_NE(heap, nullptr);
    AdvanceGenerations({heap.get()});
    auto art = std::make_unique<PdlArt>(heap.get(), heap->Root<ArtTreeRoot>());
    std::string path = heap->primary()->path();
    ShadowHeap::Enable(heap->primary()->base(), heap->primary()->size());

    std::map<uint64_t, uint64_t> acked;
    Rng rng(seed);
    uint64_t live_before = 0;
    for (int i = 0; i < ops; ++i) {
      uint64_t k = rng.Uniform(3000);
      if (rng.Uniform(6) == 0 && !acked.empty()) {
        art->Remove(Key::FromInt(k));
        acked.erase(k);
      } else {
        uint64_t v = rng.Next() | 1;
        art->Insert(Key::FromInt(k), v);
        acked[k] = v;
      }
    }
    live_before = heap->primary()->LiveBytes();
    auto image = ShadowHeap::Capture(mode, seed);
    // Drop this crash point's shadow region before its pool is unmapped: the
    // next point's Enable would otherwise append a second region while
    // Capture kept answering from this stale one. Pool files on tmpfs tend to
    // remap at the same address and hide that; on a disk-backed dir they
    // do not.
    ShadowHeap::Disable();
    ASSERT_FALSE(image.empty());
    art.reset();
    EpochManager::Instance().DrainAll();
    heap.reset();
    OverwriteFile(path, image);

    auto heap2 = PmemHeap::OpenOrCreate("art_crash", hopts);
    ASSERT_NE(heap2, nullptr);
    AdvanceGenerations({heap2.get()});
    auto recovered = std::make_unique<PdlArt>(heap2.get(), heap2->Root<ArtTreeRoot>());
    recovered->Recover();
    for (const auto& [k, v] : acked) {
      uint64_t got = 0;
      ASSERT_EQ(recovered->Lookup(Key::FromInt(k), &got), Status::kOk)
          << "acked key lost: " << k << " ops=" << ops;
      ASSERT_EQ(got, v) << k;
    }
    // Ordered-scan equivalence against the model.
    std::vector<std::pair<Key, uint64_t>> all;
    recovered->Scan(Key::Min(), acked.size() + 16, &all);
    ASSERT_GE(all.size(), acked.size()) << "scan lost acked keys";
    // Leak sanity: live bytes after recovery should not exceed the pre-crash
    // footprint by more than the (bounded) in-flight window.
    EXPECT_LE(heap2->primary()->LiveBytes(), live_before + 64 * 1024);
    recovered.reset();
    EpochManager::Instance().DrainAll();
  }

  // Node-leaf variant: every value is a PPtr to a persisted record carrying
  // its key (PACTree's data-node leaves), over string keys whose long shared
  // prefixes force prefix splits past the 24 stored bytes. Recovery must map
  // every acked key to its record and never surface a leaf under a key its
  // record does not carry.
  void RunNodeLeafCrashPoint(int ops, CrashMode mode, uint64_t seed) {
    struct Record {
      uint64_t header;
      Key key;
    };
    constexpr int kKeyOffset = offsetof(Record, key);
    auto record_key = [](uint64_t raw) { return PPtr<Record>(raw).get()->key; };
    PmemHeap::Destroy("art_crash");
    PmemHeapOptions hopts;
    hopts.pool_id_base = 340;
    hopts.pool_size = 64 << 20;
    auto heap = PmemHeap::OpenOrCreate("art_crash", hopts);
    ASSERT_NE(heap, nullptr);
    AdvanceGenerations({heap.get()});
    auto art = std::make_unique<PdlArt>(heap.get(), heap->Root<ArtTreeRoot>(), kKeyOffset);
    std::string path = heap->primary()->path();
    ShadowHeap::Enable(heap->primary()->base(), heap->primary()->size());

    std::map<Key, uint64_t> acked;
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
      std::string s(rng.Uniform(2) == 0 ? 20 + rng.Uniform(9) : rng.Uniform(3), 'p');
      size_t tail = 1 + rng.Uniform(3);
      for (size_t j = 0; j < tail && s.size() < Key::kMaxLen; ++j) {
        s.push_back(static_cast<char>('a' + rng.Uniform(3)));
      }
      Key k = Key::FromString(s);
      if (rng.Uniform(6) == 0) {
        art->Remove(k);
        acked.erase(k);
      } else {
        PPtr<void> p = heap->Alloc(sizeof(Record));
        ASSERT_FALSE(p.IsNull());
        auto* r = static_cast<Record*>(p.get());
        r->header = 0;
        r->key = k;
        PersistFence(r, sizeof(Record));
        art->Insert(k, p.raw);
        acked[k] = p.raw;
      }
    }
    uint64_t live_before = heap->primary()->LiveBytes();
    auto image = ShadowHeap::Capture(mode, seed);
    ShadowHeap::Disable();  // see RunCrashPoint
    ASSERT_FALSE(image.empty());
    art.reset();
    EpochManager::Instance().DrainAll();
    heap.reset();
    OverwriteFile(path, image);

    auto heap2 = PmemHeap::OpenOrCreate("art_crash", hopts);
    ASSERT_NE(heap2, nullptr);
    AdvanceGenerations({heap2.get()});
    auto recovered =
        std::make_unique<PdlArt>(heap2.get(), heap2->Root<ArtTreeRoot>(), kKeyOffset);
    recovered->Recover();
    for (const auto& [k, v] : acked) {
      uint64_t got = 0;
      ASSERT_EQ(recovered->Lookup(k, &got), Status::kOk)
          << "acked key lost: " << k.ToString() << " ops=" << ops;
      ASSERT_EQ(got, v) << k.ToString();
      Key found;
      ASSERT_EQ(recovered->LookupFloor(k, &found, &got), Status::kOk);
      ASSERT_EQ(found, k);
    }
    std::vector<std::pair<Key, uint64_t>> all;
    recovered->Scan(Key::Min(), acked.size() + 16, &all);
    ASSERT_GE(all.size(), acked.size()) << "scan lost acked keys";
    for (const auto& [k, v] : all) {
      ASSERT_EQ(record_key(v), k) << "leaf under a key its record does not carry";
    }
    EXPECT_LE(heap2->primary()->LiveBytes(), live_before + 64 * 1024);
    recovered.reset();
    EpochManager::Instance().DrainAll();
  }
};

TEST_F(ArtCrashTest, StrictCrashSweep) {
  for (int ops : {1, 5, 40, 200, 1000, 5000}) {
    RunCrashPoint(ops, CrashMode::kStrict, static_cast<uint64_t>(ops) * 31 + 1);
  }
}

TEST_F(ArtCrashTest, ChaosCrashSweep) {
  for (int ops : {50, 500, 3000}) {
    RunCrashPoint(ops, CrashMode::kChaos, static_cast<uint64_t>(ops) * 131 + 7);
  }
}

TEST_F(ArtCrashTest, NodeLeafStrictCrashSweep) {
  for (int ops : {1, 5, 40, 200, 1000, 4000}) {
    RunNodeLeafCrashPoint(ops, CrashMode::kStrict, static_cast<uint64_t>(ops) * 37 + 3);
  }
}

TEST_F(ArtCrashTest, NodeLeafChaosCrashSweep) {
  for (int ops : {50, 500, 3000}) {
    RunNodeLeafCrashPoint(ops, CrashMode::kChaos, static_cast<uint64_t>(ops) * 137 + 5);
  }
}

}  // namespace
}  // namespace pactree
