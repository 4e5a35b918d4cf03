#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/common/compiler.h"
#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/shadow.h"
#include "src/nvm/stats.h"
#include "src/nvm/topology.h"
#include "src/pmem/heap.h"
#include "src/pmem/pool.h"
#include "src/pmem/registry.h"

namespace pactree {
namespace {

std::string TestPath(const std::string& name) {
  return NvmConfig::DefaultPoolDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

class PmemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    SetCurrentNumaNode(0);
  }
};

TEST_F(PmemTest, SizeClassSelection) {
  EXPECT_EQ(kSizeClasses[SizeClassFor(1)], 64u);
  EXPECT_EQ(kSizeClasses[SizeClassFor(64)], 64u);
  EXPECT_EQ(kSizeClasses[SizeClassFor(65)], 128u);
  EXPECT_EQ(kSizeClasses[SizeClassFor(3000)], 3072u);
  EXPECT_EQ(SizeClassFor(300000), kNumClasses);  // whole-chunk path
}

TEST_F(PmemTest, AllocFreeRoundTrip) {
  std::string path = TestPath("pmem_rt.pool");
  PmemPoolOptions opts;
  opts.size = 8 << 20;
  auto pool = PmemPool::Create(path, 11, 0, opts);
  ASSERT_NE(pool, nullptr);
  PPtr<void> p = pool->Alloc(100);
  ASSERT_FALSE(p.IsNull());
  EXPECT_EQ(p.pool(), 11u);
  std::memset(p.get(), 0xab, 100);
  EXPECT_EQ(pool->BlockSize(p.offset()), 128u);
  pool->Free(p.offset());
  EXPECT_EQ(pool->Stats().allocs, 1u);
  EXPECT_EQ(pool->Stats().frees, 1u);
  pool.reset();
  NvmPoolFile::Remove(path);
}

TEST_F(PmemTest, DistinctBlocksDoNotOverlap) {
  std::string path = TestPath("pmem_overlap.pool");
  PmemPoolOptions opts;
  opts.size = 32 << 20;
  auto pool = PmemPool::Create(path, 12, 0, opts);
  ASSERT_NE(pool, nullptr);
  std::set<uint64_t> offsets;
  for (int i = 0; i < 10000; ++i) {
    PPtr<void> p = pool->Alloc(64);
    ASSERT_FALSE(p.IsNull());
    EXPECT_TRUE(offsets.insert(p.offset()).second) << "duplicate offset";
  }
  // All offsets 64B-aligned and distinct by >= 64.
  uint64_t prev = 0;
  for (uint64_t off : offsets) {
    EXPECT_EQ(off % 64, 0u);
    if (prev != 0) {
      EXPECT_GE(off - prev, 64u);
    }
    prev = off;
  }
  pool.reset();
  NvmPoolFile::Remove(path);
}

TEST_F(PmemTest, FreeMakesSpaceReusable) {
  std::string path = TestPath("pmem_reuse.pool");
  PmemPoolOptions opts;
  opts.size = 4 << 20;  // small pool: 1-2 usable chunks
  auto pool = PmemPool::Create(path, 13, 0, opts);
  ASSERT_NE(pool, nullptr);
  std::vector<uint64_t> offs;
  // Exhaust the pool with 64 KiB blocks.
  while (true) {
    PPtr<void> p = pool->Alloc(65536);
    if (p.IsNull()) {
      break;
    }
    offs.push_back(p.offset());
  }
  ASSERT_GT(offs.size(), 10u);
  EXPECT_TRUE(pool->Alloc(65536).IsNull());
  for (uint64_t o : offs) {
    pool->Free(o);
  }
  // Everything must be allocatable again.
  for (size_t i = 0; i < offs.size(); ++i) {
    EXPECT_FALSE(pool->Alloc(65536).IsNull()) << i;
  }
  pool.reset();
  NvmPoolFile::Remove(path);
}

TEST_F(PmemTest, WholeChunkAllocation) {
  std::string path = TestPath("pmem_whole.pool");
  PmemPoolOptions opts;
  opts.size = 16 << 20;
  auto pool = PmemPool::Create(path, 14, 0, opts);
  ASSERT_NE(pool, nullptr);
  PPtr<void> big = pool->Alloc(3 << 20);  // 3 MiB -> 3 chunks
  ASSERT_FALSE(big.IsNull());
  EXPECT_EQ(pool->BlockSize(big.offset()), 3u << 20);
  std::memset(big.get(), 0x5a, 3 << 20);
  pool->Free(big.offset());
  PPtr<void> again = pool->Alloc(3 << 20);
  EXPECT_FALSE(again.IsNull());
  pool.reset();
  NvmPoolFile::Remove(path);
}

// Chunk coloring: the first block of each class's fresh chunk starts at a
// color derived from the chunk index, so the first nodes of different classes
// do not all sit on the same XPLine offset of their 1 MiB chunks -- and the
// colors are a pure function of the pool geometry.
TEST_F(PmemTest, FreshChunksOfDifferentClassesStartOnDifferentLines) {
  std::string path = TestPath("pmem_color.pool");
  PmemPoolOptions opts;
  opts.size = 64 << 20;
  const size_t kSizes[] = {64, 128, 256, 768, 3072};
  std::vector<uint64_t> first_offsets;
  for (int round = 0; round < 2; ++round) {
    auto pool = PmemPool::Create(path, 15, 0, opts);
    ASSERT_NE(pool, nullptr);
    const uint64_t data_off = pool->header()->data_off;
    std::vector<uint64_t> offsets;
    std::set<uint64_t> lines;
    for (size_t size : kSizes) {
      PPtr<void> p = pool->Alloc(size);
      ASSERT_FALSE(p.IsNull());
      offsets.push_back(p.offset());
      uint64_t line = ((p.offset() - data_off) % kChunkSize) / 256;
      EXPECT_TRUE(lines.insert(line).second)
          << size << "-B block starts on XPLine " << line << " of its chunk, like another class";
    }
    if (round == 0) {
      first_offsets = offsets;
    } else {
      EXPECT_EQ(offsets, first_offsets) << "placement must repeat in a fresh pool";
    }
    pool.reset();
    NvmPoolFile::Remove(path);
  }
}

TEST_F(PmemTest, PersistentAcrossReopen) {
  std::string path = TestPath("pmem_reopen.pool");
  PmemPoolOptions opts;
  opts.size = 8 << 20;
  uint64_t off;
  uint64_t gen1;
  {
    auto pool = PmemPool::Create(path, 15, 0, opts);
    ASSERT_NE(pool, nullptr);
    gen1 = pool->generation();
    PPtr<void> p = pool->Alloc(4096);
    ASSERT_FALSE(p.IsNull());
    off = p.offset();
    std::memcpy(p.get(), "persist-me", 11);
    PersistFence(p.get(), 11);
  }
  {
    std::unique_ptr<PmemPool> pool;
    ASSERT_EQ(PmemPool::Open(path, 15, 0, opts, &pool), Status::kOk);
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->generation(), gen1 + 1) << "generation bumps on open";
    PPtr<char> p = PPtr<char>::FromParts(15, off);
    EXPECT_STREQ(p.get(), "persist-me");
    // The block is still accounted allocated: freeing and reallocating works.
    pool->Free(off);
    EXPECT_FALSE(pool->Alloc(4096).IsNull());
  }
  NvmPoolFile::Remove(path);
}

TEST_F(PmemTest, AllocToAttachesAtomically) {
  std::string path = TestPath("pmem_mallocto.pool");
  PmemPoolOptions opts;
  opts.size = 8 << 20;
  auto pool = PmemPool::Create(path, 16, 0, opts);
  ASSERT_NE(pool, nullptr);
  // Destination word lives in the pool's root area.
  auto* root = static_cast<uint64_t*>(pool->RootArea());
  *root = 0;
  PPtr<uint64_t> dest = ToPPtr(root);
  ASSERT_FALSE(dest.IsNull());
  PPtr<void> block = pool->AllocTo(dest, 256);
  ASSERT_FALSE(block.IsNull());
  EXPECT_EQ(*root, block.raw);
  pool.reset();
  NvmPoolFile::Remove(path);
}

TEST_F(PmemTest, TransientModeSkipsPersistence) {
  std::string path_cc = TestPath("pmem_cc.pool");
  std::string path_tr = TestPath("pmem_tr.pool");
  PmemPoolOptions cc;
  cc.size = 16 << 20;
  PmemPoolOptions tr = cc;
  tr.crash_consistent = false;

  auto pool_cc = PmemPool::Create(path_cc, 17, 0, cc);
  auto pool_tr = PmemPool::Create(path_tr, 18, 0, tr);
  ASSERT_NE(pool_cc, nullptr);
  ASSERT_NE(pool_tr, nullptr);

  auto flushes = [] { return GlobalNvmStats().flushes; };
  uint64_t f0 = flushes();
  for (int i = 0; i < 1000; ++i) {
    pool_cc->Free(pool_cc->Alloc(64).offset());
  }
  uint64_t cc_cost = flushes() - f0;
  f0 = flushes();
  for (int i = 0; i < 1000; ++i) {
    pool_tr->Free(pool_tr->Alloc(64).offset());
  }
  uint64_t tr_cost = flushes() - f0;
  EXPECT_GT(cc_cost, 1000u * 2) << "crash-consistent mode must flush";
  EXPECT_EQ(tr_cost, 0u) << "transient mode must not flush";
  pool_cc.reset();
  pool_tr.reset();
  NvmPoolFile::Remove(path_cc);
  NvmPoolFile::Remove(path_tr);
}

TEST_F(PmemTest, InterruptedAllocToRollsBackOnRecovery) {
  // Simulate a crash between "block taken" and "attached": write the log slot
  // state by hand, then re-open and verify the block is free again.
  std::string path = TestPath("pmem_recover.pool");
  PmemPoolOptions opts;
  opts.size = 8 << 20;
  uint64_t leaked_off;
  {
    auto pool = PmemPool::Create(path, 19, 0, opts);
    ASSERT_NE(pool, nullptr);
    PPtr<void> block = pool->Alloc(4096);
    leaked_off = block.offset();
    // Forge a pending log entry claiming this block was mid-AllocTo with a
    // destination that never got the pointer.
    auto* logs = reinterpret_cast<AllocLogSlot*>(static_cast<char*>(pool->base()) +
                                                 pool->header()->log_off);
    auto* root = static_cast<uint64_t*>(pool->RootArea());
    *root = 0;
    logs[0].dest = ToPPtr(root).raw;
    logs[0].block = PPtr<void>::FromParts(19, leaked_off).raw;
    logs[0].size = 4096;
    logs[0].state = kLogAllocPending;
    logs[0].checksum = AllocSlotChecksum(logs[0]);
    PersistFence(&logs[0], sizeof(AllocLogSlot));
  }
  {
    std::unique_ptr<PmemPool> pool;
    ASSERT_EQ(PmemPool::Open(path, 19, 0, opts, &pool), Status::kOk);
    ASSERT_NE(pool, nullptr);
    // Recovery must have rolled the allocation back; allocating until
    // exhaustion must hand the same offset out again at some point.
    bool seen = false;
    while (true) {
      PPtr<void> p = pool->Alloc(4096);
      if (p.IsNull()) {
        break;
      }
      if (p.offset() == leaked_off) {
        seen = true;
        break;
      }
    }
    EXPECT_TRUE(seen) << "interrupted AllocTo leaked a block";
  }
  NvmPoolFile::Remove(path);
}

TEST_F(PmemTest, CompletedAllocToSurvivesRecovery) {
  std::string path = TestPath("pmem_recover2.pool");
  PmemPoolOptions opts;
  opts.size = 8 << 20;
  uint64_t attached_off;
  {
    auto pool = PmemPool::Create(path, 20, 0, opts);
    ASSERT_NE(pool, nullptr);
    auto* root = static_cast<uint64_t*>(pool->RootArea());
    *root = 0;
    PPtr<void> block = pool->AllocTo(ToPPtr(root), 4096);
    attached_off = block.offset();
    // Forge the log as if the crash happened after attach but before the log
    // entry was retired.
    auto* logs = reinterpret_cast<AllocLogSlot*>(static_cast<char*>(pool->base()) +
                                                 pool->header()->log_off);
    logs[0].dest = ToPPtr(root).raw;
    logs[0].block = block.raw;
    logs[0].size = 4096;
    logs[0].state = kLogAllocPending;
    logs[0].checksum = AllocSlotChecksum(logs[0]);
    PersistFence(&logs[0], sizeof(AllocLogSlot));
    PersistFence(root, sizeof(*root));
  }
  {
    std::unique_ptr<PmemPool> pool;
    ASSERT_EQ(PmemPool::Open(path, 20, 0, opts, &pool), Status::kOk);
    ASSERT_NE(pool, nullptr);
    auto* root = static_cast<uint64_t*>(pool->RootArea());
    PPtr<void> attached(*root);
    EXPECT_EQ(attached.offset(), attached_off) << "attached block must survive";
    // And the block must NOT be handed out again.
    while (true) {
      PPtr<void> p = pool->Alloc(4096);
      if (p.IsNull()) {
        break;
      }
      EXPECT_NE(p.offset(), attached_off) << "double allocation after recovery";
    }
  }
  NvmPoolFile::Remove(path);
}

TEST_F(PmemTest, ConcurrentAllocFreeStress) {
  std::string path = TestPath("pmem_mt.pool");
  PmemPoolOptions opts;
  opts.size = 64 << 20;
  auto pool = PmemPool::Create(path, 21, 0, opts);
  ASSERT_NE(pool, nullptr);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      std::vector<uint64_t> mine;
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (mine.empty() || rng.Uniform(2) == 0) {
          size_t size = 64 << rng.Uniform(5);
          PPtr<void> p = pool->Alloc(size);
          if (p.IsNull()) {
            failed.store(true);
            return;
          }
          // Stamp the block; concurrent overlap would corrupt the stamp.
          std::memset(p.get(), t + 1, 64);
          mine.push_back(p.offset());
        } else {
          size_t idx = rng.Uniform(mine.size());
          uint64_t off = mine[idx];
          char* p = static_cast<char*>(pool->base()) + off;
          for (int b = 0; b < 64; ++b) {
            if (p[b] != t + 1) {
              failed.store(true);
              return;
            }
          }
          pool->Free(off);
          mine[idx] = mine.back();
          mine.pop_back();
        }
      }
      for (uint64_t off : mine) {
        pool->Free(off);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load()) << "corruption or OOM under concurrency";
  EXPECT_EQ(pool->Stats().allocs, pool->Stats().frees);
  pool.reset();
  NvmPoolFile::Remove(path);
}

TEST_F(PmemTest, HeapStripesAcrossNumaNodes) {
  GlobalNvmConfig().numa_nodes = 2;
  PmemHeap::Destroy("pmem_heap_test");
  PmemHeapOptions opts;
  opts.pool_id_base = 30;
  opts.pool_size = 8 << 20;
  auto heap = PmemHeap::OpenOrCreate("pmem_heap_test", opts);
  ASSERT_NE(heap, nullptr);
  EXPECT_EQ(heap->pool_count(), 2u);
  SetCurrentNumaNode(0);
  PPtr<void> a = heap->Alloc(64);
  SetCurrentNumaNode(1);
  PPtr<void> b = heap->Alloc(64);
  EXPECT_EQ(a.pool(), 30u);
  EXPECT_EQ(b.pool(), 31u);
  heap.reset();
  PmemHeap::Destroy("pmem_heap_test");
}

TEST_F(PmemTest, DramHeapHasNoMediaTraffic) {
  PmemHeapOptions opts;
  opts.pool_id_base = 40;
  opts.pool_size = 8 << 20;
  opts.dram = true;
  auto heap = PmemHeap::OpenOrCreate("pmem_dram_test", opts);
  ASSERT_NE(heap, nullptr);
  NvmStatsSnapshot before = GlobalNvmStats();
  for (int i = 0; i < 100; ++i) {
    PPtr<void> p = heap->Alloc(256);
    ASSERT_FALSE(p.IsNull());
    PersistFence(p.get(), 256);  // should be a no-op on DRAM
  }
  NvmStatsSnapshot d = GlobalNvmStats() - before;
  EXPECT_EQ(d.flushes, 0u);
  EXPECT_EQ(d.media_write_bytes, 0u);
}

TEST_F(PmemTest, OpenRejectsCorruptPoolFiles) {
  std::string path = TestPath("pmem_corrupt.pool");
  PmemPoolOptions opts;
  opts.size = 8 << 20;
  {
    auto pool = PmemPool::Create(path, 17, 0, opts);
    ASSERT_NE(pool, nullptr);
    ASSERT_FALSE(pool->Alloc(100).IsNull());
  }
  std::unique_ptr<PmemPool> out;
  // Missing file is reported as such, not as corruption.
  EXPECT_EQ(PmemPool::Open(TestPath("pmem_no_such.pool"), 17, 0, opts, &out),
            Status::kNotFound);
  // A foreign pool id must be rejected: silently adopting another pool's file
  // would scramble every persistent pointer into it.
  EXPECT_EQ(PmemPool::Open(path, 18, 0, opts, &out), Status::kCorrupted);
  EXPECT_EQ(out, nullptr);
  // The file itself is intact.
  EXPECT_EQ(PmemPool::Open(path, 17, 0, opts, &out), Status::kOk);
  ASSERT_NE(out, nullptr);
  out.reset();
  // Truncated mid-header: too small for a PoolHeader.
  std::filesystem::resize_file(path, 512);
  EXPECT_EQ(PmemPool::Open(path, 17, 0, opts, &out), Status::kCorrupted);
  EXPECT_EQ(out, nullptr);
  // Zero length: cannot even be mapped.
  std::filesystem::resize_file(path, 0);
  EXPECT_EQ(PmemPool::Open(path, 17, 0, opts, &out), Status::kCorrupted);
  NvmPoolFile::Remove(path);
  // Bad magic (e.g., a foreign file at the pool's path).
  {
    auto pool = PmemPool::Create(path, 17, 0, opts);
    ASSERT_NE(pool, nullptr);
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    uint64_t junk = 0x6b6e756a6b6e756aULL;
    f.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  }
  EXPECT_EQ(PmemPool::Open(path, 17, 0, opts, &out), Status::kCorrupted);
  NvmPoolFile::Remove(path);
  // Another layout version: version 1 (blocks on unshifted chunk grids) is an
  // old layout, refused with every byte left as is; any other is corrupt.
  const std::pair<uint32_t, Status> layouts[] = {{1, Status::kOldLayout},
                                                 {3, Status::kCorrupted}};
  for (const auto& [version, want] : layouts) {
    {
      auto pool = PmemPool::Create(path, 17, 0, opts);
      ASSERT_NE(pool, nullptr);
      ASSERT_FALSE(pool->Alloc(2048).IsNull());
    }
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.is_open());
      f.seekp(offsetof(PoolHeader, layout_version));
      f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    const std::string before = ReadFile(path);
    EXPECT_EQ(PmemPool::Open(path, 17, 0, opts, &out), want) << "layout " << version;
    EXPECT_EQ(out, nullptr);
    EXPECT_TRUE(ReadFile(path) == before) << "a refused open wrote to layout " << version;
    NvmPoolFile::Remove(path);
  }
}

// Allocates |size|-B blocks until the pool is exhausted; returns the offsets
// in allocation order.
std::vector<uint64_t> AllocAll(PmemPool* pool, size_t size) {
  std::vector<uint64_t> offs;
  for (PPtr<void> p = pool->Alloc(size); !p.IsNull(); p = pool->Alloc(size)) {
    offs.push_back(p.offset());
  }
  return offs;
}

// Offsets grouped by chunk, ascending within each chunk.
std::map<uint64_t, std::vector<uint64_t>> ByChunk(const PmemPool& pool,
                                                  const std::vector<uint64_t>& offs) {
  std::map<uint64_t, std::vector<uint64_t>> chunks;
  for (uint64_t off : offs) {
    chunks[(off - pool.header()->data_off) / kChunkSize].push_back(off);
  }
  for (auto& [c, v] : chunks) {
    std::sort(v.begin(), v.end());
  }
  return chunks;
}

uint64_t ChunkStart(const PmemPool& pool, uint64_t chunk) {
  return pool.header()->data_off + chunk * kChunkSize;
}

// Block-grid coloring: each 512-4096 B chunk starts its blocks a whole number
// of XPLines (less than one block) past the chunk start, holds exactly the
// blocks that fit after that shift, and none crosses the chunk end. Over a
// dozen chunks the 2 KiB blocks' first lines take every XPLine residue mod
// 2 KiB, so node headers spread over the whole modeled read cache.
TEST_F(PmemTest, ShiftedChunkGridsHandOutExactlyTheirBlocks) {
  std::string path = TestPath("pmem_grid.pool");
  PmemPoolOptions opts;
  opts.size = 16 << 20;
  for (size_t cls : {512, 768, 1024, 1536, 2048, 3072, 4096}) {
    auto pool = PmemPool::Create(path, 21, 0, opts);
    ASSERT_NE(pool, nullptr);
    const auto chunks = ByChunk(*pool, AllocAll(pool.get(), cls));
    ASSERT_GE(chunks.size(), 9u);
    size_t shifted = 0;
    std::set<uint64_t> residues;  // of each chunk's first block, mod 2 KiB
    for (const auto& [c, offs] : chunks) {
      const uint64_t start = ChunkStart(*pool, c);
      const uint64_t shift = offs.front() - start;
      EXPECT_EQ(shift % kXpLineSize, 0u) << cls << "-B chunk " << c;
      EXPECT_LT(shift, cls) << cls << "-B chunk " << c;
      EXPECT_EQ(offs.size(), (kChunkSize - shift) / cls) << cls << "-B chunk " << c;
      EXPECT_LE(offs.back() + cls, start + kChunkSize) << cls << "-B chunk " << c;
      for (size_t i = 0; i < offs.size(); ++i) {
        ASSERT_EQ(offs[i], start + shift + i * cls) << cls << "-B chunk " << c;
      }
      shifted += shift != 0 ? 1 : 0;
      residues.insert(offs.front() % 2048 / kXpLineSize);
    }
    EXPECT_GT(shifted, 0u) << cls << "-B chunks all start on the chunk start";
    if (cls == 2048) {
      EXPECT_EQ(residues.size(), 8u) << "2 KiB blocks leave XPLine residues mod 2 KiB unused";
    }
    pool.reset();
    NvmPoolFile::Remove(path);
  }
}

// Free counts come back from the bitmaps with each chunk's shifted block
// count: after a reopen the freed blocks (and only those) are found again,
// freeing the rest empties every chunk back to the free list, and a reopen of
// the empty pool hands out the same grid.
TEST_F(PmemTest, RebuildRestoresShiftedChunkFreeCounts) {
  std::string path = TestPath("pmem_grid_rebuild.pool");
  PmemPoolOptions opts;
  opts.size = 16 << 20;
  std::vector<uint64_t> all;
  std::set<uint64_t> freed;
  {
    auto pool = PmemPool::Create(path, 22, 0, opts);
    ASSERT_NE(pool, nullptr);
    all = AllocAll(pool.get(), 2048);
    size_t shifted = 0;
    for (const auto& [c, offs] : ByChunk(*pool, all)) {
      shifted += offs.front() != ChunkStart(*pool, c) ? 1 : 0;
    }
    ASSERT_GT(shifted, 0u);
    for (size_t i = 0; i < all.size(); i += 2) {
      pool->Free(all[i]);
      freed.insert(all[i]);
    }
  }
  std::unique_ptr<PmemPool> pool;
  ASSERT_EQ(PmemPool::Open(path, 22, 0, opts, &pool), Status::kOk);
  EXPECT_EQ(pool->UsedFraction(), 1.0);
  std::vector<uint64_t> again = AllocAll(pool.get(), 2048);
  EXPECT_EQ(std::set<uint64_t>(again.begin(), again.end()), freed);
  for (uint64_t off : all) {
    pool->Free(off);
  }
  // Every chunk but the class's current one went back to the free list.
  EXPECT_LE(pool->UsedFraction(), 1.0 / pool->header()->chunk_count + 1e-9);
  pool.reset();
  ASSERT_EQ(PmemPool::Open(path, 22, 0, opts, &pool), Status::kOk);
  EXPECT_EQ(pool->UsedFraction(), 0.0);
  EXPECT_EQ(AllocAll(pool.get(), 2048), all);
  pool.reset();
  NvmPoolFile::Remove(path);
}

// Malloc-to recovery marks and frees exactly the logged block in a shifted
// chunk as in an unshifted one, under strict ADR: a completed AllocTo keeps
// its block and its attachment, one that crashed before attach gives back its
// block and no neighbour. The attached block is the first of the second cache
// line of its chunk's bitmap, where an index one block low would persist the
// wrong line.
TEST_F(PmemTest, AllocToRecoveryIsExactInShiftedChunks) {
  std::string path = TestPath("pmem_grid_recover.pool");
  PmemPoolOptions opts;
  opts.size = 16 << 20;
  for (bool want_shift : {false, true}) {
    uint64_t attached_off = 0;
    uint64_t interrupted_off = 0;
    {
      auto pool = PmemPool::Create(path, 23, 0, opts);
      ASSERT_NE(pool, nullptr);
      uint64_t x = 0;
      uint64_t y = 0;
      for (const auto& [c, offs] : ByChunk(*pool, AllocAll(pool.get(), 1024))) {
        if ((offs.front() != ChunkStart(*pool, c)) == want_shift) {
          x = offs[512];
          y = offs[64];
          break;
        }
      }
      ASSERT_NE(x, 0u) << (want_shift ? "no shifted chunk" : "no unshifted chunk");
      pool->Free(x);
      pool->Free(y);
      ShadowHeap::Enable(pool->base(), pool->size());
      auto* root = static_cast<uint64_t*>(pool->RootArea());
      root[0] = 0;
      root[1] = 0;
      PersistFence(root, 2 * sizeof(uint64_t));
      // First-fit: the plain Alloc takes y, the lower free block, then AllocTo
      // takes x; nothing after it persists x's bitmap line.
      PPtr<void> interrupted = pool->Alloc(1024);
      ASSERT_FALSE(interrupted.IsNull());
      PPtr<void> attached = pool->AllocTo(ToPPtr(&root[0]), 1024);
      ASSERT_FALSE(attached.IsNull());
      attached_off = attached.offset();
      interrupted_off = interrupted.offset();
      ASSERT_EQ(attached_off, x);
      ASSERT_EQ(interrupted_off, y);
      // Crash with both entries pending: the first after attach, the second
      // before it.
      auto* logs = reinterpret_cast<AllocLogSlot*>(static_cast<char*>(pool->base()) +
                                                   pool->header()->log_off);
      const std::pair<uint64_t*, PPtr<void>> pending[] = {{&root[0], attached},
                                                          {&root[1], interrupted}};
      for (size_t i = 0; i < 2; ++i) {
        logs[i].dest = ToPPtr(pending[i].first).raw;
        logs[i].block = pending[i].second.raw;
        logs[i].size = 1024;
        logs[i].state = kLogAllocPending;
        logs[i].checksum = AllocSlotChecksum(logs[i]);
        PersistFence(&logs[i], sizeof(AllocLogSlot));
      }
      std::vector<uint8_t> image = ShadowHeap::Capture(CrashMode::kStrict);
      ShadowHeap::Disable();
      pool.reset();
      std::ofstream(path, std::ios::binary | std::ios::trunc)
          .write(reinterpret_cast<const char*>(image.data()),
                 static_cast<std::streamsize>(image.size()));
    }
    std::unique_ptr<PmemPool> pool;
    ASSERT_EQ(PmemPool::Open(path, 23, 0, opts, &pool), Status::kOk);
    EXPECT_EQ(pool->PendingLogEntries(), 0u);
    const auto* root = static_cast<const uint64_t*>(pool->RootArea());
    EXPECT_EQ(PPtr<void>(root[0]).offset(), attached_off);
    EXPECT_EQ(root[1], 0u);
    EXPECT_EQ(AllocAll(pool.get(), 1024), std::vector<uint64_t>{interrupted_off})
        << (want_shift ? "shifted" : "unshifted") << " chunk";
    pool.reset();
    NvmPoolFile::Remove(path);
  }
}

}  // namespace
}  // namespace pactree
