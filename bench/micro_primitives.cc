// Google-benchmark microbenchmarks for the substrate primitives: persistence
// ops, crash-consistent vs transient allocation, version locks, PMwCAS, and
// single-threaded index point operations. Complements the figure benches.
#include <benchmark/benchmark.h>

#include "src/art/art.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/pactree/data_node.h"
#include "src/pactree/pactree.h"
#include "src/pmem/heap.h"
#include "src/pmem/registry.h"
#include "src/pmwcas/pmwcas.h"
#include "src/sync/epoch.h"
#include "src/sync/gen_sync.h"
#include "src/sync/version_lock.h"
#include "src/workload/keyset.h"

namespace pactree {
namespace {

std::unique_ptr<PmemHeap> MakeHeap(const char* name, uint16_t base,
                                   bool crash_consistent = true) {
  GlobalNvmConfig() = NvmConfig();
  PmemHeap::Destroy(name);
  PmemHeapOptions o;
  o.pool_id_base = base;
  o.pool_size = 512 << 20;
  o.crash_consistent = crash_consistent;
  auto heap = PmemHeap::OpenOrCreate(name, o);
  AdvanceGenerations({heap.get()});
  return heap;
}

void BM_PersistFence64B(benchmark::State& state) {
  auto heap = MakeHeap("mb_persist", 500);
  auto* buf = static_cast<char*>(heap->Alloc(4096).get());
  size_t off = 0;
  for (auto _ : state) {
    buf[off] = static_cast<char>(off);
    PersistFence(buf + off, 64);
    off = (off + 64) % 4096;
  }
  PmemHeap::Destroy("mb_persist");
}
BENCHMARK(BM_PersistFence64B);

void BM_AllocFree_CrashConsistent(benchmark::State& state) {
  auto heap = MakeHeap("mb_alloc_cc", 510, true);
  for (auto _ : state) {
    PPtr<void> p = heap->Alloc(64);
    heap->Free(p);
  }
  PmemHeap::Destroy("mb_alloc_cc");
}
BENCHMARK(BM_AllocFree_CrashConsistent);

void BM_AllocFree_Transient(benchmark::State& state) {
  auto heap = MakeHeap("mb_alloc_tr", 520, false);
  for (auto _ : state) {
    PPtr<void> p = heap->Alloc(64);
    heap->Free(p);
  }
  PmemHeap::Destroy("mb_alloc_tr");
}
BENCHMARK(BM_AllocFree_Transient);

void BM_VersionLockReadCycle(benchmark::State& state) {
  OptVersionLock lock;
  for (auto _ : state) {
    uint64_t t = lock.ReadLock();
    benchmark::DoNotOptimize(t);
    benchmark::DoNotOptimize(lock.Validate(t));
  }
}
BENCHMARK(BM_VersionLockReadCycle);

void BM_VersionLockWriteCycle(benchmark::State& state) {
  OptVersionLock lock;
  for (auto _ : state) {
    lock.WriteLock();
    lock.WriteUnlock();
  }
}
BENCHMARK(BM_VersionLockWriteCycle);

void BM_Pmwcas2Words(benchmark::State& state) {
  auto heap = MakeHeap("mb_pmwcas", 530);
  auto* anchor = heap->Root<uint64_t>();
  *anchor = 0;
  PmwcasPool pool(heap.get(), anchor, 1024);
  auto* words = static_cast<uint64_t*>(heap->Alloc(256).get());
  for (auto _ : state) {
    EpochGuard guard;
    uint64_t a = pool.ReadWord(&words[0]);
    uint64_t b = pool.ReadWord(&words[8]);
    PmwcasWordEntry e[2] = {{ToPPtr(&words[0]).raw, a, a + 1},
                            {ToPPtr(&words[8]).raw, b, b + 1}};
    pool.Run(e, 2);
  }
  PmemHeap::Destroy("mb_pmwcas");
}
BENCHMARK(BM_Pmwcas2Words);

void BM_KeyCompareFull(benchmark::State& state) {
  // Full-key equality (the paper's node stores a whole Key per slot): one
  // 32-byte memcmp over the zero-padded key images, regardless of how much of
  // the key the node's anchor already pins down.
  Key a = Key::FromString(std::string(31, 'q') + "a");
  Key b = a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a == b);
  }
}
BENCHMARK(BM_KeyCompareFull);

void BM_KeyCompareTruncated(benchmark::State& state) {
  // The data node's KeyEquals on a slot whose anchor-shared prefix is
  // Arg bytes long: a length check, an Arg-byte prefix memcmp against the
  // anchor, and a (32 - Arg)-byte suffix memcmp against the packed arena.
  // Sweeping Arg = 0/8/16/24 shows how much of the 32-byte compare the
  // anchor prefix absorbs.
  const size_t plen = static_cast<size_t>(state.range(0));
  auto heap = MakeHeap("mb_keycmp", 570);
  auto* node = static_cast<DataNode*>(heap->Alloc(sizeof(DataNode)).get());
  std::memset(static_cast<void*>(node), 0, sizeof(DataNode));
  std::string prefix(plen, 'p');
  node->anchor = Key::FromBytes(prefix.data(), prefix.size());
  Key key = Key::FromString(prefix + std::string(32 - plen, 'x'));
  node->FillSlot(0, key, key.Fingerprint(), 1);
  node->PublishBitmap(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(node->KeyEquals(0, key));
  }
  PmemHeap::Destroy("mb_keycmp");
}
BENCHMARK(BM_KeyCompareTruncated)->Arg(0)->Arg(8)->Arg(16)->Arg(24);

void BM_ArtInsert(benchmark::State& state) {
  auto heap = MakeHeap("mb_art", 540);
  PdlArt art(heap.get(), heap->Root<ArtTreeRoot>());
  KeySet ks(false);
  uint64_t i = 0;
  for (auto _ : state) {
    art.Insert(ks.At(i), i + 1);
    ++i;
  }
  EpochManager::Instance().DrainAll();
  PmemHeap::Destroy("mb_art");
}
BENCHMARK(BM_ArtInsert);

void BM_PacTreeInsert(benchmark::State& state) {
  GlobalNvmConfig() = NvmConfig();
  PacTree::Destroy("mb_pactree");
  PacTreeOptions o;
  o.name = "mb_pactree";
  o.pool_id_base = 550;
  o.pool_size = 512 << 20;
  auto tree = PacTree::Open(o);
  KeySet ks(false);
  uint64_t i = 0;
  for (auto _ : state) {
    tree->Insert(ks.At(i), i + 1);
    ++i;
  }
  tree.reset();
  EpochManager::Instance().DrainAll();
  PacTree::Destroy("mb_pactree");
}
BENCHMARK(BM_PacTreeInsert);

void BM_PacTreeLookup(benchmark::State& state) {
  GlobalNvmConfig() = NvmConfig();
  PacTree::Destroy("mb_pactree2");
  PacTreeOptions o;
  o.name = "mb_pactree2";
  o.pool_id_base = 560;
  o.pool_size = 512 << 20;
  auto tree = PacTree::Open(o);
  KeySet ks(false);
  constexpr uint64_t kN = 200'000;
  for (uint64_t i = 0; i < kN; ++i) {
    tree->Insert(ks.At(i), i);
  }
  tree->DrainSmoLogs();
  uint64_t i = 0;
  for (auto _ : state) {
    uint64_t v;
    tree->Lookup(ks.At(i % kN), &v);
    ++i;
    benchmark::DoNotOptimize(v);
  }
  tree.reset();
  EpochManager::Instance().DrainAll();
  PacTree::Destroy("mb_pactree2");
}
BENCHMARK(BM_PacTreeLookup);

}  // namespace
}  // namespace pactree

BENCHMARK_MAIN();
