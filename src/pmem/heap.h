// NUMA-aware persistent heap (paper §4.5, §5.8): one sub-pool per logical NUMA
// node; allocations come from the calling thread's local pool, so subsequent
// writes stay NUMA-local (GS2). A single-pool mode exists for the Figure 12
// factor analysis ("ART(SC)" baseline without the per-NUMA pool feature).
#ifndef PACTREE_SRC_PMEM_HEAP_H_
#define PACTREE_SRC_PMEM_HEAP_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/nvm/stats.h"
#include "src/pmem/pool.h"

namespace pactree {

struct PmemHeapOptions {
  uint16_t pool_id_base = 1;  // pool ids base .. base+nodes-1 (must be stable)
  size_t pool_size = 0;       // per sub-pool bytes (0 -> 64 MiB)
  bool crash_consistent = true;
  bool dram = false;         // volatile heap (no files, no persistence)
  bool single_pool = false;  // disable per-NUMA pools
  // Skip allocation-log recovery in OpenOrCreate; the caller invokes
  // RecoverPendingLogs() once every heap a log's malloc-to dest may reference
  // is mapped (PACTree opens three heaps whose logs cross-reference).
  bool defer_log_recovery = false;
};

class PmemHeap {
 public:
  // Opens the heap if its files exist, otherwise creates it. |created| (may be
  // null) reports which happened. Returns null on failure; |error| (may be
  // null) then receives the failing syscall, errno, and pool path.
  static std::unique_ptr<PmemHeap> OpenOrCreate(const std::string& name,
                                                const PmemHeapOptions& opts,
                                                bool* created = nullptr,
                                                std::string* error = nullptr);

  // Removes the heap's backing files.
  static void Destroy(const std::string& name);

  // Reads heap |name|'s node-0 pool superblock and the first word of its root
  // area (where a root object keeps its magic) with a plain read: nothing is
  // mapped, attached or written (an attach bumps the pool's generation).
  // kNotFound when there is no such file or it does not start with a pool
  // superblock; otherwise CheckPoolLayout's verdict on its layout version,
  // with |magic| set when that is kOk.
  static Status PeekRoot(const std::string& name, uint64_t* magic);

  // NUMA-local allocation. Falls back to other nodes' pools when local space
  // runs out.
  PPtr<void> Alloc(size_t size);
  PPtr<void> AllocTo(PPtr<uint64_t> dest, size_t size);
  void Free(PPtr<void> p) { PmemFree(p); }

  uint32_t pool_count() const { return static_cast<uint32_t>(pools_.size()); }
  PmemPool* pool(uint32_t i) const { return pools_[i].get(); }
  PmemPool* LocalPool() const;
  // The node-0 pool holds the heap's generation counter and root area.
  PmemPool* primary() const { return pools_[0].get(); }
  uint64_t generation() const { return primary()->generation(); }

  // Typed access to the primary pool's root area (sizeof(T) <= kRootAreaSize).
  template <typename T>
  T* Root() const {
    static_assert(sizeof(T) <= kRootAreaSize, "root object too large");
    return reinterpret_cast<T*>(primary()->RootArea());
  }

  const std::string& name() const { return name_; }

  // Deferred allocation-log recovery over every sub-pool. Idempotent.
  void RecoverPendingLogs() {
    for (const auto& p : pools_) {
      p->RecoverPendingLogs();
    }
  }

  // Media traffic attributed to this heap's sub-pools, across all threads
  // (live and exited). Counters are keyed per (thread, pool) in each thread's
  // ThreadContext, so two heaps in one process report disjoint numbers;
  // fences are unattributed and never appear here.
  NvmStatsSnapshot MediaStats() const {
    NvmStatsSnapshot s;
    for (const auto& p : pools_) {
      s += PoolNvmStats(p->pool_id());
    }
    s.heap_remote_allocs = RemoteAllocs();
    return s;
  }

  // Allocations that fell back to a non-local sub-pool because the NUMA-local
  // pool was exhausted. Nonzero means NUMA locality (GS2) is degrading: the
  // returned blocks generate remote media traffic for their whole lifetime.
  uint64_t RemoteAllocs() const {
    return remote_allocs_.load(std::memory_order_relaxed);
  }

  // Highest chunk-used fraction across the sub-pools -- the capacity-pressure
  // signal for watermark policy. The max (not the mean) matters: one exhausted
  // sub-pool fails its writers' allocations regardless of siblings' space.
  double MaxUsedFraction() const {
    double f = 0.0;
    for (const auto& p : pools_) {
      f = std::max(f, p->UsedFraction());
    }
    return f;
  }

  // Failed Alloc/AllocTo calls summed over the sub-pools. A post-fallback
  // failure counts once per pool it was attempted against.
  uint64_t AllocFailures() const {
    uint64_t n = 0;
    for (const auto& p : pools_) {
      n += p->AllocFailures();
    }
    return n;
  }

  // Unretired alloc/free log entries across all sub-pools (zero when drained).
  size_t PendingLogEntries() const {
    size_t n = 0;
    for (const auto& p : pools_) {
      n += p->PendingLogEntries();
    }
    return n;
  }

 private:
  PmemHeap() = default;

  std::string name_;
  PmemHeapOptions opts_;
  std::vector<std::unique_ptr<PmemPool>> pools_;
  std::atomic<uint64_t> remote_allocs_{0};
};

}  // namespace pactree

#endif  // PACTREE_SRC_PMEM_HEAP_H_
