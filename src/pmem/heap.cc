#include "src/pmem/heap.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>

#include "src/common/failpoint.h"
#include "src/nvm/config.h"
#include "src/nvm/topology.h"

namespace pactree {
namespace {

std::string PoolPath(const std::string& name, uint32_t node) {
  return NvmConfig::DefaultPoolDir() + "/" + name + "." + std::to_string(node) + ".pool";
}

}  // namespace

Status PmemHeap::PeekRoot(const std::string& name, uint64_t* magic) {
  int fd = ::open(PoolPath(name, 0).c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::kNotFound;
  }
  uint64_t pool_magic = 0;
  uint32_t layout_version = 0;
  Status st = Status::kNotFound;
  if (::pread(fd, &pool_magic, sizeof(pool_magic), offsetof(PoolHeader, magic)) ==
          static_cast<ssize_t>(sizeof(pool_magic)) &&
      pool_magic == kPoolMagic &&
      ::pread(fd, &layout_version, sizeof(layout_version),
              offsetof(PoolHeader, layout_version)) ==
          static_cast<ssize_t>(sizeof(layout_version))) {
    st = CheckPoolLayout(layout_version);
    if (st == Status::kOk &&
        ::pread(fd, magic, sizeof(*magic), offsetof(PoolHeader, root)) !=
            static_cast<ssize_t>(sizeof(*magic))) {
      st = Status::kNotFound;
    }
  }
  ::close(fd);
  return st;
}

std::unique_ptr<PmemHeap> PmemHeap::OpenOrCreate(const std::string& name,
                                                 const PmemHeapOptions& opts,
                                                 bool* created, std::string* error) {
  auto heap = std::unique_ptr<PmemHeap>(new PmemHeap());
  heap->name_ = name;
  heap->opts_ = opts;
  uint32_t nodes = opts.single_pool ? 1 : GlobalNvmConfig().numa_nodes;
  if (nodes == 0) {
    nodes = 1;
  }
  PmemPoolOptions popts;
  popts.size = opts.pool_size != 0 ? opts.pool_size : (64ULL << 20);
  popts.crash_consistent = opts.crash_consistent;
  popts.dram = opts.dram;
  // Pools of one heap can cross-reference via malloc-to dest words: map every
  // pool first, recover logs after (or leave it to the caller entirely).
  popts.defer_log_recovery = true;

  bool did_create = false;
  for (uint32_t n = 0; n < nodes; ++n) {
    uint16_t pool_id = static_cast<uint16_t>(opts.pool_id_base + n);
    std::string path = PoolPath(name, n);
    std::unique_ptr<PmemPool> pool;
    std::string pool_error;
    if (!opts.dram && NvmPoolFile::Exists(path)) {
      Status st = PmemPool::Open(path, pool_id, n, popts, &pool, &pool_error);
      if (st != Status::kOk) {
        // The file exists but is unusable (truncated, bad magic, foreign pool
        // id). Recreating would silently discard whatever data it held, so
        // surface the failure instead.
        std::fprintf(stderr, "pactree: heap '%s' open failed: %s\n", name.c_str(),
                     pool_error.c_str());
        if (error != nullptr) {
          *error = pool_error;
        }
        return nullptr;
      }
    }
    if (pool == nullptr) {
      pool = PmemPool::Create(path, pool_id, n, popts, &pool_error);
      did_create = true;
    }
    if (pool == nullptr) {
      std::fprintf(stderr, "pactree: heap '%s' create failed: %s\n", name.c_str(),
                   pool_error.c_str());
      if (error != nullptr) {
        *error = pool_error;
      }
      return nullptr;
    }
    heap->pools_.push_back(std::move(pool));
  }
  if (!opts.defer_log_recovery) {
    heap->RecoverPendingLogs();
  }
  if (created != nullptr) {
    *created = did_create;
  }
  return heap;
}

void PmemHeap::Destroy(const std::string& name) {
  for (uint32_t n = 0; n < 64; ++n) {
    std::string path = PoolPath(name, n);
    if (!NvmPoolFile::Exists(path)) {
      break;
    }
    NvmPoolFile::Remove(path);
  }
}

PmemPool* PmemHeap::LocalPool() const {
  uint32_t node = CurrentNumaNode();
  return pools_[node % pools_.size()].get();
}

PPtr<void> PmemHeap::Alloc(size_t size) {
  PmemPool* local = LocalPool();
  PPtr<void> p = local->Alloc(size);
  if (!p.IsNull()) {
    return p;
  }
  // Local pool exhausted: fall back to the other nodes. Fail point
  // "heap/fallback": firing suppresses the fallback, simulating every node's
  // pool being as full as the local one.
  if (PACTREE_FAILPOINT("heap/fallback")) {
    return PPtr<void>::Null();
  }
  for (const auto& pool : pools_) {
    if (pool.get() == local) {
      continue;
    }
    p = pool->Alloc(size);
    if (!p.IsNull()) {
      remote_allocs_.fetch_add(1, std::memory_order_relaxed);
      return p;
    }
  }
  return PPtr<void>::Null();
}

PPtr<void> PmemHeap::AllocTo(PPtr<uint64_t> dest, size_t size) {
  PmemPool* local = LocalPool();
  PPtr<void> p = local->AllocTo(dest, size);
  if (!p.IsNull()) {
    return p;
  }
  if (PACTREE_FAILPOINT("heap/fallback")) {
    return PPtr<void>::Null();
  }
  for (const auto& pool : pools_) {
    if (pool.get() == local) {
      continue;
    }
    p = pool->AllocTo(dest, size);
    if (!p.IsNull()) {
      remote_allocs_.fetch_add(1, std::memory_order_relaxed);
      return p;
    }
  }
  return PPtr<void>::Null();
}

}  // namespace pactree
