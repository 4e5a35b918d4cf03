// Crash-consistent persistent pool + slab allocator (the PMDK stand-in).
//
// One PmemPool owns one mapped file (or an anonymous DRAM region). The body is
// divided into 1 MiB chunks; each chunk is assigned a size class and carries a
// persistent allocation bitmap. The costs the paper attributes to PMDK (GS1) come
// from the crash-consistency protocol implemented here: persistent allocation
// logs, persisted bitmap words, and malloc-to semantics (allocate + persistently
// attach to a destination word atomically, used for leak prevention, §5.1(3)).
// A transient mode skips logs and persistence -- the "modified Jemalloc" of
// Figure 3.
#ifndef PACTREE_SRC_PMEM_POOL_H_
#define PACTREE_SRC_PMEM_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/status.h"
#include "src/nvm/pool_file.h"
#include "src/pmem/pptr.h"

namespace pactree {

inline constexpr uint64_t kPoolMagic = 0x314c4f4f50434150ULL;  // "PACPOOL1"
// On-media layout of the pool body. Version 2 shifts the block grid of every
// 512-4096 B size-class chunk by whole XPLines (its chunk color); version 1
// pools put every block on its chunk's unshifted grid and are refused.
inline constexpr uint32_t kPoolLayoutVersion = 2;

// kOk for this build's layout version, kOldLayout for an older one it refuses
// (the pool is left as is), kCorrupted for any other value.
inline Status CheckPoolLayout(uint32_t layout_version) {
  if (layout_version == kPoolLayoutVersion) {
    return Status::kOk;
  }
  return layout_version == 1 ? Status::kOldLayout : Status::kCorrupted;
}

inline constexpr size_t kChunkSize = 1ULL << 20;
inline constexpr size_t kRootAreaSize = 32768;
inline constexpr size_t kLogSlots = 2048;
inline constexpr size_t kMinBlock = 64;
inline constexpr size_t kMaxBlocksPerChunk = kChunkSize / kMinBlock;  // 16384
inline constexpr size_t kBitmapWordsPerChunk = kMaxBlocksPerChunk / 64;  // 256

// Size classes; allocations above the last class take a whole chunk.
inline constexpr size_t kSizeClasses[] = {64,   128,  256,  512,   768,   1024,
                                          1536, 2048, 3072, 4096,  6144,  8192,
                                          16384, 32768, 65536, 131072, 262144};
inline constexpr size_t kNumClasses = sizeof(kSizeClasses) / sizeof(kSizeClasses[0]);
inline constexpr uint32_t kChunkStateFree = 0;
inline constexpr uint32_t kChunkStateWhole = 0xffffffffu;  // whole-chunk allocation

struct PoolHeader {
  uint64_t magic;
  uint32_t layout_version;
  uint16_t pool_id;
  uint16_t node;
  uint64_t size;
  uint32_t chunk_count;
  uint32_t log_slots;
  uint64_t chunk_meta_off;
  uint64_t bitmap_off;
  uint64_t log_off;
  uint64_t data_off;
  uint64_t generation;  // bumped on every Open; voids stale version locks
  uint8_t pad[952];
  uint8_t root[kRootAreaSize];  // application root area
};
static_assert(sizeof(PoolHeader) == 1024 + kRootAreaSize, "header layout");

// Persistent allocation/free log entry (the malloc-to protocol). The whole
// entry -- payload, state, and checksum -- is published with one fence and the
// checksum is durably zeroed at retirement, so a torn line write (8 B
// granularity) can never pair a fresh state word with stale payload words that
// recovery would act on: any partial commit fails the checksum and the entry
// is discarded.
struct AllocLogSlot {
  uint64_t state;     // kLogEmpty / kLogAllocPending / kLogFreePending
  uint64_t dest;      // raw PPtr of the destination word (alloc) or 0
  uint64_t block;     // raw PPtr of the block
  uint64_t size;
  uint64_t checksum;  // LogChecksum over the four words above
  uint8_t pad[24];
};
static_assert(sizeof(AllocLogSlot) == 64, "log slot is one cache line");

inline constexpr uint64_t kLogEmpty = 0;
inline constexpr uint64_t kLogAllocPending = 1;
inline constexpr uint64_t kLogFreePending = 2;

inline uint64_t AllocSlotChecksum(const AllocLogSlot& s) {
  return LogChecksum({s.state, s.dest, s.block, s.size});
}

struct PmemPoolOptions {
  size_t size = 0;              // 0 -> NvmConfig::pool_size
  bool crash_consistent = true;
  bool dram = false;            // anonymous DRAM region (Figure 12 "DRAM SL")
  // Skip allocation-log recovery in Open; the caller invokes
  // RecoverPendingLogs() once every pool the logs may reference is mapped. A
  // pending malloc-to entry's |dest| can live in a *different* pool (PACTree's
  // split allocates into an SMO-log-heap word), so recovering a pool the
  // moment it is opened would dereference an unmapped persistent pointer.
  bool defer_log_recovery = false;
};

struct PmemPoolStats {
  uint64_t allocs = 0;
  uint64_t frees = 0;
  uint64_t live_bytes = 0;
  uint64_t alloc_failures = 0;   // Alloc/AllocTo calls that returned Null
  uint64_t hwm_live_bytes = 0;   // high watermark of live_bytes
  uint64_t chunks_released = 0;  // emptied size-class chunks returned to free
  double used_fraction = 0.0;    // assigned chunks / total chunks
};

class PmemPool {
 public:
  // Creates a fresh pool file (truncates an existing one). On failure returns
  // nullptr and, when |error| is non-null, stores a description naming the
  // failing syscall, errno, and path.
  static std::unique_ptr<PmemPool> Create(const std::string& path, uint16_t pool_id,
                                          uint32_t node, const PmemPoolOptions& opts,
                                          std::string* error = nullptr);
  // Opens an existing pool, runs allocation-log recovery, bumps the
  // generation. Validates the superblock (file size, magic, pool id, layout
  // offsets) before touching anything else, so a truncated, zero-length, or
  // foreign file yields Status::kCorrupted / kIoError instead of a crash.
  // |error| (optional) receives the failing syscall + errno + path for I/O
  // failures, or which validation step rejected the superblock.
  static Status Open(const std::string& path, uint16_t pool_id, uint32_t node,
                     const PmemPoolOptions& opts, std::unique_ptr<PmemPool>* out,
                     std::string* error = nullptr);

  ~PmemPool();
  PmemPool(const PmemPool&) = delete;
  PmemPool& operator=(const PmemPool&) = delete;

  // Allocates |size| bytes; returns a persistent pointer (null on OOM). The
  // block is zeroed (not persisted; callers persist what they initialize).
  PPtr<void> Alloc(size_t size);

  // malloc-to: allocates and persistently stores the new block's PPtr into the
  // word addressed by |dest| (which must itself live in a registered pool).
  // Crash-atomic: after recovery either *dest holds the block or the block is
  // free. Returns the block.
  PPtr<void> AllocTo(PPtr<uint64_t> dest, size_t size);

  // Frees a block previously returned by this pool.
  void Free(uint64_t offset);

  uint16_t pool_id() const { return pool_id_; }
  uint32_t node() const { return node_; }
  void* base() const { return base_; }
  size_t size() const { return size_; }
  PoolHeader* header() const { return reinterpret_cast<PoolHeader*>(base_); }
  void* RootArea() const { return header()->root; }
  uint64_t generation() const { return header()->generation; }
  const std::string& path() const { return path_; }
  bool crash_consistent() const { return crash_consistent_; }

  size_t BlockSize(uint64_t offset) const;
  PmemPoolStats Stats() const;

  // Number of alloc/free log entries not yet retired. Zero after recovery (and
  // in any quiescent state): the invariant checker asserts the log is drained.
  size_t PendingLogEntries() const;

  // Runs (deferred) allocation-log recovery. Idempotent; call after every
  // pool a pending entry's |dest| may reference has been mapped.
  void RecoverPendingLogs() { RecoverLogs(); }

  // Total bytes of blocks currently allocated (approximate under concurrency).
  uint64_t LiveBytes() const { return live_bytes_.load(std::memory_order_relaxed); }

  // High watermark of LiveBytes() over the pool's lifetime (volatile).
  uint64_t HighWatermark() const {
    return hwm_live_bytes_.load(std::memory_order_relaxed);
  }

  // Alloc/AllocTo calls that returned Null (OOM or an injected fail point).
  uint64_t AllocFailures() const {
    return alloc_failures_.load(std::memory_order_relaxed);
  }

  // Fraction of chunks assigned to a size class or whole-chunk allocation
  // (0.0 = empty, 1.0 = every chunk taken). Capacity-pressure signal: a pool
  // with no free chunk fails any allocation its partial chunks cannot serve.
  double UsedFraction() const;

 private:
  PmemPool() = default;

  bool InitNew(uint16_t pool_id, uint32_t node, size_t size);
  Status ValidateHeader(uint16_t pool_id) const;
  bool AttachExisting(uint16_t pool_id, bool recover_logs);
  void RecoverLogs();
  void RebuildVolatileState();

  uint64_t AllocOffset(size_t size, bool persist_meta);
  uint64_t AllocWholeChunks(size_t size, bool persist_meta);
  int AcquireChunk(size_t class_idx);
  uint64_t TryAllocInChunk(uint32_t chunk, size_t class_idx, bool persist_meta);
  PPtr<void> AllocInternal(size_t size, bool persist_meta);
  void PersistBlockMetadata(uint64_t offset);
  void FreeInternal(uint64_t offset, bool log);
  // Returns a fully-empty size-class chunk to the free list so another class
  // (or a whole-chunk allocation) can reuse it. Without this, UsedFraction is
  // monotone and deletes can never bring a tree back under the pool-pressure
  // resume watermark. The live-path analogue of RebuildVolatileState's
  // empty-chunk release; no-op when the chunk is the class's active target or
  // a racing allocation claims a block mid-release.
  void TryReleaseEmptyChunk(uint32_t chunk, size_t class_idx);

  AllocLogSlot* Logs() const;
  uint32_t* ChunkStates() const;
  uint64_t* BitmapOf(uint32_t chunk) const;
  uint64_t ChunkDataOffset(uint32_t chunk) const;
  uint32_t ChunkOf(uint64_t offset) const;
  // The one conversion pair between a size-class chunk's block indices and
  // pool offsets; both apply the chunk's grid shift.
  uint64_t BlockOffset(uint32_t chunk, size_t block_size, uint32_t block_idx) const;
  uint32_t BlockIndex(uint32_t chunk, size_t block_size, uint64_t offset) const;
  int AcquireLogSlot();
  void ReleaseLogSlot(int slot);

  // --- mapped state ---
  NvmPoolFile file_;       // file-backed pools
  void* dram_base_ = nullptr;  // DRAM pools
  void* base_ = nullptr;
  size_t size_ = 0;
  uint16_t pool_id_ = 0;
  uint32_t node_ = 0;
  bool crash_consistent_ = true;
  bool dram_ = false;
  std::string path_;

  // --- volatile allocator state ---
  struct ClassState {
    std::atomic<int64_t> current{-1};
    std::atomic<uint32_t> hint{0};  // first-fit cursor (bitmap word); a fresh
                                    // chunk starts it at the chunk's color
    std::vector<uint32_t> partial;  // chunks with free blocks (guarded by mu_)
  };
  ClassState classes_[kNumClasses];
  std::vector<uint32_t> free_chunks_;               // guarded by mu_
  std::vector<std::atomic<uint32_t>> free_counts_;  // per chunk
  std::vector<std::atomic<uint8_t>> in_partial_;    // per chunk
  std::vector<std::atomic<uint8_t>> log_busy_;      // per log slot
  mutable std::mutex mu_;

  std::atomic<uint64_t> allocs_{0};
  std::atomic<uint64_t> frees_{0};
  std::atomic<uint64_t> live_bytes_{0};
  std::atomic<uint64_t> alloc_failures_{0};
  std::atomic<uint64_t> hwm_live_bytes_{0};
  std::atomic<uint64_t> chunks_released_{0};
};

// Routes a free to the owning pool (by pool id). Safe for any PPtr returned by
// a live PmemPool.
void PmemFree(PPtr<void> p);

// Size-class helper exposed for tests.
size_t SizeClassFor(size_t size);

}  // namespace pactree

#endif  // PACTREE_SRC_PMEM_POOL_H_
