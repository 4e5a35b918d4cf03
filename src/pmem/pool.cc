#include "src/pmem/pool.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include "src/common/compiler.h"
#include "src/common/failpoint.h"
#include "src/nvm/persist.h"
#include "src/nvm/stats.h"
#include "src/pmem/registry.h"
#include "src/runtime/thread_context.h"

namespace pactree {
namespace {

inline std::atomic_ref<uint64_t> AtomicRef64(uint64_t* p) { return std::atomic_ref<uint64_t>(*p); }
inline std::atomic_ref<uint32_t> AtomicRef32(uint32_t* p) { return std::atomic_ref<uint32_t>(*p); }

// Where a size-class chunk puts its blocks: slab coloring (Bonwick 1994).
// Every chunk spans the same 1 MiB of address bits, so without a color block k
// of every chunk maps to the same sets of a cache one chunk wide, and in a
// direct-mapped one (the NVM model's read cache) the first node of one class
// evicts the first node of another and the header lines of every 2 KiB node
// share one eighth of the sets. Two placements answer that:
//  - grid_shift: a 512-4096 B class's blocks start (chunk mod XPLines per
//    block) whole XPLines past the chunk start. A chunk holds
//    (1 MiB - grid_shift) / block_size blocks, at most one fewer than unshifted
//    (1/512 of a chunk of 2 KiB blocks). Line k of block b in chunk c lands on a
//    different set than in chunk c+1.
//  - start_word: a fresh chunk's first-fit start, a Fibonacci hash of the chunk
//    index scaled to its bitmap words, so the first blocks of the classes'
//    chunks do not all sit at the chunk start.
// A pure function of the chunk index and block size: placement repeats run to
// run, and Open recomputes it (the shift is part of layout version 2).
struct ChunkGeometry {
  uint64_t grid_shift;
  uint32_t blocks;
  uint32_t start_word;
};

inline ChunkGeometry ChunkColor(uint32_t chunk, size_t block_size) {
  const size_t lines = block_size / kXpLineSize;
  const uint64_t shift = lines >= 2 && lines <= 16 ? (chunk % lines) * kXpLineSize : 0;
  const auto blocks = static_cast<uint32_t>((kChunkSize - shift) / block_size);
  const uint32_t h = chunk * 0x9E3779B9u;
  return {shift, blocks, static_cast<uint32_t>((uint64_t{h} * ((blocks + 63) / 64)) >> 32)};
}

}  // namespace

size_t SizeClassFor(size_t size) {
  for (size_t i = 0; i < kNumClasses; ++i) {
    if (size <= kSizeClasses[i]) {
      return i;
    }
  }
  return kNumClasses;  // whole-chunk path
}

// ---------------------------------------------------------------------------
// Construction / layout
// ---------------------------------------------------------------------------

std::unique_ptr<PmemPool> PmemPool::Create(const std::string& path, uint16_t pool_id,
                                           uint32_t node, const PmemPoolOptions& opts,
                                           std::string* error) {
  assert(pool_id != 0 && "pool id 0 is the null pool");
  auto pool = std::unique_ptr<PmemPool>(new PmemPool());
  size_t size = opts.size != 0 ? opts.size : (64ULL << 20);
  pool->crash_consistent_ = opts.crash_consistent && !opts.dram;
  pool->dram_ = opts.dram;
  pool->path_ = path;
  if (opts.dram) {
    void* base = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) {
      if (error != nullptr) {
        *error = std::string("mmap(anonymous DRAM pool): ") + std::strerror(errno);
      }
      return nullptr;
    }
    pool->dram_base_ = base;
    pool->base_ = base;
    pool->size_ = size;
    pool->node_ = node;
  } else {
    if (!pool->file_.Create(path, size, node, pool_id)) {
      if (error != nullptr) {
        *error = pool->file_.last_error();
      }
      return nullptr;
    }
    pool->base_ = pool->file_.base();
    pool->size_ = pool->file_.size();
    pool->node_ = node;
  }
  if (!pool->InitNew(pool_id, node, size)) {
    if (error != nullptr) {
      *error = path + ": pool size " + std::to_string(size) +
               " too small for one chunk plus metadata";
    }
    return nullptr;
  }
  return pool;
}

Status PmemPool::Open(const std::string& path, uint16_t pool_id, uint32_t node,
                      const PmemPoolOptions& opts, std::unique_ptr<PmemPool>* out,
                      std::string* error) {
  out->reset();
  if (error != nullptr) {
    error->clear();
  }
  if (!NvmPoolFile::Exists(path)) {
    if (error != nullptr) {
      *error = path + ": pool file does not exist";
    }
    return Status::kNotFound;
  }
  auto pool = std::unique_ptr<PmemPool>(new PmemPool());
  pool->crash_consistent_ = opts.crash_consistent;
  pool->path_ = path;
  if (!pool->file_.Open(path, node, pool_id)) {
    // The file exists but cannot be mapped (zero-length, unreadable): treat a
    // present-but-unmappable pool as corrupt so callers never recreate over it
    // silently. The pool-file layer recorded the syscall + errno + path.
    if (error != nullptr) {
      *error = pool->file_.last_error();
    }
    return Status::kCorrupted;
  }
  pool->base_ = pool->file_.base();
  pool->size_ = pool->file_.size();
  pool->node_ = node;
  Status st = pool->ValidateHeader(pool_id);
  if (st != Status::kOk) {
    if (error != nullptr) {
      *error = st == Status::kOldLayout
                   ? path + ": pool layout version " +
                         std::to_string(pool->header()->layout_version) +
                         " puts blocks on unshifted chunk grids; this build reads layout " +
                         std::to_string(kPoolLayoutVersion) + " (pool left untouched)"
                   : path + ": superblock validation failed (bad magic, pool id, or layout)";
    }
    return st;
  }
  if (!pool->AttachExisting(pool_id, !opts.defer_log_recovery)) {
    if (error != nullptr) {
      *error = path + ": attach failed (header mutated between validate and attach)";
    }
    return Status::kCorrupted;
  }
  *out = std::move(pool);
  return Status::kOk;
}

Status PmemPool::ValidateHeader(uint16_t pool_id) const {
  // Everything here must be provably inside the mapping before it is read:
  // a truncated file must fail validation, not fault.
  if (size_ < sizeof(PoolHeader)) {
    return Status::kCorrupted;
  }
  const PoolHeader* h = header();
  if (h->magic != kPoolMagic) {
    return Status::kCorrupted;
  }
  if (Status st = CheckPoolLayout(h->layout_version); st != Status::kOk) {
    return st;
  }
  if (h->pool_id != pool_id) {
    return Status::kCorrupted;
  }
  if (h->size < sizeof(PoolHeader) || h->size > size_) {
    return Status::kCorrupted;
  }
  if (h->chunk_count == 0 || h->log_slots == 0 || h->log_slots > kLogSlots) {
    return Status::kCorrupted;
  }
  uint64_t chunk_meta_end = h->chunk_meta_off + uint64_t{h->chunk_count} * sizeof(uint32_t);
  uint64_t bitmap_end =
      h->bitmap_off + uint64_t{h->chunk_count} * kBitmapWordsPerChunk * sizeof(uint64_t);
  uint64_t log_end = h->log_off + uint64_t{h->log_slots} * sizeof(AllocLogSlot);
  uint64_t data_end = h->data_off + uint64_t{h->chunk_count} * kChunkSize;
  if (h->chunk_meta_off < sizeof(PoolHeader) || chunk_meta_end > h->bitmap_off ||
      bitmap_end > h->log_off || log_end > h->data_off || data_end > h->size) {
    return Status::kCorrupted;
  }
  return Status::kOk;
}

bool PmemPool::InitNew(uint16_t pool_id, uint32_t node, size_t size) {
  pool_id_ = pool_id;
  // Layout: header | chunk states | bitmaps | log slots | data chunks.
  size_t meta = sizeof(PoolHeader);
  size_t chunk_meta_off = meta;
  // Solve for chunk count: each chunk costs kChunkSize data + 4 B state +
  // bitmap words.
  size_t per_chunk_meta = sizeof(uint32_t) + kBitmapWordsPerChunk * sizeof(uint64_t);
  size_t fixed = meta + kLogSlots * sizeof(AllocLogSlot) + 4096;
  if (size <= fixed + kChunkSize + per_chunk_meta) {
    return false;
  }
  uint32_t chunks = static_cast<uint32_t>((size - fixed) / (kChunkSize + per_chunk_meta));
  size_t bitmap_off = chunk_meta_off + chunks * sizeof(uint32_t);
  bitmap_off = (bitmap_off + 63) & ~size_t{63};
  size_t log_off = bitmap_off + chunks * kBitmapWordsPerChunk * sizeof(uint64_t);
  log_off = (log_off + 63) & ~size_t{63};
  size_t data_off = log_off + kLogSlots * sizeof(AllocLogSlot);
  data_off = (data_off + 4095) & ~size_t{4095};
  while (data_off + static_cast<size_t>(chunks) * kChunkSize > size) {
    --chunks;
  }

  PoolHeader* h = header();
  std::memset(h, 0, sizeof(PoolHeader));
  h->layout_version = kPoolLayoutVersion;
  h->pool_id = pool_id;
  h->node = static_cast<uint16_t>(node);
  h->size = size;
  h->chunk_count = chunks;
  h->log_slots = kLogSlots;
  h->chunk_meta_off = chunk_meta_off;
  h->bitmap_off = bitmap_off;
  h->log_off = log_off;
  h->data_off = data_off;
  h->generation = 1;
  PersistFence(h, sizeof(PoolHeader));
  // Chunk states / bitmaps / logs start zeroed (fresh file or fresh mapping).
  h->magic = kPoolMagic;  // linearization point for pool validity
  PersistFence(&h->magic, sizeof(h->magic));

  SetPoolBase(pool_id_, base_);
  RegisterPoolRange(base_, size_, pool_id_);
  RegisterPoolAllocator(pool_id_, this);
  RebuildVolatileState();
  return true;
}

bool PmemPool::AttachExisting(uint16_t pool_id, bool recover_logs) {
  PoolHeader* h = header();
  if (h->magic != kPoolMagic || h->pool_id != pool_id || h->size > size_) {
    return false;
  }
  pool_id_ = pool_id;
  SetPoolBase(pool_id_, base_);
  RegisterPoolRange(base_, size_, pool_id_);
  RegisterPoolAllocator(pool_id_, this);
  h->generation++;
  PersistFence(&h->generation, sizeof(h->generation));
  RebuildVolatileState();
  if (recover_logs) {
    RecoverLogs();
  }
  return true;
}

PmemPool::~PmemPool() {
  if (base_ != nullptr) {
    RegisterPoolAllocator(pool_id_, nullptr);
    UnregisterPoolRange(base_);
    SetPoolBase(pool_id_, nullptr);
  }
  if (dram_base_ != nullptr) {
    ::munmap(dram_base_, size_);
  }
}

AllocLogSlot* PmemPool::Logs() const {
  return reinterpret_cast<AllocLogSlot*>(static_cast<char*>(base_) + header()->log_off);
}

uint32_t* PmemPool::ChunkStates() const {
  return reinterpret_cast<uint32_t*>(static_cast<char*>(base_) + header()->chunk_meta_off);
}

uint64_t* PmemPool::BitmapOf(uint32_t chunk) const {
  return reinterpret_cast<uint64_t*>(static_cast<char*>(base_) + header()->bitmap_off) +
         static_cast<size_t>(chunk) * kBitmapWordsPerChunk;
}

uint64_t PmemPool::ChunkDataOffset(uint32_t chunk) const {
  return header()->data_off + static_cast<uint64_t>(chunk) * kChunkSize;
}

uint32_t PmemPool::ChunkOf(uint64_t offset) const {
  return static_cast<uint32_t>((offset - header()->data_off) / kChunkSize);
}

uint64_t PmemPool::BlockOffset(uint32_t chunk, size_t block_size, uint32_t block_idx) const {
  return ChunkDataOffset(chunk) + ChunkColor(chunk, block_size).grid_shift +
         uint64_t{block_idx} * block_size;
}

uint32_t PmemPool::BlockIndex(uint32_t chunk, size_t block_size, uint64_t offset) const {
  return static_cast<uint32_t>(
      (offset - ChunkDataOffset(chunk) - ChunkColor(chunk, block_size).grid_shift) /
      block_size);
}

// ---------------------------------------------------------------------------
// Volatile state reconstruction & log recovery
// ---------------------------------------------------------------------------

void PmemPool::RebuildVolatileState() {
  PoolHeader* h = header();
  std::lock_guard<std::mutex> lock(mu_);
  free_chunks_.clear();
  free_counts_ = std::vector<std::atomic<uint32_t>>(h->chunk_count);
  in_partial_ = std::vector<std::atomic<uint8_t>>(h->chunk_count);
  log_busy_ = std::vector<std::atomic<uint8_t>>(h->log_slots);
  for (auto& c : classes_) {
    c.current.store(-1, std::memory_order_relaxed);
    c.hint.store(0, std::memory_order_relaxed);
    c.partial.clear();
  }
  uint32_t* states = ChunkStates();
  for (uint32_t i = 0; i < h->chunk_count; ++i) {
    uint32_t st = states[i];
    if (st == kChunkStateFree) {
      free_chunks_.push_back(i);
      continue;
    }
    if (st == kChunkStateWhole || st > kNumClasses) {
      // Whole-chunk allocation (or continuation marker): occupied iff bit 0.
      free_counts_[i].store(0, std::memory_order_relaxed);
      continue;
    }
    size_t class_idx = st - 1;
    uint32_t blocks = ChunkColor(i, kSizeClasses[class_idx]).blocks;
    uint64_t* bm = BitmapOf(i);
    uint32_t used = 0;
    for (uint32_t w = 0; w < (blocks + 63) / 64; ++w) {
      used += static_cast<uint32_t>(__builtin_popcountll(bm[w]));
    }
    free_counts_[i].store(blocks - used, std::memory_order_relaxed);
    if (used == 0) {
      // Empty assigned chunk: make it reusable for any class.
      states[i] = kChunkStateFree;
      PersistFence(&states[i], sizeof(uint32_t));
      free_chunks_.push_back(i);
    } else if (used < blocks) {
      classes_[class_idx].partial.push_back(i);
      in_partial_[i].store(1, std::memory_order_relaxed);
    }
  }
}

void PmemPool::RecoverLogs() {
  PoolHeader* h = header();
  AllocLogSlot* logs = Logs();
  for (uint32_t i = 0; i < h->log_slots; ++i) {
    AllocLogSlot& s = logs[i];
    if (s.state == kLogEmpty && s.checksum == 0) {
      continue;
    }
    if (s.state != kLogEmpty && s.checksum != AllocSlotChecksum(s)) {
      // Torn publish: part of the entry (possibly just the state word next to
      // a retired entry's stale payload) reached the media. The entry's fence
      // precedes any data mutation of the logged operation, so discarding it
      // is exactly "the operation never started".
      s.state = kLogEmpty;
      s.checksum = 0;
      PersistFence(&s, sizeof(s));
      continue;
    }
    if (s.state == kLogAllocPending) {
      PPtr<uint64_t> dest(s.dest);
      PPtr<void> block(s.block);
      if (!block.IsNull()) {
        // |dest| may live in another pool (cross-heap malloc-to): recovery
        // runs only after all of the index's pools are mapped (deferred log
        // recovery), and a dest in a pool that is gone entirely cannot hold a
        // reachable attachment -- roll back.
        bool attached = !dest.IsNull() && GetPoolBase(dest.pool()) != nullptr &&
                        *dest.get() == s.block;
        if (!attached) {
          // Roll back: release the block.
          FreeInternal(block.offset(), /*log=*/false);
        }
      }
    } else if (s.state == kLogFreePending) {
      PPtr<void> block(s.block);
      if (!block.IsNull()) {
        FreeInternal(block.offset(), /*log=*/false);  // idempotent bit clear
      }
    }
    s.state = kLogEmpty;
    s.checksum = 0;
    PersistFence(&s, sizeof(s));
  }
}

size_t PmemPool::PendingLogEntries() const {
  const PoolHeader* h = header();
  const AllocLogSlot* logs = Logs();
  size_t pending = 0;
  for (uint32_t i = 0; i < h->log_slots; ++i) {
    if (logs[i].state != kLogEmpty) {
      pending++;
    }
  }
  return pending;
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

int PmemPool::AcquireLogSlot() {
  size_t n = log_busy_.size();
  // Round-robin cursor per (thread, pool): a process-global per-thread cursor
  // would make one pool's workload contend on slots another pool just used.
  uint64_t& start = ThreadContext::Current().InstanceWord(this);
  for (size_t i = 0; i < n; ++i) {
    size_t idx = (start + i) % n;
    uint8_t expected = 0;
    if (log_busy_[idx].compare_exchange_strong(expected, 1, std::memory_order_acquire)) {
      start = idx + 1;
      return static_cast<int>(idx);
    }
  }
  return -1;
}

void PmemPool::ReleaseLogSlot(int slot) {
  log_busy_[slot].store(0, std::memory_order_release);
}

uint64_t PmemPool::TryAllocInChunk(uint32_t chunk, size_t class_idx, bool persist_meta) {
  size_t block_size = kSizeClasses[class_idx];
  uint32_t blocks = ChunkColor(chunk, block_size).blocks;
  uint32_t words = (blocks + 63) / 64;
  uint64_t* bm = BitmapOf(chunk);
  uint32_t start_word = classes_[class_idx].hint.load(std::memory_order_relaxed) % words;
  for (uint32_t i = 0; i < words; ++i) {
    uint32_t w = (start_word + i) % words;
    uint64_t cur = AtomicRef64(&bm[w]).load(std::memory_order_relaxed);
    while (true) {
      uint64_t valid_mask = (w == words - 1 && blocks % 64 != 0)
                                ? ((1ULL << (blocks % 64)) - 1)
                                : ~0ULL;
      uint64_t free_bits = ~cur & valid_mask;
      if (free_bits == 0) {
        break;
      }
      int bit = __builtin_ctzll(free_bits);
      uint64_t want = cur | (1ULL << bit);
      if (AtomicRef64(&bm[w]).compare_exchange_weak(cur, want, std::memory_order_acq_rel)) {
        if (persist_meta && crash_consistent_) {
          PersistFence(&bm[w], sizeof(uint64_t));
        }
        classes_[class_idx].hint.store(w, std::memory_order_relaxed);
        free_counts_[chunk].fetch_sub(1, std::memory_order_relaxed);
        return BlockOffset(chunk, block_size, w * 64 + static_cast<uint32_t>(bit));
      }
      // CAS failed: cur reloaded, retry this word.
    }
  }
  return 0;
}

int PmemPool::AcquireChunk(size_t class_idx) {
  std::lock_guard<std::mutex> lock(mu_);
  ClassState& cs = classes_[class_idx];
  // Prefer partially-filled chunks of this class.
  while (!cs.partial.empty()) {
    uint32_t c = cs.partial.back();
    cs.partial.pop_back();
    in_partial_[c].store(0, std::memory_order_relaxed);
    if (free_counts_[c].load(std::memory_order_relaxed) > 0) {
      cs.hint.store(0, std::memory_order_relaxed);
      cs.current.store(c, std::memory_order_release);
      return static_cast<int>(c);
    }
  }
  if (free_chunks_.empty()) {
    return -1;
  }
  uint32_t c = free_chunks_.back();
  free_chunks_.pop_back();
  // Scrub the bitmap before assignment: the chunk may carry a stale
  // whole-chunk span word, or claim bits from a crash-interrupted release.
  uint64_t* bm = BitmapOf(c);
  std::memset(bm, 0, kBitmapWordsPerChunk * sizeof(uint64_t));
  if (crash_consistent_) {
    PersistFence(bm, kBitmapWordsPerChunk * sizeof(uint64_t));
  }
  uint32_t* states = ChunkStates();
  states[c] = static_cast<uint32_t>(class_idx) + 1;
  if (crash_consistent_) {
    PersistFence(&states[c], sizeof(uint32_t));
  }
  const ChunkGeometry geo = ChunkColor(c, kSizeClasses[class_idx]);
  free_counts_[c].store(geo.blocks, std::memory_order_relaxed);
  // The cursor is set before |current| is published (release), so an
  // allocator that acquires the new |current| starts from its color.
  cs.hint.store(geo.start_word, std::memory_order_relaxed);
  cs.current.store(c, std::memory_order_release);
  return static_cast<int>(c);
}

uint64_t PmemPool::AllocWholeChunks(size_t size, bool persist_meta) {
  uint32_t span = static_cast<uint32_t>((size + kChunkSize - 1) / kChunkSize);
  std::lock_guard<std::mutex> lock(mu_);
  if (free_chunks_.size() < span) {
    return 0;
  }
  // Contiguity is only required within the span; find a run among free chunks.
  // Free list is unordered, so scan the persistent states directly.
  uint32_t* states = ChunkStates();
  uint32_t count = header()->chunk_count;
  for (uint32_t start = 0; start + span <= count; ++start) {
    bool ok = true;
    for (uint32_t i = 0; i < span; ++i) {
      if (states[start + i] != kChunkStateFree) {
        ok = false;
        start += i;  // skip past the blocker
        break;
      }
    }
    if (!ok) {
      continue;
    }
    for (uint32_t i = 0; i < span; ++i) {
      states[start + i] = kChunkStateWhole;
      free_counts_[start + i].store(0, std::memory_order_relaxed);
    }
    // Mark bit 0 of the head chunk's bitmap: "whole allocation present".
    uint64_t* bm = BitmapOf(start);
    bm[0] = 1;
    // Record the span in the head bitmap's second word for BlockSize/Free.
    bm[1] = span;
    if (persist_meta && crash_consistent_) {
      PersistRange(bm, 2 * sizeof(uint64_t));
      PersistFence(states + start, span * sizeof(uint32_t));
    }
    // Rebuild the free list without the taken chunks.
    std::vector<uint32_t> rest;
    rest.reserve(free_chunks_.size());
    for (uint32_t c : free_chunks_) {
      if (c < start || c >= start + span) {
        rest.push_back(c);
      }
    }
    free_chunks_.swap(rest);
    return ChunkDataOffset(start);
  }
  return 0;
}

uint64_t PmemPool::AllocOffset(size_t size, bool persist_meta) {
  if (size == 0) {
    size = 1;
  }
  size_t class_idx = SizeClassFor(size);
  if (class_idx == kNumClasses) {
    return AllocWholeChunks(size, persist_meta);
  }
  ClassState& cs = classes_[class_idx];
  for (int attempts = 0; attempts < 1024; ++attempts) {
    int64_t chunk = cs.current.load(std::memory_order_acquire);
    if (chunk >= 0) {
      uint64_t off = TryAllocInChunk(static_cast<uint32_t>(chunk), class_idx, persist_meta);
      if (off != 0) {
        return off;
      }
    }
    int fresh = AcquireChunk(class_idx);
    if (fresh < 0) {
      return 0;  // pool exhausted
    }
  }
  return 0;
}

PPtr<void> PmemPool::AllocInternal(size_t size, bool persist_meta) {
  // Fail point "pmem/alloc": injected exhaustion, indistinguishable from a
  // genuinely full pool to every caller.
  uint64_t off = PACTREE_FAILPOINT("pmem/alloc") ? 0 : AllocOffset(size, persist_meta);
  if (off == 0) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    return PPtr<void>::Null();
  }
  void* p = static_cast<char*>(base_) + off;
  std::memset(p, 0, size <= kSizeClasses[kNumClasses - 1] ? kSizeClasses[SizeClassFor(size)]
                                                          : size);
  allocs_.fetch_add(1, std::memory_order_relaxed);
  uint64_t live = live_bytes_.fetch_add(BlockSize(off), std::memory_order_relaxed) +
                  BlockSize(off);
  uint64_t hwm = hwm_live_bytes_.load(std::memory_order_relaxed);
  while (live > hwm &&
         !hwm_live_bytes_.compare_exchange_weak(hwm, live, std::memory_order_relaxed)) {
  }
  LocalNvmCounters(pool_id_).alloc_ops++;
  return PPtr<void>::FromParts(pool_id_, off);
}

PPtr<void> PmemPool::Alloc(size_t size) { return AllocInternal(size, /*persist_meta=*/true); }

void PmemPool::PersistBlockMetadata(uint64_t offset) {
  if (!crash_consistent_) {
    return;
  }
  uint32_t chunk = ChunkOf(offset);
  uint32_t st = ChunkStates()[chunk];
  uint64_t* bm = BitmapOf(chunk);
  if (st == kChunkStateWhole) {
    uint32_t span = static_cast<uint32_t>(bm[1]);
    PersistRange(bm, 2 * sizeof(uint64_t));
    PersistFence(ChunkStates() + chunk, span * sizeof(uint32_t));
  } else if (st >= 1 && st <= kNumClasses) {
    uint32_t block_idx = BlockIndex(chunk, kSizeClasses[st - 1], offset);
    PersistFence(&bm[block_idx / 64], sizeof(uint64_t));
  }
}

PPtr<void> PmemPool::AllocTo(PPtr<uint64_t> dest, size_t size) {
  if (!crash_consistent_) {
    // Transient mode: plain allocate + store (Figure 3's Jemalloc arm).
    PPtr<void> block = Alloc(size);
    if (!block.IsNull() && !dest.IsNull()) {
      *dest.get() = block.raw;
    }
    return block;
  }
  // Fail point "pmem/alloc_to": fail the malloc-to protocol before any slot or
  // block is reserved (nothing to unwind; callers see plain exhaustion).
  if (PACTREE_FAILPOINT("pmem/alloc_to")) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    return PPtr<void>::Null();
  }
  int slot_idx = AcquireLogSlot();
  if (slot_idx < 0) {
    alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    return PPtr<void>::Null();
  }
  // (1) reserve a block, bitmap *not* yet persisted: until the log entry below
  // is durable there must be no durable trace of the block, otherwise a crash
  // here leaks it (log empty, bit set, nobody pointing at it).
  PPtr<void> block = AllocInternal(size, /*persist_meta=*/false);
  if (block.IsNull()) {
    ReleaseLogSlot(slot_idx);
    return block;
  }
  AllocLogSlot& slot = Logs()[slot_idx];
  // (2) publish the complete entry -- payload, state, checksum -- in one
  // fence. From here the block cannot leak: recovery either rolls it back
  // (not attached) or keeps it (attached). A torn commit of this line fails
  // the checksum and reads as "never happened", matching the volatile bitmap.
  slot.dest = dest.raw;
  slot.block = block.raw;
  slot.size = size;
  slot.state = kLogAllocPending;
  slot.checksum = AllocSlotChecksum(slot);
  PersistFence(&slot, sizeof(slot));
  // (3) now make the reservation durable
  PersistBlockMetadata(block.offset());
  // (4) attach to the destination word
  if (!dest.IsNull()) {
    std::atomic_ref<uint64_t>(*dest.get()).store(block.raw, std::memory_order_release);
    PersistFence(dest.get(), sizeof(uint64_t));
  }
  // (5) retire: state and checksum durably cleared together, so slot reuse can
  // never resurrect this entry via a torn write.
  slot.state = kLogEmpty;
  slot.checksum = 0;
  PersistFence(&slot, sizeof(slot));
  ReleaseLogSlot(slot_idx);
  return block;
}

// ---------------------------------------------------------------------------
// Free
// ---------------------------------------------------------------------------

size_t PmemPool::BlockSize(uint64_t offset) const {
  const PoolHeader* h = header();
  if (offset < h->data_off) {
    return 0;
  }
  uint32_t chunk = ChunkOf(offset);
  uint32_t st = ChunkStates()[chunk];
  if (st == kChunkStateWhole) {
    return BitmapOf(chunk)[1] * kChunkSize;
  }
  if (st == kChunkStateFree || st > kNumClasses) {
    return 0;
  }
  return kSizeClasses[st - 1];
}

void PmemPool::FreeInternal(uint64_t offset, bool log) {
  PoolHeader* h = header();
  if (offset < h->data_off || offset >= h->data_off + uint64_t{h->chunk_count} * kChunkSize) {
    return;
  }
  uint32_t chunk = ChunkOf(offset);
  uint32_t* states = ChunkStates();
  uint32_t st = states[chunk];
  if (st == kChunkStateFree) {
    return;
  }

  int slot_idx = -1;
  if (log && crash_consistent_) {
    slot_idx = AcquireLogSlot();
    if (slot_idx >= 0) {
      AllocLogSlot& slot = Logs()[slot_idx];
      slot.dest = 0;
      slot.block = PPtr<void>::FromParts(pool_id_, offset).raw;
      slot.size = 0;
      slot.state = kLogFreePending;
      slot.checksum = AllocSlotChecksum(slot);
      PersistFence(&slot, sizeof(slot));
    }
  }

  if (st == kChunkStateWhole) {
    uint64_t* bm = BitmapOf(chunk);
    uint32_t span = static_cast<uint32_t>(bm[1]);
    bm[0] = 0;
    if (crash_consistent_) {
      PersistFence(&bm[0], sizeof(uint64_t));
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t i = 0; i < span; ++i) {
      states[chunk + i] = kChunkStateFree;
      free_chunks_.push_back(chunk + i);
    }
    if (crash_consistent_) {
      PersistFence(states + chunk, span * sizeof(uint32_t));
    }
  } else if (st <= kNumClasses && st > 0) {
    size_t class_idx = st - 1;
    size_t block_size = kSizeClasses[class_idx];
    uint32_t block_idx = BlockIndex(chunk, block_size, offset);
    uint64_t* bm = BitmapOf(chunk);
    uint32_t w = block_idx / 64;
    uint64_t mask = 1ULL << (block_idx % 64);
    uint64_t prev = AtomicRef64(&bm[w]).fetch_and(~mask, std::memory_order_acq_rel);
    if (crash_consistent_) {
      PersistFence(&bm[w], sizeof(uint64_t));
    }
    if ((prev & mask) != 0 && !free_counts_.empty()) {
      uint32_t now = free_counts_[chunk].fetch_add(1, std::memory_order_relaxed) + 1;
      // Put the chunk on its class's partial list so the space is found again.
      if (classes_[class_idx].current.load(std::memory_order_relaxed) !=
              static_cast<int64_t>(chunk) &&
          !in_partial_[chunk].exchange(1, std::memory_order_acq_rel)) {
        std::lock_guard<std::mutex> lock(mu_);
        classes_[class_idx].partial.push_back(chunk);
      }
      if (now == ChunkColor(chunk, block_size).blocks) {
        TryReleaseEmptyChunk(chunk, class_idx);
      }
    }
  }

  if (slot_idx >= 0) {
    AllocLogSlot& slot = Logs()[slot_idx];
    slot.state = kLogEmpty;
    slot.checksum = 0;
    PersistFence(&slot, sizeof(slot));
    ReleaseLogSlot(slot_idx);
  }
}

void PmemPool::TryReleaseEmptyChunk(uint32_t chunk, size_t class_idx) {
  uint32_t blocks = ChunkColor(chunk, kSizeClasses[class_idx]).blocks;
  uint32_t words = (blocks + 63) / 64;
  std::lock_guard<std::mutex> lock(mu_);
  ClassState& cs = classes_[class_idx];
  if (cs.current.load(std::memory_order_relaxed) == static_cast<int64_t>(chunk)) {
    return;  // the class's active allocation target stays resident
  }
  if (ChunkStates()[chunk] != static_cast<uint32_t>(class_idx) + 1 ||
      free_counts_[chunk].load(std::memory_order_relaxed) != blocks) {
    return;
  }
  // Claim every block word with a 0 -> ~0 CAS. Allocators reach a chunk only
  // through the class's |current| (excluded above) or AcquireChunk (blocked on
  // mu_), but a thread that read |current| before it moved on can still be
  // inside TryAllocInChunk: once a word reads full it cannot win a CAS there,
  // and if it won one first, our claim fails and the release aborts. The
  // claim stores are volatile-only -- a crash mid-claim durably shows at
  // worst a superset of set bits, which recovery reads as allocated blocks
  // (bounded leak), never as a double assignment.
  uint64_t* bm = BitmapOf(chunk);
  uint32_t claimed = 0;
  bool aborted = false;
  for (; claimed < words; ++claimed) {
    uint64_t expected = 0;
    if (!AtomicRef64(&bm[claimed])
             .compare_exchange_strong(expected, ~0ULL, std::memory_order_acq_rel)) {
      aborted = true;
      break;
    }
  }
  if (aborted) {
    for (uint32_t w = 0; w < claimed; ++w) {
      AtomicRef64(&bm[w]).store(0, std::memory_order_release);
    }
    return;  // a racing allocation took a block; the chunk stays assigned
  }
  auto& part = cs.partial;
  part.erase(std::remove(part.begin(), part.end(), chunk), part.end());
  in_partial_[chunk].store(0, std::memory_order_relaxed);
  free_counts_[chunk].store(0, std::memory_order_relaxed);
  uint32_t* states = ChunkStates();
  states[chunk] = kChunkStateFree;
  if (crash_consistent_) {
    PersistFence(&states[chunk], sizeof(uint32_t));
  }
  for (uint32_t w = 0; w < words; ++w) {
    AtomicRef64(&bm[w]).store(0, std::memory_order_relaxed);
  }
  if (crash_consistent_) {
    PersistFence(bm, words * sizeof(uint64_t));
  }
  free_chunks_.push_back(chunk);
  chunks_released_.fetch_add(1, std::memory_order_relaxed);
}

void PmemPool::Free(uint64_t offset) {
  uint64_t bytes = BlockSize(offset);
  FreeInternal(offset, /*log=*/true);
  frees_.fetch_add(1, std::memory_order_relaxed);
  live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  LocalNvmCounters(pool_id_).free_ops++;
}

double PmemPool::UsedFraction() const {
  uint32_t total = header()->chunk_count;
  if (total == 0) {
    return 1.0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<double>(total - free_chunks_.size()) / static_cast<double>(total);
}

PmemPoolStats PmemPool::Stats() const {
  PmemPoolStats s;
  s.allocs = allocs_.load(std::memory_order_relaxed);
  s.frees = frees_.load(std::memory_order_relaxed);
  s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  s.alloc_failures = alloc_failures_.load(std::memory_order_relaxed);
  s.hwm_live_bytes = hwm_live_bytes_.load(std::memory_order_relaxed);
  s.chunks_released = chunks_released_.load(std::memory_order_relaxed);
  s.used_fraction = UsedFraction();
  return s;
}

void PmemFree(PPtr<void> p) {
  if (p.IsNull()) {
    return;
  }
  PmemPool* pool = PoolAllocatorOf(p.pool());
  if (pool != nullptr) {
    pool->Free(p.offset());
  }
}

}  // namespace pactree
