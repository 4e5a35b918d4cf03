#include "src/value/value_storage.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "src/common/failpoint.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/nvm/topology.h"
#include "src/pmem/pool.h"
#include "src/pmem/registry.h"
#include "src/runtime/maintenance.h"
#include "src/sync/epoch.h"
#include "src/value/lru_cache.h"

namespace pactree {

namespace {
constexpr uint64_t kValueMagic = 0x31474f4c4c415655ULL;    // "UVALLOG1"
constexpr uint64_t kValueSegMagic = 0x314745534c415655ULL;  // "UVALSEG1"

uint64_t SegHeaderChecksum(uint64_t magic, uint64_t seq) {
  return LogChecksum({magic, seq});
}
}  // namespace

// ---------------------------------------------------------------------------
// Open / recovery
// ---------------------------------------------------------------------------

std::unique_ptr<ValueStorage> ValueStorage::Open(const ValueStorageOptions& opts,
                                                 ValueGcSink* sink) {
  auto vs = std::unique_ptr<ValueStorage>(new ValueStorage());
  if (!vs->Init(opts, sink)) {
    return nullptr;
  }
  return vs;
}

bool ValueStorage::Init(const ValueStorageOptions& opts, ValueGcSink* sink) {
  opts_ = opts;
  sink_ = sink;
  opts_.segment_size = std::max<size_t>(opts_.segment_size, 4096);
  uint64_t n = opts_.arenas;
  if (n == 0) {
    n = std::max<uint32_t>(1, GlobalNvmConfig().numa_nodes);
  }
  arenas_ = static_cast<uint32_t>(std::min<uint64_t>(n, 64));

  PmemHeapOptions h;
  h.pool_id_base = opts_.pool_id_base;
  h.pool_size = opts_.pool_size;
  h.single_pool = !opts_.per_numa_pools;
  bool created = false;
  heap_ = PmemHeap::OpenOrCreate(opts_.name, h, &created);
  if (heap_ == nullptr) {
    return false;
  }
  root_ = heap_->Root<ValueRoot>();
  const bool fresh = root_->magic != kValueMagic || created;
  if (fresh) {
    std::memset(static_cast<void*>(root_), 0, sizeof(ValueRoot));
    PersistFence(root_, sizeof(ValueRoot));
    // seg_size before magic: a root whose magic is durable always carries the
    // size its segments will be allocated with.
    root_->seg_size = opts_.segment_size;
    PersistFence(&root_->seg_size, sizeof(uint64_t));
    root_->magic = kValueMagic;
    PersistFence(&root_->magic, sizeof(uint64_t));
  } else if (root_->seg_size != 0) {
    // Existing heap: the persisted size wins over the configured option. The
    // recovery tail scan and every Append bound index into blocks that were
    // allocated at that size; honoring a different configured size would read
    // or write past their ends (larger) or truncate valid records (smaller).
    opts_.segment_size = std::max<size_t>(root_->seg_size, 4096);
  } else {
    // Root predates size persistence: stamp the configured size so every
    // future reopen is pinned to it.
    root_->seg_size = opts_.segment_size;
    PersistFence(&root_->seg_size, sizeof(uint64_t));
  }
  // Largest value one segment can hold behind its header and a max-length key.
  max_value_bytes_ = opts_.segment_size - sizeof(ValueSegmentHeader) -
                     RecordSize(Key::kMaxLen, 0);
  if (!fresh) {
    RecoverSegments();
  }
  for (uint32_t i = 0; i < arenas_; ++i) {
    arenas_state_.push_back(std::make_unique<Arena>());
  }
  return true;
}

void ValueStorage::RecoverSegments() {
  for (uint32_t slot = 0; slot < kValueMaxSegments; ++slot) {
    const uint64_t raw = root_->seg_raws[slot];
    if (raw == 0) {
      continue;
    }
    auto* base = static_cast<const uint8_t*>(PPtr<void>(raw).get());
    ValueSegmentHeader sh;
    AnnotateNvmRead(base, sizeof(sh));
    std::memcpy(&sh, base, sizeof(sh));
    if (sh.magic != kValueSegMagic || sh.checksum != SegHeaderChecksum(sh.magic, sh.seq)) {
      // The crash hit between the slot's AllocTo and the header fence: by the
      // durability chain (header fence precedes every record fence precedes
      // every index ack) the segment cannot hold an acknowledged record.
      // Reclaim the block and clear the slot.
      PmemFree(PPtr<void>(raw));
      root_->seg_raws[slot] = 0;
      PersistFence(&root_->seg_raws[slot], sizeof(uint64_t));
      continue;
    }
    // Tail discovery: records are appended strictly in order, each sealed by
    // its own fenced checksum, so the valid prefix IS the segment content.
    // A record whose seg_seq does not match the header is a stale leftover
    // from a previous block incarnation, never part of this segment.
    size_t off = sizeof(ValueSegmentHeader);
    while (off + sizeof(ValueRecordHeader) <= opts_.segment_size) {
      ValueRecordHeader rh;
      AnnotateNvmRead(base + off, sizeof(rh));
      std::memcpy(&rh, base + off, sizeof(rh));
      if (rh.seg_seq != sh.seq || rh.flags != 1 || rh.klen > Key::kMaxLen ||
          rh.vlen > max_value_bytes_) {
        break;
      }
      const size_t rs = RecordSize(rh.klen, rh.vlen);
      if (off + rs > opts_.segment_size) {
        break;
      }
      AnnotateNvmRead(base + off + sizeof(rh), rh.klen + rh.vlen);
      if (ValueRecordChecksum(rh, base + off + sizeof(rh),
                              base + off + sizeof(rh) + rh.klen) != rh.checksum) {
        break;
      }
      off += rs;
    }
    auto seg = std::make_unique<Segment>();
    seg->raw = raw;
    seg->slot = slot;
    seg->seq = sh.seq;
    seg->used.store(off, std::memory_order_relaxed);
    seg->state = SegState::kSealed;  // fresh appends go to fresh segments
    segments_[raw] = std::move(seg);
  }
}

ValueStorage::~ValueStorage() {
  StopServices();
  // Segments retired by GC wait out their two epochs before PmemFree; reclaim
  // them while the heap is still mapped (mirrors ~PacTree).
  for (int i = 0; i < 8; ++i) {
    EpochManager::Instance().TryAdvanceAndReclaim();
  }
}

// ---------------------------------------------------------------------------
// Segment lifecycle
// ---------------------------------------------------------------------------

ValueStorage::Segment* ValueStorage::NewSegment() {
  if (PACTREE_FAILPOINT("value/segment")) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t slot = kValueMaxSegments;
  for (uint32_t i = 0; i < kValueMaxSegments; ++i) {
    // Atomic: the epoch-retire callback zeroes slots from the reclaim
    // thread. A slot stays nonzero until that store, so a 0 read here means
    // the retire already happened and the slot is safe to reuse.
    if (std::atomic_ref<uint64_t>(root_->seg_raws[i])
            .load(std::memory_order_acquire) == 0) {
      slot = i;
      break;
    }
  }
  if (slot == kValueMaxSegments) {
    return nullptr;  // directory full: treated exactly like pool exhaustion
  }
  // Burn the seq before the block exists: a crash in between wastes one
  // number, but no two segment incarnations can ever share a seq -- which is
  // what lets record checksums fence off stale bytes of reused blocks.
  const uint64_t seq = root_->next_seg_seq + 1;
  root_->next_seg_seq = seq;
  PersistFence(&root_->next_seg_seq, sizeof(uint64_t));
  PPtr<void> block = heap_->AllocTo(ToPPtr(&root_->seg_raws[slot]), opts_.segment_size);
  if (block.IsNull()) {
    return nullptr;
  }
  auto* hdr = static_cast<ValueSegmentHeader*>(block.get());
  hdr->magic = kValueSegMagic;
  hdr->seq = seq;
  hdr->checksum = SegHeaderChecksum(kValueSegMagic, seq);
  PersistFence(hdr, sizeof(ValueSegmentHeader));
  auto seg = std::make_unique<Segment>();
  Segment* out = seg.get();
  seg->raw = block.raw;
  seg->slot = slot;
  seg->seq = seq;
  segments_[block.raw] = std::move(seg);
  st_segments_allocated_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

bool ValueStorage::RotateActiveLocked(Arena& arena) {
  Segment* fresh = NewSegment();
  if (fresh == nullptr) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (arena.active != nullptr) {
      arena.active->state = SegState::kSealed;
    }
  }
  arena.active = fresh;
  return true;
}

void ValueStorage::RetireSegmentLocked(Segment* seg) {
  // Unlink order (crash-safe in both halves): the block is handed to the
  // epoch manager NOW but freed only after two epochs, and the persistent
  // directory slot is zeroed by the retire callback immediately before that
  // free. A crash before reclamation leaves slot + block fully consistent
  // (the segment just holds dead records and gets collected again); the
  // window between the slot fence and the free's own logged protocol is the
  // same bounded-leak window the allocator already accepts.
  struct RetireCtx {
    uint64_t* slot_word;
    ValueLruCache* cache;
    uint64_t base;
    size_t size;
  };
  auto* ctx = new RetireCtx{&root_->seg_raws[seg->slot], cache_, seg->raw,
                            opts_.segment_size};
  EpochManager::Instance().Retire(
      PPtr<void>(seg->raw),
      [](void* arg) {
        auto* c = static_cast<RetireCtx*>(arg);
        if (c->cache != nullptr) {
          // Two epochs have passed: every reader that could have fetched a
          // handle into this block (and could thus still Put it) is gone, and
          // the index stopped referencing it before the retire. Purging the
          // handle range NOW -- before the block is freed and can be
          // reallocated -- means no surviving cache entry can ever alias a
          // future record at the same raw address (ABA on recycled blocks).
          c->cache->EvictHandleRange(c->base, c->base + c->size);
        }
        std::atomic_ref<uint64_t>(*c->slot_word)
            .store(0, std::memory_order_release);
        PersistFence(c->slot_word, sizeof(uint64_t));
        delete c;
      },
      ctx);
  segments_.erase(seg->raw);
}

ValueStorage::Segment* ValueStorage::FindSegmentLocked(uint64_t handle) {
  auto it = segments_.upper_bound(handle);
  if (it == segments_.begin()) {
    return nullptr;
  }
  --it;
  Segment* seg = it->second.get();
  if (handle < seg->raw + sizeof(ValueSegmentHeader) ||
      handle >= seg->raw + opts_.segment_size) {
    return nullptr;
  }
  return seg;
}

// ---------------------------------------------------------------------------
// Append / read / accounting
// ---------------------------------------------------------------------------

Status ValueStorage::Append(const Key& key, std::string_view value, uint64_t* handle) {
  const size_t klen = key.size();
  const size_t vlen = value.size();
  if (vlen > max_value_bytes_) {
    return Status::kFull;
  }
  const size_t need = RecordSize(klen, vlen);
  Arena& arena = *arenas_state_[CurrentNumaNode() % arenas_];
  std::lock_guard<std::mutex> lock(arena.mu);
  if (PACTREE_FAILPOINT("value/append")) {
    return Status::kFull;
  }
  if (arena.active == nullptr ||
      arena.active->used.load(std::memory_order_relaxed) + need >
          opts_.segment_size) {
    if (!RotateActiveLocked(arena)) {
      return Status::kFull;
    }
  }
  Segment* seg = arena.active;
  const size_t used = seg->used.load(std::memory_order_relaxed);
  auto* dst = static_cast<uint8_t*>(PPtr<void>(seg->raw).get()) + used;
  ValueRecordHeader rh;
  rh.vlen = static_cast<uint32_t>(vlen);
  rh.klen = static_cast<uint16_t>(klen);
  rh.flags = 1;
  rh.seg_seq = seg->seq;
  rh.checksum = ValueRecordChecksum(rh, key.data(), value.data());
  std::memcpy(dst, &rh, sizeof(rh));
  std::memcpy(dst + sizeof(rh), key.data(), klen);
  std::memcpy(dst + sizeof(rh) + klen, value.data(), vlen);
  // The record's ONE fence. No index structure references it yet; the caller
  // publishes the handle through the key index next, so
  // "record durable" strictly precedes "handle durable".
  PersistFence(dst, sizeof(rh) + klen + vlen);
  *handle = seg->raw + used;
  seg->used.store(used + need, std::memory_order_relaxed);
  seg->live.fetch_add(need, std::memory_order_relaxed);
  st_appends_.fetch_add(1, std::memory_order_relaxed);
  st_append_bytes_.fetch_add(need, std::memory_order_relaxed);
  return Status::kOk;
}

Status ValueStorage::Read(uint64_t handle, const Key& key, std::string* value) const {
  const auto* base = static_cast<const uint8_t*>(PPtr<void>(handle).get());
  if (base == nullptr) {
    return Status::kRetry;
  }
  ValueRecordHeader rh;
  AnnotateNvmRead(base, sizeof(rh));
  std::memcpy(&rh, base, sizeof(rh));
  if (rh.flags != 1 || rh.klen != key.size() || rh.vlen > max_value_bytes_) {
    st_read_retries_.fetch_add(1, std::memory_order_relaxed);
    return Status::kRetry;
  }
  // Copy first, then validate the copies: the returned bytes are exactly the
  // bytes the checksum vouched for, even if a (theoretically) recycled block
  // were being rewritten concurrently -- the epoch protocol already prevents
  // that, this makes the read safe even against accounting bugs.
  uint8_t key_copy[Key::kMaxLen];
  AnnotateNvmRead(base + sizeof(rh), rh.klen + rh.vlen);
  std::memcpy(key_copy, base + sizeof(rh), rh.klen);
  value->assign(reinterpret_cast<const char*>(base + sizeof(rh) + rh.klen), rh.vlen);
  if (ValueRecordChecksum(rh, key_copy, value->data()) != rh.checksum ||
      std::memcmp(key_copy, key.data(), rh.klen) != 0) {
    st_read_retries_.fetch_add(1, std::memory_order_relaxed);
    return Status::kRetry;
  }
  return Status::kOk;
}

void ValueStorage::MarkDead(uint64_t handle) {
  std::lock_guard<std::mutex> lock(mu_);
  Segment* seg = FindSegmentLocked(handle);
  if (seg == nullptr) {
    return;
  }
  const auto* base = static_cast<const uint8_t*>(PPtr<void>(handle).get());
  ValueRecordHeader rh;
  std::memcpy(&rh, base, sizeof(rh));
  if (rh.seg_seq != seg->seq || rh.klen > Key::kMaxLen || rh.vlen > max_value_bytes_) {
    return;
  }
  const size_t rs = RecordSize(rh.klen, rh.vlen);
  size_t cur = seg->live.load(std::memory_order_relaxed);
  while (!seg->live.compare_exchange_weak(cur, cur > rs ? cur - rs : 0,
                                          std::memory_order_relaxed)) {
  }
}

void ValueStorage::AddLiveHandle(uint64_t handle) {
  std::lock_guard<std::mutex> lock(mu_);
  Segment* seg = FindSegmentLocked(handle);
  if (seg == nullptr) {
    return;
  }
  const auto* base = static_cast<const uint8_t*>(PPtr<void>(handle).get());
  ValueRecordHeader rh;
  std::memcpy(&rh, base, sizeof(rh));
  if (rh.seg_seq != seg->seq || rh.klen > Key::kMaxLen || rh.vlen > max_value_bytes_) {
    return;
  }
  seg->live.fetch_add(RecordSize(rh.klen, rh.vlen), std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

size_t ValueStorage::GcPass() {
  size_t items = 0;
  Segment* victim = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    double best = opts_.gc_live_threshold;
    for (auto& [raw, seg] : segments_) {
      (void)raw;
      if (seg->state != SegState::kSealed) {
        continue;
      }
      const size_t payload =
          seg->used.load(std::memory_order_relaxed) - sizeof(ValueSegmentHeader);
      const double frac =
          payload == 0
              ? 0.0
              : static_cast<double>(seg->live.load(std::memory_order_relaxed)) /
                    static_cast<double>(payload);
      if (frac < best) {
        best = frac;
        victim = seg.get();
      }
    }
    if (victim != nullptr) {
      victim->state = SegState::kCollecting;  // claim against concurrent passes
    }
  }
  if (victim == nullptr) {
    return 0;
  }

  // Sealed segments are immutable (bytes and |used|), so the record scan runs
  // without any lock; only the sink calls and the storage's own Append touch
  // shared state.
  const auto* base = static_cast<const uint8_t*>(PPtr<void>(victim->raw).get());
  const size_t vused = victim->used.load(std::memory_order_relaxed);
  bool stuck = false;
  bool aborted = false;
  size_t off = sizeof(ValueSegmentHeader);
  while (off + sizeof(ValueRecordHeader) <= vused) {
    ValueRecordHeader rh;
    AnnotateNvmRead(base + off, sizeof(rh));
    std::memcpy(&rh, base + off, sizeof(rh));
    if (rh.seg_seq != victim->seq || rh.klen > Key::kMaxLen ||
        rh.vlen > max_value_bytes_) {
      break;  // defensive: recovery already trimmed the tail
    }
    const size_t rs = RecordSize(rh.klen, rh.vlen);
    if (off + rs > vused) {
      break;
    }
    const Key k = Key::FromBytes(base + off + sizeof(rh), rh.klen);
    const uint64_t old_handle = victim->raw + off;
    uint64_t cur = 0;
    if (sink_->CurrentValueHandle(k, &cur) && cur == old_handle) {
      AnnotateNvmRead(base + off + sizeof(rh), rh.klen + rh.vlen);
      const std::string_view val(
          reinterpret_cast<const char*>(base + off + sizeof(rh) + rh.klen), rh.vlen);
      uint64_t new_handle = 0;
      if (Append(k, val, &new_handle) != Status::kOk) {
        // Clean unwind on kFull: stop relocating, leave the victim intact
        // (already-moved records are simply dead in it) and retry the whole
        // segment on a later pass when space may be back.
        st_gc_full_.fetch_add(1, std::memory_order_relaxed);
        aborted = true;
        break;
      }
      if (sink_->CasValueHandle(k, old_handle, new_handle)) {
        st_gc_bytes_.fetch_add(rs, std::memory_order_relaxed);
        ++items;
      } else {
        MarkDead(new_handle);  // lost the race: the copy is garbage
        if (sink_->CurrentValueHandle(k, &cur) && cur == old_handle) {
          // The index still points here but the swing was refused (degraded
          // tree): the record is LIVE and this segment must not be retired.
          stuck = true;
        }
      }
    }
    off += rs;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (aborted || stuck) {
    victim->state = SegState::kSealed;
    return items;
  }
  RetireSegmentLocked(victim);
  st_gc_segments_.fetch_add(1, std::memory_order_relaxed);
  return items + 1;
}

// ---------------------------------------------------------------------------
// Services / stats
// ---------------------------------------------------------------------------

void ValueStorage::StartServices() {
  if (!opts_.async || !services_.empty()) {
    return;
  }
  const uint32_t nodes = std::max<uint32_t>(1, GlobalNvmConfig().numa_nodes);
  for (uint32_t i = 0; i < arenas_; ++i) {
    BackgroundService::Options o;
    o.name = opts_.service_prefix + "/value/gc-" + std::to_string(i);
    o.numa_node = static_cast<int>(i % nodes);
    o.idle_min_us = 500;
    o.idle_max_us = 100000;  // GC is slack work; pressure kicks shorten it
    services_.push_back(
        MaintenanceRegistry::Instance().Register(std::move(o), [this] { return GcPass(); }));
  }
}

void ValueStorage::StopServices() {
  for (BackgroundService* s : services_) {
    MaintenanceRegistry::Instance().Unregister(s);
  }
  services_.clear();
}

void ValueStorage::KickGc() {
  for (BackgroundService* s : services_) {
    s->Notify();
  }
}

ValueStorageStats ValueStorage::Stats() const {
  ValueStorageStats s;
  s.appends = st_appends_.load(std::memory_order_relaxed);
  s.append_bytes = st_append_bytes_.load(std::memory_order_relaxed);
  s.segments_allocated = st_segments_allocated_.load(std::memory_order_relaxed);
  s.gc_segments_compacted = st_gc_segments_.load(std::memory_order_relaxed);
  s.gc_bytes_relocated = st_gc_bytes_.load(std::memory_order_relaxed);
  s.gc_full_aborts = st_gc_full_.load(std::memory_order_relaxed);
  s.read_retries = st_read_retries_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [raw, seg] : segments_) {
    (void)raw;
    ++s.segments;
    s.used_bytes +=
        seg->used.load(std::memory_order_relaxed) - sizeof(ValueSegmentHeader);
    s.live_bytes += seg->live.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace pactree
