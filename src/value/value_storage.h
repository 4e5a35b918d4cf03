// Log-structured persistent value tier (PRISM-style key/value separation; see
// ROADMAP "tiered value storage" and DESIGN.md §6h).
//
// The key index stays a pure 8-byte-value index -- exactly what the PAC
// guidelines optimize its node layout for -- and variable-length payloads move
// here: per-NUMA *arenas* append checksummed records into fixed-size segments
// carved from an own PmemHeap ("<index>.value"). A write costs ONE
// PersistFence over the record (header + key + value bytes); the returned
// handle is the record's PPtr raw, which the index stores as an opaque value
// word (see value_handle.h for the inline-vs-log tag).
//
// Durability chain for an acknowledged InsertValue: segment header fence ->
// record fence -> index insert fence (node bitmap publish for a new key,
// value-word persist for an overwrite). Each arrow is program order across
// PersistFences, so recovery can
// trust: a handle the recovered index maps MUST dereference to a valid,
// checksummed record. The reverse implication does not hold -- a record whose
// index insert never became durable is garbage -- which is why recovery
// rebuilds per-segment live-counts from a data-layer walk instead of trusting
// the log.
//
// GC: "<index>/value/gc-N" BackgroundServices (one per arena, NUMA-pinned)
// pick sealed segments whose live fraction fell below a threshold and
// relocate each still-referenced record: append a copy, then atomically swing
// the index's handle old->new through the ValueGcSink (an in-place CAS).
// A fully-relocated segment is unlinked from the persistent directory and
// retired through the epoch manager, so a concurrent reader that fetched a
// handle into the segment before the swing can finish dereferencing it before
// the block returns to the pool. Readers validate the record checksum AND the
// key, and retry through the index on mismatch, so even a late reader never
// returns wrong bytes.
//
// Failure handling follows the PR-6 contract: segment allocation and record
// append are fail-points ("value/segment", "value/append"); a GC pass that
// hits kFull unwinds cleanly -- the victim stays sealed and intact, already
// relocated records are simply dead -- and capacity pressure feeds the owning
// tree's pool/pressure watermarks.
#ifndef PACTREE_SRC_VALUE_VALUE_STORAGE_H_
#define PACTREE_SRC_VALUE_VALUE_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/key.h"
#include "src/common/status.h"
#include "src/pmem/heap.h"
#include "src/value/value_handle.h"

namespace pactree {

class BackgroundService;
class ValueLruCache;

// Fits the primary root area: 64 + 8 * 4088 = 32768 = kRootAreaSize.
inline constexpr size_t kValueMaxSegments = 4088;

// Persistent segment header (first 64 bytes of every segment).
struct ValueSegmentHeader {
  uint64_t magic;     // kValueSegMagic
  uint64_t seq;       // process-lifetime-unique allocation number (from root)
  uint64_t checksum;  // LogChecksum({magic, seq})
  uint8_t pad[40];
};
static_assert(sizeof(ValueSegmentHeader) == 64);

// Persistent record header, followed by klen key bytes and vlen value bytes;
// the whole record is rounded up to 8 bytes. |checksum| covers every
// meaningful word and byte, so any torn commit (8-byte failure atomicity)
// collapses to "record never happened" -- only ever the fate of an
// unacknowledged write, by the durability chain above. |seg_seq| must match
// the containing segment's header seq: it fences off stale-but-checksummed
// record bytes left on media by a previously freed block (paid per record
// instead of per segment wipe).
struct ValueRecordHeader {
  uint32_t vlen;
  uint16_t klen;
  uint16_t flags;  // reserved; written as 1 so the header is never all-zero
  uint64_t seg_seq;
  uint64_t checksum;
};
static_assert(sizeof(ValueRecordHeader) == 24);

// Persistent directory in the value heap's primary root area. Segments are
// allocated with AllocTo straight into their slot, so a crash can never leak
// one (same leak-freedom argument as the SMO log's node allocation).
struct ValueRoot {
  uint64_t magic;
  uint64_t next_seg_seq;
  // The segment size every block in seg_raws was allocated with. Written once
  // at creation; reopening adopts it regardless of the configured option, so
  // tail scans and append bounds can never run past a block allocated by a
  // smaller-sized incarnation (or truncate against a larger one).
  uint64_t seg_size;
  uint64_t pad[5];
  uint64_t seg_raws[kValueMaxSegments];  // 0 = empty slot
};
static_assert(sizeof(ValueRoot) <= 32768, "must fit the pool root area");

// Byte-range extension of LogChecksum: folds |n| bytes into |seed| 8 bytes at
// a time (tail zero-padded), length mixed in so "" and "\0" differ.
inline uint64_t RangeChecksum(uint64_t seed, const void* data, size_t n) {
  uint64_t h = MixBits64(seed ^ n);
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    h = MixBits64(h ^ w);
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = MixBits64(h ^ w);
  }
  return h;
}

inline uint64_t ValueRecordChecksum(const ValueRecordHeader& h, const void* key_bytes,
                                    const void* value_bytes) {
  uint64_t x = LogChecksum({h.vlen, h.klen, h.flags, h.seg_seq});
  x = RangeChecksum(x, key_bytes, h.klen);
  return RangeChecksum(x, value_bytes, h.vlen);
}

// The index side of GC relocation. Implemented by PacTree.
class ValueGcSink {
 public:
  virtual ~ValueGcSink() = default;
  // The handle the index currently maps |key| to. False when the key is absent or mapped to an inline value.
  virtual bool CurrentValueHandle(const Key& key, uint64_t* handle) const = 0;
  // Atomically re-points |key| from |old_handle| to |new_handle| -- durable
  // before returning true (the key's value-word persist). False when the
  // index no longer maps key to old_handle, or when the swing cannot be
  // performed right now (degraded index); GC treats false as "leave the old
  // record alone".
  virtual bool CasValueHandle(const Key& key, uint64_t old_handle,
                              uint64_t new_handle) = 0;
};

struct ValueStorageOptions {
  std::string name = "pactree.value";  // heap name ("<index>.value")
  std::string service_prefix = "pactree";  // GC services: "<prefix>/value/gc-N"
  uint16_t pool_id_base = 124;
  size_t pool_size = 512ULL << 20;  // per NUMA sub-pool
  bool per_numa_pools = true;
  // Matches the allocator's largest class. Persisted in the root at creation;
  // reopening an existing heap ADOPTS the persisted size (this option is then
  // ignored), so all segments of one heap always share one size.
  size_t segment_size = 256 << 10;
  // GC collects a sealed segment when live_bytes/used_bytes drops below this.
  double gc_live_threshold = 0.5;
  // Append arenas (and GC services). 0 = auto: one per logical NUMA node.
  uint32_t arenas = 0;
  bool async = true;  // false: no services; tests drive GcPass() inline
};

struct ValueStorageStats {
  uint64_t appends = 0;        // records appended (writes + GC relocations)
  uint64_t append_bytes = 0;
  uint64_t segments_allocated = 0;
  uint64_t gc_segments_compacted = 0;
  uint64_t gc_bytes_relocated = 0;
  uint64_t gc_full_aborts = 0;  // GC passes aborted on kFull (clean unwind)
  uint64_t read_retries = 0;    // checksum/key mismatches bounced to re-lookup
  uint64_t segments = 0;        // live segments (active + sealed)
  uint64_t used_bytes = 0;      // appended bytes across live segments
  uint64_t live_bytes = 0;      // referenced bytes across live segments
};

class ValueStorage {
 public:
  // Opens (or creates) the value heap and recovers the segment directory:
  // validates every slot's header, discovers each segment's append tail by
  // sequential record scan, and seals all recovered segments (fresh appends
  // go to fresh segments). Live-counts start at zero -- the owner must call
  // AddLiveHandle for every log handle the recovered index references, AFTER
  // its own recovery replayed the key index. Returns null on heap failure.
  static std::unique_ptr<ValueStorage> Open(const ValueStorageOptions& opts,
                                            ValueGcSink* sink);
  static void Destroy(const std::string& name) { PmemHeap::Destroy(name); }

  ~ValueStorage();
  ValueStorage(const ValueStorage&) = delete;
  ValueStorage& operator=(const ValueStorage&) = delete;

  // Appends one record (ONE PersistFence) and returns its handle. kFull on
  // pool exhaustion, on an armed "value/segment"/"value/append" fail point,
  // or for values larger than max_value_bytes().
  Status Append(const Key& key, std::string_view value, uint64_t* handle);

  // Dereferences |handle| under the caller's epoch guard. Validates the
  // record checksum and that the stored key equals |key|; kRetry on any
  // mismatch (stale handle racing a GC relocation -- the caller re-resolves
  // the handle through the index and tries again). Never returns wrong bytes.
  Status Read(uint64_t handle, const Key& key, std::string* value) const;

  // Accounting on overwrite/remove: the record is no longer referenced.
  // Unknown or already-retired handles are ignored.
  void MarkDead(uint64_t handle);

  // Live-count rebuild after recovery (see Open).
  void AddLiveHandle(uint64_t handle);

  // One GC round: picks the sealed segment with the lowest live fraction
  // below the threshold, relocates its live records, retires it. Returns
  // records relocated + segments retired (the service's items-applied
  // metric); 0 when no segment qualifies or the pass aborted on kFull.
  size_t GcPass();

  // Attaches the owner's DRAM hot-value cache. A retired segment's epoch
  // callback evicts every cache entry whose handle points into the reclaimed
  // block, closing the raw-address ABA a reallocated block would otherwise
  // open (a stale entry's handle could coincide with a NEW record's address
  // and revalidate). The cache must outlive this storage, since pending
  // retire callbacks run from the epoch reclaimer up through ~ValueStorage.
  void SetHotCache(ValueLruCache* cache) { cache_ = cache; }

  // Registers the per-arena GC services (async mode only). Idempotent.
  void StartServices();
  void StopServices();
  const std::vector<BackgroundService*>& services() const { return services_; }
  // Wakes every GC service (pool-pressure soft watermark).
  void KickGc();

  PmemHeap* heap() const { return heap_.get(); }
  double MaxUsedFraction() const { return heap_->MaxUsedFraction(); }
  uint64_t AllocFailures() const { return heap_->AllocFailures(); }
  size_t max_value_bytes() const { return max_value_bytes_; }
  uint32_t arenas() const { return arenas_; }
  ValueStorageStats Stats() const;

 private:
  enum class SegState { kActive, kSealed, kCollecting };

  struct Segment {
    uint64_t raw = 0;    // PPtr raw of the segment base
    uint32_t slot = 0;   // index into root->seg_raws
    uint64_t seq = 0;    // header seq
    // Append cursor (bytes). Writes are serialized by the arena mutex (plus
    // the seal transition under mu_), but Stats() reads it under mu_ alone --
    // atomic so that cross-lock read is not a data race; relaxed everywhere.
    std::atomic<size_t> used{sizeof(ValueSegmentHeader)};
    std::atomic<size_t> live{0};  // referenced record bytes
    SegState state = SegState::kActive;
  };

  struct Arena {
    std::mutex mu;            // serializes appends into |active|
    Segment* active = nullptr;
  };

  ValueStorage() = default;
  bool Init(const ValueStorageOptions& opts, ValueGcSink* sink);
  void RecoverSegments();

  // Allocates + initializes a fresh segment (slot, header fence). Null on
  // exhaustion. Takes mu_ internally.
  Segment* NewSegment();
  // Seals |arena|'s active segment (arena mutex held) and installs a fresh
  // one; false on exhaustion.
  bool RotateActiveLocked(Arena& arena);
  // Unlinks a fully-dead sealed segment and hands the block to the epoch
  // manager (slot durably zeroed just before the free). mu_ held.
  void RetireSegmentLocked(Segment* seg);
  // Resolves the segment containing |handle|; null when unknown. mu_ held.
  Segment* FindSegmentLocked(uint64_t handle);
  // Total record size for a payload (header + key + value, 8-byte aligned).
  size_t RecordSize(size_t klen, size_t vlen) const {
    return (sizeof(ValueRecordHeader) + klen + vlen + 7) & ~size_t{7};
  }

  ValueStorageOptions opts_;
  std::unique_ptr<PmemHeap> heap_;
  ValueRoot* root_ = nullptr;
  ValueGcSink* sink_ = nullptr;
  ValueLruCache* cache_ = nullptr;  // optional; see SetHotCache
  uint32_t arenas_ = 1;
  size_t max_value_bytes_ = 0;

  // Segment table: all live segments keyed by base raw (for handle->segment
  // resolution), plus the free-slot cursor. Guards every Segment's
  // state/used-at-seal transitions; the per-arena mutex alone guards appends
  // into an active segment.
  mutable std::mutex mu_;
  std::map<uint64_t, std::unique_ptr<Segment>> segments_;  // by base raw
  std::vector<std::unique_ptr<Arena>> arenas_state_;

  std::vector<BackgroundService*> services_;

  mutable std::atomic<uint64_t> st_appends_{0};
  mutable std::atomic<uint64_t> st_append_bytes_{0};
  mutable std::atomic<uint64_t> st_segments_allocated_{0};
  mutable std::atomic<uint64_t> st_gc_segments_{0};
  mutable std::atomic<uint64_t> st_gc_bytes_{0};
  mutable std::atomic<uint64_t> st_gc_full_{0};
  mutable std::atomic<uint64_t> st_read_retries_{0};
};

}  // namespace pactree

#endif  // PACTREE_SRC_VALUE_VALUE_STORAGE_H_
