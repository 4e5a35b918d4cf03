#include "src/pactree/data_node.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(PACTREE_AVX2)
#include <immintrin.h>
#endif

#include "src/common/compiler.h"
#include "src/nvm/persist.h"

namespace pactree {

namespace {

// Descriptor packing: | plen:6 @18 | slen:6 @12 | arena off:12 @0 |.
constexpr uint32_t MakeDesc(size_t plen, size_t slen, size_t off) {
  return static_cast<uint32_t>((plen << 18) | (slen << 12) | off);
}

struct DescFields {
  size_t plen;
  size_t slen;
  size_t off;
};

// Arena bytes of a |slen|-byte suffix: all but its inline head.
constexpr size_t TailLen(size_t slen) {
  return slen > kInlineSuffixBytes ? slen - kInlineSuffixBytes : 0;
}

// Decodes with defensive clamps: a torn or racing descriptor must never make
// a reader index past the arena (observations are discarded on validation
// failure, but the read itself has to stay in bounds).
DescFields DecodeDesc(uint32_t d) {
  DescFields f;
  f.plen = std::min<size_t>((d >> 18) & 0x3f, Key::kMaxLen);
  f.slen = std::min<size_t>((d >> 12) & 0x3f, Key::kMaxLen - f.plen);
  f.off = d & 0xfff;
  if (f.off + TailLen(f.slen) > kCompactArenaBytes) {
    f.slen = std::min(f.slen, kInlineSuffixBytes);
    f.off = 0;
  }
  return f;
}

// Suffix bytes (inline heads and arena tails) deliberately race: optimistic
// readers (KeyAt/KeyEquals) may read a head FillSlot is rewriting or follow a
// stale descriptor into a region PlaceSuffix or CompactArenaLocked is writing,
// and discard the observation when the version check fails. TSan's libc
// interceptors report memcmp/memcpy even when the calling function carries
// PACTREE_NO_TSAN, so under TSan these accesses go through uninstrumented
// plain loops; other builds keep libc.
#if defined(__SANITIZE_THREAD__)
#define PACTREE_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PACTREE_TSAN_BUILD 1
#endif
#endif
#if defined(PACTREE_TSAN_BUILD)
PACTREE_NO_TSAN bool ArenaBytesEqual(const uint8_t* a, const uint8_t* b,
                                     size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}
PACTREE_NO_TSAN void ArenaBytesCopy(uint8_t* dst, const uint8_t* src,
                                    size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = src[i];
  }
}
#else
bool ArenaBytesEqual(const uint8_t* a, const uint8_t* b, size_t n) {
  return std::memcmp(a, b, n) == 0;
}
void ArenaBytesCopy(uint8_t* dst, const uint8_t* src, size_t n) {
  std::memcpy(dst, src, n);
}
#endif

// A suffix that finds no arena room is a caller bug (SuffixRoomFor under the
// write lock, or a split point sized against the new anchor, must rule it
// out). Storing the ~0u sentinel as a descriptor would make the slot decode
// as a different key, so stop in every build instead.
[[noreturn]] void ArenaOverflow(const char* where) {
  std::fprintf(stderr, "DataNode::%s: suffix does not fit the compact arena\n",
               where);
  std::abort();
}

}  // namespace

uint64_t DataNode::Bitmap() const {
  return std::atomic_ref<uint64_t>(const_cast<DataNode*>(this)->bitmap)
      .load(std::memory_order_acquire);
}

int DataNode::CountLive() const { return __builtin_popcountll(Bitmap()); }

uint32_t DataNode::LoadDesc(int slot) const {
  return std::atomic_ref<uint32_t>(
             const_cast<DataNode*>(this)->compact.slots[slot].desc)
      .load(std::memory_order_acquire);
}

void DataNode::StoreDesc(int slot, uint32_t desc) {
  std::atomic_ref<uint32_t>(compact.slots[slot].desc)
      .store(desc, std::memory_order_release);
}

size_t DataNode::SharedPrefixLen(const Key& anchor, const Key& key) {
  const uint8_t* x = key.data();
  const uint8_t* y = anchor.data();
  size_t i = 0;
  while (i < key.size() && x[i] == y[i]) {
    ++i;
  }
  return i;
}

size_t DataNode::ArenaNeed(const Key& anchor, const Key& key) {
  return TailLen(key.size() - SharedPrefixLen(anchor, key));
}

size_t DataNode::ArenaNeed(const Key& key) const {
  return Format() == NodeFormat::kClassic ? 0 : ArenaNeed(anchor, key);
}

PACTREE_NO_TSAN
Key DataNode::KeyAt(int slot) const {
  if (Format() == NodeFormat::kClassic) {
    return classic.keys[slot];
  }
  DescFields f = DecodeDesc(LoadDesc(slot));
  const size_t hlen = std::min(f.slen, kInlineSuffixBytes);
  uint8_t buf[Key::kMaxLen];
  std::memcpy(buf, anchor.data(), f.plen);
  ArenaBytesCopy(buf + f.plen, compact.slots[slot].head, hlen);
  ArenaBytesCopy(buf + f.plen + hlen, compact.arena + f.off, f.slen - hlen);
  return Key::FromBytes(buf, f.plen + f.slen);
}

PACTREE_NO_TSAN
bool DataNode::KeyEquals(int slot, const Key& key) const {
  if (Format() == NodeFormat::kClassic) {
    return classic.keys[slot] == key;
  }
  DescFields f = DecodeDesc(LoadDesc(slot));
  if (key.size() != f.plen + f.slen) {
    return false;
  }
  // Truncated compare: the anchor-shared prefix first (usually short), then
  // the inline head, then the arena tail -- never the full 32-byte padded
  // image.
  if (f.plen != 0 && std::memcmp(key.data(), anchor.data(), f.plen) != 0) {
    return false;
  }
  const size_t hlen = std::min(f.slen, kInlineSuffixBytes);
  const uint8_t* suffix = key.data() + f.plen;
  return ArenaBytesEqual(suffix, compact.slots[slot].head, hlen) &&
         ArenaBytesEqual(suffix + hlen, compact.arena + f.off, f.slen - hlen);
}

// Optimistic probe: runs under a version-lock read token and deliberately
// races with FillSlot on slots outside the live bitmap (or being recycled);
// the caller's Validate() discards any observation made during a write.
PACTREE_NO_TSAN
int DataNode::FindKey(const Key& key, uint8_t fingerprint) const {
  uint64_t live = Bitmap();
  uint64_t candidates;
#if defined(PACTREE_AVX2)
  // 64-byte fingerprint match in two 32-byte compares (the paper uses one
  // AVX-512 compare; two AVX2 compares are the portable equivalent).
  __m256i needle = _mm256_set1_epi8(static_cast<char>(fingerprint));
  __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fp));
  __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fp + 32));
  uint32_t mlo = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(lo, needle)));
  uint32_t mhi = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(hi, needle)));
  candidates = (static_cast<uint64_t>(mhi) << 32 | mlo) & live;
#else
  candidates = 0;
  for (size_t i = 0; i < kDataNodeEntries; ++i) {
    if (fp[i] == fingerprint) {
      candidates |= 1ULL << i;
    }
  }
  candidates &= live;
#endif
  const bool is_compact = Format() == NodeFormat::kCompact;
  while (candidates != 0) {
    int i = __builtin_ctzll(candidates);
    if (is_compact) {
      // One slot record (descriptor, inline head, and the value a hit reads
      // next), then only the arena bytes the truncated compare needs.
      AnnotateNvmRead(&compact.slots[i], sizeof(CompactSlot));
      DescFields f = DecodeDesc(LoadDesc(i));
      if (TailLen(f.slen) != 0) {
        AnnotateNvmRead(&compact.arena[f.off], TailLen(f.slen));
      }
    } else {
      AnnotateNvmRead(&classic.keys[i], sizeof(Key));
    }
    if (KeyEquals(i, key)) {
      return i;
    }
    candidates &= candidates - 1;
  }
  return -1;
}

int DataNode::FindFreeSlot() const {
  uint64_t live = Bitmap();
  if (live == ~0ULL) {
    return -1;
  }
  return __builtin_ctzll(~live);
}

uint64_t* DataNode::ValueSlot(int slot) {
  return Format() == NodeFormat::kClassic ? &classic.values[slot]
                                          : &compact.slots[slot].value;
}

uint64_t DataNode::ValueAt(int slot) const {
  return std::atomic_ref<uint64_t>(
             *const_cast<DataNode*>(this)->ValueSlot(slot))
      .load(std::memory_order_acquire);
}

PACTREE_NO_TSAN
int DataNode::FindSharedTail(const uint8_t* tail, size_t n,
                             uint64_t live_mask) const {
  while (live_mask != 0) {
    int i = __builtin_ctzll(live_mask);
    live_mask &= live_mask - 1;
    DescFields f = DecodeDesc(LoadDesc(i));
    if (TailLen(f.slen) == n && std::memcmp(compact.arena + f.off, tail, n) == 0) {
      return static_cast<int>(f.off);
    }
  }
  return -1;
}

// Suffix placement for a compact slot. Sharing scan: an UPDATE of a live key
// re-fills a fresh slot with the same bytes, and without sharing every such
// churn would leak one arena tail until the next compaction. Only slots in
// |live_mask| are candidates -- a dead slot's descriptor may point at bytes a
// past compaction has reclaimed. The head is per slot and always copied.
PACTREE_NO_TSAN
uint32_t DataNode::PlaceSuffix(int slot, const Key& key, uint64_t live_mask,
                               uint16_t* arena_lo, uint16_t* arena_hi) {
  const size_t plen = AnchorPrefixLen(key);
  const size_t slen = key.size() - plen;
  const size_t tlen = ArenaNeed(key);
  // Zero-padded so the record's persisted bytes never carry stale key bytes.
  uint8_t head[kInlineSuffixBytes] = {};
  std::memcpy(head, key.data() + plen, slen - tlen);
  ArenaBytesCopy(compact.slots[slot].head, head, kInlineSuffixBytes);
  if (tlen == 0) {
    return MakeDesc(plen, slen, 0);
  }
  const uint8_t* tail = key.data() + plen + kInlineSuffixBytes;
  if (int off = FindSharedTail(tail, tlen, live_mask); off >= 0) {
    return MakeDesc(plen, slen, static_cast<size_t>(off));  // share the live copy
  }
  if (arena_cursor + tlen > kCompactArenaBytes) {
    return ~0u;  // out of room: caller compacts and/or splits
  }
  const uint16_t off = arena_cursor;
  ArenaBytesCopy(compact.arena + off, tail, tlen);
  arena_cursor = static_cast<uint16_t>(off + tlen);
  *arena_lo = std::min(*arena_lo, off);
  *arena_hi = std::max<uint16_t>(*arena_hi, arena_cursor);
  return MakeDesc(plen, slen, off);
}

bool DataNode::SuffixRoomFor(const Key& key) const {
  const size_t tlen = ArenaNeed(key);
  if (tlen == 0 || arena_cursor + tlen <= kCompactArenaBytes) {
    return true;
  }
  // No cursor room; a live identical arena tail still admits the key (mirrors
  // PlaceSuffix's sharing scan).
  const uint8_t* tail = key.data() + AnchorPrefixLen(key) + kInlineSuffixBytes;
  return FindSharedTail(tail, tlen, Bitmap()) >= 0;
}

// Writer side of the optimistic-probe pattern (see FindKey): fills a slot that
// is not yet (or no longer) in the live bitmap while readers may be scanning.
PACTREE_NO_TSAN
void DataNode::FillSlot(int slot, const Key& key, uint8_t fingerprint, uint64_t value) {
  if (Format() == NodeFormat::kClassic) {
    classic.keys[slot] = key;
    classic.values[slot] = value;
    fp[slot] = fingerprint;
    PersistRange(&classic.keys[slot], sizeof(Key));
    PersistRange(&classic.values[slot], sizeof(uint64_t));
    PersistRange(&fp[slot], 1);
    Fence();
    return;
  }
  uint16_t lo = kCompactArenaBytes;
  uint16_t hi = 0;
  uint32_t d = PlaceSuffix(slot, key, Bitmap(), &lo, &hi);
  if (d == ~0u) {
    ArenaOverflow("FillSlot");
  }
  compact.slots[slot].value = value;
  StoreDesc(slot, d);
  fp[slot] = fingerprint;
  // Record, then arena tail and cursor, all durable BEFORE the caller's
  // bitmap publish: a recovered image never has a live descriptor above the
  // recovered cursor.
  PersistRange(&compact.slots[slot], sizeof(CompactSlot));
  if (hi > lo) {
    PersistRange(&compact.arena[lo], hi - lo);
    PersistRange(&arena_cursor, sizeof(arena_cursor));
  }
  PersistRange(&fp[slot], 1);
  Fence();
}

PACTREE_NO_TSAN
void DataNode::StageSlot(int slot, const Key& key, uint8_t fingerprint,
                         uint64_t value, uint16_t* arena_lo, uint16_t* arena_hi) {
  if (Format() == NodeFormat::kClassic) {
    classic.keys[slot] = key;
    classic.values[slot] = value;
    fp[slot] = fingerprint;
    return;
  }
  uint32_t d = PlaceSuffix(slot, key, Bitmap(), arena_lo, arena_hi);
  if (d == ~0u) {
    ArenaOverflow("StageSlot");
  }
  compact.slots[slot].value = value;
  StoreDesc(slot, d);
  fp[slot] = fingerprint;
}

size_t DataNode::CompactArenaLocked() {
  if (Format() == NodeFormat::kClassic) {
    return 0;
  }
  // Live set = the PUBLISHED bitmap: anything a crash right now would recover
  // live. Callers with batch-local bitmap state publish it first.
  struct Ref {
    uint16_t off;
    uint16_t tlen;  // arena tail length
    uint8_t slot;
  };
  Ref refs[kDataNodeEntries];
  int nrefs = 0;
  uint64_t live = Bitmap();
  while (live != 0) {
    int i = __builtin_ctzll(live);
    live &= live - 1;
    DescFields f = DecodeDesc(LoadDesc(i));
    if (TailLen(f.slen) != 0) {
      refs[nrefs++] = {static_cast<uint16_t>(f.off),
                       static_cast<uint16_t>(TailLen(f.slen)),
                       static_cast<uint8_t>(i)};
    }
  }
  std::sort(refs, refs + nrefs, [](const Ref& a, const Ref& b) {
    return a.off < b.off || (a.off == b.off && a.slot < b.slot);
  });
  uint16_t p = 0;  // pack cursor
  for (int g = 0; g < nrefs;) {
    // Slots sharing one tail copy (PlaceSuffix sharing) form one group.
    int gend = g + 1;
    while (gend < nrefs && refs[gend].off == refs[g].off &&
           refs[gend].tlen == refs[g].tlen) {
      ++gend;
    }
    const uint16_t off = refs[g].off;
    const uint16_t tlen = refs[g].tlen;
    if (off == p) {
      p = static_cast<uint16_t>(off + tlen);
      g = gend;
      continue;
    }
    if (p + tlen <= off) {
      // Destination is fully free and disjoint from the source: copy, make the
      // bytes durable, THEN swing each 4-B descriptor atomically (only the
      // offset changes; the record's value and head stay as they are). A
      // crash at any point leaves every live descriptor pointing at valid
      // bytes.
      ArenaBytesCopy(compact.arena + p, compact.arena + off, tlen);
      PersistFence(&compact.arena[p], tlen);
      for (int j = g; j < gend; ++j) {
        DescFields f = DecodeDesc(LoadDesc(refs[j].slot));
        StoreDesc(refs[j].slot, MakeDesc(f.plen, f.slen, p));
        PersistRange(&compact.slots[refs[j].slot].desc, sizeof(uint32_t));
      }
      Fence();  // swings durable before the cursor drop below
      p = static_cast<uint16_t>(p + tlen);
    } else {
      // Destination would overlap the source: moving could tear the bytes a
      // crash-recovered descriptor still points at. Leave it in place.
      p = static_cast<uint16_t>(off + tlen);
    }
    g = gend;
  }
  const uint16_t old_cursor = arena_cursor;
  if (p < old_cursor) {
    arena_cursor = p;
    PersistFence(&arena_cursor, sizeof(arena_cursor));
  }
  return p < old_cursor ? old_cursor - p : 0;
}

void DataNode::PublishBitmap(uint64_t new_bitmap) {
  AtomicStorePersist(reinterpret_cast<std::atomic<uint64_t>*>(&bitmap), new_bitmap);
}

// Reads live-slot keys optimistically; callers version-check the result.
PACTREE_NO_TSAN
int DataNode::ComputeSortedOrder(uint8_t* out) const {
  uint64_t live = Bitmap();
  int n = 0;
  while (live != 0) {
    out[n++] = static_cast<uint8_t>(__builtin_ctzll(live));
    live &= live - 1;
  }
  if (Format() == NodeFormat::kClassic) {
    std::sort(out, out + n,
              [this](uint8_t a, uint8_t b) { return classic.keys[a] < classic.keys[b]; });
  } else {
    Key keys[kDataNodeEntries];
    for (int i = 0; i < n; ++i) {
      keys[out[i]] = KeyAt(out[i]);
    }
    std::sort(out, out + n,
              [&keys](uint8_t a, uint8_t b) { return keys[a] < keys[b]; });
  }
  return n;
}

uint64_t DataNode::NextRaw() const {
  return std::atomic_ref<uint64_t>(const_cast<DataNode*>(this)->next_raw)
      .load(std::memory_order_acquire);
}

uint64_t DataNode::PrevRaw() const {
  return std::atomic_ref<uint64_t>(const_cast<DataNode*>(this)->prev_raw)
      .load(std::memory_order_acquire);
}

void DataNode::StoreNextPersist(uint64_t raw) {
  std::atomic_ref<uint64_t>(next_raw).store(raw, std::memory_order_release);
  PersistFence(&next_raw, sizeof(uint64_t));
}

void DataNode::StorePrevPersist(uint64_t raw) {
  std::atomic_ref<uint64_t>(prev_raw).store(raw, std::memory_order_release);
  PersistFence(&prev_raw, sizeof(uint64_t));
}

bool DataNode::IsDeleted() const {
  return std::atomic_ref<uint32_t>(const_cast<DataNode*>(this)->deleted)
             .load(std::memory_order_acquire) != 0;
}

}  // namespace pactree
