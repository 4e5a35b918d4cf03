#include "src/pactree/data_node.h"

#include <algorithm>
#include <atomic>
#include <bit>
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

// Key word layout (Slot::kw). The top byte is the form tag; key bytes
// sit in the word in key order from its low byte up (little-endian hosts, so
// memcpy between key bytes and the word keeps that order).
//   whole-inline: | 1:1 | 0:1 | len:6 @56 | last min(len, 7) key bytes @0 |
//   arena:        | 0:8 | head:32 @24 | plen:6 @18 | slen:6 @12 | off:12 @0 |
// Unused inline bytes are zero, so one key has exactly one inline word.
static_assert(std::endian::native == std::endian::little,
              "key bytes are packed into the key word with memcpy");
constexpr uint64_t kInlineTag = 1ULL << 63;
constexpr uint64_t kArenaOffMask = 0xfff;

bool IsInline(uint64_t kw) { return (kw & kInlineTag) != 0; }

// Whole-inline word of |key|: its length and last min(len, 7) bytes. It
// encodes |key| only in a node whose anchor image starts with the bytes
// before that window.
uint64_t InlineWord(const Key& key) {
  const size_t w = std::min(key.size(), kWholeInlineBytes);
  uint64_t window = 0;
  std::memcpy(&window, key.data() + key.size() - w, w);
  return kInlineTag | static_cast<uint64_t>(key.size()) << 56 | window;
}

// Key length of a whole-inline word, clamped so a torn or racing word never
// indexes past Key::kMaxLen.
size_t InlineLen(uint64_t kw) {
  return std::min<size_t>((kw >> 56) & 0x3f, Key::kMaxLen);
}

constexpr uint64_t ArenaWord(size_t plen, size_t slen, size_t off, uint32_t head) {
  return static_cast<uint64_t>(head) << 24 | plen << 18 | slen << 12 | off;
}

struct DescFields {
  size_t plen;
  size_t slen;
  size_t off;
};

// Arena bytes of a |slen|-byte arena-form suffix: all but its head.
constexpr size_t TailLen(size_t slen) {
  return slen > kArenaHeadBytes ? slen - kArenaHeadBytes : 0;
}

// Decodes an arena-form word with defensive clamps: a torn or racing word
// must never make a reader index past the arena (observations are discarded
// on validation failure, but the read itself has to stay in bounds).
DescFields DecodeDesc(uint64_t kw) {
  DescFields f;
  f.plen = std::min<size_t>((kw >> 18) & 0x3f, Key::kMaxLen);
  f.slen = std::min<size_t>((kw >> 12) & 0x3f, Key::kMaxLen - f.plen);
  f.off = kw & kArenaOffMask;
  if (f.off + TailLen(f.slen) > kArenaBytes) {
    f.slen = std::min(f.slen, kArenaHeadBytes);
    f.off = 0;
  }
  return f;
}

uint32_t ArenaHead(uint64_t kw) { return static_cast<uint32_t>(kw >> 24); }

// Arena tails deliberately race: optimistic readers (KeyAt/KeyEquals) may
// follow a stale key word into a region PlaceSuffix or CompactArenaLocked is
// writing, and discard the observation when the version check fails. (Inline
// bytes arrive in the key word's own atomic load and never race.) TSan's libc
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
// out). Storing the sentinel as a key word would make the slot decode as a
// different key, so stop in every build instead.
[[noreturn]] void ArenaOverflow(const char* where) {
  std::fprintf(stderr, "DataNode::%s: suffix does not fit the arena\n", where);
  std::abort();
}

}  // namespace

uint64_t DataNode::Bitmap() const {
  return std::atomic_ref<uint64_t>(const_cast<DataNode*>(this)->bitmap)
      .load(std::memory_order_acquire);
}

int DataNode::CountLive() const { return __builtin_popcountll(Bitmap()); }

uint64_t DataNode::LoadKeyWord(int slot) const {
  return std::atomic_ref<uint64_t>(const_cast<DataNode*>(this)->slots[slot].kw)
      .load(std::memory_order_acquire);
}

void DataNode::StoreKeyWord(int slot, uint64_t kw) {
  std::atomic_ref<uint64_t>(slots[slot].kw).store(kw, std::memory_order_release);
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
  const size_t slen = key.size() - SharedPrefixLen(anchor, key);
  return slen > kWholeInlineBytes ? TailLen(slen) : 0;
}

PACTREE_NO_TSAN
Key DataNode::KeyAt(int slot) const {
  const uint64_t kw = LoadKeyWord(slot);
  uint8_t buf[Key::kMaxLen];
  if (IsInline(kw)) {
    const size_t len = InlineLen(kw);
    const size_t w = std::min(len, kWholeInlineBytes);
    std::memcpy(buf, anchor.data(), len - w);
    std::memcpy(buf + len - w, &kw, w);
    return Key::FromBytes(buf, len);
  }
  DescFields f = DecodeDesc(kw);
  const size_t hlen = std::min(f.slen, kArenaHeadBytes);
  const uint32_t head = ArenaHead(kw);
  std::memcpy(buf, anchor.data(), f.plen);
  std::memcpy(buf + f.plen, &head, hlen);
  ArenaBytesCopy(buf + f.plen + hlen, arena + f.off, f.slen - hlen);
  return Key::FromBytes(buf, f.plen + f.slen);
}

PACTREE_NO_TSAN
bool DataNode::KeyEquals(int slot, const Key& key) const {
  return KeyWordEquals(LoadKeyWord(slot), key);
}

PACTREE_NO_TSAN
bool DataNode::KeyWordEquals(uint64_t kw, const Key& key, bool annotate) const {
  // Truncated compare: the anchor-shared prefix (usually short), then the
  // bytes in the word, then (arena form) the arena tail -- never the full
  // 32-byte padded image.
  if (IsInline(kw)) {
    const size_t pre = key.size() - std::min(key.size(), kWholeInlineBytes);
    return kw == InlineWord(key) &&
           (pre == 0 || std::memcmp(key.data(), anchor.data(), pre) == 0);
  }
  DescFields f = DecodeDesc(kw);
  if (key.size() != f.plen + f.slen) {
    return false;
  }
  if (f.plen != 0 && std::memcmp(key.data(), anchor.data(), f.plen) != 0) {
    return false;
  }
  const size_t hlen = std::min(f.slen, kArenaHeadBytes);
  const uint8_t* suffix = key.data() + f.plen;
  uint32_t head = 0;
  std::memcpy(&head, suffix, hlen);
  if (head != ArenaHead(kw)) {
    return false;
  }
  if (annotate && f.slen > hlen) {
    AnnotateNvmRead(&arena[f.off], f.slen - hlen);
  }
  return ArenaBytesEqual(suffix + hlen, arena + f.off, f.slen - hlen);
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
  while (candidates != 0) {
    int i = __builtin_ctzll(candidates);
    // One slot record (key word, and the value a hit reads next); the
    // compare charges an arena tail only when it gets that far.
    AnnotateNvmRead(&slots[i], sizeof(Slot));
    if (KeyWordEquals(LoadKeyWord(i), key, /*annotate=*/true)) {
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

uint64_t DataNode::ValueAt(int slot) const {
  return std::atomic_ref<uint64_t>(
             *const_cast<DataNode*>(this)->ValueSlot(slot))
      .load(std::memory_order_acquire);
}

void DataNode::StoreValuePersist(int slot, uint64_t value) {
  AtomicStorePersist(reinterpret_cast<std::atomic<uint64_t>*>(ValueSlot(slot)), value);
}

PACTREE_NO_TSAN
int DataNode::FindSharedTail(const uint8_t* tail, size_t n,
                             uint64_t live_mask) const {
  while (live_mask != 0) {
    int i = __builtin_ctzll(live_mask);
    live_mask &= live_mask - 1;
    const uint64_t kw = LoadKeyWord(i);
    if (IsInline(kw)) {
      continue;
    }
    DescFields f = DecodeDesc(kw);
    if (TailLen(f.slen) == n && std::memcmp(arena + f.off, tail, n) == 0) {
      return static_cast<int>(f.off);
    }
  }
  return -1;
}

// Suffix placement for a slot. Sharing scan: a key whose arena tail equals a
// live slot's (keys that differ only in their first suffix bytes) points at
// that copy instead of appending another. Only arena-form slots in
// |live_mask| are candidates -- a dead slot's word may point at bytes a past
// compaction has reclaimed.
PACTREE_NO_TSAN
uint64_t DataNode::PlaceSuffix(const Key& key, uint64_t live_mask,
                               uint16_t* arena_lo, uint16_t* arena_hi) {
  const size_t plen = AnchorPrefixLen(key);
  const size_t slen = key.size() - plen;
  if (slen <= kWholeInlineBytes) {
    return InlineWord(key);
  }
  const uint8_t* suffix = key.data() + plen;
  uint32_t head;
  std::memcpy(&head, suffix, kArenaHeadBytes);
  const size_t tlen = TailLen(slen);
  const uint8_t* tail = suffix + kArenaHeadBytes;
  if (int off = FindSharedTail(tail, tlen, live_mask); off >= 0) {
    return ArenaWord(plen, slen, static_cast<size_t>(off), head);  // share the live copy
  }
  if (arena_cursor + tlen > kArenaBytes) {
    return kNoArenaRoom;  // caller compacts and/or splits
  }
  const uint16_t off = arena_cursor;
  ArenaBytesCopy(arena + off, tail, tlen);
  // Atomic: SortedEntries reads the cursor without the node lock.
  std::atomic_ref<uint16_t>(arena_cursor)
      .store(static_cast<uint16_t>(off + tlen), std::memory_order_relaxed);
  *arena_lo = std::min(*arena_lo, off);
  *arena_hi = std::max<uint16_t>(*arena_hi, arena_cursor);
  return ArenaWord(plen, slen, off, head);
}

bool DataNode::SuffixRoomFor(const Key& key) const {
  const size_t tlen = ArenaNeed(key);
  if (tlen == 0 || arena_cursor + tlen <= kArenaBytes) {
    return true;
  }
  // No cursor room; a live identical arena tail still admits the key (mirrors
  // PlaceSuffix's sharing scan).
  const uint8_t* tail = key.data() + AnchorPrefixLen(key) + kArenaHeadBytes;
  return FindSharedTail(tail, tlen, Bitmap()) >= 0;
}

// Writer side of the optimistic-probe pattern (see FindKey): fills a slot that
// is not yet (or no longer) in the live bitmap while readers may be scanning.
PACTREE_NO_TSAN
void DataNode::FillSlot(int slot, const Key& key, uint8_t fingerprint, uint64_t value) {
  uint16_t lo = kArenaBytes;
  uint16_t hi = 0;
  const uint64_t kw = PlaceSuffix(key, Bitmap(), &lo, &hi);
  if (kw == kNoArenaRoom) {
    ArenaOverflow("FillSlot");
  }
  slots[slot].value = value;
  StoreKeyWord(slot, kw);
  fp[slot] = fingerprint;
  // Record, then arena tail and cursor (arena form only), all durable BEFORE
  // the caller's bitmap publish: a recovered image never has a live key word
  // pointing above the recovered cursor.
  PersistRange(&slots[slot], sizeof(Slot));
  if (hi > lo) {
    PersistRange(&arena[lo], hi - lo);
    PersistRange(&arena_cursor, sizeof(arena_cursor));
  }
  PersistRange(&fp[slot], 1);
  Fence();
}

PACTREE_NO_TSAN
void DataNode::StageSlot(int slot, const Key& key, uint8_t fingerprint,
                         uint64_t value) {
  uint16_t lo = kArenaBytes;
  uint16_t hi = 0;
  const uint64_t kw = PlaceSuffix(key, Bitmap(), &lo, &hi);
  if (kw == kNoArenaRoom) {
    ArenaOverflow("StageSlot");
  }
  slots[slot].value = value;
  StoreKeyWord(slot, kw);
  fp[slot] = fingerprint;
}

size_t DataNode::CompactArenaLocked() {
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
    const uint64_t kw = LoadKeyWord(i);
    if (IsInline(kw)) {
      continue;
    }
    DescFields f = DecodeDesc(kw);
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
      // bytes durable, THEN swing each 8-B key word atomically (only the
      // offset field changes; the record's value and head stay as they are).
      // A crash at any point leaves every live word pointing at valid bytes.
      ArenaBytesCopy(arena + p, arena + off, tlen);
      PersistFence(&arena[p], tlen);
      for (int j = g; j < gend; ++j) {
        const int s = refs[j].slot;
        StoreKeyWord(s, (LoadKeyWord(s) & ~kArenaOffMask) | p);
        PersistRange(&slots[s].kw, sizeof(uint64_t));
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
    std::atomic_ref<uint16_t>(arena_cursor).store(p, std::memory_order_relaxed);
    PersistFence(&arena_cursor, sizeof(arena_cursor));
  }
  return p < old_cursor ? old_cursor - p : 0;
}

void DataNode::PublishBitmap(uint64_t new_bitmap) {
  AtomicStorePersist(reinterpret_cast<std::atomic<uint64_t>*>(&bitmap), new_bitmap);
}

// Reads live slots optimistically; callers version-check the result.
PACTREE_NO_TSAN
int DataNode::ComputeSortedOrder(uint8_t* out, Key* keys) const {
  Key local[kDataNodeEntries];
  if (keys == nullptr) {
    keys = local;
  }
  int n = 0;
  for (uint64_t live = Bitmap(); live != 0; live &= live - 1) {
    const int s = __builtin_ctzll(live);
    keys[s] = KeyAt(s);
    out[n++] = static_cast<uint8_t>(s);
  }
  std::sort(out, out + n,
            [keys](uint8_t a, uint8_t b) { return keys[a] < keys[b]; });
  return n;
}

// perm is read and written bytewise, not with memcpy (see ArenaBytesCopy): a
// stale-token publisher may rewrite it while a current-token reader reads it.
// perm_version MUST be loaded before the bitmap: a publisher that then sees
// perm_version == v decodes a state no older than v, so it rewrites v's order
// (or a newer one, which fails every v reader's validation), never an older.
PACTREE_NO_TSAN
int DataNode::SortedEntries(uint64_t version, std::pair<Key, uint64_t>* out) {
  std::atomic_ref<uint64_t> pv_ref(perm_version);
  uint64_t pv = pv_ref.load(std::memory_order_acquire);
  const uint64_t live = Bitmap();
  AnnotateNvmRead(this, kProbeSpanBytes);
  constexpr size_t kSlotsPerLine = kXpLineSize / sizeof(Slot);
  for (size_t s = 0; s < kDataNodeEntries; s += kSlotsPerLine) {
    if ((live >> s & ((1ULL << kSlotsPerLine) - 1)) != 0) {
      AnnotateNvmRead(&slots[s], kXpLineSize);
    }
  }
  const uint16_t cursor =
      std::atomic_ref<uint16_t>(arena_cursor).load(std::memory_order_relaxed);
  AnnotateNvmRead(arena, std::min<size_t>(cursor, kArenaBytes));
  if (pv == version) {
    const int n = __builtin_popcountll(live);
    for (int i = 0; i < n; ++i) {
      const int s = perm[i] % kDataNodeEntries;
      out[i] = {KeyAt(s), ValueAt(s)};
    }
    return n;
  }
  Key keys[kDataNodeEntries];
  uint8_t order[kDataNodeEntries];
  const int n = ComputeSortedOrder(order, keys);
  for (int i = 0; i < n; ++i) {
    out[i] = {keys[order[i]], ValueAt(order[i])};
  }
  if ((pv & kPermBuilding) == 0 &&
      pv_ref.compare_exchange_strong(pv, kPermBuilding, std::memory_order_acq_rel)) {
    for (int i = 0; i < n; ++i) {
      perm[i] = order[i];
    }
    pv_ref.store(lock.Validate(version) ? version : 0, std::memory_order_release);
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
