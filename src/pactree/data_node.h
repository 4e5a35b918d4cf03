// PACTree data node (paper Figure 8): a B+-tree-style slotted leaf.
//
// 64 unsorted key-value slots; an 8-byte valid bitmap whose atomic persisted
// update is the linearization AND durability point for every insert of a new
// key and every remove (§5.5); a cache-line-aligned fingerprint array matched
// with SIMD; a permutation array that is deliberately NOT persisted (selective
// persistence, §4.4) and is regenerated on demand, version-checked; anchor key
// fixed at creation; doubly-linked siblings. An overwrite of a live key
// commits at its value-word store instead: one aligned 8-B store persisted
// under the node's write lock (StoreValuePersist), which is durably
// linearizable on its own (RECIPE, arXiv 1909.13670), so it never touches the
// bitmap, the fingerprints or the arena.
//
// The node is 2048 B = 8 XPLines (DESIGN.md §6i). The paper's node stores a
// full 36-B Key per slot in 3072 B; this one does not. Every key in a node is
// >= its immutable anchor and typically shares a prefix with it, so a slot
// stores only a 16-B record -- the value and one 8-B key word -- plus, for
// long suffixes, a tail in a packed append-only arena at the node tail
// (PaC-trees' compressed blocks, arXiv 2204.06077: short entries inline, long
// ones spilled). The key word has two forms, chosen by its top bit:
//
//   whole-inline (top bit 1) -- the suffix past the anchor-shared prefix is
//     <= 7 B. The word holds the key length and the key's last min(len, 7)
//     bytes; the bytes before them are by definition the anchor's. Storing
//     the length rather than the shared-prefix length is what frees room for
//     7 bytes, and 7 covers an 8-B integer key that shares one byte with
//     its anchor. The arena is never touched.
//   arena (top bit 0) -- a descriptor (prefix length, suffix length, arena
//     offset) and the first 4 suffix bytes; the rest of the suffix is in
//     the arena.
//
// The word is loaded and stored as one atomic, so a reader sees the length,
// the inline bytes and the arena offset of one encoding. A point hit reads
// the header line, then the slot record's line (key word and value) and, for
// arena-form keys only, one arena line: 2 lines for an integer key, 3 for a
// long string suffix. A scan (SortedEntries) reads the header line, each slot
// line holding a live slot, and the arena below its cursor: at most 5 lines
// for an integer-key node, whose arena is empty.
#ifndef PACTREE_SRC_PACTREE_DATA_NODE_H_
#define PACTREE_SRC_PACTREE_DATA_NODE_H_

#include <cstdint>
#include <utility>

#include "src/common/key.h"
#include "src/nvm/persist.h"
#include "src/pmem/pptr.h"
#include "src/sync/version_lock.h"

namespace pactree {

inline constexpr size_t kDataNodeEntries = 64;

// perm_version bit held by the one reader rebuilding a node's permutation
// array; never equal to a lock version, so no reader trusts the array then.
inline constexpr uint64_t kPermBuilding = 1ULL << 63;

// Longest suffix a key word holds whole (whole-inline form).
inline constexpr size_t kWholeInlineBytes = 7;
// Leading suffix bytes an arena-form key word keeps; the rest of the suffix
// goes to the arena.
inline constexpr size_t kArenaHeadBytes = 4;

// Suffix-arena capacity of a node: 12 B/slot on average. With the 4 head
// bytes a full node holds 64 suffixes of up to 16 B each, as a 1024-B arena
// of whole suffixes would. Incompressible key sets exhaust the arena before
// the bitmap fills; writers then compact the arena in place and, if that is
// not enough, split the node early -- the node trades worst-case fan-out for
// 2/3 the paper's media footprint.
inline constexpr size_t kArenaBytes = 768;

struct DataNode {
  // --- cache line 0: mutable metadata (persisted, except perm_version) ---
  OptVersionLock lock;     // 0
  uint64_t bitmap;         // 8   valid-slot bitmap: the durability pivot
  uint64_t next_raw;       // 16  PPtr of right sibling (0 = tail)
  uint64_t prev_raw;       // 24  PPtr of left sibling (0 = head)
  uint32_t deleted;        // 32  logical-delete mark set by merge
  uint8_t pad0[4];         // 36
  uint64_t perm_version;   // 40  volatile: version the perm array matches
  uint16_t arena_cursor;   // 48  first free arena byte (<= kArenaBytes)
  uint8_t pad1[14];        // 50
  // --- cache line 1: anchor key (immutable after creation, persisted) ---
  Key anchor;              // 64
  uint8_t pad2[28];        // 100
  // --- cache line 2: fingerprints (persisted) ---
  uint8_t fp[kDataNodeEntries];    // 128
  // --- cache line 3: permutation array (NOT persisted) ---
  uint8_t perm[kDataNodeEntries];  // 192
  // --- cache lines 4-19: slot records; 20-31: suffix arena ---
  // One slot record, 16 per XPLine: a probe that matched the slot reads its
  // value from the line it already fetched for the key word.
  struct Slot {
    uint64_t value;
    // Key word, stored/loaded as one 8-B atomic: whole-inline or arena form
    // (see the top of this file; data_node.cc has the bit layout).
    uint64_t kw;
  };
  Slot slots[kDataNodeEntries];  // 256
  uint8_t arena[kArenaBytes];    // 1280

  // Everything a FindKey probe reads before the slot compare -- metadata,
  // anchor, fingerprints (the permutation line rides along: XPLine granularity)
  // -- derived from the layout so a tail change cannot desync the prefetch
  // annotation from what the probe actually touches.
  static constexpr size_t kProbeSpanBytes = 256;  // == offsetof(DataNode, slots)

  // ---- helpers (all assume the caller handles concurrency) ----

  uint64_t Bitmap() const;
  int CountLive() const;

  // Slot of |key| (fingerprint-filtered full compare) or -1.
  int FindKey(const Key& key, uint8_t fingerprint) const;

  // First free slot or -1.
  int FindFreeSlot() const;

  // Reconstructs the key of |slot| (anchor prefix + key-word bytes + arena
  // tail). Optimistic callers version-validate.
  Key KeyAt(int slot) const;

  // True when the slot holds exactly |key| (what FindKey's compare uses).
  bool KeyEquals(int slot, const Key& key) const;

  // Address of the slot's 8-B value word.
  uint64_t* ValueSlot(int slot) { return &slots[slot].value; }
  const uint64_t* ValueSlot(int slot) const { return &slots[slot].value; }
  // Acquire-load of the slot value (optimistic-reader idiom).
  uint64_t ValueAt(int slot) const;
  // Overwrites live |slot|'s value word: one aligned 8-B store, persisted
  // with one fence. Key word, fingerprint, arena and bitmap stay as they are.
  // The caller holds the write lock, so optimistic readers that saw either
  // word fail validation until it drops.
  void StoreValuePersist(int slot, uint64_t value);

  // Writes slot contents + fingerprint and persists them (bitmap untouched:
  // callers flip the bit afterwards as the linearization point). The caller
  // must have checked SuffixRoomFor(key) under the write lock; the suffix
  // append and cursor advance are persisted with the slot, BEFORE the
  // caller's bitmap publish, so a recovered live key word never points above
  // the recovered cursor.
  void FillSlot(int slot, const Key& key, uint8_t fingerprint, uint64_t value);

  // FillSlot without any persist (a split build persists the whole node once).
  void StageSlot(int slot, const Key& key, uint8_t fingerprint, uint64_t value);

  // Arena bytes |key| takes in this node when no live copy is shared: 0 when
  // its suffix past the anchor-shared prefix fits the key word whole (<= 7 B),
  // else the suffix minus the 4 head bytes.
  size_t ArenaNeed(const Key& key) const { return ArenaNeed(anchor, key); }
  // The same count for a node anchored at |anchor| (a split sizes the new
  // node's arena before building it).
  static size_t ArenaNeed(const Key& anchor, const Key& key);

  // True when |key|'s suffix can be placed -- it needs no arena bytes, an
  // identical live arena tail exists to share, or the arena has cursor room.
  bool SuffixRoomFor(const Key& key) const;

  // In-place crash-safe arena compaction under the node's write lock. Live =
  // the PUBLISHED bitmap, so callers must publish any pending batch-local
  // bitmap first. Each live arena tail is only ever copied into a
  // fully-free region before the offset field of its 8-B key word atomically
  // swings (a crash leaves every live word pointing at valid, persisted
  // bytes); whole-inline words are never touched. Moves whose destination
  // overlaps the source are skipped, then the cursor drops to the end of the
  // highest live tail. Returns bytes reclaimed.
  size_t CompactArenaLocked();

  // Atomically stores+persists a new bitmap value (linearization point).
  void PublishBitmap(uint64_t new_bitmap);

  // Computes the sorted order of live slots into |out| (up to 64 entries);
  // returns the count. Pure function of the current slot contents. |keys|,
  // if given, receives each live slot's decoded key, indexed by slot.
  int ComputeSortedOrder(uint8_t* out, Key* keys = nullptr) const;

  // A range scan's read under token |version|: the live (key, value) pairs,
  // in key order, into |out| (room for 64); returns the count. Annotates and
  // decodes each live key once; orders via perm when perm_version ==
  // |version| (§5.4), else sorts and publishes perm under kPermBuilding. The
  // caller validates |version|.
  int SortedEntries(uint64_t version, std::pair<Key, uint64_t>* out);

  // Software-prefetches everything a FindKey probe reads before the slot
  // compare (kProbeSpanBytes: the node's first XPLine). Scan issues this one
  // node ahead of its visit so the modeled media fetch overlaps useful work
  // (see AnnotateNvmPrefetch). The slot line stays a demand miss: which slot
  // to read is known only after the fingerprint match.
  void PrefetchProbe() const { AnnotateNvmPrefetch(this, kProbeSpanBytes); }

  DataNode* Next() const { return PPtr<DataNode>(NextRaw()).get(); }
  DataNode* Prev() const { return PPtr<DataNode>(PrevRaw()).get(); }
  uint64_t NextRaw() const;
  uint64_t PrevRaw() const;
  void StoreNextPersist(uint64_t raw);
  void StorePrevPersist(uint64_t raw);
  bool IsDeleted() const;

 private:
  // Key-word internals (data_node.cc).
  uint64_t LoadKeyWord(int slot) const;
  void StoreKeyWord(int slot, uint64_t kw);
  // True when key word |kw| of this node encodes exactly |key|. With
  // |annotate|, the arena tail is charged as a media read when the compare
  // reaches it (after length, anchor prefix and head matched).
  bool KeyWordEquals(uint64_t kw, const Key& key, bool annotate = false) const;
  // Length of the prefix |key| shares with the anchor (capped at its size).
  size_t AnchorPrefixLen(const Key& key) const { return SharedPrefixLen(anchor, key); }
  static size_t SharedPrefixLen(const Key& anchor, const Key& key);
  // Arena offset of a live arena-form slot whose arena tail equals |tail|
  // (|n| bytes), among |live_mask|, or -1.
  int FindSharedTail(const uint8_t* tail, size_t n, uint64_t live_mask) const;
  // Encodes |key| as a key word. A suffix of <= 7 B is whole-inline and
  // touches nothing; a longer one shares an identical live arena tail among
  // |live_mask| slots when possible and appends at the cursor otherwise.
  // Returns the word, or kNoArenaRoom when the arena is out of room. Appended
  // bytes are NOT persisted here; [*arena_lo, *arena_hi) grows over them.
  static constexpr uint64_t kNoArenaRoom = ~0ULL;
  uint64_t PlaceSuffix(const Key& key, uint64_t live_mask, uint16_t* arena_lo,
                       uint16_t* arena_hi);
};

static_assert(sizeof(DataNode) == 2048, "a data node is exactly 8 XPLines");
static_assert(offsetof(DataNode, fp) == 128, "fingerprints on their own line");
static_assert(offsetof(DataNode, slots) == DataNode::kProbeSpanBytes,
              "probe span must cover exactly the header");
static_assert(offsetof(DataNode, slots) % 256 == 0 &&
                  256 % sizeof(DataNode::Slot) == 0,
              "a slot's value and key word share one XPLine");
static_assert(sizeof(DataNode::Slot) == 16, "four slot records per cache line");
static_assert(offsetof(DataNode::Slot, kw) % 8 == 0,
              "the key word is one aligned atomic");
static_assert(offsetof(DataNode, arena) == 1280, "arena after the slot records");

}  // namespace pactree

#endif  // PACTREE_SRC_PACTREE_DATA_NODE_H_
