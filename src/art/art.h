// PDL-ART: Persistent Durable-Linearizable Adaptive Radix Tree (paper §5.1).
//
// An ART (Leis et al., ICDE'13) over the 32-byte zero-padded key image, with:
//   * optimistic version locks + the global generation ID instead of ROWEX, so
//     readers block on a locked node and can never observe unpersisted writes
//     (durable linearizability), and crash recovery does not visit nodes;
//   * log-free crash consistency: in-place changes use ordered persists with the
//     visibility store last; multi-line structural changes (grow/shrink/prefix
//     split) are copy-on-write with a single persisted 8-byte pointer swing as
//     the linearization point;
//   * persistent-leak prevention: every new node/leaf is allocated with
//     malloc-to semantics into a per-tree allocation log; recovery frees
//     blocks that never became reachable;
//   * epoch-based reclamation for nodes replaced by copy-on-write.
//
// A leaf is a tagged child word, resolved to its key in one of two ways:
//   * record leaves (the standalone index, IndexKind::kPdlArt): the leaf points
//     at an out-of-node {key, value} ArtLeaf record -- one NVM allocation per
//     insert and one record chase per lookup, exactly the cost the paper
//     measures against (GA3, Figures 3/4/5). Values are opaque 8-byte words.
//   * node leaves (PACTree's search layer): the leaf word IS the value, a PPtr
//     to a caller-owned object (a data node) whose immutable key sits at a
//     fixed offset, and the key is loaded from there -- ART's lazy expansion
//     ("load the key from the tuple"). No leaf is allocated, persisted or
//     logged. The caller must keep every object the trie reaches alive until
//     its key's removal is durable and an epoch has passed.
#ifndef PACTREE_SRC_ART_ART_H_
#define PACTREE_SRC_ART_ART_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/key.h"
#include "src/common/status.h"
#include "src/pmem/heap.h"
#include "src/pmem/pptr.h"
#include "src/sync/version_lock.h"

namespace pactree {

// Child pointers are raw PPtr words; bit 63 tags a leaf (pool ids stay < 2^15).
inline constexpr uint64_t kArtLeafTag = 1ULL << 63;
inline bool ArtIsLeaf(uint64_t raw) { return (raw & kArtLeafTag) != 0; }
inline uint64_t ArtUntag(uint64_t raw) { return raw & ~kArtLeafTag; }

struct ArtLeaf {
  Key key;
  uint32_t pad;
  uint64_t value;
};
static_assert(sizeof(ArtLeaf) == 48, "leaf record layout");

enum ArtNodeType : uint8_t { kArtN4 = 1, kArtN16, kArtN48, kArtN256 };

struct ArtNode {
  OptVersionLock lock;
  uint8_t type;
  uint8_t pad;
  uint16_t count;
  uint32_t prefix_len;  // logical length; only kMaxPrefix bytes stored
  static constexpr uint32_t kMaxPrefix = 24;
  uint8_t prefix[kMaxPrefix];
};
static_assert(sizeof(ArtNode) == 40, "node header layout");

// Per-tree persistent allocation log entry (up to two blocks per operation:
// e.g., a prefix split allocates one inner node and, with record leaves, one
// leaf).
struct ArtAllocLogEntry {
  uint64_t state;      // 0 = empty
  uint64_t blocks[2];  // raw PPtrs of in-flight allocations
  Key key;             // the key whose path the blocks belong to
  uint8_t pad[4];
};
static_assert(sizeof(ArtAllocLogEntry) == 64, "log entry is one cache line");

inline constexpr size_t kArtAllocLogSlots = 256;

// Persistent root object of one PDL-ART instance. The caller owns its placement
// (e.g., inside a heap root area or a PACTree metadata block).
struct ArtTreeRoot {
  uint64_t magic;
  uint64_t root_raw;  // PPtr of the root N256
  uint64_t pad[6];
  ArtAllocLogEntry alloc_log[kArtAllocLogSlots];
};

struct PdlArtStats {
  uint64_t restarts = 0;  // optimistic validation failures
};

// PdlArt's |leaf_key_offset| for record leaves (see the file comment).
inline constexpr int kArtRecordLeaves = -1;

class PdlArt {
 public:
  // Attaches to (or initializes) the tree rooted at |root|. |heap| provides
  // NUMA-local persistent allocation. When attaching to an existing tree the
  // caller must invoke Recover() before concurrent use. |leaf_key_offset| >= 0
  // selects node leaves: every value is a PPtr to an object whose immutable
  // Key sits that many bytes in, and Insert(key, value) requires that key to
  // equal |key|. A tree's leaf kind is fixed for its lifetime; the caller's
  // persistent format owns that choice.
  PdlArt(PmemHeap* heap, ArtTreeRoot* root, int leaf_key_offset = kArtRecordLeaves);

  PdlArt(const PdlArt&) = delete;
  PdlArt& operator=(const PdlArt&) = delete;

  // Upsert. Returns kOk for a fresh insert, kExists when an existing key's
  // value was overwritten.
  Status Insert(const Key& key, uint64_t value);

  // Insert only if absent; returns kExists (value untouched) otherwise.
  Status InsertIfAbsent(const Key& key, uint64_t value);

  Status Lookup(const Key& key, uint64_t* value) const;
  Status Remove(const Key& key);

  // Greatest key <= |key|. Returns kNotFound when the tree has no key <= key.
  Status LookupFloor(const Key& key, Key* found, uint64_t* value) const;

  // Collects up to |limit| pairs with key >= |start| in ascending order.
  size_t Scan(const Key& start, size_t limit,
              std::vector<std::pair<Key, uint64_t>>* out) const;

  // Ordered visit of every pair (test/debug; not concurrency-safe vs writers).
  void ForEach(const std::function<void(const Key&, uint64_t)>& fn) const;

  // Post-crash GC of the allocation log (frees unreachable blocks).
  void Recover();

  uint64_t Size() const;  // number of leaves (O(n) walk)
  PdlArtStats Stats() const { return {restarts_.load(std::memory_order_relaxed)}; }

 private:
  struct AllocGuard;

  ArtNode* RootNode() const { return PPtr<ArtNode>(root_->root_raw).get(); }

  Status InsertImpl(const Key& key, uint64_t value, bool upsert, bool* existed);
  bool InsertAttempt(const Key& key, uint64_t value, bool upsert, bool* existed,
                     Status* result);
  bool RemoveAttempt(const Key& key, Status* result);
  bool FloorAttempt(const Key& key, Key* found, uint64_t* value, Status* result) const;
  // Greatest leaf of the subtree at |raw|; *ok=false when it holds none (false
  // -> restart). Removals never prune inner nodes, so a subtree can be empty.
  bool SubtreeMax(uint64_t raw, Key* found, uint64_t* value, bool* ok) const;
  // Greatest leaf among |node|'s children with branch byte < |below| (node
  // entered at |version|), skipping empty subtrees; false -> restart.
  bool MaxLeafBelow(const ArtNode* node, uint64_t version, int below, Key* found,
                    uint64_t* value, bool* ok) const;
  // Insert into a non-root |node| that holds no leaf: the new leaf replaces it
  // in |parent| (its unstored prefix bytes left with its last leaf), and the
  // node and every inner node below it are retired.
  bool ReplaceEmptyNode(ArtNode* parent, uint64_t parent_version, uint8_t parent_byte,
                        ArtNode* node, uint64_t version, const Key& key, uint64_t value,
                        Status* result);
  bool ScanAttempt(const Key& start, size_t limit,
                   std::vector<std::pair<Key, uint64_t>>* out) const;
  bool ScanNode(uint64_t raw, uint32_t depth, const Key& start, bool bounded,
                size_t limit, std::vector<std::pair<Key, uint64_t>>* out) const;

  // Write-locks |node| (entered at |version|) and, top-down, every inner node
  // below it, appending each to |locked|. False -> restart (a lock was lost
  // or a leaf appeared): the caller unlocks |locked|.
  bool LockEmptySubtree(ArtNode* node, uint64_t version, std::vector<ArtNode*>* locked);

  // Allocation helpers (malloc-to into the tree's log).
  int AcquireLogSlot(const Key& key);
  // Log slot for an operation whose only allocation is its leaf: node leaves
  // allocate nothing and get kNoLogSlot, which ReleaseLogSlot ignores.
  int AcquireLeafSlot(const Key& key);
  static constexpr int kNoLogSlot = static_cast<int>(kArtAllocLogSlots);
  void ReleaseLogSlot(int slot);
  void* AllocBlock(int slot, int which, size_t size);

  ArtNode* NewInnerNode(int slot, int which, ArtNodeType type);
  // Leaf word for (key, value). Record leaves allocate and persist an ArtLeaf
  // into log slot (slot, which) and return 0 when the pool is full; node
  // leaves tag |value| and never fail.
  uint64_t NewLeaf(int slot, int which, const Key& key, uint64_t value);
  // Epoch-retires a leaf unlinked from the trie (a node leaf's target belongs
  // to the caller: nothing to do).
  void RetireLeaf(uint64_t raw) const;
  // The one leaf-key loader: the key (and, if |value|, the value) of leaf word
  // |raw|, annotating the media line it reads. Optimistic callers validate
  // the parent version afterwards.
  Key LoadLeaf(uint64_t raw, uint64_t* value) const;
  bool NodeLeaves() const { return leaf_key_offset_ >= 0; }
  const Key* NodeLeafKey(uint64_t raw) const {
    return reinterpret_cast<const Key*>(PPtr<char>(ArtUntag(raw)).get() + leaf_key_offset_);
  }
  ArtNode* GrowCopy(int slot, int which, const ArtNode* n);
  ArtNode* ShrinkCopy(int slot, int which, const ArtNode* n);

  void RetireSubtreeNode(ArtNode* n);

  // Reads the key of some leaf under |node| to reconstruct prefix bytes that
  // are not stored inline (prefix_len > kMaxPrefix); *empty when the subtree
  // holds no leaf. Returns false on a concurrent change (caller restarts).
  bool LoadSubtreeKey(const ArtNode* node, uint64_t version, Key* out, bool* empty) const;

  bool IsReachableOnPath(uint64_t block_raw, const Key& key) const;

  PmemHeap* heap_;
  ArtTreeRoot* root_;
  const int leaf_key_offset_;
  std::vector<std::atomic<uint8_t>> log_busy_;
  mutable std::atomic<uint64_t> restarts_{0};
};

}  // namespace pactree

#endif  // PACTREE_SRC_ART_ART_H_
