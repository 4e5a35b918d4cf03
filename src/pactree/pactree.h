// PACTree: a high-performance persistent range index built on the PAC
// guidelines (SOSP'21).
//
// Architecture (paper §4): a *data layer* -- a doubly-linked list of 64-entry
// slotted data nodes -- decoupled from a *search layer* -- a PDL-ART trie over
// the data nodes' anchor keys. Splits and merges update only the data layer on
// the critical path; a persistent SMO log plus per-NUMA background updater
// services (src/pactree/updater.h) synchronize the search layer
// asynchronously. Readers that arrive through a stale search layer land on a
// "jump node" and walk the data layer's sibling pointers to the target
// (ephemeral-inconsistency-tolerant design, §4.3).
//
// Guarantees: durable linearizability (an acknowledged write is durable; a read
// never returns an unpersisted write), crash consistency without logging for
// common-case writes (bitmap = linearization + durability pivot), leak-free
// allocation, near-instant recovery (both layers live on NVM).
//
// This file is the operation front-end; SMO replay lives in updater.{h,cc} and
// crash recovery in recovery.cc.
#ifndef PACTREE_SRC_PACTREE_PACTREE_H_
#define PACTREE_SRC_PACTREE_PACTREE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/art/art.h"
#include "src/common/key.h"
#include "src/common/status.h"
#include "src/pactree/data_node.h"
#include "src/pactree/smo_log.h"
#include "src/pactree/updater.h"
#include "src/pmem/heap.h"
#include "src/value/lru_cache.h"
#include "src/value/value_storage.h"

namespace pactree {

struct PacTreeOptions {
  std::string name = "pactree";
  // Uses [base, base+32): search/data/log heaps at +0/+8/+16, value heap
  // (value_storage mode) at +24.
  uint16_t pool_id_base = 100;
  size_t pool_size = 512ULL << 20;  // per NUMA sub-pool

  // Feature toggles for the paper's Figure 12 factor analysis. All on by
  // default (full PACTree).
  bool async_search_update = true;   // off -> SL updated on the critical path
  bool per_numa_pools = true;        // off -> single pool per heap
  bool selective_persistence = true; // off -> persist the permutation array
  bool dram_search_layer = false;    // on  -> trie in DRAM (rebuilt-free: ART
                                     //        is rebuilt from SMO-na... kept
                                     //        volatile; recovery rebuilds it)

  // Background updater services (async mode). 0 = auto: PAC_UPDATERS env var
  // if set, else one per logical NUMA node. Clamped to [1, kMaxWriterSlots].
  uint32_t updater_count = 0;
  // Effective ring capacity (<= kSmoLogEntries); tests shrink it to exercise
  // writer-side backpressure without logging thousands of SMOs.
  size_t smo_ring_capacity = kSmoLogEntries;

  // Pool-pressure watermarks, as fractions of chunk capacity; the signal is
  // the *highest* sub-pool used-fraction across the data and log heaps (one
  // exhausted sub-pool stalls writers even when siblings have room). Past
  // |pressure_soft| the pressure service kicks value GC (compaction is the
  // only way the value heap sheds bytes); past |pressure_hard| the tree
  // enters read-only degraded mode -- Insert/Update fail fast with
  // kFull while lookups, scans, and Remove keep serving -- until
  // the used fraction falls back to |pressure_resume|. Env overrides:
  // PAC_PRESSURE_SOFT / PAC_PRESSURE_HARD / PAC_PRESSURE_RESUME (percent,
  // e.g. 95 for 0.95).
  double pressure_soft = 0.85;
  double pressure_hard = 0.95;
  double pressure_resume = 0.90;

  // Tiered value storage (src/value): variable-length values live in a
  // log-structured per-NUMA value tier; the tree stores tagged 8-B handles
  // (inline <= 7 B payloads, log addresses otherwise -- value_handle.h).
  // Also enabled by PAC_VALUESTORE=1 (the bench --value-size flag), and
  // forced on reopen of a tree that ever ran in value mode (the root records
  // it). Only the value-aware entry points (InsertValue/LookupValue/
  // ScanValues) interpret handles; the plain u64 API keeps working but
  // treats them as opaque words.
  bool value_storage = false;
  size_t value_segment_size = 256 << 10;
  // DRAM hot-value cache budget; 0 disables the cache (every LookupValue
  // dereferences the log). Env override: PAC_VALUE_CACHE (bytes).
  size_t value_cache_bytes = 8 << 20;
  // GC collects a sealed segment when its live fraction drops below this.
  double value_gc_threshold = 0.5;
  // Value-append arenas / GC services; 0 = auto (one per logical NUMA node).
  uint32_t value_arenas = 0;
};

// Jump-hop histogram width: bucket i counts lookups that needed i sibling
// hops; the last bucket absorbs everything >= kHopHistBuckets - 1.
inline constexpr int kHopHistBuckets = 16;

struct PacTreeStats {
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t smo_applied = 0;
  // Writer-side ring-full stalls: one count per backpressure retry while an
  // SMO append waited for the updater to drain its ring.
  uint64_t smo_ring_full_waits = 0;
  // Jump-node distance distribution (§6.7): how many sibling hops a lookup
  // needed after the search-layer traversal. Full histogram, plus the legacy
  // 4-bucket view (0, 1, 2, >=3) derived from it for existing consumers.
  uint64_t hop_hist[kHopHistBuckets] = {};
  uint64_t jump_hops[4] = {0, 0, 0, 0};
  uint64_t retries = 0;
  // Read-path counters.
  uint64_t epoch_enters = 0;  // EpochGuard constructions on read paths
  uint64_t node_locks = 0;    // data-node ReadLock acquisitions
  // Suffix-arena compactions (in-place dead-suffix reclaims that made room
  // without a split).
  uint64_t arena_compactions = 0;
  // A constant kept only for bench/e2e's oracle, which checks that nothing
  // is staged in DRAM; it goes with e2e's absorb check.
  struct { uint64_t staged = 0; } absorb;
  // Resource-exhaustion visibility (the tentpole of the robustness work).
  bool degraded = false;              // read-only degraded mode active
  uint64_t write_rejects = 0;         // writes failed fast with kFull while degraded
  uint64_t split_alloc_failures = 0;  // splits aborted on data-pool exhaustion
  double used_fraction = 0.0;         // max sub-pool used fraction, data+log(+value) heaps
  uint64_t alloc_failures = 0;        // failed pool allocations, data+log(+value) heaps
  // Tiered value storage (all zero when value_storage is off).
  bool value_enabled = false;
  ValueStorageStats value;
  ValueCacheStats value_cache;
};

class PacTree : private ValueGcSink {
 public:
  // Opens (or creates) the index. Runs full recovery when attaching to an
  // existing instance. Returns null on failure, with the reason in |status|
  // when given: kOldLayout for a pool written in an older on-media layout and
  // kCorrupted for an unrecognized root (both refused with the files left
  // untouched), kIoError otherwise.
  static std::unique_ptr<PacTree> Open(const PacTreeOptions& opts,
                                       Status* status = nullptr);

  // Removes the backing pool files.
  static void Destroy(const std::string& name);

  ~PacTree();
  PacTree(const PacTree&) = delete;
  PacTree& operator=(const PacTree&) = delete;

  // Upsert: kOk = fresh insert, kExists = value overwritten.
  Status Insert(const Key& key, uint64_t value);
  // Update only (kNotFound when absent). Like an overwriting Insert, it
  // stores and persists the slot's 8-B value word in place under the node's
  // write lock (the paper's update fills a fresh slot and flips two bitmap
  // bits); an overwrite never splits and allocates nothing.
  Status Update(const Key& key, uint64_t value);
  Status Lookup(const Key& key, uint64_t* value) const;
  Status Remove(const Key& key);

  // Range scan: up to |count| pairs with key >= |start|, ascending.
  size_t Scan(const Key& start, size_t count,
              std::vector<std::pair<Key, uint64_t>>* out) const;

  // --- tiered value storage (value_ops.cc; see src/value/) -----------------
  // Variable-length value API. With value_storage off these degrade to the
  // inline-only behavior every index supports (<= 7 B packed into the word;
  // larger values rejected with kFull). With it on, a large value is appended
  // to the value log (durable BEFORE its handle enters the index) and the
  // handle upserted like any u64 value.
  Status InsertValue(const Key& key, std::string_view value);
  // Cache-first resolution. The DRAM hot-value cache is coherent with the
  // index (src/value/lru_cache.h), so it is probed by key alone before the
  // index is touched: a hit reads no NVM. On a miss: index lookup -> inline
  // decode, or log dereference (epoch-guarded, checksum+key validated,
  // re-resolved through the index when a concurrent GC relocation raced the
  // fetch), then a fill that installs only if the data node the handle came
  // from still validates under the read token of that lookup.
  Status LookupValue(const Key& key, std::string* value) const;
  // Value-resolving Scan: handle fetch and resolution share one epoch;
  // entries whose key vanishes mid-resolution are dropped, exactly as a
  // per-key LookupValue would report kNotFound.
  size_t ScanValues(const Key& start, size_t count,
                    std::vector<std::pair<Key, std::string>>* out) const;
  // One inline value-GC round (tests/benches; the "<name>/value/gc-N"
  // services run this in async mode). Returns records relocated + segments
  // retired; 0 with value_storage off.
  size_t CompactValues();

  // Blocks until every logged SMO has been applied to the search layer
  // (CV drain barrier against the updater services; inline replay when they
  // are paused, stopped, or absent in sync mode).
  void DrainSmoLogs();
  // A no-op kept only for bench/e2e, which calls it before its checks; it
  // goes with e2e's absorb check. Every write is durable in its data node.
  void DrainAbsorb() {}

  PacTreeStats Stats() const;

  // True while the tree is in read-only degraded mode (pool pressure past the
  // hard watermark).
  // Insert/Update return kFull immediately; reads and Remove keep serving.
  bool Degraded() const { return degraded_.load(std::memory_order_relaxed); }
  // One pressure-evaluation round: recomputes the used fraction over the data
  // and log heaps and applies the watermark policy (soft -> kick value GC,
  // hard -> enter degraded, resume -> leave degraded). Runs
  // periodically on the "<name>/pool/pressure" service in async mode and
  // inline from allocation-failure paths, so sync-mode trees still degrade.
  void PollPressure();

  const PacTreeOptions& options() const { return opts_; }
  PdlArt* search_layer() { return art_.get(); }
  // The SMO replay subsystem and its registered background services (empty in
  // sync mode). Tests and benches read per-service MaintenanceStats here.
  SmoUpdater* updater() const { return updater_.get(); }
  const std::vector<BackgroundService*>& UpdaterServices() const {
    return updater_->services();
  }
  // Backing heaps (crash tests shadow their pools).
  PmemHeap* search_heap() const { return search_heap_.get(); }
  PmemHeap* data_heap() const { return data_heap_.get(); }
  PmemHeap* log_heap() const { return log_heap_.get(); }
  // The value tier; null when value_storage is off.
  ValueStorage* value_store() const { return vstore_.get(); }
  ValueLruCache* value_cache() const { return vcache_.get(); }

  // Total live keys (O(n) data-layer walk; tests/examples only).
  uint64_t Size() const;

  // Verifies data-layer invariants (anchors ordered, ranges respected,
  // sibling links consistent) and, when the SMO logs are drained, that the
  // search layer mirrors the data layer exactly. Returns false and fills
  // |why| on violation. Precondition: a quiesced tree -- no write may run
  // concurrently, since a split that links a node after the drained check
  // would leave an anchor the trie does not hold yet. Callers join their
  // writers first (and call DrainSmoLogs to get the search-layer check).
  bool CheckInvariants(std::string* why) const;

  // True when every SMO ring is empty (head == tail, no live entries) --
  // guaranteed immediately after Open/Recover and after DrainSmoLogs.
  bool SmoLogsDrained() const;

 private:
  struct PacRoot;  // persistent root object (defined in .cc)

  PacTree() = default;

  bool Init(const PacTreeOptions& opts, Status* why);
  // Crash recovery (recovery.cc); runs in Init before services start.
  void Recover();
  void RecoverSplit(SmoLogEntry* e);
  void RecoverMerge(SmoLogEntry* e);

  // Lookup's body, for a caller that already holds an EpochGuard: also
  // returns the data node that answered and its validated read token, which
  // stay usable (for a later Validate) for as long as that guard is held.
  Status LookupNode(const Key& key, uint64_t* value, DataNode** node,
                    uint64_t* version) const;

  // Finds the data node owning |key|: search-layer floor + sibling fix-up.
  // Returns the node with a validated read token.
  DataNode* FindDataNode(const Key& key, uint64_t* version) const;

  // ValueGcSink (value_ops.cc): the current-handle read, and the atomic
  // handle swing GC relocation rides on -- an in-place overwrite of the key's
  // value word under the node's write lock. The swing fails when the key no
  // longer maps to |old_handle| or the tree is degraded (GC unwinds).
  bool CurrentValueHandle(const Key& key, uint64_t* handle) const override;
  bool CasValueHandle(const Key& key, uint64_t old_handle,
                      uint64_t new_handle) override;
  // Write-path value hygiene, in two halves around the node's write lock.
  // |old| is the value word an overwrite, remove or GC swing replaced, read
  // under that lock. EvictReplacedValue runs BEFORE the unlock: when |old| is
  // a log handle it drops the key's cache entry, which is what lets
  // LookupValue serve cache hits without the index (rule 1 in lru_cache.h).
  // RetireReplacedValue runs after the unlock (not for the GC swing, which
  // keeps the moved record's live count itself): a log handle leaves the
  // live accounting, exactly once, since only the replacing writer sees it.
  void EvictReplacedValue(const Key& key, uint64_t old);
  void RetireReplacedValue(uint64_t old);
  // Post-recovery live-count rebuild: every log handle the recovered data
  // layer references is live.
  void RebuildValueLiveCounts();

  // Ensures the write-locked |*node| can take |key|: a free slot AND (compact
  // format) suffix-arena room, compacting the arena in place and splitting --
  // possibly repeatedly -- as needed. On success |*node| is the write-locked
  // owner of |key| with room. On false a needed split failed on pool
  // exhaustion; |*node| is the still-locked node the caller must release.
  bool MakeRoomLocked(DataNode** node, const Key& key);

  // Splits |node| (write-locked, full). Returns the node that now owns |key|
  // (still write-locked; the other half is unlocked). Returns nullptr when
  // the new node's allocation failed: the logged SMO entry is cancelled, the
  // data and search layers are untouched, and |node| is STILL write-locked --
  // the caller unlocks it and fails its op with kFull.
  DataNode* SplitLocked(DataNode* node, const Key& key);

  // Attempts to merge |right| into |node| (both ranges adjacent). |node| is
  // write-locked; takes/releases |right|'s lock internally.
  void TryMergeLocked(DataNode* node);

  void MaintainPermutation(DataNode* node);  // !selective_persistence mode

  // Commits an overwrite of live |slot| (|key|'s) of the write-locked |node|
  // (value-word persist; permutation upkeep in !selective_persistence mode;
  // EvictReplacedValue), releases the lock, and returns the word it
  // replaced. |slot| comes from the caller's pre-upgrade FindKey.
  uint64_t OverwriteAndUnlock(DataNode* node, int slot, const Key& key,
                              uint64_t value);

  PacTreeOptions opts_;
  std::unique_ptr<PmemHeap> search_heap_;
  std::unique_ptr<PmemHeap> data_heap_;
  std::unique_ptr<PmemHeap> log_heap_;
  std::unique_ptr<PdlArt> art_;
  PacRoot* root_ = nullptr;
  // SMO logging + replay: rings, writer-slot routing, backpressure, and the
  // per-NUMA updater services.
  std::unique_ptr<SmoUpdater> updater_;
  // Tiered value storage + DRAM hot-value cache (null when value_storage is
  // off). vstore_ owns its own heap, so destruction order vs the three index
  // heaps does not matter -- but vcache_ MUST be declared before vstore_:
  // ~ValueStorage drains pending segment-retire epoch callbacks, which purge
  // the cache by handle range (SetHotCache), so the cache has to be destroyed
  // after the store.
  std::unique_ptr<ValueLruCache> vcache_;
  std::unique_ptr<ValueStorage> vstore_;
  // Read-only degraded mode (see Degraded()). Set by the hard watermark,
  // cleared by the resume watermark.
  std::atomic<bool> degraded_{false};
  // "<name>/pool/pressure" service (async mode only; null otherwise).
  BackgroundService* pressure_service_ = nullptr;
  // False when Init attached a pre-existing persistent search layer: trie
  // updates already applied (and persisted as "applied" in the rings) before
  // a crash may have been evicted without reaching NVM, leaving permanent but
  // jump-walk-tolerated staleness (paper section 5.9). Only when this is true
  // can CheckInvariants demand an exact trie<->data-layer mirror.
  bool search_layer_exact_ = true;

  mutable std::atomic<uint64_t> stat_splits_{0};
  mutable std::atomic<uint64_t> stat_merges_{0};
  mutable std::atomic<uint64_t> stat_hops_[kHopHistBuckets] = {};
  mutable std::atomic<uint64_t> stat_retries_{0};
  mutable std::atomic<uint64_t> stat_epoch_enters_{0};
  mutable std::atomic<uint64_t> stat_node_locks_{0};
  std::atomic<uint64_t> stat_arena_compactions_{0};
  mutable std::atomic<uint64_t> stat_write_rejects_{0};
  mutable std::atomic<uint64_t> stat_split_alloc_failures_{0};
};

}  // namespace pactree

#endif  // PACTREE_SRC_PACTREE_PACTREE_H_
