#include "src/pactree/pactree.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstring>

#include "src/common/compiler.h"
#include "src/common/env.h"
#include "src/nvm/config.h"
#include "src/nvm/persist.h"
#include "src/pactree/pac_root.h"
#include "src/pmem/registry.h"
#include "src/runtime/maintenance.h"
#include "src/sync/epoch.h"
#include "src/sync/gen_sync.h"
#include "src/sync/generation.h"

namespace pactree {

namespace {
// Root magic: "PACTREE" and a layout digit, bumped on every on-media layout
// change. "PACTREE1" pools keep 48-B ArtLeaf records as search-layer leaves;
// from "PACTREE2" on, trie leaves are the data nodes themselves; "PACTREE3"
// slot records hold a 4-B descriptor and 4 suffix bytes; "PACTREE4" nodes
// carry a format byte and may be 3072-B full-key nodes; "PACTREE5" nodes are
// all the one 2048-B layout of data_node.h, and the root holds op-log rings
// of a DRAM write buffer that may carry acked ops; "PACTREE6" roots drop
// those rings. Pools of another layout are refused, never converted or wiped.
constexpr uint64_t kPacMagicStem = 0x0045455254434150ULL;  // "PACTREE" + digit
constexpr char kPacLayoutDigit = '6';
constexpr uint64_t kPacMagic = kPacMagicStem | uint64_t{kPacLayoutDigit} << 56;
// The search layer's leaves are the data nodes: a leaf's key is its anchor.
constexpr int kTrieLeafKeyOffset = offsetof(DataNode, anchor);
constexpr int kMergeThreshold = 24;  // merge when combined live keys fit easily

// Updater-service count: explicit option, else PAC_UPDATERS, else one per
// logical NUMA node (§4.3's per-NUMA replay sharding).
uint32_t ResolveUpdaterCount(const PacTreeOptions& opts) {
  uint64_t n = opts.updater_count;
  if (n == 0) {
    n = EnvU64("PAC_UPDATERS", 0);
  }
  if (n == 0) {
    n = std::max<uint32_t>(1, GlobalNvmConfig().numa_nodes);
  }
  return static_cast<uint32_t>(std::min<uint64_t>(n, kMaxWriterSlots));
}
}  // namespace

// ---------------------------------------------------------------------------
// Open / create / recover
// ---------------------------------------------------------------------------

std::unique_ptr<PacTree> PacTree::Open(const PacTreeOptions& opts, Status* status) {
  auto tree = std::unique_ptr<PacTree>(new PacTree());
  Status why = Status::kIoError;
  bool ok = tree->Init(opts, &why);
  if (status != nullptr) {
    *status = ok ? Status::kOk : why;
  }
  if (!ok) {
    return nullptr;
  }
  return tree;
}

void PacTree::Destroy(const std::string& name) {
  PmemHeap::Destroy(name + ".search");
  PmemHeap::Destroy(name + ".data");
  PmemHeap::Destroy(name + ".log");
  ValueStorage::Destroy(name + ".value");
}

bool PacTree::Init(const PacTreeOptions& opts, Status* why) {
  static_assert(sizeof(PacRoot) <= kRootAreaSize, "root area too small");
  opts_ = opts;
  // Pressure watermark overrides, in percent (PAC_PRESSURE_HARD=95 -> 0.95).
  if (uint64_t v = EnvU64("PAC_PRESSURE_SOFT", 0); v != 0) {
    opts_.pressure_soft = static_cast<double>(v) / 100.0;
  }
  if (uint64_t v = EnvU64("PAC_PRESSURE_HARD", 0); v != 0) {
    opts_.pressure_hard = static_cast<double>(v) / 100.0;
  }
  if (uint64_t v = EnvU64("PAC_PRESSURE_RESUME", 0); v != 0) {
    opts_.pressure_resume = static_cast<double>(v) / 100.0;
  }
  // A fresh index is made only in a pool just created or whose root was never
  // sealed (magic 0: a crash inside the fresh-index window below). A pool of
  // another layout is refused before any heap is attached -- an attach bumps
  // the pool's generation and recovery writes -- so its files stay untouched.
  uint64_t magic = 0;
  const Status pool_layout = PmemHeap::PeekRoot(opts.name + ".data", &magic);
  if (pool_layout == Status::kOldLayout) {
    std::fprintf(stderr,
                 "pactree: '%s' is in pool layout 1, the old layout whose 512-4096 B "
                 "blocks sit on unshifted chunk grids; this build reads pool layout %u "
                 "only. Refusing to open; files left untouched.\n",
                 opts.name.c_str(), kPoolLayoutVersion);
    *why = Status::kOldLayout;
    return false;
  }
  if (pool_layout == Status::kOk && magic != 0 && magic != kPacMagic) {
    const char digit = static_cast<char>(magic >> 56);
    const bool old = (magic & ~(0xffULL << 56)) == kPacMagicStem && digit >= '1' &&
                     digit < kPacLayoutDigit;
    char layout[32] = "an unknown or corrupt root";
    if (old) {
      std::snprintf(layout, sizeof(layout), "old layout PACTREE%c", digit);
    }
    std::fprintf(stderr,
                 "pactree: '%s' has root magic 0x%016llx (%s); this build reads "
                 "PACTREE%c pools only. Refusing to open; files left untouched.\n",
                 opts.name.c_str(), static_cast<unsigned long long>(magic), layout,
                 kPacLayoutDigit);
    *why = old ? Status::kOldLayout : Status::kCorrupted;
    return false;
  }
  PmemHeapOptions h;
  h.pool_size = opts.pool_size;
  h.single_pool = !opts.per_numa_pools;
  h.defer_log_recovery = true;  // recovered below, once all three heaps map

  h.pool_id_base = opts.pool_id_base;
  h.dram = opts.dram_search_layer;
  search_heap_ = PmemHeap::OpenOrCreate(opts.name + ".search", h);
  h.pool_id_base = static_cast<uint16_t>(opts.pool_id_base + 8);
  h.dram = false;
  bool created = false;
  data_heap_ = PmemHeap::OpenOrCreate(opts.name + ".data", h, &created);
  h.pool_id_base = static_cast<uint16_t>(opts.pool_id_base + 16);
  h.pool_size = std::max<size_t>(opts.pool_size / 8, 16ULL << 20);
  log_heap_ = PmemHeap::OpenOrCreate(opts.name + ".log", h);
  if (search_heap_ == nullptr || data_heap_ == nullptr || log_heap_ == nullptr) {
    return false;
  }

  // Alloc-log recovery was deferred above: a pending split's malloc-to dest
  // lives in the log heap while the block lives in the data heap, so no heap's
  // logs can be recovered until all three are mapped.
  search_heap_->RecoverPendingLogs();
  data_heap_->RecoverPendingLogs();
  log_heap_->RecoverPendingLogs();

  // Void every lock word persisted by the previous incarnation (including
  // locks captured held by a crash): advance all pools past the global
  // generation and publish it.
  AdvanceGenerations({search_heap_.get(), data_heap_.get(), log_heap_.get()});

  root_ = data_heap_->Root<PacRoot>();

  if (root_->magic != kPacMagic || created) {
    // ---- fresh index ----
    std::memset(static_cast<void*>(root_), 0, sizeof(PacRoot));
    PersistFence(root_, sizeof(PacRoot));
    PPtr<void> head = data_heap_->Alloc(sizeof(DataNode));
    if (head.IsNull()) {
      return false;
    }
    auto* head_node = static_cast<DataNode*>(head.get());
    head_node->anchor = Key::Min();
    head_node->perm_version = kPermBuilding;  // never matches a lock version
    PersistFence(head_node, sizeof(DataNode));
    root_->head_raw = head.raw;
    PersistFence(&root_->head_raw, sizeof(uint64_t));
    for (size_t i = 0; i < kMaxWriterSlots; ++i) {
      PPtr<void> log = log_heap_->AllocTo(ToPPtr(&root_->log_raws[i]), sizeof(SmoLog));
      if (log.IsNull()) {
        return false;
      }
      PersistFence(log.get(), 128);  // zeroed head/tail
    }
    art_ = std::make_unique<PdlArt>(search_heap_.get(), &root_->art, kTrieLeafKeyOffset);
    art_->Insert(Key::Min(), root_->head_raw);
    root_->magic = kPacMagic;
    PersistFence(&root_->magic, sizeof(uint64_t));
  } else {
    // ---- existing index ----
    if (opts.dram_search_layer) {
      // The volatile search layer died with the previous process: rebuild it
      // from the data layer (this is exactly the restart cost the paper's
      // DRAM-internal-node designs pay; Figure 12 "DRAM SL").
      std::memset(static_cast<void*>(&root_->art), 0, sizeof(ArtTreeRoot));
    } else {
      // Attaching the surviving persistent search layer: pre-crash trie
      // updates marked applied in the rings may have been evicted before
      // reaching NVM, so the trie can permanently lack (or misdirect) some
      // anchors. Jump-walk tolerates this (section 5.9); the strict mirror
      // check in CheckInvariants must not demand exactness here.
      search_layer_exact_ = false;
    }
    art_ = std::make_unique<PdlArt>(search_heap_.get(), &root_->art, kTrieLeafKeyOffset);
  }

  // Value tier: explicit option, PAC_VALUESTORE=1 (bench --value-size), or a
  // previous incarnation's persisted flag (its values are log handles; the
  // heap MUST come back even when the reopener forgot the option). Opened --
  // and its segment tails discovered -- BEFORE Recover() replays the key
  // index: every handle the replay publishes references a record that was
  // durable before the op was acked, so the value log is recovered first.
  if (!opts_.value_storage && EnvU64("PAC_VALUESTORE", 0) != 0) {
    opts_.value_storage = true;
  }
  if (root_->value_mode != 0) {
    opts_.value_storage = true;
  }
  if (uint64_t v = EnvU64("PAC_VALUE_CACHE", ~0ULL); v != ~0ULL) {
    opts_.value_cache_bytes = v;
  }
  if (opts_.value_storage) {
    ValueStorageOptions vo;
    vo.name = opts_.name + ".value";
    vo.service_prefix = opts_.name;
    vo.pool_id_base = static_cast<uint16_t>(opts_.pool_id_base + 24);
    vo.pool_size = opts_.pool_size;
    vo.per_numa_pools = opts_.per_numa_pools;
    vo.segment_size = opts_.value_segment_size;
    vo.gc_live_threshold = opts_.value_gc_threshold;
    vo.arenas = opts_.value_arenas;
    vo.async = opts_.async_search_update;
    vstore_ = ValueStorage::Open(vo, static_cast<ValueGcSink*>(this));
    if (vstore_ == nullptr) {
      return false;
    }
    if (root_->value_mode == 0) {
      root_->value_mode = 1;
      PersistFence(&root_->value_mode, sizeof(uint64_t));
    }
    vcache_ = std::make_unique<ValueLruCache>(opts_.value_cache_bytes, /*shards=*/8);
    // Retired-segment epoch callbacks purge the cache by handle range (the
    // recycled-block ABA guard), so the store must know the cache -- and the
    // cache must be destroyed after the store (member order below).
    vstore_->SetHotCache(vcache_.get());
  }

  SmoUpdater::Options u;
  u.name = opts_.name;
  u.shards = ResolveUpdaterCount(opts_);
  u.ring_capacity = opts_.smo_ring_capacity;
  u.async = opts_.async_search_update;
  updater_ = std::make_unique<SmoUpdater>(u, art_.get());
  for (size_t i = 0; i < kMaxWriterSlots; ++i) {
    updater_->AttachLog(i, PPtr<SmoLog>(root_->log_raws[i]).get());
  }

  // Recovery replays the rings single-threaded, then resets them; only after
  // that do the per-shard updater services (and the shared epoch-reclaim
  // service) come up.
  Recover();

  if (vstore_ != nullptr) {
    // Live-fraction rebuild must see the fully recovered key index; only then
    // can GC services start, since they pick victims by live fraction.
    RebuildValueLiveCounts();
    if (opts_.async_search_update) {
      vstore_->StartServices();
    }
  }

  if (opts_.async_search_update) {
    updater_->StartServices();
    EpochReclaimService::Acquire();
    // Pool-pressure watchdog: periodically re-evaluates the watermark policy
    // (PollPressure) so the tree degrades -- and resumes -- even when no
    // writer happens to hit an allocation failure. Sync-mode trees rely on
    // the inline PollPressure calls from the failure paths instead.
    BackgroundService::Options po;
    po.name = opts_.name + "/pool/pressure";
    po.idle_min_us = 1000;
    po.idle_max_us = 50000;
    pressure_service_ =
        MaintenanceRegistry::Instance().Register(std::move(po), [this] {
          PollPressure();
          return size_t{0};  // pure polling: stay on the idle-backoff cadence
        });
  }
  return true;
}

PacTree::~PacTree() {
  if (updater_ == nullptr) {
    return;  // Init failed before the updater came up (e.g. bad pool file)
  }
  if (pressure_service_ != nullptr) {
    MaintenanceRegistry::Instance().Unregister(pressure_service_);
    pressure_service_ = nullptr;
  }
  // Value GC relocates handles through the index, so it must stop while the
  // index is still fully alive.
  if (vstore_ != nullptr) {
    vstore_->StopServices();
  }
  // Drain the SMO logs while the updater services are still live (CV
  // barrier; inline replay in sync mode). Only then tear the services down
  // and release the shared epoch-reclaim service.
  DrainSmoLogs();
  updater_->StopServices();
  if (opts_.async_search_update) {
    EpochReclaimService::Release();
  }
  for (int i = 0; i < 8; ++i) {
    EpochManager::Instance().TryAdvanceAndReclaim();
  }
}

void PacTree::DrainSmoLogs() { updater_->Drain(); }

bool PacTree::SmoLogsDrained() const { return updater_->Drained(); }

// ---------------------------------------------------------------------------
// Data-layer navigation (jump-node fix-up, §5.3)
// ---------------------------------------------------------------------------

DataNode* PacTree::FindDataNode(const Key& key, uint64_t* version) const {
  // Start at the trie floor (possibly stale), or the data-layer head when
  // the trie has no key <= |key|, and walk siblings to the owner.
  Key found;
  uint64_t raw = 0;
  if (art_->LookupFloor(key, &found, &raw) != Status::kOk || raw == 0) {
    raw = root_->head_raw;
  }
  DataNode* node = PPtr<DataNode>(raw).get();
  uint32_t hops = 0;
  while (true) {
    uint64_t v = node->lock.ReadLock();
    stat_node_locks_.fetch_add(1, std::memory_order_relaxed);
    AnnotateNvmRead(node, DataNode::kProbeSpanBytes);  // metadata + anchor + fingerprints
    if (node->IsDeleted()) {
      DataNode* prev = node->Prev();
      if (!node->lock.Validate(v) || prev == nullptr) {
        continue;
      }
      node = prev;
      hops++;
      continue;
    }
    if (key < node->anchor) {
      DataNode* prev = node->Prev();
      if (!node->lock.Validate(v) || prev == nullptr) {
        continue;
      }
      node = prev;
      hops++;
      continue;
    }
    DataNode* next = node->Next();
    if (next != nullptr && next->anchor <= key) {
      if (!node->lock.Validate(v)) {
        continue;
      }
      node = next;
      hops++;
      continue;
    }
    if (!node->lock.Validate(v)) {
      continue;
    }
    int bucket = hops < kHopHistBuckets - 1 ? static_cast<int>(hops) : kHopHistBuckets - 1;
    stat_hops_[bucket].fetch_add(1, std::memory_order_relaxed);
    *version = v;
    return node;
  }
}

// ---------------------------------------------------------------------------
// Point operations
// ---------------------------------------------------------------------------

Status PacTree::Lookup(const Key& key, uint64_t* value) const {
  stat_epoch_enters_.fetch_add(1, std::memory_order_relaxed);
  EpochGuard guard;
  DataNode* node;
  uint64_t version;
  return LookupNode(key, value, &node, &version);
}

Status PacTree::LookupNode(const Key& key, uint64_t* value, DataNode** node,
                           uint64_t* version) const {
  uint8_t fingerprint = key.Fingerprint();
  while (true) {
    DataNode* n = FindDataNode(key, version);
    int slot = n->FindKey(key, fingerprint);
    uint64_t v = 0;
    if (slot >= 0) {
      AnnotateNvmRead(n->ValueSlot(slot), sizeof(uint64_t));
      v = n->ValueAt(slot);
    }
    if (!n->lock.Validate(*version)) {
      stat_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    *node = n;
    if (slot < 0) {
      return Status::kNotFound;
    }
    if (value != nullptr) {
      *value = v;
    }
    return Status::kOk;
  }
}

void PacTree::MaintainPermutation(DataNode* node) {
  // "-Selective persistence" mode: keep the permutation array durable on every
  // write, paying flushes + an extra cache-line invalidation (Figure 12).
  uint8_t order[kDataNodeEntries];
  int n = node->ComputeSortedOrder(order);
  std::memcpy(node->perm, order, n);
  node->perm_version = kPermBuilding;  // durable copy is for recovery, not reads
  PersistFence(node->perm, kDataNodeEntries);
}

Status PacTree::Insert(const Key& key, uint64_t value) {
  if (degraded_.load(std::memory_order_relaxed)) {
    stat_write_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Status::kFull;  // read-only degraded mode: fail fast, no side effects
  }
  EpochGuard guard;
  uint8_t fingerprint = key.Fingerprint();
  while (true) {
    uint64_t version;
    DataNode* node = FindDataNode(key, &version);
    if (!node->lock.TryUpgrade(version)) {
      stat_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (int existing = node->FindKey(key, fingerprint); existing >= 0) {
      RetireReplacedValue(OverwriteAndUnlock(node, existing, key, value));
      return Status::kExists;
    }
    if (node->FindFreeSlot() < 0 || !node->SuffixRoomFor(key)) {
      if (!MakeRoomLocked(&node, key)) {
        // Data pool exhausted: the split unwound completely (log entry
        // cancelled, both layers untouched); release the lock and fail.
        node->lock.WriteUnlock();
        return Status::kFull;
      }
    }
    const int free = node->FindFreeSlot();
    assert(free >= 0 && "MakeRoomLocked guarantees a free slot");
    node->FillSlot(free, key, fingerprint, value);
    node->PublishBitmap(node->Bitmap() | (1ULL << free));
    if (!opts_.selective_persistence) {
      MaintainPermutation(node);
    }
    node->lock.WriteUnlock();
    return Status::kOk;
  }
}

// |slot| was found by a FindKey under the write lock (Insert) or under the
// read token that TryUpgrade has just turned into it (Update, CasValueHandle).
// A successful upgrade proves no writer locked the node since that token was
// taken, so the probe read a stable node and the slot still holds the key:
// no second probe. Remove relies on the same argument.
uint64_t PacTree::OverwriteAndUnlock(DataNode* node, int slot, const Key& key,
                                     uint64_t value) {
  const uint64_t old = node->ValueAt(slot);
  node->StoreValuePersist(slot, value);
  if (!opts_.selective_persistence) {
    MaintainPermutation(node);
  }
  EvictReplacedValue(key, old);
  node->lock.WriteUnlock();
  return old;
}

Status PacTree::Update(const Key& key, uint64_t value) {
  if (degraded_.load(std::memory_order_relaxed)) {
    stat_write_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Status::kFull;  // read-only degraded mode: fail fast, no side effects
  }
  EpochGuard guard;
  uint8_t fingerprint = key.Fingerprint();
  while (true) {
    uint64_t version;
    DataNode* node = FindDataNode(key, &version);
    int existing = node->FindKey(key, fingerprint);
    if (existing < 0) {
      if (!node->lock.Validate(version)) {
        stat_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return Status::kNotFound;
    }
    if (!node->lock.TryUpgrade(version)) {
      stat_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    RetireReplacedValue(OverwriteAndUnlock(node, existing, key, value));
    return Status::kOk;
  }
}

Status PacTree::Remove(const Key& key) {
  // Deliberately NOT gated on degraded mode: deletes allocate nothing (merges
  // log SMOs into pre-allocated rings) and are the caller's only way to shrink
  // the tree back below the resume watermark.
  EpochGuard guard;
  uint8_t fingerprint = key.Fingerprint();
  while (true) {
    uint64_t version;
    DataNode* node = FindDataNode(key, &version);
    int slot = node->FindKey(key, fingerprint);
    if (slot < 0) {
      if (!node->lock.Validate(version)) {
        stat_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return Status::kNotFound;
    }
    if (!node->lock.TryUpgrade(version)) {
      stat_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // |slot| is still the key's: see OverwriteAndUnlock.
    const uint64_t old = node->ValueAt(slot);
    node->PublishBitmap(node->Bitmap() & ~(1ULL << slot));
    EvictReplacedValue(key, old);
    if (!opts_.selective_persistence) {
      MaintainPermutation(node);
    }
    TryMergeLocked(node);
    node->lock.WriteUnlock();
    RetireReplacedValue(old);
    return Status::kOk;
  }
}

// ---------------------------------------------------------------------------
// Structural modifications
// ---------------------------------------------------------------------------

namespace {

// Index (in sorted order) of the first key a split moves right: the median,
// pushed right until the moved keys' arena need against their new anchor,
// counted without tail sharing, fits a fresh arena. The old node may have
// held them only by sharing one tail copy, and re-truncation against the new
// anchor can shift where each tail starts (keys that differ in their first
// bytes and share a long remainder). The new anchor needs no tail bytes and
// any one other key at most 28, so the loop stops with at least one key
// moved.
int SplitPoint(const Key* keys, int n) {
  int m = n / 2;
  for (; m < n - 1; ++m) {
    size_t need = 0;
    for (int i = m + 1; i < n; ++i) {
      need += DataNode::ArenaNeed(keys[m], keys[i]);
    }
    if (need <= kArenaBytes) {
      break;
    }
  }
  return m;
}

}  // namespace

DataNode* PacTree::SplitLocked(DataNode* node, const Key& key) {
  uint8_t order[kDataNodeEntries];
  int n = node->ComputeSortedOrder(order);
  // A node splits when slot-full (n == 64) or when the suffix arena is
  // exhausted, which can happen at any live count >= 2 (1 <= m < n keeps both
  // halves' anchors distinct and non-empty).
  assert(n >= 2 && "split needs two distinct keys");
  Key keys[kDataNodeEntries];
  for (int i = 0; i < n; ++i) {
    keys[i] = node->KeyAt(order[i]);
  }
  const int m = SplitPoint(keys, n);
  const Key split_anchor = keys[m];

  // (1) Log the split; the new node is allocated straight into the log entry's
  // placeholder, so a crash can never leak it (§5.6).
  SmoLogEntry* e =
      updater_->Log(kSmoTypeSplit, ToPPtr(node).Cast<void>().raw, 0, split_anchor);
  PPtr<void> new_block =
      data_heap_->AllocTo(ToPPtr(&e->other_raw), sizeof(DataNode));
  if (new_block.IsNull()) {
    // Data pool exhausted. Unwind: durably cancel the log entry (nothing was
    // published and no layer was touched, so recovery and live replay both
    // see a clean ring) and report failure with |node| still write-locked --
    // the caller releases it and fails its op with kFull.
    updater_->Cancel(e);
    stat_split_alloc_failures_.fetch_add(1, std::memory_order_relaxed);
    PollPressure();
    return nullptr;
  }
  // AllocTo filled other_raw after the entry's checksum was computed; re-seal
  // before any data-layer mutation. A crash inside this window leaves a
  // checksum that validates only with other_raw treated as 0 -- recovery
  // detects exactly that state, frees the fresh node, and drops the split.
  e->checksum = SmoEntryChecksum(*e);
  PersistFence(&e->checksum, sizeof(e->checksum));
  auto* new_node = static_cast<DataNode*>(new_block.get());

  // (2) Build the new (right) node, born write-locked. Moved keys re-truncate
  // against the NEW anchor; SplitPoint sized the moved set so that their
  // tails fit a fresh arena even with no sharing.
  new_node->lock.WriteLock();  // unreachable: uncontended
  new_node->anchor = split_anchor;
  new_node->deleted = 0;
  new_node->perm_version = kPermBuilding;
  new_node->arena_cursor = 0;
  new_node->next_raw = node->NextRaw();
  new_node->prev_raw = ToPPtr(node).Cast<void>().raw;
  uint64_t moved_bits = 0;
  uint64_t new_bitmap = 0;
  for (int i = m; i < n; ++i) {
    int src = order[i];
    int dst = i - m;
    new_node->StageSlot(dst, keys[i], node->fp[src], node->ValueAt(src));
    moved_bits |= 1ULL << src;
    new_bitmap |= 1ULL << dst;
  }
  new_node->bitmap = new_bitmap;
  PersistFence(new_node, sizeof(DataNode));

  // (3) Publish in the paper's order: link right of splitting node, trim the
  // splitting node's bitmap, fix the right neighbor's back pointer.
  DataNode* old_right = node->Next();
  node->StoreNextPersist(new_block.raw);
  node->PublishBitmap(node->Bitmap() & ~moved_bits);
  if (old_right != nullptr) {
    old_right->StorePrevPersist(new_block.raw);
  }
  // The moved keys' suffixes are dead in the left arena now that the trim is
  // published; reclaim them immediately so an arena-driven split makes real
  // progress for the half that keeps the old anchor.
  node->CompactArenaLocked();
  stat_splits_.fetch_add(1, std::memory_order_relaxed);
  updater_->Publish(e);

  // (4) Search layer: asynchronously via the updater services, or inline in
  // sync mode (the SL update sits on the critical path -- what Figure 12
  // ablates).
  if (!opts_.async_search_update) {
    updater_->ApplySync(e);
  }

  // Hand back the half that owns |key|, still locked; unlock the other half.
  if (key < split_anchor) {
    new_node->lock.WriteUnlock();
    return node;
  }
  node->lock.WriteUnlock();
  return new_node;
}

bool PacTree::MakeRoomLocked(DataNode** node, const Key& key) {
  // Makes the write-locked node able to accept |key|: a free slot AND arena
  // room for its suffix. Cheapest remedy first: when only the
  // arena is short, an in-place compaction may reclaim dead suffix bytes.
  // Otherwise split -- possibly repeatedly, since an incompressible key set
  // can leave the owning half still short on arena bytes; each split leaves
  // both halves with fewer live keys, so the loop terminates (a node with one
  // live key holds <= 28 arena bytes after compaction, leaving room for any
  // suffix).
  // Callers must have PUBLISHED all slot state (CompactArenaLocked treats the
  // published bitmap as the live set). On success *node is the locked half
  // that owns |key|; on failure (data pool exhausted) *node is unchanged and
  // still locked.
  while ((*node)->FindFreeSlot() < 0 || !(*node)->SuffixRoomFor(key)) {
    if ((*node)->FindFreeSlot() >= 0 && (*node)->CompactArenaLocked() > 0 &&
        (*node)->SuffixRoomFor(key)) {
      stat_arena_compactions_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    DataNode* owner = SplitLocked(*node, key);
    if (owner == nullptr) {
      return false;
    }
    *node = owner;
  }
  return true;
}

void PacTree::TryMergeLocked(DataNode* node) {
  // Prefer absorbing the right sibling; fall back to being absorbed by the
  // left one (sequential deletes would otherwise never find a small right
  // neighbor). All sibling locks are try-only, so lock ordering cannot
  // deadlock. |survivor| keeps its anchor; |victim| is logically deleted.
  DataNode* survivor = nullptr;
  DataNode* victim = nullptr;
  DataNode* right = node->Next();
  if (right != nullptr && right->lock.TryWriteLock()) {
    if (!right->IsDeleted() &&
        node->CountLive() + right->CountLive() < kMergeThreshold) {
      survivor = node;
      victim = right;
    } else {
      right->lock.WriteUnlock();
    }
  }
  if (survivor == nullptr) {
    DataNode* left = node->Prev();
    if (left == nullptr || !left->lock.TryWriteLock()) {
      return;
    }
    if (left->IsDeleted() || left->NextRaw() != ToPPtr(node).Cast<void>().raw ||
        left->CountLive() + node->CountLive() >= kMergeThreshold) {
      left->lock.WriteUnlock();
      return;
    }
    survivor = left;
    victim = node;
  }
  // The survivor's arena must be able to take every victim suffix BEFORE the
  // merge is logged: unlike a split there is no room-making fallback halfway
  // through a merge. Bound the need without assuming sharing, compact once if
  // short, and skip the merge entirely when still short -- both nodes stay
  // valid and a later, smaller merge can retry. (No slot state is staged yet,
  // so compacting against the published bitmap is safe.)
  size_t need = 0;
  uint64_t vbm = victim->Bitmap();
  while (vbm != 0) {
    int i = __builtin_ctzll(vbm);
    vbm &= vbm - 1;
    need += survivor->ArenaNeed(victim->KeyAt(i));
  }
  if (kArenaBytes - survivor->arena_cursor < need) {
    survivor->CompactArenaLocked();
  }
  if (kArenaBytes - survivor->arena_cursor < need) {
    DataNode* locked_sibling = survivor == node ? victim : survivor;
    locked_sibling->lock.WriteUnlock();
    return;
  }
  uint64_t survivor_raw = ToPPtr(survivor).Cast<void>().raw;
  uint64_t victim_raw = ToPPtr(victim).Cast<void>().raw;
  SmoLogEntry* e =
      updater_->Log(kSmoTypeMerge, survivor_raw, victim_raw, victim->anchor);

  // Move the victim's live pairs into the survivor.
  uint64_t bm = victim->Bitmap();
  uint64_t add = 0;
  while (bm != 0) {
    int i = __builtin_ctzll(bm);
    bm &= bm - 1;
    uint64_t live = survivor->Bitmap() | add;
    int free = __builtin_ctzll(~live);
    survivor->FillSlot(free, victim->KeyAt(i), victim->fp[i], victim->ValueAt(i));
    add |= 1ULL << free;
  }
  survivor->PublishBitmap(survivor->Bitmap() | add);

  // Logically delete the victim, then unlink it.
  std::atomic_ref<uint32_t>(victim->deleted).store(1, std::memory_order_release);
  PersistFence(&victim->deleted, sizeof(victim->deleted));
  DataNode* r2 = victim->Next();
  survivor->StoreNextPersist(victim->NextRaw());
  if (r2 != nullptr) {
    r2->StorePrevPersist(survivor_raw);
  }
  stat_merges_.fetch_add(1, std::memory_order_relaxed);
  // Publish (and, in sync mode, apply) while both nodes are still locked:
  // once the survivor's lock drops, a racing split of the survivor can
  // re-create this victim's anchor, and its SMO must publish -- and apply --
  // strictly after this merge's. Publishing after the unlock would let that
  // split draw a smaller seq than the causally-earlier merge, inverting the
  // per-anchor order that replay (and recovery) rely on.
  updater_->Publish(e);
  if (!opts_.async_search_update) {
    updater_->ApplySync(e);
  }

  // Unlock whichever sibling we locked here; the caller's node stays locked.
  DataNode* locked_sibling = survivor == node ? victim : survivor;
  locked_sibling->lock.WriteUnlock();
}

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

size_t PacTree::Scan(const Key& start, size_t count,
                     std::vector<std::pair<Key, uint64_t>>* out) const {
  stat_epoch_enters_.fetch_add(1, std::memory_order_relaxed);
  EpochGuard guard;
  out->clear();
  Key cursor = start;  // smallest key still wanted
  uint64_t version;
  DataNode* node = FindDataNode(cursor, &version);

  std::pair<Key, uint64_t> batch[kDataNodeEntries];
  while (node != nullptr && out->size() < count) {
    size_t lo = 0;  // batch[lo, hi) holds this node's keys >= cursor
    size_t hi = 0;
    uint64_t next_raw;
    while (true) {
      hi = static_cast<size_t>(node->SortedEntries(version, batch));
      lo = 0;
      while (lo < hi && batch[lo].first < cursor) {
        ++lo;
      }
      next_raw = node->NextRaw();
      if (node->lock.Validate(version)) {
        break;
      }
      // Concurrent writer (or merge) hit this node: re-locate the cursor.
      stat_retries_.fetch_add(1, std::memory_order_relaxed);
      node = FindDataNode(cursor, &version);
    }
    if (next_raw != 0 && out->size() + (hi - lo) < count) {
      // One node ahead, and only when the walk will go on: start the
      // sibling's metadata/anchor/fingerprint line fetching while this node's
      // batch drains into |out|, so the sibling's SortedEntries finds its
      // header line warm.
      PPtr<DataNode>(next_raw).get()->PrefetchProbe();
    }
    for (size_t i = lo; i < hi && out->size() < count; ++i) {
      out->push_back(batch[i]);
    }
    if (next_raw == 0) {
      break;
    }
    node = PPtr<DataNode>(next_raw).get();
    cursor = node->anchor;  // anchors are immutable
    version = node->lock.ReadLock();
    stat_node_locks_.fetch_add(1, std::memory_order_relaxed);
    if (node->IsDeleted()) {
      node = FindDataNode(cursor, &version);
    }
  }
  return out->size();
}

// ---------------------------------------------------------------------------
// Pool pressure / degraded mode
// ---------------------------------------------------------------------------

void PacTree::PollPressure() {
  // The signal is the WORST sub-pool over the data and log heaps: one
  // exhausted sub-pool stalls every writer routed to it regardless of how
  // much room its siblings have. The search heap is excluded -- trie growth
  // failures are absorbed by pending SMO entries and jump walks, not by
  // refusing index writes.
  double used =
      std::max(data_heap_->MaxUsedFraction(), log_heap_->MaxUsedFraction());
  if (vstore_ != nullptr) {
    used = std::max(used, vstore_->MaxUsedFraction());
  }
  if (used >= opts_.pressure_soft && vstore_ != nullptr) {
    // Compacting low-live segments is the only way the value heap sheds bytes.
    vstore_->KickGc();
  }
  const bool degraded = degraded_.load(std::memory_order_relaxed);
  if (!degraded && used >= opts_.pressure_hard) {
    degraded_.store(true, std::memory_order_relaxed);
  } else if (degraded && used <= opts_.pressure_resume) {
    degraded_.store(false, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

uint64_t PacTree::Size() const {
  uint64_t total = 0;
  DataNode* node = PPtr<DataNode>(root_->head_raw).get();
  while (node != nullptr) {
    if (!node->IsDeleted()) {
      total += static_cast<uint64_t>(node->CountLive());
    }
    node = node->Next();
  }
  return total;
}

bool PacTree::CheckInvariants(std::string* why) const {
  DataNode* node = PPtr<DataNode>(root_->head_raw).get();
  if (node == nullptr) {
    *why = "missing head node";
    return false;
  }
  if (node->anchor != Key::Min()) {
    *why = "head anchor is not Min";
    return false;
  }
  // With the SMO logs drained, the search layer must exactly mirror the data
  // layer: every live node's anchor maps to that node. (While entries are
  // pending the trie may legitimately be stale -- the jump-node walk covers
  // it -- so the check only runs on a drained tree, and only when this
  // incarnation did not re-attach a persistent search layer whose pre-crash
  // updates may have been evicted: section 5.9 staleness is permanent there.)
  const bool check_search_layer = search_layer_exact_ && updater_->Drained();
  uint64_t prev_raw = 0;
  uint64_t live_nodes = 0;
  while (node != nullptr) {
    ++live_nodes;
    if (check_search_layer) {
      uint64_t mapped = 0;
      if (art_->Lookup(node->anchor, &mapped) != Status::kOk) {
        *why = "drained search layer is missing anchor " + node->anchor.ToString();
        return false;
      }
      if (mapped != ToPPtr(node).Cast<void>().raw) {
        *why = "drained search layer maps anchor " + node->anchor.ToString() +
               " to the wrong node";
        return false;
      }
    }
    if (node->IsDeleted()) {
      *why = "deleted node still linked";
      return false;
    }
    if (node->PrevRaw() != prev_raw) {
      *why = "prev pointer mismatch at anchor " + node->anchor.ToString();
      return false;
    }
    DataNode* next = node->Next();
    Key upper = next != nullptr ? next->anchor : Key::Max();
    if (next != nullptr && !(node->anchor < next->anchor)) {
      *why = "anchors not strictly increasing";
      return false;
    }
    uint64_t bm = node->Bitmap();
    while (bm != 0) {
      int i = __builtin_ctzll(bm);
      bm &= bm - 1;
      Key k = node->KeyAt(i);
      if (k < node->anchor || (next != nullptr && k >= upper)) {
        *why = "key outside node range";
        return false;
      }
      if (node->fp[i] != k.Fingerprint()) {
        *why = "stale fingerprint";
        return false;
      }
    }
    prev_raw = ToPPtr(node).Cast<void>().raw;
    node = next;
  }
  // Trie leaves are data nodes. Every live node's anchor maps to that node
  // (checked above), so equal counts leave no leaf to a merged-away node: its
  // removal must be durable before the node is retired (DESIGN.md §6).
  if (check_search_layer && art_->Size() != live_nodes) {
    *why = "drained search layer has leaves for unlinked nodes";
    return false;
  }
  return true;
}

PacTreeStats PacTree::Stats() const {
  PacTreeStats s;
  s.splits = stat_splits_.load(std::memory_order_relaxed);
  s.merges = stat_merges_.load(std::memory_order_relaxed);
  s.smo_applied = updater_->applied();
  s.smo_ring_full_waits = updater_->ring_full_waits();
  for (int i = 0; i < kHopHistBuckets; ++i) {
    s.hop_hist[i] = stat_hops_[i].load(std::memory_order_relaxed);
  }
  // Legacy 4-bucket view (0, 1, 2, >=3) derived from the full histogram.
  for (int i = 0; i < kHopHistBuckets; ++i) {
    s.jump_hops[i < 3 ? i : 3] += s.hop_hist[i];
  }
  s.retries = stat_retries_.load(std::memory_order_relaxed);
  s.epoch_enters = stat_epoch_enters_.load(std::memory_order_relaxed);
  s.node_locks = stat_node_locks_.load(std::memory_order_relaxed);
  s.arena_compactions = stat_arena_compactions_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.write_rejects = stat_write_rejects_.load(std::memory_order_relaxed);
  s.split_alloc_failures =
      stat_split_alloc_failures_.load(std::memory_order_relaxed);
  s.used_fraction =
      std::max(data_heap_->MaxUsedFraction(), log_heap_->MaxUsedFraction());
  s.alloc_failures = search_heap_->AllocFailures() +
                     data_heap_->AllocFailures() + log_heap_->AllocFailures();
  if (vstore_ != nullptr) {
    s.value_enabled = true;
    s.value = vstore_->Stats();
    s.used_fraction = std::max(s.used_fraction, vstore_->MaxUsedFraction());
    s.alloc_failures += vstore_->AllocFailures();
  }
  if (vcache_ != nullptr) {
    s.value_cache = vcache_->Stats();
  }
  return s;
}

}  // namespace pactree
