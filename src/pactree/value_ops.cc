// Tiered value storage: PacTree's value-aware entry points plus the GC sink
// that lets the per-NUMA value-log collectors relocate live records through
// the index (src/value/). Split from pactree.cc because everything here is
// about bytes, not keys: the key index only ever stores the tagged 8-B
// handle, and all interpretation of that word lives in this file.
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/key.h"
#include "src/common/status.h"
#include "src/pactree/data_node.h"
#include "src/pactree/pac_root.h"
#include "src/pactree/pactree.h"
#include "src/pmem/pptr.h"
#include "src/sync/epoch.h"
#include "src/value/lru_cache.h"
#include "src/value/value_handle.h"
#include "src/value/value_storage.h"

namespace pactree {

// -----------------------------------------------------------------------------
// Value-aware front-end
// -----------------------------------------------------------------------------

Status PacTree::InsertValue(const Key& key, std::string_view value) {
  if (value.size() <= kMaxInlineValue) {
    // Small values never touch the log: Insert stores the tagged inline word
    // and retires any log record it replaced (dead-marked, cache entry
    // dropped), so the inline path works even with the value tier off.
    return Insert(key, EncodeInlineValue(value));
  }
  if (vstore_ == nullptr || value.size() > vstore_->max_value_bytes()) {
    return Status::kFull;  // no tier (or over segment capacity): reject, §ISSUE
  }
  if (degraded_.load(std::memory_order_relaxed)) {
    stat_write_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Status::kFull;  // match Insert: no side effects in read-only mode
  }
  // Record first, handle second: the ONE fenced append makes the bytes
  // durable before any index state can reference them, so a recovered index
  // handle always dereferences to a checksum-valid record. The reverse is not
  // true -- a crash here leaks a garbage record, reclaimed when the live-count
  // rebuild finds no referent and GC compacts the segment.
  uint64_t handle = 0;
  Status s = vstore_->Append(key, value, &handle);
  if (s != Status::kOk) {
    PollPressure();  // a full value heap must feed the watermark policy
    return s;
  }
  Status is = Insert(key, handle);
  if (is != Status::kOk && is != Status::kExists) {
    vstore_->MarkDead(handle);  // index refused the handle: record is garbage
  }
  return is;
}

Status PacTree::LookupValue(const Key& key, std::string* value) const {
  // Probe first: the cache is coherent with the index (lru_cache.h), so a hit
  // is the key's current value and needs neither the index nor an epoch.
  if (vcache_ != nullptr && vcache_->Get(key, value)) {
    return Status::kOk;
  }
  // One guard spans the handle fetch, the log dereference and the fill: a
  // record's segment is epoch-retired, so its bytes cannot be recycled while
  // any reader that could have observed its handle is still inside the
  // epoch, and the data node the fill validates against cannot be freed.
  for (int attempt = 0; attempt < 64; ++attempt) {
    stat_epoch_enters_.fetch_add(1, std::memory_order_relaxed);
    EpochGuard guard;
    uint64_t h = 0;
    DataNode* node = nullptr;
    uint64_t version = 0;
    Status s = LookupNode(key, &h, &node, &version);
    if (s != Status::kOk) {
      return s;
    }
    if (ValueHandleIsInline(h)) {
      DecodeInlineValue(h, value);
      return Status::kOk;
    }
    if (vstore_ == nullptr) {
      return Status::kCorrupted;  // log handle but no log: torn configuration
    }
    s = vstore_->Read(h, key, value);
    if (s == Status::kOk) {
      if (vcache_ != nullptr) {
        // Fill only if no writer locked the node since |h| was read there: a
        // writer that replaced |h| evicts under that lock, so a fill that
        // validates is evicted after it, never left stale.
        vcache_->PutIf(key, h, *value, [&] { return node->lock.Validate(version); });
      }
      return s;
    }
    if (s != Status::kRetry) {
      return s;
    }
    // Checksum/key mismatch under the guard should be impossible for a
    // handle read through the index (see above); treat it as a racing
    // relocation observed through a stale intermediary and re-resolve.
    stat_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::kRetry;
}

size_t PacTree::ScanValues(const Key& start, size_t count,
                           std::vector<std::pair<Key, std::string>>* out) const {
  out->clear();
  EpochGuard guard;  // handle fetch and resolution share one epoch
  auto resolve = [&](const Key& k, uint64_t h, std::string* v) -> Status {
    if (ValueHandleIsInline(h)) {
      DecodeInlineValue(h, v);
      return Status::kOk;
    }
    if (vstore_ == nullptr) {
      return Status::kCorrupted;
    }
    // Handle-checked probe, and no fill: the snapshot has no node token to
    // validate a fill against (lru_cache.h).
    if (vcache_ != nullptr && vcache_->Get(k, h, v)) {
      return Status::kOk;
    }
    Status s = vstore_->Read(h, k, v);
    if (s == Status::kOk) {
      return s;
    }
    // Stale handle (scan snapshot raced an overwrite/GC): the per-key path
    // re-resolves the current handle; kNotFound drops the entry.
    return s == Status::kRetry ? LookupValue(k, v) : s;
  };
  std::vector<std::pair<Key, uint64_t>> raw;
  Scan(start, count, &raw);
  out->reserve(raw.size());
  for (const auto& [k, h] : raw) {
    std::string v;
    if (resolve(k, h, &v) == Status::kOk) {
      out->emplace_back(k, std::move(v));
    }
  }
  return out->size();
}

size_t PacTree::CompactValues() {
  return vstore_ == nullptr ? 0 : vstore_->GcPass();
}

// -----------------------------------------------------------------------------
// ValueGcSink: GC reads the authoritative handle through Lookup, and swings it
// with a compare-and-set that overwrites the key's value word in place.
// -----------------------------------------------------------------------------

bool PacTree::CurrentValueHandle(const Key& key, uint64_t* handle) const {
  uint64_t v = 0;
  if (Lookup(key, &v) != Status::kOk) {
    return false;  // key gone: record is dead
  }
  if (ValueHandleIsInline(v)) {
    return false;  // overwritten with an inline value: record is dead
  }
  *handle = v;
  return true;
}

bool PacTree::CasValueHandle(const Key& key, uint64_t old_handle,
                             uint64_t new_handle) {
  if (degraded_.load(std::memory_order_relaxed)) {
    return false;  // GC unwinds; no writes in read-only mode
  }
  EpochGuard guard;
  uint8_t fingerprint = key.Fingerprint();
  while (true) {
    uint64_t version;
    DataNode* node = FindDataNode(key, &version);
    int existing = node->FindKey(key, fingerprint);
    if (existing < 0 || node->ValueAt(existing) != old_handle) {
      if (!node->lock.Validate(version)) {
        stat_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      return false;  // key gone or already re-pointed: comparison failed
    }
    if (!node->lock.TryUpgrade(version)) {
      stat_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // The compare above held under the token the upgrade consumed, so the
    // swing is the slot's value-word persist: it allocates nothing and
    // cannot fail on a full pool. It evicts the key's cache entry under the
    // lock like any overwrite. GC keeps the moved record's live count
    // itself, so the old handle is not marked dead here.
    OverwriteAndUnlock(node, existing, key, new_handle);
    return true;
  }
}

// -----------------------------------------------------------------------------
// Hygiene + recovery
// -----------------------------------------------------------------------------

void PacTree::EvictReplacedValue(const Key& key, uint64_t old) {
  // An inline word never has an entry: fills install log handles only, and
  // the store that replaced that handle evicted the entry.
  if (vcache_ != nullptr && !ValueHandleIsInline(old)) {
    vcache_->Invalidate(key);
  }
}

void PacTree::RetireReplacedValue(uint64_t old) {
  if (vstore_ != nullptr && !ValueHandleIsInline(old)) {
    // Exact: |old| was read under the node's write lock that replaced it, so
    // each log record leaves the index once and is marked dead once, by that
    // writer.
    vstore_->MarkDead(old);
  }
}

void PacTree::RebuildValueLiveCounts() {
  // Runs single-threaded in Init, after the key index is fully recovered but
  // before any service starts. Every handle reachable through the index
  // is live; everything else in the log is garbage awaiting compaction.
  DataNode* node = PPtr<DataNode>(root_->head_raw).get();
  while (node != nullptr) {
    if (!node->IsDeleted()) {
      uint64_t bm = node->Bitmap();
      while (bm != 0) {
        int slot = __builtin_ctzll(bm);
        bm &= bm - 1;
        uint64_t v = node->ValueAt(slot);
        if (!ValueHandleIsInline(v)) {
          vstore_->AddLiveHandle(v);  // no-op for non-handle u64s (no segment)
        }
      }
    }
    node = node->Next();
  }
}

}  // namespace pactree
