// Uniform interface over every persistent range index in this repository, plus
// a factory. The benchmark harness (bench/) drives indexes exclusively through
// this interface, like the paper's index-microbench.
#ifndef PACTREE_SRC_INDEX_RANGE_INDEX_H_
#define PACTREE_SRC_INDEX_RANGE_INDEX_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/key.h"
#include "src/common/status.h"
#include "src/value/value_handle.h"  // header-only inline-value codec

namespace pactree {

class PmemHeap;

class RangeIndex {
 public:
  virtual ~RangeIndex() = default;

  virtual Status Insert(const Key& key, uint64_t value) = 0;  // upsert
  // Paper §6: "we replace the update operation with insert" for indexes that
  // lack native update; the default does exactly that.
  virtual Status Update(const Key& key, uint64_t value) { return Insert(key, value); }
  virtual Status Lookup(const Key& key, uint64_t* value) const = 0;
  virtual Status Remove(const Key& key) = 0;
  virtual size_t Scan(const Key& start, size_t count,
                      std::vector<std::pair<Key, uint64_t>>* out) const = 0;

  // --- variable-length values (src/value/) ---------------------------------
  // Key index over byte strings. The defaults pack values of <= 7 bytes into
  // the u64 word (tag bit 63 + length in bits 58..56 + payload), so every
  // index supports small values unchanged; values larger than that need a
  // real value tier (PACTree with pactree_value_storage) and are rejected
  // with kFull by the default. Mixing InsertValue with the raw-u64 Insert on
  // the same key is undefined -- raw words may alias the handle encoding.
  virtual Status InsertValue(const Key& key, std::string_view value) {
    if (value.size() > kMaxInlineValue) {
      return Status::kFull;
    }
    return Insert(key, EncodeInlineValue(value));
  }
  virtual Status LookupValue(const Key& key, std::string* value) const {
    uint64_t v = 0;
    Status s = Lookup(key, &v);
    if (s != Status::kOk) {
      return s;
    }
    if (!ValueHandleIsInline(v)) {
      return Status::kCorrupted;  // a log handle with no log to dereference
    }
    DecodeInlineValue(v, value);
    return Status::kOk;
  }
  virtual size_t ScanValues(const Key& start, size_t count,
                            std::vector<std::pair<Key, std::string>>* out) const {
    out->clear();
    std::vector<std::pair<Key, uint64_t>> raw;
    Scan(start, count, &raw);
    out->reserve(raw.size());
    for (const auto& [k, v] : raw) {
      if (ValueHandleIsInline(v)) {
        std::string s;
        DecodeInlineValue(v, &s);
        out->emplace_back(k, std::move(s));
      }
    }
    return out->size();
  }
  // One inline value-log GC round; 0 for indexes without a value tier.
  virtual size_t CompactValues() { return 0; }
  // Whether InsertValue accepts values larger than the 7-byte inline limit.
  virtual bool SupportsLargeValues() const { return false; }

  virtual uint64_t Size() const = 0;
  virtual std::string Name() const = 0;
  // Machine-readable per-index counters for the bench JSON emitter
  // (bench_common.h --json): one JSON object literal; "{}" when the index
  // exports nothing. PACTree reports hop/retry/SMO counters here.
  virtual std::string StatsJson() const { return "{}"; }
  virtual bool SupportsStringKeys() const { return true; }
  // Flushes background work (PACTree's SMO logs) before measurement phases.
  virtual void Drain() {}

  // --- recovery-verification hooks (see src/index/verify.h) ----------------

  // Implementation-specific structural audit (node ordering, sibling links,
  // ...). Defaults to "no structural checks available".
  virtual bool CheckInvariants(std::string* why) const {
    (void)why;
    return true;
  }
  // Unretired persistent allocation-log entries across the index's heaps.
  // Must be zero after recovery.
  virtual size_t PendingLogEntries() const { return 0; }
  // True when every operation log (PACTree's SMO rings) is empty. Must hold
  // after recovery.
  virtual bool OperationLogsDrained() const { return true; }
  // The persistent heaps backing this index, for crash harnesses that shadow
  // every pool of the index.
  virtual std::vector<PmemHeap*> Heaps() const { return {}; }
};

enum class IndexKind {
  kPacTree,
  kPdlArt,
  kFastFair,
  kFpTree,
  kBzTree,
};

const char* IndexKindName(IndexKind kind);

struct IndexFactoryOptions {
  std::string name;        // pool file prefix; defaults to the kind's name
  uint16_t pool_id_base = 0;  // 0 -> auto-assigned
  size_t pool_size = 512ULL << 20;
  bool string_keys = false;  // FastFair: out-of-node key records
  bool per_numa_pools = true;
  // PACTree factor-analysis toggles (ignored by other kinds).
  bool pactree_async_update = true;
  bool pactree_selective_persistence = true;
  bool pactree_dram_search_layer = false;
  // Background updater services (0 = auto: PAC_UPDATERS env var if set, else
  // one per logical NUMA node).
  uint32_t pactree_updaters = 0;
  // Tiered value storage (src/value): log-structured value heap + DRAM
  // hot-value cache behind InsertValue/LookupValue. Also enabled by
  // PAC_VALUESTORE=1 (the bench --value-size flag sets it). ~0 cache bytes =
  // keep PacTree's default budget.
  bool pactree_value_storage = false;
  size_t pactree_value_cache_bytes = ~size_t{0};
  size_t pactree_value_segment_size = 0;  // 0 = PacTree default (256 KiB)
  // FP-Tree HTM model (ignored by other kinds).
  double fptree_spurious_abort_per_line = 0.0;
  // Reopen existing pool files and run recovery instead of destroying them --
  // how crash tests bring an index back up over captured images.
  bool open_existing = false;
};

// Creates a fresh index (destroys leftover pools of the same name first),
// or -- with opts.open_existing -- recovers one from its existing pools.
std::unique_ptr<RangeIndex> CreateIndex(IndexKind kind, const IndexFactoryOptions& opts);

// Removes an index's backing pools.
void DestroyIndex(IndexKind kind, const std::string& name);

}  // namespace pactree

#endif  // PACTREE_SRC_INDEX_RANGE_INDEX_H_
