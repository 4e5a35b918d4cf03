// YCSB-style workload driver (paper §6 "Workload configuration"):
//   Load A : 100% insert of the record set
//   A      : 50% lookup / 50% update        (update replaced by upsert, §6)
//   B      : 95% lookup /  5% update
//   C      : 100% lookup
//   E      : 95% scan (1-100 records) / 5% insert
// Uniform or Zipfian key choice, integer or 23-byte string keys, configurable
// thread count, 10% latency sampling (paper §6.4), NVM media-traffic deltas.
#ifndef PACTREE_SRC_WORKLOAD_YCSB_H_
#define PACTREE_SRC_WORKLOAD_YCSB_H_

#include <cstdint>
#include <string>

#include "src/common/histogram.h"
#include "src/index/range_index.h"
#include "src/nvm/stats.h"
#include "src/workload/keyset.h"

namespace pactree {

enum class YcsbKind { kLoadA, kA, kB, kC, kE, kAInsert /* 50% lookup + 50% insert (Fig. 15) */ };

const char* YcsbKindName(YcsbKind kind);

struct YcsbSpec {
  YcsbKind kind = YcsbKind::kC;
  uint64_t record_count = 1'000'000;  // loaded before the run phase
  uint64_t op_count = 1'000'000;
  uint32_t threads = 4;
  bool string_keys = false;
  bool zipfian = true;
  double zipf_theta = 0.99;
  uint64_t scan_max_len = 100;  // E: uniform 1..max
  double sample_rate = 0.1;     // latency sampling probability
  uint64_t seed = 42;
  // Value path (bench --value-size): 0 = raw u64 values. >0: Load stores
  // deterministic value bytes of this size through InsertValue, reads resolve
  // through LookupValue, updates re-InsertValue fresh bytes, and scans
  // materialize values via ScanValues. Sizes <= 7 stay inline in the index
  // word (every index supports them); larger sizes need an index whose
  // SupportsLargeValues() is true.
  uint64_t value_size = 0;
  // 80% 64-byte / 20% 1-KiB mix instead of a fixed size (value_size then
  // holds the small size).
  bool value_size_mix = false;
};

struct YcsbResult {
  double seconds = 0;
  uint64_t ops = 0;
  double mops = 0;
  LatencyHistogram latency;       // sampled, all op types
  LatencyHistogram scan_latency;  // sampled, scans only
  NvmStatsSnapshot nvm;           // media traffic during the phase
};

class YcsbDriver {
 public:
  // Loads |spec.record_count| keys (threads stripe the key range).
  static YcsbResult Load(RangeIndex* index, const YcsbSpec& spec);
  // Runs |spec.op_count| operations of the spec's mix against a loaded index.
  static YcsbResult Run(RangeIndex* index, const YcsbSpec& spec);

  static void PrintHeader();
  static void PrintRow(const std::string& index_name, const YcsbSpec& spec,
                       const YcsbResult& r);
};

}  // namespace pactree

#endif  // PACTREE_SRC_WORKLOAD_YCSB_H_
