// Shared plumbing for the figure-reproduction benchmark binaries.
//
// Scale defaults are sized for this repository's single-core CI-style
// environment; the paper's full scale is reached with environment variables:
//   PAC_KEYS=64m PAC_OPS=64m PAC_THREADS="1 16 32 48 64 80 96 112" <bench>
// Each binary prints the rows/series of the corresponding paper figure.
#ifndef PACTREE_BENCH_BENCH_COMMON_H_
#define PACTREE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/index/range_index.h"
#include "src/nvm/config.h"
#include "src/nvm/bandwidth.h"
#include "src/nvm/topology.h"
#include "src/runtime/maintenance.h"
#include "src/sync/epoch.h"
#include "src/workload/ycsb.h"

namespace pactree {

// Flag/config state shared by every figure binary (set by ParseBenchFlags).
inline std::string& BenchJsonPath() {
  static std::string path;  // empty = no JSON output
  return path;
}
inline bool& BenchPinEnabled() {
  static bool pin = false;
  return pin;
}

inline constexpr bool BenchSimdFingerprints() {
#if defined(PACTREE_AVX2)
  return true;
#else
  return false;
#endif
}

// Flags shared by every figure binary:
//   --pin         pin worker threads to CPUs, round-robin across the logical
//                 NUMA nodes (also enabled by PAC_PIN=1). Placement is
//                 deterministic: worker i lands on logical node i % nodes and
//                 on seat i / nodes of that node's contiguous CPU group, so a
//                 rerun reproduces the same thread-to-CPU map.
//   --updaters=N  run N PACTree background updater services (also settable
//                 via PAC_UPDATERS; default is one per logical NUMA node).
//   --json=PATH   append one machine-readable JSON document per binary run to
//                 PATH (throughput, media bytes/op, latency percentiles, and
//                 each index's StatsJson counters) for perf trajectories.
//   --value-size=N|mix
//                 drive the YCSB phases through the variable-length value API
//                 (src/value): N-byte values (InsertValue / LookupValue /
//                 ScanValues), or "mix" for 80% 64-byte / 20% 1-KiB. Also
//                 enables PACTree's tiered value storage (PAC_VALUESTORE=1);
//                 indexes without large-value support are skipped when N > 7.
//                 Also settable via PAC_VALUE_SIZE.
// Any other "--" argument prints this list and exits with status 2.
//
// Fault-injection / pressure env knobs (env-only; see DESIGN.md §6g):
//   PAC_FAILPOINTS        arm allocation fail points for the run, e.g.
//                         "pmem/alloc=hit:100;smo/ring_full=prob:0.001".
//                         Triggers: hit:N (N-th hit), every:N, prob:P[:seed].
//   PAC_PRESSURE_SOFT/HARD/RESUME
//                         pool-pressure watermarks in percent (defaults
//                         85/95/90): soft kicks value GC, hard
//                         flips the tree read-only (writes return kFull),
//                         resume re-enables writes once usage falls back.
inline void ParseBenchFlags(int argc, char** argv) {
  static constexpr const char* kKnownFlags =
      "--pin --updaters=N --json=PATH --value-size=N|mix";
  bool pin = EnvU64("PAC_PIN", 0) != 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg == "--pin") {
      pin = true;
    } else if (arg.rfind("--updaters=", 0) == 0) {
      // Indexes read PAC_UPDATERS at Open; routing the flag through the env
      // var keeps one resolution path for flag, env, and library callers.
      setenv("PAC_UPDATERS", arg.substr(11).c_str(), 1);
    } else if (arg.rfind("--value-size=", 0) == 0) {
      // Same env-var resolution path: the workload reads PAC_VALUE_SIZE (see
      // ApplyBenchValueSpec) and PacTree reads PAC_VALUESTORE at Open.
      setenv("PAC_VALUE_SIZE", arg.substr(13).c_str(), 1);
      setenv("PAC_VALUESTORE", "1", 1);
    } else if (arg.rfind("--json=", 0) == 0) {
      BenchJsonPath() = arg.substr(7);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: unknown flag '%s'; known flags: %s\n", argv[0],
                   arg.c_str(), kKnownFlags);
      std::exit(2);
    }
  }
  SetThreadPinning(pin);
  BenchPinEnabled() = pin;
}

// Applies the --value-size flag (PAC_VALUE_SIZE: a byte count or "mix") to
// one YCSB spec. No-op when the flag is absent -- the spec keeps raw u64
// values and nothing changes for existing baselines.
inline void ApplyBenchValueSpec(YcsbSpec* spec) {
  std::string v = EnvStr("PAC_VALUE_SIZE", "");
  if (v.empty()) {
    return;
  }
  if (v == "mix") {
    spec->value_size = 64;
    spec->value_size_mix = true;
  } else {
    spec->value_size =
        std::max<uint64_t>(1, std::strtoull(v.c_str(), nullptr, 10));
  }
}

struct BenchScale {
  uint64_t keys;
  uint64_t ops;
  std::vector<uint32_t> threads;
};

inline BenchScale ReadScale(uint64_t default_keys = 1'000'000,
                            uint64_t default_ops = 1'000'000,
                            const std::string& default_threads = "1 2 4") {
  BenchScale s;
  s.keys = EnvU64("PAC_KEYS", default_keys);
  s.ops = EnvU64("PAC_OPS", default_ops);
  std::istringstream in(EnvStr("PAC_THREADS", default_threads));
  uint32_t t;
  while (in >> t) {
    s.threads.push_back(t);
  }
  if (s.threads.empty()) {
    s.threads.push_back(1);
  }
  return s;
}

// Applies the default emulated-NVM machine model used by the figure benches
// (2 NUMA nodes, snoop coherence, latency emulation on; bandwidth throttling
// opt-in per figure because it dominates wall-clock).
inline void ConfigureNvmMachine(bool latency = true, bool bandwidth = false) {
  NvmConfig& cfg = GlobalNvmConfig();
  cfg = NvmConfig();
  cfg.numa_nodes = 2;
  cfg.emulate_latency = latency;
  cfg.emulate_bandwidth = bandwidth;
  BandwidthModel::Instance().Reconfigure();
}

inline void Banner(const char* fig, const char* what) {
  std::printf("# %s -- %s\n", fig, what);
  std::printf("# scale: PAC_KEYS / PAC_OPS / PAC_THREADS environment variables\n");
  // A/B hygiene: numbers are meaningless without knowing whether the SIMD
  // fingerprint probe was compiled in and how the run was configured.
  std::printf("# config: fingerprints=%s pin=%d updaters=%s value_size=%s\n",
              BenchSimdFingerprints() ? "avx2" : "scalar",
              BenchPinEnabled() ? 1 : 0,
              EnvStr("PAC_UPDATERS", "auto").c_str(),
              EnvStr("PAC_VALUE_SIZE", "off").c_str());
  std::printf("# faults: failpoints=%s pressure=%llu/%llu/%llu\n",
              EnvStr("PAC_FAILPOINTS", "none").c_str(),
              static_cast<unsigned long long>(EnvU64("PAC_PRESSURE_SOFT", 85)),
              static_cast<unsigned long long>(EnvU64("PAC_PRESSURE_HARD", 95)),
              static_cast<unsigned long long>(EnvU64("PAC_PRESSURE_RESUME", 90)));
  std::fflush(stdout);
}

// --- machine-readable perf baselines (--json=PATH) --------------------------
// Benches build one JsonRow per measured run, then BenchJsonWrite() renders
// {"bench":..., "config":{...}, "rows":[...]} to the --json path at exit.

class JsonRow {
 public:
  JsonRow& U64(const char* k, uint64_t v) { return Raw(k, std::to_string(v)); }
  JsonRow& F64(const char* k, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return Raw(k, buf);
  }
  JsonRow& Str(const char* k, const std::string& v) {
    return Raw(k, "\"" + v + "\"");
  }
  // |json| must already be a rendered JSON value (e.g. RangeIndex::StatsJson).
  JsonRow& Raw(const char* k, const std::string& json) {
    if (!body_.empty()) {
      body_ += ",";
    }
    body_ += "\"";
    body_ += k;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline std::vector<std::string>& BenchJsonRows() {
  static std::vector<std::string> rows;
  return rows;
}

inline void BenchJsonAdd(const JsonRow& row) {
  if (!BenchJsonPath().empty()) {
    BenchJsonRows().push_back(row.Render());
  }
}

inline void BenchJsonWrite(const char* bench) {
  if (BenchJsonPath().empty()) {
    return;
  }
  std::FILE* f = std::fopen(BenchJsonPath().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", BenchJsonPath().c_str());
    return;
  }
  JsonRow config;
  config.Str("fingerprints", BenchSimdFingerprints() ? "avx2" : "scalar")
      .U64("pin", BenchPinEnabled() ? 1 : 0)
      .Str("updaters", EnvStr("PAC_UPDATERS", "auto"))
      .Str("value_size", EnvStr("PAC_VALUE_SIZE", "off"));
  std::fprintf(f, "{\"bench\":\"%s\",\"config\":%s,\"rows\":[", bench,
               config.Render().c_str());
  for (size_t i = 0; i < BenchJsonRows().size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ",", BenchJsonRows()[i].c_str());
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("# json: %s (%zu rows)\n", BenchJsonPath().c_str(),
              BenchJsonRows().size());
}

// The standard JSON row for one YCSB run phase: throughput, media bytes/op,
// latency percentiles, and the index's own counters.
inline JsonRow YcsbJsonRow(const std::string& index_name, const YcsbSpec& spec,
                           const YcsbResult& r, const RangeIndex* index) {
  JsonRow row;
  double ops = static_cast<double>(r.ops == 0 ? 1 : r.ops);
  row.Str("index", index_name)
      .Str("workload", YcsbKindName(spec.kind))
      .U64("threads", spec.threads)
      .U64("keys", spec.record_count)
      .U64("ops", r.ops)
      .U64("zipfian", spec.zipfian ? 1 : 0)
      .F64("mops", r.mops)
      .F64("read_bytes_per_op", static_cast<double>(r.nvm.media_read_bytes) / ops)
      .F64("write_bytes_per_op", static_cast<double>(r.nvm.media_write_bytes) / ops)
      .U64("read_prefetches", r.nvm.read_prefetches)
      .U64("p50_ns", r.latency.Percentile(50))
      .U64("p99_ns", r.latency.Percentile(99));
  if (index != nullptr) {
    row.Raw("index_stats", index->StatsJson());
  }
  return row;
}

// Creates + loads an index, returning it ready for a run phase.
inline std::unique_ptr<RangeIndex> MakeLoaded(IndexKind kind, const YcsbSpec& spec,
                                              IndexFactoryOptions opts = {}) {
  if (opts.pool_size == 512ULL << 20) {
    // Size pools generously for the requested key count (3 KiB/key covers the
    // fattest index here, plus slack for 2 sub-pools).
    opts.pool_size = std::max<size_t>(512ULL << 20, spec.record_count * 3072 * 2);
  }
  opts.string_keys = spec.string_keys;
  auto index = CreateIndex(kind, opts);
  if (index == nullptr) {
    std::fprintf(stderr, "failed to create %s\n", IndexKindName(kind));
    return nullptr;
  }
  YcsbDriver::Load(index.get(), spec);
  index->Drain();
  return index;
}

// Per-service maintenance report: one comment row per background service whose
// name starts with |prefix| ("" = every registered service). Benches call this
// after a run phase, before CleanupIndex tears the services down.
inline void PrintMaintenanceStats(const std::string& prefix = "") {
  for (const MaintenanceStats& s :
       MaintenanceRegistry::Instance().StatsSnapshot(prefix)) {
    std::printf(
        "# service %-24s node=%-2d passes=%llu applied=%llu idle_wakeups=%llu "
        "drains=%llu pass_p50_us=%.1f pass_p99_us=%.1f\n",
        s.name.c_str(), s.numa_node, static_cast<unsigned long long>(s.passes),
        static_cast<unsigned long long>(s.items),
        static_cast<unsigned long long>(s.idle_wakeups),
        static_cast<unsigned long long>(s.drains),
        s.pass_latency.Percentile(50) / 1e3, s.pass_latency.Percentile(99) / 1e3);
  }
  std::fflush(stdout);
}

// Pulls one numeric field out of a flat StatsJson object ("name":value); 0
// when absent. Enough JSON for the banner helpers below -- the full object
// still rides into the bench JSON via YcsbJsonRow's index_stats.
inline double StatsJsonField(const std::string& json, const std::string& name) {
  size_t p = json.find("\"" + name + "\":");
  if (p == std::string::npos) {
    return 0;
  }
  return std::atof(json.c_str() + p + name.size() + 3);
}

// One-line data-node banner for PACTree runs: how often a data node's arena
// reclaimed in place. The counter is cumulative over the index instance's
// lifetime (i.e. all workloads run against it so far).
inline void PrintPacTreeNodeStats(const RangeIndex* index) {
  std::printf("# pactree: arena_compactions=%.0f\n",
              StatsJsonField(index->StatsJson(), "arena_compactions"));
}

inline void CleanupIndex(std::unique_ptr<RangeIndex> index, IndexKind kind) {
  std::string name = index->Name();
  index.reset();
  EpochManager::Instance().DrainAll();
  DestroyIndex(kind, "");
}

}  // namespace pactree

#endif  // PACTREE_BENCH_BENCH_COMMON_H_
