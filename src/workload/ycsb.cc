#include "src/workload/ycsb.h"

#include <atomic>
#include <cstdio>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/nvm/config.h"
#include "src/nvm/topology.h"
#include "src/runtime/workers.h"
#include "src/workload/zipf.h"

namespace pactree {
namespace {

struct OpMix {
  int read_pct;
  int update_pct;
  int insert_pct;
  int scan_pct;
};

OpMix MixFor(YcsbKind kind) {
  switch (kind) {
    case YcsbKind::kLoadA:
      return {0, 0, 100, 0};
    case YcsbKind::kA:
      return {50, 50, 0, 0};
    case YcsbKind::kB:
      return {95, 5, 0, 0};
    case YcsbKind::kC:
      return {100, 0, 0, 0};
    case YcsbKind::kE:
      return {0, 0, 5, 95};
    case YcsbKind::kAInsert:
      return {50, 0, 50, 0};
  }
  return {100, 0, 0, 0};
}

// Deterministic value length/bytes for key index |i|. The fill is one cheap
// byte pattern: the bench measures the value path (log append, cache, log
// dereference), not memset bandwidth.
size_t ValueLenFor(const YcsbSpec& spec, uint64_t i) {
  if (!spec.value_size_mix) {
    return spec.value_size;
  }
  return i % 5 == 4 ? 1024 : spec.value_size;  // 80% small / 20% 1 KiB
}

void FillValue(const YcsbSpec& spec, uint64_t i, std::string* buf) {
  buf->assign(ValueLenFor(spec, i), static_cast<char>((i * 131 + 7) & 0xff));
}

}  // namespace

const char* YcsbKindName(YcsbKind kind) {
  switch (kind) {
    case YcsbKind::kLoadA:
      return "L-A";
    case YcsbKind::kA:
      return "W-A";
    case YcsbKind::kB:
      return "W-B";
    case YcsbKind::kC:
      return "W-C";
    case YcsbKind::kE:
      return "W-E";
    case YcsbKind::kAInsert:
      return "A-INS";
  }
  return "?";
}

YcsbResult YcsbDriver::Load(RangeIndex* index, const YcsbSpec& spec) {
  KeySet keys(spec.string_keys, spec.seed);
  YcsbResult result;
  NvmStatsSnapshot before = GlobalNvmStats();
  std::atomic<bool> start{false};
  std::vector<LatencyHistogram> lats(spec.threads);
  uint64_t t0 = 0;
  RunWorkerThreads(
      spec.threads,
      [&](uint32_t t) {
        AssignWorkerThread(t);
        Rng rng(spec.seed * 131 + t);
        std::string vbuf;
        const bool vmode = spec.value_size > 0;
        while (!start.load(std::memory_order_acquire)) {
          CpuRelax();
        }
        uint64_t from = spec.record_count * t / spec.threads;
        uint64_t to = spec.record_count * (t + 1) / spec.threads;
        for (uint64_t i = from; i < to; ++i) {
          bool sample = rng.NextDouble() < spec.sample_rate;
          uint64_t s0 = sample ? NowNs() : 0;
          if (vmode) {
            FillValue(spec, i, &vbuf);
            index->InsertValue(keys.At(i), vbuf);
          } else {
            index->Insert(keys.At(i), i + 1);
          }
          if (sample) {
            lats[t].Record(NowNs() - s0);
          }
        }
      },
      [&] {
        // Stamp t0 after every worker exists: thread creation stays out of the
        // measured window, exactly as the hand-rolled spawn loop did.
        t0 = NowNs();
        start.store(true, std::memory_order_release);
      });
  uint64_t t1 = NowNs();
  result.seconds = static_cast<double>(t1 - t0) / 1e9;
  result.ops = spec.record_count;
  result.mops = static_cast<double>(result.ops) / 1e6 / result.seconds;
  for (auto& h : lats) {
    result.latency.Merge(h);
  }
  result.nvm = GlobalNvmStats() - before;
  return result;
}

YcsbResult YcsbDriver::Run(RangeIndex* index, const YcsbSpec& spec) {
  KeySet keys(spec.string_keys, spec.seed);
  OpMix mix = MixFor(spec.kind);
  YcsbResult result;
  // One shared Zipfian distribution (zeta is O(n) to build; share it).
  ZipfGenerator zipf(spec.record_count, spec.zipf_theta);

  NvmStatsSnapshot before = GlobalNvmStats();
  std::atomic<bool> start{false};
  std::vector<LatencyHistogram> lats(spec.threads);
  std::vector<LatencyHistogram> scan_lats(spec.threads);
  // Run-phase inserts take fresh key indices beyond the loaded range.
  std::atomic<uint64_t> insert_cursor{spec.record_count};

  uint64_t t0 = 0;
  RunWorkerThreads(
      spec.threads,
      [&](uint32_t t) {
        AssignWorkerThread(t);
        Rng rng(spec.seed * 31 + t + 1);
        std::vector<std::pair<Key, uint64_t>> scan_buf;
        // Value path (spec.value_size > 0): reads and writes route through
        // the value-aware entry points; scans materialize bytes.
        const bool vmode = spec.value_size > 0;
        std::string vbuf;
        std::vector<std::pair<Key, std::string>> vscan_buf;
        while (!start.load(std::memory_order_acquire)) {
          CpuRelax();
        }
        uint64_t ops = spec.op_count / spec.threads;
        for (uint64_t i = 0; i < ops; ++i) {
          uint64_t pick = spec.zipfian ? zipf.Next(rng) : rng.Uniform(spec.record_count);
          int dice = static_cast<int>(rng.Uniform(100));
          bool sample = spec.sample_rate >= 1.0 || rng.NextDouble() < spec.sample_rate;
          uint64_t s0 = sample ? NowNs() : 0;
          bool is_scan = false;
          if (dice < mix.read_pct) {
            if (vmode) {
              index->LookupValue(keys.At(pick), &vbuf);
            } else {
              uint64_t v;
              index->Lookup(keys.At(pick), &v);
            }
          } else if (dice < mix.read_pct + mix.update_pct) {
            if (vmode) {
              FillValue(spec, pick + i, &vbuf);
              index->InsertValue(keys.At(pick), vbuf);
            } else {
              index->Update(keys.At(pick), i + 1);
            }
          } else if (dice < mix.read_pct + mix.update_pct + mix.insert_pct) {
            uint64_t fresh = insert_cursor.fetch_add(1, std::memory_order_relaxed);
            if (vmode) {
              FillValue(spec, fresh, &vbuf);
              index->InsertValue(keys.At(fresh), vbuf);
            } else {
              index->Insert(keys.At(fresh), fresh);
            }
          } else {
            is_scan = true;
            size_t len = 1 + rng.Uniform(spec.scan_max_len);
            if (vmode) {
              index->ScanValues(keys.At(pick), len, &vscan_buf);
            } else {
              index->Scan(keys.At(pick), len, &scan_buf);
            }
          }
          if (sample) {
            uint64_t dt = NowNs() - s0;
            lats[t].Record(dt);
            if (is_scan) {
              scan_lats[t].Record(dt);
            }
          }
        }
      },
      [&] {
        t0 = NowNs();
        start.store(true, std::memory_order_release);
      });
  uint64_t t1 = NowNs();
  result.seconds = static_cast<double>(t1 - t0) / 1e9;
  result.ops = spec.op_count / spec.threads * spec.threads;
  result.mops = static_cast<double>(result.ops) / 1e6 / result.seconds;
  for (uint32_t t = 0; t < spec.threads; ++t) {
    result.latency.Merge(lats[t]);
    result.scan_latency.Merge(scan_lats[t]);
  }
  result.nvm = GlobalNvmStats() - before;
  return result;
}

void YcsbDriver::PrintHeader() {
  std::printf(
      "%-10s %-5s %8s %6s %10s %12s %12s %12s %12s %12s\n", "index", "wl", "threads",
      "keys", "Mops/s", "p50(ns)", "p99(ns)", "p99.99(ns)", "nvm_rd(MB)", "nvm_wr(MB)");
}

void YcsbDriver::PrintRow(const std::string& index_name, const YcsbSpec& spec,
                          const YcsbResult& r) {
  std::printf("%-10s %-5s %8u %5lluM %10.3f %12llu %12llu %12llu %12.1f %12.1f\n",
              index_name.c_str(), YcsbKindName(spec.kind), spec.threads,
              static_cast<unsigned long long>(spec.record_count / 1000000),
              r.mops, static_cast<unsigned long long>(r.latency.Percentile(50)),
              static_cast<unsigned long long>(r.latency.Percentile(99)),
              static_cast<unsigned long long>(r.latency.Percentile(99.99)),
              static_cast<double>(r.nvm.media_read_bytes) / 1e6,
              static_cast<double>(r.nvm.media_write_bytes) / 1e6);
  std::fflush(stdout);
}

}  // namespace pactree
