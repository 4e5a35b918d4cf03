// Read-path ratchet: per-key Lookup and Scan under three fixed access patterns,
// with the NVM latency model on. BENCH_READPATH.json holds the baseline rows;
// bench/check_regression.py compares a fresh --json run against them.
//
// Phase 1 (uniform): runs of kRun independent uniform Lookups.
//
// Phase 2 (clustered): runs of kRun consecutive keys from a random base (dense
// int keyspace, so a run lands on one or two data nodes).
//
// Phase 3 (scan_overlap): runs of kRun overlapping Scans (starts 4 keys apart,
// 100 keys each, so every range covers nearly the same data nodes).
//
// Each phase replays a fixed access sequence (fixed RNG seeds); workers are
// respawned per phase, so each starts with cold modeled read caches. The
// rows keep the "looped" mode and the "batch" (run length) identity fields
// the checked-in baseline is keyed by.
#include <atomic>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/nvm/stats.h"
#include "src/pactree/pactree.h"
#include "src/runtime/workers.h"

using namespace pactree;

namespace {

constexpr uint64_t kRun = 16;  // keys (or scan starts) drawn per run

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  Banner("Ablation", "read path: looped Lookup and Scan");
  BenchScale scale = ReadScale(1'000'000, 400'000, "4");
  uint32_t threads = scale.threads.back();

  ConfigureNvmMachine();  // latency emulation on: misses stall, prefetches don't
  PacTree::Destroy("ablreadpath");
  PacTreeOptions o;
  o.name = "ablreadpath";
  o.pool_id_base = 460;
  o.pool_size = std::max<size_t>(512ULL << 20, scale.keys * 3072 * 2);
  auto tree = PacTree::Open(o);
  if (tree == nullptr) {
    return 1;
  }
  // Dense integer keys (NOT the mixed KeySet universe): the clustered phase
  // needs "base..base+15" to be adjacent in key order so a run covers one or
  // two data nodes.
  RunWorkerThreads(threads, [&](uint32_t t) {
    AssignWorkerThread(t);
    uint64_t from = scale.keys * t / threads;
    uint64_t to = scale.keys * (t + 1) / threads;
    for (uint64_t i = from; i < to; ++i) {
      tree->Insert(Key::FromInt(i), i + 1);
    }
  });
  tree->DrainSmoLogs();

  // Runs |per_thread| / kRun runs on every worker: |run(rng, scratch)| serves
  // one. Returns the measured seconds and the deltas of the tree's counters
  // and the media traffic over the phase.
  using Pairs = std::vector<std::pair<Key, uint64_t>>;
  struct Window {
    double secs = 0;
    uint64_t locks = 0;
    uint64_t epochs = 0;
    uint64_t read_bytes = 0;
  };
  auto run_phase = [&](uint64_t per_thread, uint64_t seed_mul, uint64_t seed_add,
                       auto run) {
    Window w;
    PacTreeStats s0 = tree->Stats();
    NvmStatsSnapshot n0 = GlobalNvmStats();
    std::atomic<bool> start{false};
    uint64_t t0 = 0;
    RunWorkerThreads(
        threads,
        [&](uint32_t t) {
          AssignWorkerThread(t);
          Rng rng(seed_mul * t + seed_add);
          Pairs scratch;
          while (!start.load(std::memory_order_acquire)) {
            CpuRelax();
          }
          for (uint64_t b = 0; b < per_thread / kRun; ++b) {
            run(rng, scratch);
          }
        },
        [&] {
          t0 = NowNs();
          start.store(true, std::memory_order_release);
        });
    w.secs = static_cast<double>(NowNs() - t0) / 1e9;
    PacTreeStats s1 = tree->Stats();
    w.locks = s1.node_locks - s0.node_locks;
    w.epochs = s1.epoch_enters - s0.epoch_enters;
    w.read_bytes = (GlobalNvmStats() - n0).media_read_bytes;
    return w;
  };

  // --- point lookups: uniform and clustered runs ---------------------------
  const uint64_t per = scale.ops / threads / kRun * kRun;
  std::printf("%-10s %-8s %8s %10s %11s %12s\n", "phase", "mode", "Mops/s",
              "locks/key", "epochs/key", "rd_bytes/op");
  for (bool clustered : {false, true}) {
    const char* phase = clustered ? "clustered" : "uniform";
    Window w = run_phase(per, 777, 13, [&](Rng& rng, Pairs&) {
      uint64_t base = clustered ? rng.Uniform(scale.keys - kRun) : 0;
      for (uint64_t j = 0; j < kRun; ++j) {
        uint64_t v;
        tree->Lookup(Key::FromInt(clustered ? base + j : rng.Uniform(scale.keys)), &v);
      }
    });
    uint64_t ops = per * threads;
    double n = static_cast<double>(ops);
    double mops = n / 1e6 / w.secs;
    double locks_per_key = static_cast<double>(w.locks) / n;
    double epochs_per_key = static_cast<double>(w.epochs) / n;
    double read_bytes_per_op = static_cast<double>(w.read_bytes) / n;
    std::printf("%-10s %-8s %8.3f %10.3f %11.3f %12.1f\n", phase, "looped", mops,
                locks_per_key, epochs_per_key, read_bytes_per_op);
    std::fflush(stdout);
    BenchJsonAdd(JsonRow()
                     .Str("phase", phase)
                     .Str("mode", "looped")
                     .U64("threads", threads)
                     .U64("batch", kRun)
                     .U64("ops", ops)
                     .F64("mops", mops)
                     .F64("locks_per_key", locks_per_key)
                     .F64("epochs_per_key", epochs_per_key)
                     .F64("read_bytes_per_op", read_bytes_per_op));
  }

  // --- overlapping range scans ----------------------------------------------
  const uint64_t scan_count = 100;
  const uint64_t scan_per = std::max<uint64_t>(kRun, scale.ops / 64 / threads / kRun * kRun);
  Window w = run_phase(scan_per, 555, 7, [&](Rng& rng, Pairs& out) {
    uint64_t base = rng.Uniform(scale.keys - 4 * kRun - scan_count);
    for (uint64_t j = 0; j < kRun; ++j) {
      tree->Scan(Key::FromInt(base + 4 * j), scan_count, &out);
    }
  });
  uint64_t scans = scan_per * threads;
  double n = static_cast<double>(scans);
  double kscans = n / 1e3 / w.secs;
  double locks_per_scan = static_cast<double>(w.locks) / n;
  double read_bytes_per_scan = static_cast<double>(w.read_bytes) / n;
  std::printf("%-10s %-8s %8s %10s %12s\n", "phase", "mode", "Kscan/s",
              "locks/scan", "rd_bytes/scan");
  std::printf("%-10s %-8s %8.1f %10.3f %12.1f\n", "scan", "looped", kscans,
              locks_per_scan, read_bytes_per_scan);
  std::fflush(stdout);
  BenchJsonAdd(JsonRow()
                   .Str("phase", "scan_overlap")
                   .Str("mode", "looped")
                   .U64("threads", threads)
                   .U64("batch", kRun)
                   .U64("scan_count", scan_count)
                   .U64("ops", scans)
                   .F64("kscans", kscans)
                   .F64("locks_per_scan", locks_per_scan)
                   .F64("read_bytes_per_scan", read_bytes_per_scan));

  BenchJsonWrite("abl_readpath");
  tree.reset();
  EpochManager::Instance().DrainAll();
  PacTree::Destroy("ablreadpath");
  return 0;
}
