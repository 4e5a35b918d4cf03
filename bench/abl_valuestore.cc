// Ablation: tiered value storage (DESIGN.md §6h) -- DRAM hot-value cache vs
// always dereferencing the value log.
//
// One tree per mode, identical 4-KiB-value load and identical read sequences.
// Cache-on serves hot values from the sharded DRAM LRU (a hit skips the
// NVM-modeled log dereference -- 16 XPLines per value -- entirely); cache-off
// (value_cache_bytes=0) pays the log read every time, less the ~1 MiB
// per-thread modeled CPU cache that absorbs only the very hottest lines.
//
// Two read phases per mode, same seeds in both modes:
//   zipf  -- theta-0.99 Zipfian over the whole keyspace (the blended
//            workload number; index descent is a large constant in both
//            modes, so the gap here understates the resolution gap);
//   hot   -- uniform reads over the 4096 hottest keys (16 MB of values:
//            cache-resident once warm, 16x the modeled CPU-cache reach).
//            This phase is the acceptance metric -- cache-HIT lookups vs
//            always-dereferencing lookups of the same keys: >= 2x.
//
// A short unmeasured warm pass precedes each measured phase, so both compare
// steady states, not promotion cost.
#include <atomic>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/nvm/stats.h"
#include "src/pactree/pactree.h"
#include "src/runtime/workers.h"
#include "src/workload/zipf.h"

using namespace pactree;

namespace {

struct PhaseResult {
  double mops = 0;
  uint64_t ops = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t read_retries = 0;
  double read_bytes_per_op = 0;  // media reads, every pool and thread
  uint64_t cache_resident_bytes = 0;  // the cache's DRAM at the phase's end (0: off)
};

struct ModeResult {
  PhaseResult zipf;
  PhaseResult hot;
};

constexpr uint64_t kHotKeys = 4096;

}  // namespace

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  Banner("Ablation", "tiered value storage: hot-value cache vs log dereference");
  BenchScale scale = ReadScale(200'000, 400'000, "4");
  uint32_t threads = scale.threads.back();
  const size_t vlen = 4096;

  auto run_mode = [&](bool cached) {
    ModeResult res;
    ConfigureNvmMachine();  // latency emulation on: log dereferences stall
    PacTree::Destroy("ablvalue");
    PacTreeOptions o;
    o.name = "ablvalue";
    o.pool_id_base = 470;
    o.pool_size = std::max<size_t>(512ULL << 20, scale.keys * vlen * 4);
    // DRAM search layer: the key-index descent costs the same (small) amount
    // in both modes, so the phases lean toward value RESOLUTION -- DRAM cache
    // hit vs NVM log dereference -- instead of tree traversal.
    o.dram_search_layer = true;
    o.value_storage = true;
    o.value_cache_bytes = cached ? (64ULL << 20) : 0;
    auto tree = PacTree::Open(o);
    if (tree == nullptr) {
      return res;
    }

    RunWorkerThreads(threads, [&](uint32_t t) {
      AssignWorkerThread(t);
      std::string v(vlen, static_cast<char>('a' + t));
      uint64_t from = scale.keys * t / threads;
      uint64_t to = scale.keys * (t + 1) / threads;
      for (uint64_t i = from; i < to; ++i) {
        tree->InsertValue(Key::FromInt(i), v);
      }
    });
    tree->DrainSmoLogs();

    // One timed pass: every worker runs |per_thread| reads picked by |pick|.
    auto read_pass = [&](uint64_t per_thread, uint64_t seed_salt,
                         auto&& pick) {
      std::atomic<bool> start{false};
      uint64_t t0 = 0;
      RunWorkerThreads(
          threads,
          [&](uint32_t t) {
            AssignWorkerThread(t);
            Rng rng(911 * t + seed_salt);
            std::string out;
            while (!start.load(std::memory_order_acquire)) {
              CpuRelax();
            }
            for (uint64_t i = 0; i < per_thread; ++i) {
              tree->LookupValue(Key::FromInt(pick(rng)), &out);
            }
          },
          [&] {
            t0 = NowNs();
            start.store(true, std::memory_order_release);
          });
      return static_cast<double>(NowNs() - t0) / 1e9;
    };

    auto measure = [&](uint64_t seed_salt, auto&& pick) {
      PhaseResult r;
      read_pass(scale.ops / threads / 4, seed_salt + 1, pick);  // warm
      PacTreeStats s0 = tree->Stats();
      NvmStatsSnapshot n0 = GlobalNvmStats();
      double secs = read_pass(scale.ops / threads, seed_salt, pick);
      PacTreeStats s1 = tree->Stats();
      r.ops = scale.ops / threads * threads;
      r.read_bytes_per_op = static_cast<double>((GlobalNvmStats() - n0).media_read_bytes) /
                            static_cast<double>(r.ops);
      r.mops = static_cast<double>(r.ops) / 1e6 / secs;
      r.cache_hits = s1.value_cache.hits - s0.value_cache.hits;
      r.cache_misses = s1.value_cache.misses - s0.value_cache.misses;
      r.read_retries = s1.value.read_retries - s0.value.read_retries;
      r.cache_resident_bytes = s1.value_cache.resident_bytes;
      return r;
    };

    // Both modes replay the same sequences (fixed seeds per phase).
    ZipfGenerator zipf(scale.keys, 0.99);
    res.zipf = measure(13, [&](Rng& rng) { return zipf.Next(rng); });
    const uint64_t hot = std::min<uint64_t>(kHotKeys, scale.keys);
    res.hot = measure(29, [&](Rng& rng) { return rng.Uniform(hot); });

    tree.reset();
    EpochManager::Instance().DrainAll();
    PacTree::Destroy("ablvalue");
    return res;
  };

  std::printf("%-6s %-8s %8s %12s %12s %10s %13s %10s %10s\n", "phase", "mode",
              "Mops/s", "cache_hits", "cache_miss", "hit_rate", "read_retries", "rd_B/op",
              "cache_MiB");
  auto print = [&](const char* phase, const char* mode, const PhaseResult& r) {
    double probes = static_cast<double>(r.cache_hits + r.cache_misses);
    double hit_rate = probes == 0 ? 0.0 : static_cast<double>(r.cache_hits) / probes;
    std::printf("%-6s %-8s %8.3f %12llu %12llu %9.1f%% %13llu %10.1f %10.2f\n", phase,
                mode, r.mops, static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.cache_misses), hit_rate * 100,
                static_cast<unsigned long long>(r.read_retries), r.read_bytes_per_op,
                static_cast<double>(r.cache_resident_bytes) / (1 << 20));
    std::fflush(stdout);
    BenchJsonAdd(JsonRow()
                     .Str("phase", phase)
                     .Str("mode", mode)
                     .U64("threads", threads)
                     .U64("keys", scale.keys)
                     .U64("ops", r.ops)
                     .U64("value_size", vlen)
                     .F64("mops", r.mops)
                     .U64("cache_hits", r.cache_hits)
                     .U64("cache_misses", r.cache_misses)
                     .F64("hit_rate", hit_rate)
                     .U64("read_retries", r.read_retries)
                     .F64("read_bytes_per_op", r.read_bytes_per_op)
                     .U64("cache_resident_bytes", r.cache_resident_bytes));
  };

  ModeResult uncached = run_mode(/*cached=*/false);
  print("zipf", "deref", uncached.zipf);
  print("hot", "deref", uncached.hot);
  ModeResult cached = run_mode(/*cached=*/true);
  print("zipf", "cached", cached.zipf);
  print("hot", "cached", cached.hot);

  double zipf_speedup =
      uncached.zipf.mops == 0 ? 0 : cached.zipf.mops / uncached.zipf.mops;
  double hot_speedup =
      uncached.hot.mops == 0 ? 0 : cached.hot.mops / uncached.hot.mops;
  std::printf("# zipf (blended) speedup: %.2fx\n", zipf_speedup);
  std::printf("# hot-set cache-hit speedup: %.2fx (acceptance: >= 2x vs "
              "always-dereferencing)\n", hot_speedup);
  BenchJsonAdd(JsonRow()
                   .Str("phase", "summary")
                   .F64("zipf_speedup", zipf_speedup)
                   .F64("hot_speedup", hot_speedup));
  BenchJsonWrite("abl_valuestore");
  return hot_speedup >= 2.0 ? 0 : 1;
}
