// End-to-end benchmark binary: runs one workload against PACTree in this
// process and prints its metrics. run.py builds and invokes it; README.md
// describes the workloads and every metric.
//
//   e2e_bench --workload NAME --seed N --seconds S --records N --setups K
//             --dir DIR [--trace FILE]
//
// The run is a fixed stream of the workload's kops * 1000 * S ops (see
// workload.h): a warm-up fifth, then kIntervals equal measured intervals.
//
// Output: one "name value unit" line per metric, then one JSON object
// {"correct", "attempted", "failed", "metrics"} as the last line. Exit code 1
// when any op or post-run check was wrong, 2 on a usage or setup error.
//
// The benchmark uses only public library calls, and owns its op streams and
// oracle (workload.h), so a library change cannot change the traffic.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/workload.h"
#include "src/common/histogram.h"
#include "src/nvm/config.h"
#include "src/nvm/stats.h"
#include "src/nvm/topology.h"
#include "src/pactree/pactree.h"
#include "src/runtime/maintenance.h"
#include "src/sync/epoch.h"

namespace e2e {
namespace {

using pactree::AssignWorkerThread;
using pactree::EpochGuard;
using pactree::EpochManager;
using pactree::MaintenanceRegistry;
using pactree::MaintenanceStats;
using pactree::NvmStatsSnapshot;
using pactree::PacTree;
using pactree::PacTreeOptions;
using pactree::PacTreeStats;
using pactree::PmemHeap;
using pactree::Status;

constexpr uint32_t kClients = 2;
constexpr const char* kTreeName = "e2e";
constexpr size_t kPoolSize = 1ULL << 30;  // per NUMA sub-pool, sparse
constexpr uint64_t kVerifySample = 10000;
constexpr uint64_t kVerifyInsertsPerClient = 500;
constexpr uint64_t kReplayOps = 100000;
constexpr uint64_t kSpanEvery = 100;
// Timing metrics are medians over this many equal op-count intervals of the
// measured run, which keeps one stall on a shared host from moving the
// run's result. A traced run traces the odd intervals only, so one run
// measures the tracing overhead under the same tree state.
constexpr uint32_t kIntervals = 10;
// Each client first runs this share of its measured op count, checked but
// untimed, to warm its modeled caches and the host's idle cores. On the
// 4-vCPU development VM the first second of a run after an idle spell ran at
// half speed, and the next one up to 10% slow.
constexpr uint64_t kWarmupDivisor = 5;

// Heaps in layer order; "value" is absent unless the workload uses the tier.
constexpr int kHeaps = 4;
constexpr const char* kHeapNames[kHeaps] = {"search", "data", "log", "value"};

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + ts.tv_nsec;
}

uint64_t CpuNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + ts.tv_nsec;
}

double RssAnonMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::strtod(line.c_str() + 8, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  uint64_t records = 0;
  uint32_t setups = 0;
  std::string dir;
  std::string trace;  // trace file; empty = untraced run
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool seeded = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
      seeded = true;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--records") {
      a->records = std::strtoull(v, nullptr, 10);
    } else if (k == "--setups") {
      a->setups = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (k == "--dir") {
      a->dir = v;
    } else if (k == "--trace") {
      a->trace = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seeded && !a->workload.empty() && !a->dir.empty() &&
         a->records > 0 && a->setups > 0 && a->seconds > 0;
}

// The emulated machine, every field set here rather than inherited from
// NvmConfig defaults, so a default change in the library cannot move it.
void PinMachine(const std::string& pool_dir) {
  pactree::NvmConfig& c = pactree::GlobalNvmConfig();
  c.emulate_latency = true;
  c.emulate_bandwidth = false;
  c.numa_nodes = 2;
  c.coherence = pactree::CoherenceProtocol::kSnoop;
  c.read_miss_ns = 300;
  c.seq_read_ns = 70;
  c.flush_ns = 90;
  c.fence_ns = 30;
  c.remote_multiplier = 1.8;
  c.directory_write_ns = 120;
  c.read_bw_mbps = 6000;
  c.write_bw_mbps = 2000;
  c.read_cache_lines = 4096;
  c.xpbuffer_entries = 16;
  c.pool_size = kPoolSize;
  // Heaps place their pool files by PAC_POOL_DIR, not NvmConfig::pool_dir.
  setenv("PAC_POOL_DIR", pool_dir.c_str(), 1);
}

// --- tree state snapshots -----------------------------------------------------

std::vector<PmemHeap*> HeapsOf(const PacTree& t) {
  return {t.search_heap(), t.data_heap(), t.log_heap(),
          t.value_store() != nullptr ? t.value_store()->heap() : nullptr};
}

struct Snapshot {
  uint64_t ns = 0;
  uint64_t cpu_ns = 0;
  NvmStatsSnapshot global;
  NvmStatsSnapshot heap[kHeaps];
  PacTreeStats tree;
  uint64_t art_restarts = 0;
  std::vector<MaintenanceStats> services;
};

Snapshot Take(PacTree& t) {
  Snapshot s;
  s.ns = NowNs();
  s.cpu_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  s.global = pactree::GlobalNvmStats();
  std::vector<PmemHeap*> heaps = HeapsOf(t);
  for (int h = 0; h < kHeaps; ++h) {
    if (heaps[h] != nullptr) {
      s.heap[h] = heaps[h]->MediaStats();
    }
  }
  s.tree = t.Stats();
  s.art_restarts = t.search_layer()->Stats().restarts;
  s.services = MaintenanceRegistry::Instance().StatsSnapshot();
  return s;
}

struct ServiceTotals {
  uint64_t passes = 0;
  uint64_t items = 0;
};

ServiceTotals SumServices(const std::vector<MaintenanceStats>& v, const std::string& prefix) {
  ServiceTotals t;
  for (const MaintenanceStats& s : v) {
    if (s.name.rfind(prefix, 0) == 0) {
      t.passes += s.passes;
      t.items += s.items;
    }
  }
  return t;
}

// --- tracing ------------------------------------------------------------------

struct Span {
  const char* name = "";
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  bool has_bytes = false;
  uint64_t read_bytes[kHeaps] = {};
  uint64_t write_bytes[kHeaps] = {};
};

// The calling thread's media bytes per heap (its LocalNvmCounters summed over
// each heap's sub-pools).
struct LocalBytes {
  uint64_t read[kHeaps] = {};
  uint64_t write[kHeaps] = {};
};

// --- the run ------------------------------------------------------------------

struct Ctx {
  const WorkloadSpec* w = nullptr;
  const Args* args = nullptr;
  PacTree* tree = nullptr;
  KeyUniverse keys{false, 0};
  std::unique_ptr<Zipf> zipf;
  Key max_loaded;  // largest loaded key; a short scan must reach it
  std::vector<uint16_t> pool_ids[kHeaps];
  bool tracing = false;
  uint64_t warmup_ops = 0;    // per client
  uint64_t interval_ops = 0;  // per client and interval
  // Start barrier, then the barrier between warm-up and the measured run,
  // where the main thread snapshots the counters.
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint32_t> warm{0};
  std::atomic<bool> measure{false};
};

LocalBytes ReadLocalBytes(const Ctx& c) {
  LocalBytes b;
  for (int h = 0; h < kHeaps; ++h) {
    for (uint16_t id : c.pool_ids[h]) {
      pactree::NvmThreadCounters& n = pactree::LocalNvmCounters(id);
      b.read[h] += n.media_read_bytes.load();
      b.write[h] += n.media_write_bytes.load();
    }
  }
  return b;
}

struct ClientResult {
  Histogram read[kIntervals];
  uint64_t interval_ns[kIntervals] = {};
  Histogram write;
  uint64_t attempted = 0;  // including the warm-up
  uint64_t failed = 0;
  uint64_t inserts = 0;
  uint64_t cpu_ns = 0;  // thread CPU time of the measured run
  std::vector<Span> spans;
  std::string first_error;
};

template <typename Flag, typename Value>
void SpinUntil(const std::atomic<Flag>& flag, Value value) {
  while (flag.load(std::memory_order_acquire) != value) {
    std::this_thread::yield();
  }
}

const char* OpName(const WorkloadSpec& w, bool write) {
  if (write) {
    switch (w.write) {
      case WriteOp::kUpdate:
        return "op.update";
      case WriteOp::kInsert:
        return "op.insert";
      case WriteOp::kInsertValue:
        return "op.insert_value";
      case WriteOp::kNone:
        break;
    }
    return "op.none";
  }
  switch (w.read) {
    case ReadOp::kLookup:
      return "op.lookup";
    case ReadOp::kScan:
      return "op.scan";
    case ReadOp::kLookupValue:
      return "op.lookup_value";
  }
  return "op.none";
}

// A scan from live record |start| must return it first, then strictly
// ascending keys with matching values, and fall short of |len| only when it
// ran past the largest loaded key.
bool ScanCorrect(const Ctx& c, const Key& start, uint32_t len, size_t n,
                 const std::vector<std::pair<Key, uint64_t>>& out) {
  if (n != out.size() || n == 0 || n > len || out[0].first != start) {
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    uint64_t index = 0;
    if (!c.keys.IndexOf(out[i].first, &index) || !WordMatches(out[i].second, index)) {
      return false;
    }
    if (i > 0 && !(out[i - 1].first < out[i].first)) {
      return false;
    }
  }
  return n == len || out.back().first >= c.max_loaded;
}

void RunClient(Ctx& c, uint32_t t, ClientResult* r) {
  AssignWorkerThread(t);
  const WorkloadSpec& w = *c.w;
  OpStream stream(w, c.zipf.get(), c.args->records, c.args->seed, t, kClients);
  std::vector<std::pair<Key, uint64_t>> scan;
  std::string put;
  std::string got;
  c.ready.fetch_add(1);
  SpinUntil(c.go, true);
  const uint64_t total = c.warmup_ops + kIntervals * c.interval_ops;
  uint64_t cpu0 = 0;
  uint64_t interval_start = 0;
  for (uint64_t i = 0; i < total; ++i) {
    if (i == c.warmup_ops) {
      c.warm.fetch_add(1);
      SpinUntil(c.measure, true);
      cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
      interval_start = NowNs();
    }
    const bool measured = i >= c.warmup_ops;
    const uint64_t j = measured ? i - c.warmup_ops : 0;  // index in the measured run
    const uint32_t k = static_cast<uint32_t>(j / c.interval_ops);
    Op op = stream.Next();
    Key key = c.keys.At(op.index);
    if (op.write && w.write == WriteOp::kInsertValue) {
      MakeValue(op.index, op.version, &put);
    }
    const bool span = c.tracing && measured && k % 2 == 1 && j % kSpanEvery == 0;
    LocalBytes before;
    if (span) {
      before = ReadLocalBytes(c);
    }

    Status s = Status::kOk;
    size_t n = 0;
    uint64_t word = 0;
    const uint64_t t0 = NowNs();
    if (!op.write) {
      switch (w.read) {
        case ReadOp::kLookup:
          s = c.tree->Lookup(key, &word);
          break;
        case ReadOp::kScan:
          n = c.tree->Scan(key, op.scan_len, &scan);
          break;
        case ReadOp::kLookupValue:
          s = c.tree->LookupValue(key, &got);
          break;
      }
    } else {
      switch (w.write) {
        case WriteOp::kUpdate:
          s = c.tree->Update(key, WordValue(op.index, op.version));
          break;
        case WriteOp::kInsert:
          s = c.tree->Insert(key, WordValue(op.index, 0));
          break;
        case WriteOp::kInsertValue:
          s = c.tree->InsertValue(key, put);
          break;
        case WriteOp::kNone:
          break;
      }
    }
    const uint64_t t1 = NowNs();

    r->attempted++;
    if (measured) {
      if (op.write) {
        r->write.Record(t1 - t0);
      } else {
        r->read[k].Record(t1 - t0);
      }
      if ((j + 1) % c.interval_ops == 0) {
        r->interval_ns[k] = t1 - interval_start;
        interval_start = t1;
      }
    }
    if (span) {
      LocalBytes after = ReadLocalBytes(c);
      Span sp;
      sp.name = OpName(w, op.write);
      sp.tid = t + 1;
      sp.start_ns = t0;
      sp.dur_ns = t1 - t0;
      sp.has_bytes = true;
      for (int h = 0; h < kHeaps; ++h) {
        sp.read_bytes[h] = after.read[h] - before.read[h];
        sp.write_bytes[h] = after.write[h] - before.write[h];
      }
      r->spans.push_back(sp);
    }

    bool ok = false;
    if (!op.write) {
      switch (w.read) {
        case ReadOp::kLookup:
          ok = s == Status::kOk && WordMatches(word, op.index);
          break;
        case ReadOp::kScan:
          ok = ScanCorrect(c, key, op.scan_len, n, scan);
          break;
        case ReadOp::kLookupValue:
          ok = s == Status::kOk && BytesMatch(got, op.index);
          break;
      }
    } else {
      // Updates and inserts of fresh records report kOk; InsertValue
      // overwrites a loaded record, so it reports kExists.
      ok = s == (w.write == WriteOp::kInsertValue ? Status::kExists : Status::kOk);
    }
    if (!ok) {
      if (r->failed++ == 0) {
        r->first_error = std::string(OpName(w, op.write)) + " on record " +
                         std::to_string(op.index) + " returned " +
                         pactree::StatusString(s);
      }
    }
  }
  r->cpu_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  r->inserts = stream.inserts();
}

// Open, load |records| single-threaded, drain. Runs on a fresh thread so the
// loader's modeled cache starts cold every time.
std::unique_ptr<PacTree> Setup(Ctx& c, double* seconds, Span* span) {
  PacTree::Destroy(kTreeName);
  std::unique_ptr<PacTree> tree;
  bool ok = true;
  std::thread loader([&] {
    AssignWorkerThread(0);
    const uint64_t t0 = NowNs();
    PacTreeOptions o;
    o.name = kTreeName;
    o.pool_size = kPoolSize;
    o.value_storage = c.w->value_tier;
    tree = PacTree::Open(o);
    if (tree == nullptr) {
      ok = false;
      return;
    }
    std::string v;
    Key max_key;
    for (uint64_t i = 0; i < c.args->records && ok; ++i) {
      Key k = c.keys.At(i);
      Status s;
      if (c.w->value_tier) {
        MakeValue(i, 0, &v);
        s = tree->InsertValue(k, v);
      } else {
        s = tree->Insert(k, WordValue(i, 0));
      }
      ok = s == Status::kOk;
      max_key = std::max(max_key, k);
    }
    tree->DrainAbsorb();
    tree->DrainSmoLogs();
    const uint64_t t1 = NowNs();
    *seconds = static_cast<double>(t1 - t0) / 1e9;
    *span = Span{"phase.setup", 0, t0, t1 - t0};
    c.max_loaded = max_key;
  });
  loader.join();
  if (!ok) {
    std::fprintf(stderr, "setup failed: could not open or load the tree in %s\n",
                 c.args->dir.c_str());
    return nullptr;
  }
  return tree;
}

// Writes the pool files' dirty page-cache pages back. Run between set-up and
// the run: the emulated NVM is a file mapping, and without this the run's
// first ~30 s on ext4 were up to 20% slower on update-zipf-int while the
// set-up's pages were still dirty.
void FlushPools(const std::string& dir) {
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const int fd = ::open(e.path().c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
}

void Teardown(std::unique_ptr<PacTree> tree) {
  tree.reset();
  EpochManager::Instance().DrainAll();
  PacTree::Destroy(kTreeName);
}

// Checks an untimed sample after the run: 10k loaded records plus some of
// each client's inserts, the live-key count, the tree's invariants, and that
// nothing went through the (default-off) absorb buffer.
bool Verify(const Ctx& c, uint64_t live_keys, const std::vector<ClientResult>& clients,
            std::string* why) {
  std::vector<uint64_t> sample;
  Rng rng(SplitMix64(c.args->seed ^ 0x7e57ULL));
  for (uint64_t i = 0; i < std::min(kVerifySample, c.args->records); ++i) {
    sample.push_back(rng.Uniform(c.args->records));
  }
  for (uint32_t t = 0; t < kClients; ++t) {
    for (uint64_t j = 0; j < std::min(kVerifyInsertsPerClient, clients[t].inserts); ++j) {
      sample.push_back(c.args->records + j * kClients + t);
    }
  }
  std::string got;
  for (uint64_t index : sample) {
    Key k = c.keys.At(index);
    bool ok;
    if (c.w->value_tier) {
      ok = c.tree->LookupValue(k, &got) == Status::kOk && BytesMatch(got, index);
    } else {
      uint64_t word = 0;
      ok = c.tree->Lookup(k, &word) == Status::kOk && WordMatches(word, index);
    }
    if (!ok) {
      *why = "verification lookup of record " + std::to_string(index) + " failed";
      return false;
    }
  }
  if (uint64_t size = c.tree->Size(); size != live_keys) {
    *why = "tree holds " + std::to_string(size) + " keys, expected " +
           std::to_string(live_keys);
    return false;
  }
  if (!c.tree->CheckInvariants(why)) {
    *why = "CheckInvariants: " + *why;
    return false;
  }
  if (c.tree->Stats().absorb.staged != 0) {
    *why = "absorb staged ops although absorb is off";
    return false;
  }
  return true;
}

// Replays client 0's key stream through PdlArt::LookupFloor on a fresh
// thread. The modeled cache is per (thread, pool), so the search heap sees
// the same miss sequence it saw under client 0.
Histogram ReplayFloor(Ctx& c, uint64_t n, std::vector<Span>* spans) {
  Histogram h;
  std::thread th([&] {
    AssignWorkerThread(0);
    OpStream stream(*c.w, c.zipf.get(), c.args->records, c.args->seed, 0, kClients);
    Key found;
    uint64_t value = 0;
    for (uint64_t i = 0; i < n; ++i) {
      Key key = c.keys.At(stream.Next().index);
      const uint64_t t0 = NowNs();
      c.tree->search_layer()->LookupFloor(key, &found, &value);
      const uint64_t t1 = NowNs();
      h.Record(t1 - t0);
      if (i % kSpanEvery == 0) {
        spans->push_back(Span{"art.floor", 3, t0, t1 - t0});
      }
    }
  });
  th.join();
  return h;
}

// Resolves the handles of client 0's first |n| value lookups through the
// index (untimed), then times ValueStorage::Read over them on a fresh thread.
Histogram ReplayValueRead(Ctx& c, uint64_t n, std::vector<Span>* spans, uint64_t* errors) {
  std::vector<std::pair<uint64_t, uint64_t>> handles;  // (record, handle)
  OpStream stream(*c.w, c.zipf.get(), c.args->records, c.args->seed, 0, kClients);
  for (uint64_t i = 0; i < n; ++i) {
    Op op = stream.Next();
    uint64_t handle = 0;
    if (!op.write && c.tree->Lookup(c.keys.At(op.index), &handle) == Status::kOk) {
      handles.emplace_back(op.index, handle);
    }
  }
  Histogram h;
  std::thread th([&] {
    AssignWorkerThread(0);
    std::string got;
    for (size_t i = 0; i < handles.size(); ++i) {
      const auto& [index, handle] = handles[i];
      Key key = c.keys.At(index);
      const uint64_t t0 = NowNs();
      Status s;
      {
        EpochGuard guard;
        s = c.tree->value_store()->Read(handle, key, &got);
      }
      const uint64_t t1 = NowNs();
      if (s == Status::kRetry) {
        continue;  // GC relocated the record after the handle was resolved
      }
      if (s != Status::kOk || !BytesMatch(got, index)) {
        ++*errors;
      }
      h.Record(t1 - t0);
      if (i % kSpanEvery == 0) {
        spans->push_back(Span{"value.read", 4, t0, t1 - t0});
      }
    }
  });
  th.join();
  return h;
}

// --- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void WriteTrace(const std::string& path, uint64_t t_base, const std::vector<Span>& spans,
                const std::vector<MaintenanceStats>& services, uint64_t end_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"main\"}}");
  for (const Span& s : spans) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f",
                 s.name, s.tid, static_cast<double>(s.start_ns - t_base) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3);
    if (s.has_bytes) {
      std::fprintf(f, ",\"args\":{");
      for (int h = 0; h < kHeaps; ++h) {
        std::fprintf(f, "%s\"%s\":{\"read_bytes\":%llu,\"write_bytes\":%llu}",
                     h == 0 ? "" : ",", kHeapNames[h],
                     static_cast<unsigned long long>(s.read_bytes[h]),
                     static_cast<unsigned long long>(s.write_bytes[h]));
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f,
               ",\n{\"name\":\"maintenance\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,"
               "\"tid\":0,\"ts\":%.3f,\"args\":{",
               static_cast<double>(end_ns - t_base) / 1e3);
  for (size_t i = 0; i < services.size(); ++i) {
    const MaintenanceStats& s = services[i];
    std::fprintf(f,
                 "%s\"%s\":{\"passes\":%llu,\"items\":%llu,\"idle_wakeups\":%llu,"
                 "\"pass_p50_ns\":%llu,\"pass_p99_ns\":%llu}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<unsigned long long>(s.passes),
                 static_cast<unsigned long long>(s.items),
                 static_cast<unsigned long long>(s.idle_wakeups),
                 static_cast<unsigned long long>(s.pass_latency.Percentile(50)),
                 static_cast<unsigned long long>(s.pass_latency.Percentile(99)));
  }
  std::fprintf(f, "}}\n]}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S --records N "
                 "--setups K --dir DIR [--trace FILE]\n");
    return 2;
  }
  const WorkloadSpec* w = nullptr;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) {
      w = &spec;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const uint64_t t_base = NowNs();
  PinMachine(args.dir);

  Ctx c;
  c.w = w;
  c.args = &args;
  c.keys = KeyUniverse(w->string_keys, args.seed);
  if (w->zipf) {
    c.zipf = std::make_unique<Zipf>(args.records, kZipfTheta);
  }
  c.tracing = !args.trace.empty();

  // Set up |setups| times and keep the last tree; setup_s is the median.
  std::vector<double> setup_times;
  std::vector<Span> spans;
  std::unique_ptr<PacTree> tree;
  for (uint32_t k = 0; k < args.setups; ++k) {
    if (tree != nullptr) {
      Teardown(std::move(tree));
    }
    double secs = 0;
    Span sp;
    tree = Setup(c, &secs, &sp);
    if (tree == nullptr) {
      return 2;
    }
    setup_times.push_back(secs);
    spans.push_back(sp);
  }
  c.tree = tree.get();
  FlushPools(args.dir);
  std::vector<PmemHeap*> heaps = HeapsOf(*tree);
  for (int h = 0; h < kHeaps; ++h) {
    for (uint32_t p = 0; heaps[h] != nullptr && p < heaps[h]->pool_count(); ++p) {
      c.pool_ids[h].push_back(heaps[h]->pool(p)->pool_id());
    }
  }

  // The run: kClients closed-loop clients, each sending its next op when the
  // previous one returns, through a fixed stream of ops: warm-up, then
  // kIntervals measured intervals.
  c.interval_ops = std::max<uint64_t>(
      1, static_cast<uint64_t>(w->kops * 1e3 * args.seconds) / (kClients * kIntervals));
  c.warmup_ops = kIntervals * c.interval_ops / kWarmupDivisor;
  std::vector<ClientResult> clients(kClients);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kClients; ++t) {
    threads.emplace_back(RunClient, std::ref(c), t, &clients[t]);
  }
  SpinUntil(c.ready, kClients);
  const uint64_t start_ns = NowNs();
  c.go.store(true, std::memory_order_release);
  SpinUntil(c.warm, kClients);
  Snapshot before = Take(*tree);
  c.measure.store(true, std::memory_order_release);
  for (std::thread& th : threads) {
    th.join();
  }
  Snapshot after = Take(*tree);
  const double dram_mb = RssAnonMb();
  spans.push_back(Span{"phase.warmup", 0, start_ns, before.ns - start_ns});
  spans.push_back(Span{"phase.run", 0, before.ns, after.ns - before.ns});

  Histogram write;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t inserts = 0;
  uint64_t client_cpu = 0;
  std::string first_error;
  for (ClientResult& r : clients) {
    write.Merge(r.write);
    attempted += r.attempted;
    failed += r.failed;
    inserts += r.inserts;
    client_cpu += r.cpu_ns;
    if (first_error.empty()) {
      first_error = r.first_error;
    }
    spans.insert(spans.end(), r.spans.begin(), r.spans.end());
  }
  const uint64_t ops = kClients * kIntervals * c.interval_ops;  // measured
  const double wall_s = static_cast<double>(after.ns - before.ns) / 1e9;
  const double dops = static_cast<double>(ops);

  // Timing metrics: the median over the run's intervals. An interval's
  // throughput is the sum of the clients' rates over it.
  Histogram read;
  std::vector<double> kops;
  std::vector<double> p50;
  std::vector<double> p99;
  for (uint32_t k = 0; k < kIntervals; ++k) {
    Histogram h;
    double rate = 0;
    for (const ClientResult& r : clients) {
      h.Merge(r.read[k]);
      rate += static_cast<double>(c.interval_ops) / static_cast<double>(r.interval_ns[k]);
    }
    read.Merge(h);
    kops.push_back(rate * 1e6);
    p50.push_back(h.Percentile(50) / 1e3);
    p99.push_back(h.Percentile(99) / 1e3);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.size() % 2 == 1 ? v[v.size() / 2] : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
  };
  std::printf("# interval kops/s:");
  for (double x : kops) {
    std::printf(" %.1f", x);
  }
  std::printf("\n");
  const uint64_t live_keys = args.records + inserts;

  tree->DrainAbsorb();
  tree->DrainSmoLogs();
  std::string why;
  bool correct = failed == 0;
  if (!correct) {
    why = std::to_string(failed) + " ops failed; first: " + first_error;
  } else {
    correct = Verify(c, live_keys, clients, &why);
  }

  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, std::string unit, std::string note = "") {
    m.push_back({std::move(name), value, std::move(unit), std::move(note)});
  };
  auto samples = [](const Histogram& h) { return "n=" + std::to_string(h.count()); };
  NvmStatsSnapshot g = after.global - before.global;
  uint64_t live_bytes[kHeaps] = {};
  uint64_t total_live = 0;
  for (int h = 0; h < kHeaps; ++h) {
    for (uint32_t p = 0; heaps[h] != nullptr && p < heaps[h]->pool_count(); ++p) {
      live_bytes[h] += heaps[h]->pool(p)->LiveBytes();
    }
    total_live += live_bytes[h];
  }
  const std::string per_interval =
      "median of " + std::to_string(kIntervals) + " intervals, " + samples(read);

  add("throughput_kops", median(kops), "kops/s", per_interval);
  add("op.read_p50_us", median(p50), "us", per_interval);
  add("op.read_p99_us", median(p99), "us", per_interval);
  add("media_read_bytes_per_op", static_cast<double>(g.media_read_bytes) / dops, "B/op");
  add("media_write_bytes_per_op", static_cast<double>(g.media_write_bytes) / dops, "B/op");
  add("space_bytes_per_key",
      static_cast<double>(total_live) / static_cast<double>(live_keys), "B/key");
  add("dram_mb", dram_mb, "MB");
  add("setup_s", median(setup_times), "s",
      "median of " + std::to_string(setup_times.size()));
  add("error_rate", static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  add("op.write_p50_us", write.Percentile(50) / 1e3, "us", samples(write));
  add("op.write_p99_us", write.Percentile(99) / 1e3, "us", samples(write));

  if (c.tracing) {
    NvmStatsSnapshot d[kHeaps];
    for (int h = 0; h < kHeaps; ++h) {
      d[h] = after.heap[h] - before.heap[h];
    }
    const NvmStatsSnapshot& art = d[0];
    const NvmStatsSnapshot& data = d[1];
    const NvmStatsSnapshot& log = d[2];
    const NvmStatsSnapshot& val = d[3];
    const PacTreeStats& ta = after.tree;
    const PacTreeStats& tb = before.tree;
    auto per_op = [dops](uint64_t v) { return static_cast<double>(v) / dops; };
    auto ratio = [](uint64_t num, uint64_t den) {
      return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
    };

    const uint64_t replay_n = std::min<uint64_t>(kReplayOps, clients[0].attempted);
    const uint64_t floor_t0 = NowNs();
    Histogram floor = ReplayFloor(c, replay_n, &spans);
    spans.push_back(Span{"replay.art.floor", 3, floor_t0, NowNs() - floor_t0});
    Histogram vread;
    uint64_t vread_errors = 0;
    if (w->value_tier) {
      const uint64_t t0 = NowNs();
      vread = ReplayValueRead(c, replay_n, &spans, &vread_errors);
      spans.push_back(Span{"replay.value.read", 4, t0, NowNs() - t0});
      if (vread_errors != 0 && correct) {
        correct = false;
        why = std::to_string(vread_errors) + " value-read replays returned wrong bytes";
      }
    }

    add("art.read_bytes_per_op", per_op(art.media_read_bytes), "B/op");
    add("art.read_misses_per_op", per_op(art.read_misses), "1/op");
    add("art.write_bytes_per_op", per_op(art.media_write_bytes), "B/op");
    add("art.floor_p50_ns", floor.Percentile(50), "ns", "replay " + samples(floor));
    add("art.restarts_per_op", per_op(after.art_restarts - before.art_restarts), "1/op");

    uint64_t hops = 0;
    uint64_t lookups = 0;
    for (int i = 0; i < pactree::kHopHistBuckets; ++i) {
      const uint64_t n = ta.hop_hist[i] - tb.hop_hist[i];
      hops += n * static_cast<uint64_t>(i);
      lookups += n;
    }
    double self_ns = 0;
    std::string self_note = "estimate: no point lookups";
    if (w->read != ReadOp::kScan) {
      self_ns = read.Percentile(50) - floor.Percentile(50) - vread.Percentile(50);
      self_note = w->value_tier ? "estimate: op.lookup_value p50 - art.floor p50 - value.read p50"
                                : "estimate: op.lookup p50 - art.floor p50";
    }
    add("pactree.data_read_bytes_per_op", per_op(data.media_read_bytes), "B/op");
    add("pactree.data_write_bytes_per_op", per_op(data.media_write_bytes), "B/op");
    add("pactree.data_read_misses_per_op", per_op(data.read_misses), "1/op");
    add("pactree.flushes_per_op", per_op(data.flushes), "1/op");
    add("pactree.lookup_self_p50_ns", self_ns, "ns", self_note);
    add("pactree.hops_per_lookup", ratio(hops, lookups), "hops");
    add("pactree.direct_lookup_ratio",
        ratio(ta.hop_hist[0] - tb.hop_hist[0], lookups), "ratio");
    add("pactree.retries_per_op", per_op(ta.retries - tb.retries), "1/op");
    add("pactree.node_locks_per_op", per_op(ta.node_locks - tb.node_locks), "1/op");
    add("pactree.epoch_enters_per_op", per_op(ta.epoch_enters - tb.epoch_enters), "1/op");
    add("pactree.splits_per_kop", per_op(ta.splits - tb.splits) * 1e3, "1/kop");
    add("pactree.arena_compactions_per_kop",
        per_op(ta.arena_compactions - tb.arena_compactions) * 1e3, "1/kop");

    const std::string updaters = std::string(kTreeName) + "/updater";
    ServiceTotals ub = SumServices(before.services, updaters);
    ServiceTotals ua = SumServices(after.services, updaters);
    pactree::LatencyHistogram pass_lat;
    for (const MaintenanceStats& s : after.services) {
      if (s.name.rfind(updaters, 0) == 0) {
        pass_lat.Merge(s.pass_latency);
      }
    }
    add("smo.log_write_bytes_per_op", per_op(log.media_write_bytes), "B/op");
    add("pactree.smo_ring_full_waits",
        static_cast<double>(ta.smo_ring_full_waits - tb.smo_ring_full_waits), "count");
    add("runtime.updater_items_per_pass", ratio(ua.items - ub.items, ua.passes - ub.passes),
        "items");
    add("runtime.updater_pass_p99_us", static_cast<double>(pass_lat.Percentile(99)) / 1e3,
        "us", "tree lifetime: setup and run");
    const uint64_t cpu = after.cpu_ns - before.cpu_ns;
    add("runtime.bg_cpu_share",
        static_cast<double>(cpu > client_cpu ? cpu - client_cpu : 0) / 1e9 / wall_s, "cores");
    add("sync.epoch_reclaim_passes",
        static_cast<double>(SumServices(after.services, "epoch/reclaim").passes -
                            SumServices(before.services, "epoch/reclaim").passes),
        "count");

    uint64_t allocs = 0;
    for (int h = 0; h < kHeaps; ++h) {
      allocs += d[h].alloc_ops;
    }
    add("pmem.allocs_per_op", per_op(allocs), "1/op");
    for (int h = 0; h < kHeaps; ++h) {
      add(std::string("pmem.live_bytes_per_key.") + kHeapNames[h],
          static_cast<double>(live_bytes[h]) / static_cast<double>(live_keys), "B/key");
    }

    add("value.read_bytes_per_op", per_op(val.media_read_bytes), "B/op");
    add("value.write_bytes_per_op", per_op(val.media_write_bytes), "B/op");
    const uint64_t hits = ta.value_cache.hits - tb.value_cache.hits;
    add("value.cache_hit_ratio", ratio(hits, hits + ta.value_cache.misses - tb.value_cache.misses),
        "ratio");
    add("value.read_p50_ns", vread.Percentile(50), "ns", "replay " + samples(vread));
    add("value.gc_relocated_bytes_per_op",
        per_op(ta.value.gc_bytes_relocated - tb.value.gc_bytes_relocated), "B/op");
    add("value.space_amp", ratio(ta.value.used_bytes, ta.value.live_bytes), "ratio");
    add("value.read_retries_per_op", per_op(ta.value.read_retries - tb.value.read_retries),
        "1/op");

    add("nvm.read_hit_ratio", ratio(g.read_hits, g.read_hits + g.read_misses), "ratio");
    add("nvm.prefetches_per_op", per_op(g.read_prefetches), "1/op");
    add("nvm.fences_per_op", per_op(g.fences), "1/op");
    add("nvm.remote_read_ratio", ratio(g.remote_reads, g.read_misses), "ratio");

    // Traced (odd) intervals against untraced (even) intervals of the run.
    std::vector<double> traced_kops;
    std::vector<double> untraced_kops;
    for (uint32_t k = 0; k < kIntervals; ++k) {
      (k % 2 == 1 ? traced_kops : untraced_kops).push_back(kops[k]);
    }
    add("trace_overhead", median(traced_kops) / median(untraced_kops), "ratio",
        "traced over untraced throughput, interval medians");

    uint64_t sum_read = 0;
    uint64_t sum_write = 0;
    for (int h = 0; h < kHeaps; ++h) {
      sum_read += d[h].media_read_bytes;
      sum_write += d[h].media_write_bytes;
    }
    std::printf("# layer sums: read %llu of %llu B, write %llu of %llu B\n",
                static_cast<unsigned long long>(sum_read),
                static_cast<unsigned long long>(g.media_read_bytes),
                static_cast<unsigned long long>(sum_write),
                static_cast<unsigned long long>(g.media_write_bytes));
    WriteTrace(args.trace, t_base, spans, MaintenanceRegistry::Instance().StatsSnapshot(),
               NowNs());
    std::printf("# trace: %s (%zu spans)\n", args.trace.c_str(), spans.size());
  }
  Teardown(std::move(tree));

  std::printf("# workload %s seed %llu: %llu ops measured in %.3f s, %llu attempted, "
              "%llu failed%s%s\n",
              w->name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(ops), wall_s,
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), correct ? "" : "; INCORRECT: ",
              correct ? "" : why.c_str());
  for (const Metric& x : m) {
    std::printf("%s %.9g %s%s%s\n", x.name.c_str(), x.value, x.unit.c_str(),
                x.note.empty() ? "" : "  # ", x.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m[i].name.c_str(), m[i].value, m[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
