// Exhaustive allocation-failure sweeps (the robustness analogue of
// crash_sweep_test.cc): pool exhaustion as a first-class outcome.
//
// For each scenario (one write operation over a known base state) the harness
// first runs a count-only fail-point window to discover N, the number of
// allocation events the operation performs, then re-runs the scenario once per
// K in [1, N] with the K-th allocation forced to fail. Every K must leave the
// tree invariant-clean: the operation either completes anyway (the failed
// allocation was absorbable -- e.g. a deferred search-layer update) or returns
// kFull after a clean unwind, acknowledged keys stay served, a disarmed retry
// succeeds, and a clean close + reopen recovers with zero checker violations.
// The crash variant freezes the shadow heap at the exact failed-allocation
// instant (via the fail-point trigger hook) and recovers from that image.
//
// Scenarios: insert that splits a full data node (swept over both the
// "pmem/alloc" and "pmem/alloc_to" sites), crash-at-failed-alloc, and the
// value-log append and GC kFull unwinds. A final integration test genuinely
// fills a tiny pool: writes fail fast with kFull in read-only degraded mode while
// concurrent lookups and scans keep serving, deletes shrink the pool below the
// resume watermark, and the tree re-admits writes.
#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/failpoint.h"
#include "src/index/range_index.h"
#include "src/index/verify.h"
#include "src/nvm/config.h"
#include "src/nvm/shadow.h"
#include "src/nvm/topology.h"
#include "src/pactree/pactree.h"
#include "src/pmem/heap.h"
#include "src/pmem/pool.h"
#include "src/sync/epoch.h"

namespace pactree {
namespace {

constexpr char kIndexName[] = "alloc_sweep";

void OverwriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0) << path;
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t w = ::pwrite(fd, bytes.data() + off, bytes.size() - off,
                         static_cast<off_t>(off));
    ASSERT_GT(w, 0);
    off += static_cast<size_t>(w);
  }
  ::close(fd);
}

void InsertAcked(RangeIndex* idx, RecoveryExpectation* exp, uint64_t k, uint64_t v) {
  ASSERT_EQ(idx->Insert(Key::FromInt(k), v), Status::kOk) << k;
  exp->acked[Key::FromInt(k)] = v;
}

// Deterministic value bytes (same formula as the crash sweep's SweepValue).
std::string SweepValue(uint64_t seed, size_t len) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>((seed * 131 + i * 7 + len) & 0xff);
  }
  return s;
}

class AllocSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    GlobalNvmConfig().numa_nodes = 1;  // single pool: no cross-node fallback
    SetCurrentNumaNode(0);
  }

  void TearDown() override {
    FailPoints::SetTriggerHook(nullptr);
    FailPoints::DisarmAll();
    ShadowHeap::Disable();
    EpochManager::Instance().DrainAll();
    DestroyIndex(IndexKind::kPacTree, kIndexName);
  }

  std::unique_ptr<RangeIndex> OpenIndex(bool open_existing) {
    IndexFactoryOptions o;
    o.name = kIndexName;
    o.pool_id_base = 560;
    o.pool_size = 32 << 20;
    o.per_numa_pools = false;
    // Synchronous SMO application: every allocation of the operation happens
    // on the arming thread, so thread-scoped fail points see a deterministic
    // event numbering and the sweep is genuinely exhaustive.
    o.pactree_async_update = false;
    o.pactree_value_storage = value_;
    o.pactree_value_segment_size = value_ ? (32 << 10) : 0;
    o.open_existing = open_existing;
    return CreateIndex(IndexKind::kPacTree, o);
  }

  // Builds a full 64-key data node so the window insert has to split.
  void SetupFullNode(RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 1; i <= 64; ++i) {
      InsertAcked(idx, exp, i * 10, i * 10 + 1);
    }
    idx->Drain();
  }

  // Closes |index| cleanly, reopens the pools, and audits the recovered tree.
  void ReopenAndVerify(std::unique_ptr<RangeIndex> index,
                       const RecoveryExpectation& exp, const char* tag,
                       uint64_t k) {
    index.reset();
    EpochManager::Instance().DrainAll();
    auto recovered = OpenIndex(/*open_existing=*/true);
    ASSERT_NE(recovered, nullptr) << tag << " K=" << k;
    VerifyReport report = VerifyRecoveredIndex(*recovered, exp);
    EXPECT_TRUE(report.ok()) << tag << " K=" << k << ": " << report.ToString();
    recovered.reset();
    EpochManager::Instance().DrainAll();
  }

  // One point of the insert-split sweep: fail the K-th allocation at |site|
  // (K=0 = count-only discovery). Returns the window's allocation-event count.
  uint64_t RunInsertSplitPoint(const char* site, uint64_t k) {
    DestroyIndex(IndexKind::kPacTree, kIndexName);
    auto index = OpenIndex(/*open_existing=*/false);
    EXPECT_NE(index, nullptr);
    if (index == nullptr) {
      return 0;
    }
    RecoveryExpectation exp;
    SetupFullNode(index.get(), &exp);

    FailPoints::Arm(site, k == 0 ? FailPointTrigger::CountOnly()
                                 : FailPointTrigger::NthHit(k));
    Status s = index->Insert(Key::FromInt(645), 646);
    uint64_t events = FailPoints::HitCount(site);
    bool triggered = FailPoints::TriggerCount(site) > 0;
    FailPoints::Disarm(site);

    EXPECT_EQ(triggered, k != 0 && k <= events)
        << site << " K=" << k << " events=" << events;
    // Exhaustion is a clean outcome, never a corrupt one: the op either
    // completed (the failed allocation was deferrable) or unwound to kFull.
    EXPECT_TRUE(s == Status::kOk || s == Status::kFull)
        << site << " K=" << k << " status=" << static_cast<int>(s);
    if (s == Status::kFull) {
      EXPECT_TRUE(triggered) << "kFull without an injected failure";
    }

    // Invariants hold right at the failure point (pending SMOs tolerated).
    std::string why;
    EXPECT_TRUE(index->CheckInvariants(&why)) << site << " K=" << k << ": " << why;
    // A failed insert is invisible; a completed one is served.
    uint64_t v = 0;
    EXPECT_EQ(index->Lookup(Key::FromInt(645), &v),
              s == Status::kOk ? Status::kOk : Status::kNotFound);
    // No acknowledged key was harmed by the unwind.
    for (uint64_t i = 1; i <= 64; i += 9) {
      EXPECT_EQ(index->Lookup(Key::FromInt(i * 10), &v), Status::kOk) << i * 10;
      EXPECT_EQ(v, i * 10 + 1);
    }

    // The unwind released every lock and retired nothing: a disarmed retry
    // takes the same split path and must succeed.
    Status rs = index->Insert(Key::FromInt(645), 646);
    EXPECT_TRUE(rs == Status::kOk || rs == Status::kExists)
        << site << " K=" << k << " retry=" << static_cast<int>(rs);
    if (s == Status::kFull) {
      EXPECT_EQ(rs, Status::kOk) << "retry after kFull must be a fresh insert";
    }
    exp.acked[Key::FromInt(645)] = 646;
    index->Drain();

    ReopenAndVerify(std::move(index), exp, site, k);
    return events;
  }

  void SweepInsertSplit(const char* site) {
    uint64_t n = RunInsertSplitPoint(site, 0);
    ASSERT_GT(n, 0u) << site << ": window performed no allocations";
    for (uint64_t k = 1; k <= n; ++k) {
      RunInsertSplitPoint(site, k);
      if (HasFatalFailure()) {
        return;
      }
    }
  }

  // Open with the tiered value storage (32 KiB segments so rotation -- and
  // with it the segment-allocation sites -- is reachable in a single window).
  bool value_ = false;
};

// --- insert-split sweep ------------------------------------------------------

TEST_F(AllocSweepTest, InsertSplitSweepAllocSite) {
  SweepInsertSplit("pmem/alloc");
}

TEST_F(AllocSweepTest, InsertSplitSweepAllocToSite) {
  SweepInsertSplit("pmem/alloc_to");
}

// --- crash at the failed allocation ------------------------------------------
//
// The trigger hook freezes the shadow image at the exact instant the K-th
// allocation fails -- the unwind's own persists (SMO cancel, lock release)
// never reach the durable image. Recovery must discard the half-started split
// and serve every acked key.

TEST_F(AllocSweepTest, CrashAtFailedAllocSweep) {
  auto run = [&](uint64_t k) -> uint64_t {
    DestroyIndex(IndexKind::kPacTree, kIndexName);
    auto index = OpenIndex(/*open_existing=*/false);
    EXPECT_NE(index, nullptr);
    if (index == nullptr) {
      return 0;
    }
    RecoveryExpectation exp;
    SetupFullNode(index.get(), &exp);

    struct PoolInfo {
      std::string path;
      void* base;
    };
    std::vector<PoolInfo> pools;
    for (PmemHeap* heap : index->Heaps()) {
      for (uint32_t i = 0; i < heap->pool_count(); ++i) {
        PmemPool* pool = heap->pool(i);
        ShadowHeap::Enable(pool->base(), pool->size());
        pools.push_back({pool->path(), pool->base()});
      }
    }
    EXPECT_FALSE(pools.empty());

    FailPoints::SetTriggerHook([](const char*) { ShadowHeap::Freeze(); });
    FailPoints::Arm("pmem/alloc", k == 0 ? FailPointTrigger::CountOnly()
                                         : FailPointTrigger::NthHit(k));
    Status s = index->Insert(Key::FromInt(645), 646);
    exp.inflight[Key::FromInt(645)] = 646;
    uint64_t events = FailPoints::HitCount("pmem/alloc");
    bool triggered = FailPoints::TriggerCount("pmem/alloc") > 0;
    FailPoints::Disarm("pmem/alloc");
    FailPoints::SetTriggerHook(nullptr);

    EXPECT_EQ(triggered, k != 0 && k <= events);
    EXPECT_EQ(ShadowHeap::IsFrozen(), triggered);
    EXPECT_TRUE(s == Status::kOk || s == Status::kFull);

    std::vector<std::vector<uint8_t>> captured;
    for (const PoolInfo& p : pools) {
      captured.push_back(ShadowHeap::CaptureRegion(p.base, CrashMode::kStrict));
      EXPECT_FALSE(captured.back().empty());
    }
    index.reset();
    EpochManager::Instance().DrainAll();
    ShadowHeap::Disable();
    for (size_t i = 0; i < pools.size(); ++i) {
      OverwriteFile(pools[i].path, captured[i]);
    }

    auto recovered = OpenIndex(/*open_existing=*/true);
    EXPECT_NE(recovered, nullptr) << "crash-at-alloc K=" << k;
    if (recovered != nullptr) {
      VerifyReport report = VerifyRecoveredIndex(*recovered, exp);
      EXPECT_TRUE(report.ok())
          << "crash-at-alloc K=" << k << "/" << events << ": " << report.ToString();
      recovered.reset();
    }
    EpochManager::Instance().DrainAll();
    return events;
  };

  uint64_t n = run(0);
  ASSERT_GT(n, 0u);
  for (uint64_t k = 1; k <= n; ++k) {
    run(k);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// --- value-log append sweep --------------------------------------------------
//
// InsertValue's window walks the whole append chain: the arena append fail
// point ("value/append"), segment rotation ("value/segment"), and the segment
// block allocation itself ("pmem/alloc_to"). Any injected failure must
// surface as kFull with the value log cleanly unwound: no acked value loses a
// byte, the failed key stays invisible, and a disarmed retry appends and
// publishes normally.

TEST_F(AllocSweepTest, InsertValueAllocSweep) {
  value_ = true;

  auto run = [&](const char* site, uint64_t k) -> uint64_t {
    DestroyIndex(IndexKind::kPacTree, kIndexName);
    auto index = OpenIndex(/*open_existing=*/false);
    EXPECT_NE(index, nullptr);
    if (index == nullptr) {
      return 0;
    }
    EXPECT_TRUE(index->SupportsLargeValues());
    RecoveryExpectation exp;
    for (uint64_t i = 1; i <= 6; ++i) {
      std::string v = SweepValue(i, 700);
      EXPECT_EQ(index->InsertValue(Key::FromInt(i * 10), v), Status::kOk) << i;
      exp.acked_values[Key::FromInt(i * 10)] = v;
    }
    EXPECT_EQ(index->InsertValue(Key::FromInt(777), "tiny"), Status::kOk);
    exp.acked_values[Key::FromInt(777)] = "tiny";
    index->Drain();

    // Larger than the active 32 KiB segment's remaining space: the window
    // must rotate, reaching every allocation site in the chain.
    std::string big = SweepValue(99, 30000);
    FailPoints::Arm(site, k == 0 ? FailPointTrigger::CountOnly()
                                 : FailPointTrigger::NthHit(k));
    Status s = index->InsertValue(Key::FromInt(645), big);
    uint64_t events = FailPoints::HitCount(site);
    bool triggered = FailPoints::TriggerCount(site) > 0;
    FailPoints::Disarm(site);

    EXPECT_EQ(triggered, k != 0 && k <= events)
        << site << " K=" << k << " events=" << events;
    EXPECT_TRUE(s == Status::kOk || s == Status::kFull)
        << site << " K=" << k << " status=" << static_cast<int>(s);
    if (s == Status::kFull) {
      EXPECT_TRUE(triggered) << "kFull without an injected failure";
    }
    std::string why;
    EXPECT_TRUE(index->CheckInvariants(&why)) << site << " K=" << k << ": " << why;
    // One injected failure is not pool pressure: the tree must not degrade.
    EXPECT_NE(index->StatsJson().find("\"degraded\":0"), std::string::npos);

    // A failed InsertValue is invisible; a completed one serves its bytes.
    std::string got;
    EXPECT_EQ(index->LookupValue(Key::FromInt(645), &got),
              s == Status::kOk ? Status::kOk : Status::kNotFound);
    if (s == Status::kOk) {
      EXPECT_EQ(got, big);
    }
    // No acked value was harmed by the unwind.
    for (const auto& [key, bytes] : exp.acked_values) {
      EXPECT_EQ(index->LookupValue(key, &got), Status::kOk);
      EXPECT_EQ(got, bytes);
    }

    // The unwind held no arena lock and leaked no half-published record: the
    // disarmed retry rotates and publishes normally.
    Status rs = index->InsertValue(Key::FromInt(645), big);
    EXPECT_TRUE(rs == Status::kOk || rs == Status::kExists)
        << site << " K=" << k << " retry=" << static_cast<int>(rs);
    if (s == Status::kFull) {
      EXPECT_EQ(rs, Status::kOk) << "retry after kFull must be a fresh insert";
    }
    exp.acked_values[Key::FromInt(645)] = big;
    index->Drain();
    ReopenAndVerify(std::move(index), exp, site, k);
    return events;
  };

  for (const char* site : {"value/append", "value/segment", "pmem/alloc_to"}) {
    uint64_t n = run(site, 0);
    ASSERT_GT(n, 0u) << site << ": window hit no allocation events";
    for (uint64_t k = 1; k <= n; ++k) {
      run(site, k);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// --- GC kFull unwind sweep ---------------------------------------------------
//
// GC relocation appends are just appends: fail the K-th one mid-pass and the
// pass must abort cleanly -- the victim restored to sealed (not retired),
// gc_full_aborts incremented, every value still byte-exact -- and a disarmed
// retry collects the segment for real.

TEST_F(AllocSweepTest, ValueGcFullUnwindSweep) {
  PacTreeOptions o;
  o.name = "alloc_vgc";
  o.pool_id_base = 616;
  o.pool_size = 32 << 20;
  o.per_numa_pools = false;
  o.async_search_update = false;
  o.value_storage = true;
  o.value_segment_size = 32 << 10;
  o.value_arenas = 1;
  o.value_cache_bytes = 0;  // every LookupValue dereferences the log

  auto run = [&](uint64_t k) -> uint64_t {
    PacTree::Destroy(o.name);
    auto tree = PacTree::Open(o);
    EXPECT_NE(tree, nullptr);
    if (tree == nullptr) {
      return 0;
    }

    // 40 appends fill segment 1 (31 x 1032-byte records) and spill into
    // segment 2; overwriting keys 1..20 then kills 20/31 of segment 1 -- live
    // fraction ~0.35, the lone victim under the 0.5 threshold, with 11 live
    // records for the pass to relocate (rotating mid-pass along the way).
    std::map<uint64_t, std::string> oracle;
    for (uint64_t i = 1; i <= 40; ++i) {
      oracle[i] = SweepValue(i, 1000);
      EXPECT_EQ(tree->InsertValue(Key::FromInt(i), oracle[i]), Status::kOk) << i;
    }
    for (uint64_t i = 1; i <= 20; ++i) {
      oracle[i] = SweepValue(i + 100, 1000);
      Status s = tree->InsertValue(Key::FromInt(i), oracle[i]);
      EXPECT_TRUE(s == Status::kOk || s == Status::kExists) << i;
    }

    FailPoints::Arm("value/append", k == 0 ? FailPointTrigger::CountOnly()
                                           : FailPointTrigger::NthHit(k));
    size_t moved = tree->CompactValues();
    uint64_t events = FailPoints::HitCount("value/append");
    bool triggered = FailPoints::TriggerCount("value/append") > 0;
    FailPoints::Disarm("value/append");

    EXPECT_EQ(triggered, k != 0 && k <= events) << "K=" << k;
    PacTreeStats st = tree->Stats();
    if (triggered) {
      // The K-th relocation append failed; the K-1 before it landed and are
      // honest progress, but the victim must NOT have been retired.
      EXPECT_EQ(moved, k - 1) << "aborted pass reported wrong progress";
      EXPECT_GE(st.value.gc_full_aborts, 1u) << "K=" << k;
      EXPECT_EQ(st.value.gc_segments_compacted, 0u)
          << "K=" << k << ": aborted pass retired its victim";
    } else {
      EXPECT_GT(moved, 0u);
      EXPECT_GE(st.value.gc_segments_compacted, 1u);
    }
    std::string why;
    EXPECT_TRUE(tree->CheckInvariants(&why)) << "K=" << k << ": " << why;
    // Abort or not, every value is still byte-exact.
    std::string got;
    for (const auto& [i, bytes] : oracle) {
      EXPECT_EQ(tree->LookupValue(Key::FromInt(i), &got), Status::kOk) << i;
      EXPECT_EQ(got, bytes) << "K=" << k << " key=" << i;
    }

    // The abort restored the victim to sealed: a disarmed retry collects it.
    tree->CompactValues();
    EXPECT_GE(tree->Stats().value.gc_segments_compacted, 1u) << "K=" << k;
    for (const auto& [i, bytes] : oracle) {
      EXPECT_EQ(tree->LookupValue(Key::FromInt(i), &got), Status::kOk) << i;
      EXPECT_EQ(got, bytes) << "K=" << k << " key=" << i << " post-retry";
    }

    // Clean close + reopen: the relocated handles recover.
    tree.reset();
    EpochManager::Instance().DrainAll();
    tree = PacTree::Open(o);
    EXPECT_NE(tree, nullptr) << "reopen K=" << k;
    if (tree != nullptr) {
      for (const auto& [i, bytes] : oracle) {
        EXPECT_EQ(tree->LookupValue(Key::FromInt(i), &got), Status::kOk) << i;
        EXPECT_EQ(got, bytes) << "K=" << k << " key=" << i << " reopened";
      }
      tree.reset();
    }
    EpochManager::Instance().DrainAll();
    return events;
  };

  uint64_t n = run(0);
  ASSERT_GT(n, 0u) << "GC pass relocated nothing";
  for (uint64_t k = 1; k <= n; ++k) {
    run(k);
    if (HasFatalFailure()) {
      break;
    }
  }
  PacTree::Destroy(o.name);
}

// --- full-pool integration: read-only degraded mode --------------------------

TEST_F(AllocSweepTest, FullPoolDegradedModeServesReads) {
  PacTree::Destroy("alloc_full");
  PacTreeOptions o;
  o.name = "alloc_full";
  o.pool_id_base = 580;
  o.pool_size = 8 << 20;  // tiny: genuinely fillable in a few seconds
  o.per_numa_pools = false;
  o.async_search_update = false;
  auto tree = PacTree::Open(o);
  ASSERT_NE(tree, nullptr);

  // Fill until the data pool is genuinely exhausted.
  uint64_t inserted = 0;
  Status s = Status::kOk;
  for (uint64_t i = 1; i <= 4'000'000; ++i) {
    s = tree->Insert(Key::FromInt(i), i);
    if (s == Status::kFull) {
      break;
    }
    ASSERT_EQ(s, Status::kOk) << i;
    ++inserted;
  }
  ASSERT_EQ(s, Status::kFull) << "pool never filled";
  ASSERT_GT(inserted, 1000u);

  // The failed split tripped the inline pressure poll past the hard
  // watermark: read-only degraded mode, with the failure visible in stats.
  EXPECT_TRUE(tree->Degraded());
  PacTreeStats st = tree->Stats();
  EXPECT_TRUE(st.degraded);
  EXPECT_GE(st.split_alloc_failures, 1u);
  EXPECT_GE(st.alloc_failures, 1u);
  EXPECT_GE(st.used_fraction, o.pressure_hard);

  // Writes fail fast while concurrent lookups and scans keep serving. The
  // rejected writes take microseconds, so the reader reports its first full
  // read round before the writes start, and the test stops it only after
  // that: without the latch the reader could be stopped before its first
  // read and read_oks stay 0.
  std::atomic<bool> stop{false};
  std::atomic<bool> first_read_done{false};
  std::atomic<uint64_t> read_oks{0};
  std::thread reader([&] {
    std::vector<std::pair<Key, uint64_t>> out;
    do {
      uint64_t v = 0;
      if (tree->Lookup(Key::FromInt(1), &v) == Status::kOk && v == 1) {
        read_oks.fetch_add(1, std::memory_order_relaxed);
      }
      if (tree->Scan(Key::FromInt(1), 16, &out) == 16) {
        read_oks.fetch_add(1, std::memory_order_relaxed);
      }
      first_read_done.store(true, std::memory_order_release);
    } while (!stop.load(std::memory_order_relaxed));
  });
  while (!first_read_done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(tree->Insert(Key::FromInt(inserted + 7 + i), 1), Status::kFull);
    EXPECT_EQ(tree->Update(Key::FromInt(1), 2), Status::kFull);
  }
  stop.store(true);
  reader.join();
  EXPECT_GT(read_oks.load(), 0u);
  EXPECT_GE(tree->Stats().write_rejects, 128u);
  uint64_t v = 0;
  ASSERT_EQ(tree->Lookup(Key::FromInt(1), &v), Status::kOk);
  EXPECT_EQ(v, 1u) << "a rejected update must not have applied";

  // Point reads keep serving in degraded mode.
  for (uint64_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(tree->Lookup(Key::FromInt(i), &v), Status::kOk) << i;
  }

  // Deletes are deliberately NOT gated: they are the only shrink path. Merge
  // cascades free nodes; once the used fraction falls to the resume
  // watermark, the tree re-admits writes.
  for (uint64_t i = 1; i <= inserted / 2; ++i) {
    tree->Remove(Key::FromInt(i));
  }
  // Merge victims are epoch-deferred; their chunks return to the pool only
  // once reclamation drains (quiescent here: the reader thread has joined).
  tree->DrainSmoLogs();
  EpochManager::Instance().DrainAll();
  tree->PollPressure();
  EXPECT_FALSE(tree->Degraded());
  EXPECT_LT(tree->Stats().used_fraction, o.pressure_resume);
  EXPECT_EQ(tree->Insert(Key::FromInt(inserted + 7), 1), Status::kOk);

  tree.reset();
  EpochManager::Instance().DrainAll();
  PacTree::Destroy("alloc_full");
}

}  // namespace
}  // namespace pactree
