// Exhaustive crash-point sweeps (RECIPE-style) over the fault-injection layer.
//
// For each trace (one index operation over a known base state) the harness
// first runs a count-only fault window to discover N, the number of
// persistence events the operation issues, then re-runs the trace once per
// crash point K in [1, N]: the shadow image is frozen at event K, the pool
// files are rebuilt from the captured images, the index is recovered from
// them, and the generic invariant checker (src/index/verify.h) audits the
// result. Every K of every trace must recover with zero violations, in all
// three fault modes:
//   strict -- nothing un-fenced survives;
//   chaos  -- plus random cache-line evictions at the crash instant;
//   torn   -- the event-K line/fence commits partially (8 B atomicity).
//
// Traces: PACTree single insert, in-place update, leaf split, leaf merge, and
// delete, plus an insert-that-splits trace for each baseline (FastFair,
// FP-Tree, BzTree).
// Single-threaded with synchronous SMO application, so the event numbering is
// identical run to run and the sweep is genuinely exhaustive.
#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "src/index/range_index.h"
#include "src/index/verify.h"
#include "src/nvm/config.h"
#include "src/nvm/fault.h"
#include "src/nvm/shadow.h"
#include "src/nvm/topology.h"
#include "src/pmem/heap.h"
#include "src/pmem/pool.h"
#include "src/sync/epoch.h"

namespace pactree {
namespace {

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

// One trace: |setup| builds the acknowledged base state (fully fenced, so it
// is durable in the shadow image), |window| runs the single operation under
// the armed fault window and records its key(s) as in-flight.
struct SweepScenario {
  std::function<void(RangeIndex*, RecoveryExpectation*)> setup;
  std::function<void(RangeIndex*, RecoveryExpectation*)> window;
};

void InsertAcked(RangeIndex* idx, RecoveryExpectation* exp, uint64_t k, uint64_t v) {
  ASSERT_EQ(idx->Insert(Key::FromInt(k), v), Status::kOk) << k;
  exp->acked[Key::FromInt(k)] = v;
}

void RemoveAcked(RangeIndex* idx, RecoveryExpectation* exp, uint64_t k) {
  ASSERT_EQ(idx->Remove(Key::FromInt(k)), Status::kOk) << k;
  exp->acked.erase(Key::FromInt(k));
  exp->removed.push_back(Key::FromInt(k));
}

class CrashSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GlobalNvmConfig() = NvmConfig();
    GlobalNvmConfig().numa_nodes = 1;  // one pool per heap keeps captures simple
    SetCurrentNumaNode(0);
  }

  void TearDown() override {
    FaultInjector::Disarm();
    ShadowHeap::Disable();
    EpochManager::Instance().DrainAll();
    for (IndexKind kind : {IndexKind::kPacTree, IndexKind::kFastFair,
                           IndexKind::kFpTree, IndexKind::kBzTree}) {
      DestroyIndex(kind, IndexName(kind));
    }
  }

  // Pool names carry the scenario: each scenario is its own ctest entry, and
  // `ctest -j` runs them side by side in one pool directory.
  static std::string IndexName(IndexKind kind) {
    return std::string("sweep_") + IndexKindName(kind) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  std::unique_ptr<RangeIndex> OpenIndex(IndexKind kind, bool open_existing) {
    IndexFactoryOptions o;
    o.name = IndexName(kind);
    o.pool_id_base = static_cast<uint16_t>(400 + 32 * static_cast<int>(kind));
    // Every crash point shadows, captures and rewrites each pool whole, so the
    // pool size sets the cost of a point. 8 MiB holds every trace; each trace
    // issues the same persistence events as with 32 MiB pools.
    o.pool_size = 8 << 20;
    o.per_numa_pools = false;
    // Synchronous SMO application: all persistence events of a split/merge
    // land on the arming thread, making the event numbering deterministic.
    o.pactree_async_update = false;
    o.pactree_value_storage = value_;
    o.pactree_value_segment_size = value_ ? (32 << 10) : 0;  // GC-reachable
    o.open_existing = open_existing;
    if (open_existing && recover_updaters_ > 0) {
      // Recovery-side override: bring the index back up with live per-shard
      // updater services, proving recovery composes with multi-updater mode
      // (recovery itself still runs single-threaded before services start).
      o.pactree_async_update = true;
      o.pactree_updaters = recover_updaters_;
    }
    return CreateIndex(kind, o);
  }

  // When nonzero, recovery-side opens run async with this many updaters.
  uint32_t recover_updaters_ = 0;
  // Open with the tiered value storage (value heap shadowed like the others;
  // the persistent value_mode flag makes the recovery open reattach it even
  // without the option, but the factory passes it explicitly anyway).
  bool value_ = false;

  // Builds the trace's base state, arms the window, runs the operation,
  // captures the (possibly frozen) durable image, rebuilds the pool files and
  // recovers. Returns the window's event count; reports checker violations as
  // test failures tagged with (kind, mode, K).
  uint64_t RunCrashPoint(IndexKind kind, const SweepScenario& sc, FaultMode mode,
                         uint64_t crash_event, uint64_t seed) {
    DestroyIndex(kind, IndexName(kind));
    auto index = OpenIndex(kind, /*open_existing=*/false);
    EXPECT_NE(index, nullptr);
    if (index == nullptr) {
      return 0;
    }
    RecoveryExpectation exp;
    sc.setup(index.get(), &exp);
    index->Drain();

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
    EXPECT_FALSE(pools.empty()) << "index exposes no heaps to shadow";

    CrashPlan plan;
    plan.mode = mode;
    plan.crash_event = crash_event;
    plan.seed = seed;
    FaultInjector::Arm(plan);
    sc.window(index.get(), &exp);
    uint64_t events = FaultInjector::EventCount();
    bool triggered = FaultInjector::Triggered();
    FaultInjector::Disarm();
    EXPECT_EQ(triggered, crash_event != 0 && crash_event <= events)
        << "crash_event=" << crash_event << " events=" << events;

    // Mode side effects (evictions, torn lines) were applied by the injector
    // at the crash instant; the frozen image is captured as-is.
    std::vector<std::vector<uint8_t>> images;
    for (const PoolInfo& p : pools) {
      images.push_back(ShadowHeap::CaptureRegion(p.base, CrashMode::kStrict));
      EXPECT_FALSE(images.back().empty());
    }
    index.reset();
    EpochManager::Instance().DrainAll();
    ShadowHeap::Disable();
    for (size_t i = 0; i < pools.size(); ++i) {
      OverwriteFile(pools[i].path, images[i]);
    }

    auto recovered = OpenIndex(kind, /*open_existing=*/true);
    EXPECT_NE(recovered, nullptr)
        << IndexName(kind) << " recovery failed at K=" << crash_event;
    if (recovered != nullptr) {
      VerifyReport report = VerifyRecoveredIndex(*recovered, exp);
      EXPECT_TRUE(report.ok())
          << IndexName(kind) << " mode=" << static_cast<int>(mode)
          << " K=" << crash_event << "/" << events << ": " << report.ToString();
      recovered.reset();
    }
    EpochManager::Instance().DrainAll();
    return events;
  }

  // Exhaustive sweep: discover N with a count-only window, then crash at
  // every K in [1, N].
  void Sweep(IndexKind kind, const SweepScenario& sc, FaultMode mode) {
    uint64_t n = RunCrashPoint(kind, sc, mode, /*crash_event=*/0, /*seed=*/0);
    ASSERT_GT(n, 0u) << "operation issued no persistence events";
    for (uint64_t k = 1; k <= n; ++k) {
      RunCrashPoint(kind, sc, mode, k, /*seed=*/0x9e3779b9ULL * k + 1);
      if (HasFatalFailure()) {
        return;
      }
    }
  }

  void SweepAllModes(IndexKind kind, const SweepScenario& sc) {
    for (FaultMode mode : {FaultMode::kStrict, FaultMode::kChaos, FaultMode::kTorn}) {
      Sweep(kind, sc, mode);
      if (HasFatalFailure() || HasNonfatalFailure()) {
        return;  // one failing mode produces enough diagnostics
      }
    }
  }
};

// --- PACTree traces ---------------------------------------------------------

TEST_F(CrashSweepTest, PacTreeInsert) {
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 1; i <= 3; ++i) {
      InsertAcked(idx, exp, i * 70, i * 70 + 1);
    }
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    idx->Insert(Key::FromInt(100), 101);
    exp->inflight[Key::FromInt(100)] = 101;
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

TEST_F(CrashSweepTest, PacTreeSplit) {
  // 64 keys fill one data node (kDataNodeEntries); the window insert has no
  // free slot and must split.
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 1; i <= 64; ++i) {
      InsertAcked(idx, exp, i * 10, i * 10 + 1);
    }
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    idx->Insert(Key::FromInt(645), 646);
    exp->inflight[Key::FromInt(645)] = 646;
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

TEST_F(CrashSweepTest, PacTreeMerge) {
  // Build two sibling data nodes, then delete down to exactly the merge
  // threshold (kMergeThreshold = 24 combined live keys) so the window remove
  // is the one that triggers the merge.
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 1; i <= 64; ++i) {
      InsertAcked(idx, exp, i * 10, i * 10 + 1);
    }
    InsertAcked(idx, exp, 650, 651);  // 65th key: splits into 32 + 33
    for (uint64_t i = 1; i <= 20; ++i) {
      RemoveAcked(idx, exp, i * 10);  // left node: 32 -> 12
    }
    for (uint64_t i = 33; i <= 53; ++i) {
      RemoveAcked(idx, exp, i * 10);  // right node: 33 -> 12
    }
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    // 23 combined live keys after this remove: merge fires.
    idx->Remove(Key::FromInt(210));
    exp->acked.erase(Key::FromInt(210));
    exp->inflight[Key::FromInt(210)] = 211;
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

TEST_F(CrashSweepTest, PacTreeSplitMultiUpdaterRecovery) {
  // Same split trace as PacTreeSplit, but every post-crash open runs with two
  // background updater services: the single-threaded recovery pass must hand
  // the (reset) rings to the sharded replay path without losing the §4.3
  // guarantees.
  recover_updaters_ = 2;
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 1; i <= 64; ++i) {
      InsertAcked(idx, exp, i * 10, i * 10 + 1);
    }
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    idx->Insert(Key::FromInt(645), 646);
    exp->inflight[Key::FromInt(645)] = 646;
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

// A 28-byte string key ("key/" + 24 digits): against the head node's all-zero
// anchor the shared prefix is empty, so each distinct key costs its whole
// suffix less the 4 head bytes its key word keeps: 24 bytes of arena.
// (Integer keys with a leading zero byte share it with the anchor and sit
// whole in the key word.)
Key ArenaKey(uint64_t i) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "key/%024llu", static_cast<unsigned long long>(i));
  return Key::FromString(buf);
}

TEST_F(CrashSweepTest, PacTreeCompactArenaCompaction) {
  // Suffix-arena compaction as the crashed op. Setup leaves one data node
  // with 16 live keys of 24 arena bytes each (384 bytes) and churns 16
  // insert+remove cycles of distinct keys, each leaking a 24-byte dead tail:
  // the cursor lands exactly at kArenaBytes = 768 with 48 free slots. The
  // window insert therefore has a free slot but no suffix room, and
  // MakeRoomLocked must run CompactArenaLocked -- suffix moves, descriptor
  // swings, and the cursor trim all land inside the fault window, followed
  // by the insert's own FillSlot + bitmap publish. Every crash
  // point must recover with all 16 acked keys intact (a torn descriptor
  // swing may not leave any of them reading relocated-over bytes). The
  // ArenaChurnCompactsInsteadOfSplitting unit test pins this base state's
  // arithmetic (compaction fires, no split).
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 1; i <= 16; ++i) {
      ASSERT_EQ(idx->Insert(ArenaKey(i), i), Status::kOk) << i;
      exp->acked[ArenaKey(i)] = i;
    }
    for (uint64_t j = 0; j < 16; ++j) {
      ASSERT_EQ(idx->Insert(ArenaKey(1000 + j), j + 1), Status::kOk) << j;
      ASSERT_EQ(idx->Remove(ArenaKey(1000 + j)), Status::kOk) << j;
      exp->removed.push_back(ArenaKey(1000 + j));
    }
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    idx->Insert(ArenaKey(500), 501);
    exp->inflight[ArenaKey(500)] = 501;
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

// A 32-byte key: a distinct 4-byte prefix and a 28-byte remainder common to
// every key.
Key SharedTailKey(uint64_t i) {
  uint8_t b[Key::kMaxLen];
  b[0] = static_cast<uint8_t>(3 * i + 1);
  b[1] = static_cast<uint8_t>(37 * i);
  b[2] = static_cast<uint8_t>(91 * i);
  b[3] = static_cast<uint8_t>(13 * i);
  std::memset(b + 4, 'r', sizeof(b) - 4);
  return Key::FromBytes(b, sizeof(b));
}

TEST_F(CrashSweepTest, PacTreeSharedTailSplit) {
  // A slot-full split whose moved half cannot be a plain median half:
  // the 64 setup keys share one arena tail under the head node's zero anchor,
  // but against any split anchor from the set each needs its own 28-B tail,
  // so the split moves fewer keys to keep the new node's arena within 768 B.
  // Every crash point must recover all 64 acked keys (the
  // SlotFullSplitOfSharedTailKeysFitsTheNewArena unit test pins the premise).
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 0; i < 64; ++i) {
      ASSERT_EQ(idx->Insert(SharedTailKey(i), i + 1), Status::kOk) << i;
      exp->acked[SharedTailKey(i)] = i + 1;
    }
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    idx->Insert(SharedTailKey(64), 65);
    exp->inflight[SharedTailKey(64)] = 65;
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

TEST_F(CrashSweepTest, PacTreeUpdate) {
  // An in-place overwrite of a live arena-form key: the update stores its
  // slot's 8-B value word and persists it, touching neither the key word,
  // the arena nor the bitmap. Every crash point (a torn line commits whole
  // 8-B words) must recover the key with exactly its old or its new value,
  // and every other key intact.
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 1; i <= 8; ++i) {
      ASSERT_EQ(idx->Insert(ArenaKey(i), i), Status::kOk) << i;
      exp->acked[ArenaKey(i)] = i;
    }
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    idx->Update(ArenaKey(5), 555);
    exp->acked.erase(ArenaKey(5));
    exp->updating[ArenaKey(5)] = {5, 555};
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

TEST_F(CrashSweepTest, PacTreeUpdateFullNode) {
  // An overwrite in a data node whose 64 slots are all live. An update that
  // needed a free slot split such a node; the in-place overwrite persists
  // one value word and never splits. Every crash point must recover the key
  // with exactly its old or its new value, and the other 63 keys intact.
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 1; i <= 64; ++i) {
      InsertAcked(idx, exp, i * 10, i * 10 + 1);
    }
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    idx->Update(Key::FromInt(320), 999);
    exp->acked.erase(Key::FromInt(320));
    exp->updating[Key::FromInt(320)] = {321, 999};
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

// 8-byte integer keys whose suffix past the head node's zero anchor fits a
// whole-inline key word: |zeros| leading zero bytes (1 or 2) are shared with
// the anchor image, so the stored 7-byte window starts at byte 1 -- a byte of
// the key itself (zeros == 1) or one of the shared prefix (zeros == 2).
Key InlineIntKey(int zeros, uint64_t i) {
  const uint64_t body = zeros == 1 ? 0x00a1b2c3d4e5f600ULL : 0x0000b2c3d4e5f600ULL;
  return Key::FromInt(body | (i + 1));
}

TEST_F(CrashSweepTest, PacTreeInlineKeyUpdate) {
  // One data node holding whole-inline 8-B integer keys next to arena-form
  // string keys (ArenaKey, 24 arena bytes each). As in
  // PacTreeCompactArenaCompaction, 16 live string keys plus 16 churned ones
  // leave the arena cursor at 768. The window first overwrites an inline key
  // in place (its slot's value word is stored and persisted; the key word
  // stays), then inserts a string key, which finds no arena room and
  // compacts: only the arena-form words' offsets swing, the inline words
  // stay as they are. Every crash point must recover every key intact.
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 0; i < 4; ++i) {
      for (int zeros : {1, 2}) {
        ASSERT_EQ(idx->Insert(InlineIntKey(zeros, i), 10 * i + zeros), Status::kOk);
        exp->acked[InlineIntKey(zeros, i)] = 10 * i + zeros;
      }
    }
    for (uint64_t i = 1; i <= 16; ++i) {
      ASSERT_EQ(idx->Insert(ArenaKey(i), i), Status::kOk) << i;
      exp->acked[ArenaKey(i)] = i;
    }
    for (uint64_t j = 0; j < 16; ++j) {
      ASSERT_EQ(idx->Insert(ArenaKey(1000 + j), j + 1), Status::kOk) << j;
      ASSERT_EQ(idx->Remove(ArenaKey(1000 + j)), Status::kOk) << j;
      exp->removed.push_back(ArenaKey(1000 + j));
    }
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    const Key k = InlineIntKey(1, 2);
    idx->Update(k, 777);
    exp->acked.erase(k);
    exp->updating[k] = {21, 777};
    idx->Insert(ArenaKey(500), 501);
    exp->inflight[ArenaKey(500)] = 501;
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

TEST_F(CrashSweepTest, PacTreeDelete) {
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 1; i <= 10; ++i) {
      InsertAcked(idx, exp, i * 10, i * 10 + 1);
    }
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    idx->Remove(Key::FromInt(50));
    exp->acked.erase(Key::FromInt(50));
    exp->inflight[Key::FromInt(50)] = 51;
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

// --- Tiered value storage traces --------------------------------------------
//
// Values are audited by bytes (RecoveryExpectation::acked_values /
// inflight_values): the u64 word in the index is a log handle that value-log
// GC may relocate, so only the dereferenced bytes are stable history. The
// durability chain under test: record fence -> handle publication, i.e. any
// handle the recovered index serves must dereference to checksum-valid bytes
// at every crash point.

std::string SweepValue(uint64_t seed, size_t len) {
  std::string v(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    v[i] = static_cast<char>((seed * 131 + i * 7 + len) & 0xff);
  }
  return v;
}

void InsertValueAcked(RangeIndex* idx, RecoveryExpectation* exp, uint64_t k,
                      uint64_t seed, size_t len) {
  std::string v = SweepValue(seed, len);
  Status s = idx->InsertValue(Key::FromInt(k), v);
  ASSERT_TRUE(s == Status::kOk || s == Status::kExists) << k;
  exp->acked_values[Key::FromInt(k)] = std::move(v);
}

TEST_F(CrashSweepTest, PacTreeValueAppend) {
  // The crashed op is a fresh large-value insert: log append (its single
  // record fence) then the index insert. Atomic outcome: the key is absent,
  // or present with exactly the new bytes.
  value_ = true;
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    InsertValueAcked(idx, exp, 10, 1, 600);
    InsertValueAcked(idx, exp, 20, 2, 5);  // inline: no log record
    InsertValueAcked(idx, exp, 30, 3, 2048);
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    std::string v = SweepValue(99, 1024);
    idx->InsertValue(Key::FromInt(100), v);
    exp->inflight_values[Key::FromInt(100)] = {v};
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

TEST_F(CrashSweepTest, PacTreeValueOverwrite) {
  // In-flight overwrite of an acked large value (dead-mark of the old record,
  // fresh append, handle swing): the recovered key must serve the complete
  // old bytes or the complete new bytes, never a blend.
  value_ = true;
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    InsertValueAcked(idx, exp, 10, 1, 600);
    InsertValueAcked(idx, exp, 20, 2, 900);
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    Key k = Key::FromInt(20);
    std::string nv = SweepValue(7, 1400);
    idx->InsertValue(k, nv);
    exp->inflight_values[k] = {exp->acked_values[k], nv};
    exp->acked_values.erase(k);
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

TEST_F(CrashSweepTest, PacTreeValueGcCompaction) {
  // The crashed op is a GC compaction pass over a segment full of garbage:
  // live records are re-appended and their handles swung mid-window. Every
  // acked value must survive every crash point bit-exactly -- whichever copy
  // the recovered index points at must be whole.
  value_ = true;
  SweepScenario sc;
  sc.setup = [](RangeIndex* idx, RecoveryExpectation* exp) {
    // ~1 KiB records into 32 KiB segments (~31 per segment): 24 originals
    // plus 24 overwrites leave the first sealed segment mostly dead records,
    // which is what GC's live-fraction victim selection needs.
    for (uint64_t i = 1; i <= 24; ++i) {
      InsertValueAcked(idx, exp, i * 10, i, 1000);
    }
    for (uint64_t i = 1; i <= 24; ++i) {
      InsertValueAcked(idx, exp, i * 10, i + 100, 1000);  // old records die
    }
  };
  sc.window = [](RangeIndex* idx, RecoveryExpectation* exp) {
    (void)exp;
    idx->CompactValues();
  };
  SweepAllModes(IndexKind::kPacTree, sc);
}

// --- Baseline insert+split traces -------------------------------------------
//
// Each setup fills one leaf exactly (kFfCardinality = 30, kFpLeafSlots = 32,
// kBzMaxRecords = 48 > kBzConsolidateMax, so the replacement splits); the
// window insert finds the leaf full and performs the structure modification.

SweepScenario BaselineSplitScenario(uint64_t leaf_capacity) {
  SweepScenario sc;
  sc.setup = [leaf_capacity](RangeIndex* idx, RecoveryExpectation* exp) {
    for (uint64_t i = 1; i <= leaf_capacity; ++i) {
      InsertAcked(idx, exp, i * 10, i * 10 + 1);
    }
  };
  sc.window = [leaf_capacity](RangeIndex* idx, RecoveryExpectation* exp) {
    uint64_t k = (leaf_capacity + 1) * 10;
    idx->Insert(Key::FromInt(k), k + 1);
    exp->inflight[Key::FromInt(k)] = k + 1;
  };
  return sc;
}

TEST_F(CrashSweepTest, FastFairInsertSplit) {
  SweepAllModes(IndexKind::kFastFair, BaselineSplitScenario(30));
}

TEST_F(CrashSweepTest, FpTreeInsertSplit) {
  SweepAllModes(IndexKind::kFpTree, BaselineSplitScenario(32));
}

TEST_F(CrashSweepTest, BzTreeInsertSplit) {
  SweepAllModes(IndexKind::kBzTree, BaselineSplitScenario(48));
}

}  // namespace
}  // namespace pactree
