// Fail-point framework: named failure-injection sites for robustness testing.
//
// A fail point is a named site compiled into a resource-acquisition path
// (pmem allocation, ring publish, descriptor acquire). In production it costs
// one relaxed atomic load; in tests it can be armed to fire on the Nth hit,
// every Nth hit, or probabilistically, optionally scoped to the arming thread
// so background services keep running clean while the test thread is faulted.
//
// Sites are plain string literals. The convention is "layer/resource":
//   pmem/alloc        PmemPool::AllocInternal (covers Alloc and AllocTo's
//                     block reservation)
//   pmem/alloc_to     PmemPool::AllocTo entry (malloc-to protocol)
//   heap/fallback     PmemHeap cross-NUMA fallback loop (fires = local-only)
//   smo/ring_full     SmoUpdater::Log ring-full check (forces one
//                     backpressure round)
//   pmwcas/descriptor PmwcasPool::Acquire (simulates descriptor exhaustion)
//
// Configuration:
//   - Programmatic: FailPoints::Arm("pmem/alloc", FailPointTrigger::NthHit(3)).
//   - Environment:  PAC_FAILPOINTS="pmem/alloc=hit:3;smo/ring_full=prob:0.01:42"
//                   parsed at process start
//                   (env-armed sites are process-scoped, not thread-scoped).
//
// Counters: every armed site counts hits (evaluations that passed the thread
// filter) and triggers (evaluations that returned true). kCountOnly arms a
// site purely for counting -- the discovery phase of an exhaustive sweep
// ("how many allocations does this scenario perform?") before the K-th-hit
// failure phase.
#ifndef PACTREE_SRC_COMMON_FAILPOINT_H_
#define PACTREE_SRC_COMMON_FAILPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pactree {

struct FailPointTrigger {
  enum Kind : uint32_t {
    kCountOnly = 0,    // never fires; counts hits (sweep discovery phase)
    kNthHit = 1,       // fires exactly once, on the n-th hit (1-based)
    kEveryNth = 2,     // fires on every n-th hit (n, 2n, 3n, ...)
    kProbability = 3,  // fires with probability |probability| per hit
  };
  Kind kind = kCountOnly;
  uint64_t n = 1;
  double probability = 0.0;
  uint64_t seed = 0x9e3779b97f4a7c15ull;  // kProbability RNG stream
  // When true (default for programmatic arming) only the arming thread's hits
  // count and fire; other threads pass through untouched. Env-armed sites set
  // this false (there is no arming thread at process start).
  bool thread_scoped = true;

  static FailPointTrigger CountOnly() { return {}; }
  static FailPointTrigger NthHit(uint64_t n) {
    FailPointTrigger t;
    t.kind = kNthHit;
    t.n = n;
    return t;
  }
  static FailPointTrigger EveryNth(uint64_t n) {
    FailPointTrigger t;
    t.kind = kEveryNth;
    t.n = n;
    return t;
  }
  static FailPointTrigger Probability(double p, uint64_t seed = 0) {
    FailPointTrigger t;
    t.kind = kProbability;
    t.probability = p;
    if (seed != 0) {
      t.seed = seed;
    }
    return t;
  }
};

class FailPoints {
 public:
  // Evaluates the site: returns true when the site is armed and its trigger
  // fires for this hit. Sites that are not armed cost one relaxed atomic load.
  // This is what the PACTREE_FAILPOINT macro expands to; call sites treat a
  // true return exactly like the natural failure (alloc returns Null, ring
  // reads as full, pool returns nullptr).
  static bool Hit(const char* site);

  // Arms |site| with |trigger|, replacing any previous arming and zeroing its
  // counters. Thread-scoped triggers bind to the calling thread.
  static void Arm(const std::string& site, const FailPointTrigger& trigger);
  static void Disarm(const std::string& site);
  static void DisarmAll();

  // Counters for an armed site (0 when not armed).
  static uint64_t HitCount(const std::string& site);
  static uint64_t TriggerCount(const std::string& site);
  static void ResetCounters(const std::string& site);

  // Hook invoked (on the hitting thread) every time any site fires, before
  // Hit returns true. Lets crash tests freeze the shadow heap at the exact
  // failed-allocation point. Pass nullptr to clear.
  static void SetTriggerHook(std::function<void(const char* site)> hook);

  static std::vector<std::string> ListArmed();

  // Parses a PAC_FAILPOINTS-style spec ("site=hit:3;site2=every:10;
  // site3=prob:0.01[:seed]") and arms each entry (not thread-scoped).
  // Returns the number of sites armed; malformed entries are skipped.
  static size_t ArmFromSpec(const std::string& spec);
};

}  // namespace pactree

// Guards injected-failure branches. Usage:
//   if (chunk < 0 || PACTREE_FAILPOINT("pmem/alloc")) return PPtr<void>::Null();
#define PACTREE_FAILPOINT(site) (::pactree::FailPoints::Hit(site))

#endif  // PACTREE_SRC_COMMON_FAILPOINT_H_
