// Generic post-recovery invariant checker for any RangeIndex.
//
// A crash test records what it *knows* about the pre-crash history -- which
// keys were acknowledged as durably inserted, which were acknowledged as
// removed, and which single operation was in flight at the crash -- and the
// checker audits the recovered index against that knowledge:
//
//   1. a full scan yields strictly ascending (sorted, duplicate-free) keys;
//   2. every acknowledged key is present, via scan AND point lookup, with the
//      acknowledged value;
//   3. no removed key is resurrected (absent from both scan and lookup);
//   4. nothing outside acknowledged ∪ in-flight appears (no ghost keys);
//   5. an in-flight key is either fully present with its value or fully
//      absent (atomic outcome), and scan/lookup agree on which; a key whose
//      overwrite was in flight is present with its old or its new value;
//   6. the persistent allocation logs are fully drained;
//   7. the operation logs (PACTree's SMO rings) are empty;
//   8. the index's own structural audit (CheckInvariants) passes.
//
// Violations are human-readable strings naming the failed invariant; an empty
// report means the crash point recovered cleanly.
#ifndef PACTREE_SRC_INDEX_VERIFY_H_
#define PACTREE_SRC_INDEX_VERIFY_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/key.h"
#include "src/index/range_index.h"

namespace pactree {

struct RecoveryExpectation {
  // Keys acknowledged as durably inserted (with their last acknowledged
  // value) and not subsequently removed. MUST be present.
  std::map<Key, uint64_t> acked;
  // Keys acknowledged as removed (and not re-inserted). MUST be absent.
  std::vector<Key> removed;
  // Keys whose insert/remove was in flight at the crash: each MAY be present
  // or absent, but the outcome must be atomic and internally consistent. The
  // mapped value is the value the key must carry IF it is present: the new
  // value for an in-flight insert, the prior value for an in-flight remove
  // (the key moves here from |acked| when its remove is the crashed op).
  std::map<Key, uint64_t> inflight;
  // Acked keys whose overwrite was in flight at the crash, as {prior value,
  // new value}: MUST be present (an overwrite never makes a key absent) and
  // carry one of the two, the same one in scan and lookup.
  std::map<Key, std::pair<uint64_t, uint64_t>> updating;

  // --- tiered value storage (LookupValue) expectations ----------------------
  // Keys written through InsertValue are audited by their BYTES, not the raw
  // u64 word: the word is a log handle that value-log GC may legitimately
  // relocate across the crash, so only the dereferenced value is stable
  // history. A key belongs in the u64 maps above or here, never both.
  //
  // Acked value keys: MUST be present, and LookupValue must return exactly
  // these bytes.
  std::map<Key, std::string> acked_values;
  // In-flight value keys: MAY be absent; if present, LookupValue must return
  // one of the listed alternatives (e.g. {old bytes, new bytes} for an
  // in-flight overwrite), and scan/lookup must agree on presence.
  std::map<Key, std::vector<std::string>> inflight_values;
};

struct VerifyReport {
  std::vector<std::string> violations;
  // Keys seen by the full scan (diagnostics; also how ghost keys surface).
  size_t scanned = 0;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

// Audits |index| (already recovered) against |expect|. Runs a full scan, one
// point lookup per scanned/expected key, and the drain/structure hooks.
VerifyReport VerifyRecoveredIndex(const RangeIndex& index, const RecoveryExpectation& expect);

}  // namespace pactree

#endif  // PACTREE_SRC_INDEX_VERIFY_H_
