// Persistent root object layout, shared by the front-end (pactree.cc) and
// crash recovery (recovery.cc). Internal to src/pactree/.
#ifndef PACTREE_SRC_PACTREE_PAC_ROOT_H_
#define PACTREE_SRC_PACTREE_PAC_ROOT_H_

#include <cstdint>

#include "src/art/art.h"
#include "src/pactree/pactree.h"
#include "src/pactree/smo_log.h"

namespace pactree {

// Placed in the data heap's primary root area.
struct PacTree::PacRoot {
  // NOLINT: must fit the pool root area (checked in Init).
  uint64_t magic;
  uint64_t head_raw;
  // Nonzero once the tree has ever run with the value tier on: values may be
  // log handles, so every later incarnation must reopen the value heap even
  // if the caller forgot the option (crash tests reopen by name only).
  // Occupies former zero-initialized padding, so pre-existing images read 0.
  uint64_t value_mode;
  uint64_t pad[5];
  uint64_t log_raws[kMaxWriterSlots];
  ArtTreeRoot art;
};

}  // namespace pactree

#endif  // PACTREE_SRC_PACTREE_PAC_ROOT_H_
