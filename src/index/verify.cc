#include "src/index/verify.h"

#include <cstdio>

namespace pactree {
namespace {

std::string KeyRepr(const Key& k) {
  // Integer keys (the common sweep case) print as numbers, others as hex.
  if (k.size() == Key::kIntLen) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(k.ToInt()));
    return buf;
  }
  std::string out = "0x";
  for (size_t i = 0; i < k.size(); ++i) {
    char buf[4];
    std::snprintf(buf, sizeof(buf), "%02x", k.At(i));
    out += buf;
  }
  return out;
}

void Violation(VerifyReport* r, std::string msg) { r->violations.push_back(std::move(msg)); }

}  // namespace

std::string VerifyReport::ToString() const {
  if (violations.empty()) {
    return "ok";
  }
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) {
      out += "; ";
    }
    out += v;
  }
  return out;
}

VerifyReport VerifyRecoveredIndex(const RangeIndex& index,
                                  const RecoveryExpectation& expect) {
  VerifyReport report;

  // Full scan: the bound exceeds everything the test could have inserted, so
  // the scan is total and the sortedness check covers the whole key space.
  std::vector<std::pair<Key, uint64_t>> all;
  size_t limit = expect.acked.size() + expect.inflight.size() + expect.updating.size() +
                 expect.removed.size();
  index.Scan(Key::Min(), 16 * limit + 1024, &all);
  report.scanned = all.size();

  std::map<Key, uint64_t> scanned;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0 && !(all[i - 1].first < all[i].first)) {
      Violation(&report, "scan not strictly ascending at " + KeyRepr(all[i].first) +
                             (all[i - 1].first == all[i].first ? " (duplicate key)" : ""));
    }
    scanned.emplace(all[i].first, all[i].second);
  }

  // Acknowledged keys: present in scan and lookup, with the acked value.
  for (const auto& [key, value] : expect.acked) {
    auto it = scanned.find(key);
    if (it == scanned.end()) {
      Violation(&report, "acked key " + KeyRepr(key) + " missing from scan");
    } else if (it->second != value) {
      Violation(&report, "acked key " + KeyRepr(key) + " has wrong value in scan");
    }
    uint64_t got = 0;
    Status s = index.Lookup(key, &got);
    if (s != Status::kOk) {
      Violation(&report, "acked key " + KeyRepr(key) + " lookup failed: " + StatusString(s));
    } else if (got != value) {
      Violation(&report, "acked key " + KeyRepr(key) + " has wrong value in lookup");
    }
  }

  // Removed keys must not resurrect.
  for (const Key& key : expect.removed) {
    if (scanned.count(key) != 0) {
      Violation(&report, "removed key " + KeyRepr(key) + " resurrected in scan");
    }
    uint64_t got = 0;
    if (index.Lookup(key, &got) == Status::kOk) {
      Violation(&report, "removed key " + KeyRepr(key) + " resurrected in lookup");
    }
  }

  // In-flight keys: atomic outcome, scan and lookup agreeing.
  for (const auto& [key, value] : expect.inflight) {
    auto it = scanned.find(key);
    uint64_t got = 0;
    Status s = index.Lookup(key, &got);
    bool in_scan = it != scanned.end();
    bool in_lookup = s == Status::kOk;
    if (in_scan != in_lookup) {
      Violation(&report, "in-flight key " + KeyRepr(key) + " torn: scan and lookup disagree");
    }
    if (in_scan && it->second != value) {
      Violation(&report, "in-flight key " + KeyRepr(key) + " present with wrong value");
    }
    if (in_lookup && got != value) {
      Violation(&report, "in-flight key " + KeyRepr(key) + " lookup returned wrong value");
    }
  }

  // Keys being overwritten: present, with the old or the new value.
  for (const auto& [key, values] : expect.updating) {
    auto it = scanned.find(key);
    uint64_t got = 0;
    Status s = index.Lookup(key, &got);
    if (it == scanned.end() || s != Status::kOk) {
      Violation(&report, "overwritten key " + KeyRepr(key) + " missing after the crash");
      continue;
    }
    if (it->second != values.first && it->second != values.second) {
      Violation(&report, "overwritten key " + KeyRepr(key) + " has neither value in scan");
    }
    if (got != it->second) {
      Violation(&report, "overwritten key " + KeyRepr(key) + " torn: scan and lookup disagree");
    }
  }

  // Value-tier keys: audited by dereferenced bytes (see verify.h). The raw
  // u64 word in the scan is a handle GC may have relocated, so only presence
  // is checked there.
  for (const auto& [key, bytes] : expect.acked_values) {
    if (scanned.count(key) == 0) {
      Violation(&report, "acked value key " + KeyRepr(key) + " missing from scan");
    }
    std::string got;
    Status s = index.LookupValue(key, &got);
    if (s != Status::kOk) {
      Violation(&report, "acked value key " + KeyRepr(key) +
                             " LookupValue failed: " + StatusString(s));
    } else if (got != bytes) {
      Violation(&report, "acked value key " + KeyRepr(key) + " has wrong bytes (" +
                             std::to_string(got.size()) + " vs " +
                             std::to_string(bytes.size()) + " expected)");
    }
  }
  for (const auto& [key, alts] : expect.inflight_values) {
    bool in_scan = scanned.count(key) != 0;
    std::string got;
    Status s = index.LookupValue(key, &got);
    bool in_lookup = s == Status::kOk;
    if (in_scan != in_lookup) {
      Violation(&report, "in-flight value key " + KeyRepr(key) +
                             " torn: scan and lookup disagree");
    }
    if (in_lookup) {
      bool matched = false;
      for (const std::string& alt : alts) {
        matched = matched || got == alt;
      }
      if (!matched) {
        Violation(&report, "in-flight value key " + KeyRepr(key) +
                               " present with bytes matching no allowed outcome");
      }
    }
  }

  // Ghost keys: anything scanned that no part of the history explains.
  for (const auto& [key, value] : scanned) {
    (void)value;
    if (expect.acked.count(key) == 0 && expect.inflight.count(key) == 0 &&
        expect.updating.count(key) == 0 &&
        expect.acked_values.count(key) == 0 &&
        expect.inflight_values.count(key) == 0) {
      Violation(&report, "ghost key " + KeyRepr(key) + " appeared from nowhere");
    }
  }

  size_t pending = index.PendingLogEntries();
  if (pending != 0) {
    Violation(&report, "allocation log not drained: " + std::to_string(pending) +
                           " entries pending");
  }
  if (!index.OperationLogsDrained()) {
    Violation(&report, "operation (SMO) logs not empty after recovery");
  }
  std::string why;
  if (!index.CheckInvariants(&why)) {
    Violation(&report, "structural invariant violated: " + why);
  }
  return report;
}

}  // namespace pactree
