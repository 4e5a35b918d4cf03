// Figure 4 + the §3.3 analytic model (Eq. 1/2, guideline GA1).
//
// FastFair (B+-tree) vs PDL-ART (trie), 100% lookups (YCSB-C), integer and
// string keys: throughput and the total NVM media reads. The trie compares
// partial keys per level and should read several times less than the B+-tree,
// especially for string keys (out-of-node key records). PACTree runs the same
// lookups: a hit reads its data node's 256-B header line, the slot record's
// line (key word and value) and, for suffixes over 7 B, one arena line.
#include <cmath>

#include "bench/bench_common.h"

using namespace pactree;

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  Banner("Figure 4", "lookup throughput and NVM reads: FastFair vs PDL-ART vs PACTree");

  // --- Eq. (1)/(2) analytic model table -----------------------------------
  std::printf("# analytic worst-case NVM IO per lookup (Eq. 1 vs Eq. 2):\n");
  std::printf("# %10s %6s %6s %14s %12s %8s\n", "K", "F_bt", "F_trie", "BW_btree(B)",
              "BW_trie(B)", "ratio");
  for (double kkeys : {1e6, 1e8}) {
    for (double s : {8.0, 23.0}) {
      double f_bt = 32, f_trie = 256;
      double bw_bt = std::ceil(std::log(kkeys) / std::log(f_bt)) * std::log2(f_bt) * s;
      double bw_trie = std::log2(f_trie) * s;  // partial-key cmp/level + 1 full cmp
      std::printf("# %10.0f %6.0f %6.0f %14.0f %12.0f %8.1fx  (S=%.0fB)\n", kkeys,
                  f_bt, f_trie, bw_bt, bw_trie, bw_bt / bw_trie, s);
    }
  }

  BenchScale scale = ReadScale(1'000'000, 500'000, "4");
  uint32_t threads = scale.threads.back();
  std::printf("%-10s %-8s %10s %12s %14s %14s\n", "index", "keys", "threads", "Mops/s",
              "nvm_read(GB)", "rd_bytes/op");
  for (bool strings : {false, true}) {
    for (IndexKind kind : {IndexKind::kFastFair, IndexKind::kPdlArt, IndexKind::kPacTree}) {
      ConfigureNvmMachine();
      YcsbSpec spec;
      spec.kind = YcsbKind::kC;
      spec.record_count = scale.keys;
      spec.op_count = scale.ops;
      spec.threads = threads;
      spec.string_keys = strings;
      spec.zipfian = false;  // the paper's Figure 4 uses uniform lookups
      auto index = MakeLoaded(kind, spec);
      if (index == nullptr) {
        return 1;
      }
      YcsbResult r = YcsbDriver::Run(index.get(), spec);
      std::printf("%-10s %-8s %10u %12.3f %14.3f %14.1f\n", index->Name().c_str(),
                  strings ? "string" : "int", threads, r.mops,
                  static_cast<double>(r.nvm.media_read_bytes) / 1e9,
                  static_cast<double>(r.nvm.media_read_bytes) /
                      static_cast<double>(r.ops));
      std::fflush(stdout);
      BenchJsonAdd(YcsbJsonRow(index->Name(), spec, r, index.get()));
      CleanupIndex(std::move(index), kind);
    }
  }
  std::printf("# paper shape: FastFair reads ~7.7x more NVM for string keys;"
              " PDL-ART ~3.7x higher lookup throughput\n");
  BenchJsonWrite("fig04_lookup_bw");
  return 0;
}
