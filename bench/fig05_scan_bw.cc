// Figure 5: scan throughput and NVM reads (guideline GA5).
//
// FastFair embeds sorted key-value pairs in its leaves: scans are sequential
// XPLine reads. PDL-ART chases one out-of-node record per key: random reads.
// The paper reports FastFair 1.5x faster with 1.6x fewer NVM reads. PACTree
// runs the same scans: of each data node it reads the header line, the slot
// lines holding live slots and the arena below its cursor. Integer and string
// keys.
#include "bench/bench_common.h"

using namespace pactree;

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  Banner("Figure 5", "scan throughput and NVM reads: FastFair vs PDL-ART vs PACTree");
  BenchScale scale = ReadScale(1'000'000, 100'000, "4");
  uint32_t threads = scale.threads.back();
  std::printf("%-10s %-8s %10s %12s %14s %16s\n", "index", "keys", "threads",
              "Kscans/s", "nvm_read(GB)", "rd_bytes/scan");
  for (bool strings : {false, true}) {
    for (IndexKind kind : {IndexKind::kFastFair, IndexKind::kPdlArt, IndexKind::kPacTree}) {
      ConfigureNvmMachine();
      YcsbSpec spec;
      spec.kind = YcsbKind::kE;
      spec.record_count = scale.keys;
      spec.op_count = scale.ops;
      spec.threads = threads;
      spec.string_keys = strings;
      spec.zipfian = false;
      spec.scan_max_len = 100;
      auto index = MakeLoaded(kind, spec);
      if (index == nullptr) {
        return 1;
      }
      YcsbResult r = YcsbDriver::Run(index.get(), spec);
      std::printf("%-10s %-8s %10u %12.1f %14.3f %16.1f\n", index->Name().c_str(),
                  strings ? "string" : "int", threads, r.mops * 1000,
                  static_cast<double>(r.nvm.media_read_bytes) / 1e9,
                  static_cast<double>(r.nvm.media_read_bytes) /
                      static_cast<double>(r.ops));
      std::fflush(stdout);
      BenchJsonAdd(YcsbJsonRow(index->Name(), spec, r, index.get()));
      CleanupIndex(std::move(index), kind);
    }
  }
  std::printf("# paper shape: FastFair ~1.5x faster scans with ~1.6x fewer reads\n");
  BenchJsonWrite("fig05_scan_bw");
  return 0;
}
