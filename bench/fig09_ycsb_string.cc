// Figure 9: YCSB scalability, STRING keys (23 bytes), Zipfian distribution.
//
// PACTree vs PDL-ART vs BzTree vs FastFair across L-A / W-A / W-B / W-C / W-E.
// FPTree is excluded here, as in the paper (the authors' binary has no
// variable-length key support).
#include "bench/bench_common.h"

using namespace pactree;

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  Banner("Figure 9", "YCSB (string keys, Zipfian) thread-scaling, all indexes");
  BenchScale scale = ReadScale(1'000'000, 300'000);
  YcsbDriver::PrintHeader();
  for (IndexKind kind : {IndexKind::kPacTree, IndexKind::kPdlArt, IndexKind::kBzTree,
                         IndexKind::kFastFair}) {
    for (uint32_t t : scale.threads) {
      ConfigureNvmMachine();
      YcsbSpec spec;
      spec.record_count = scale.keys;
      spec.op_count = scale.ops;
      spec.threads = t;
      spec.string_keys = true;
      spec.zipfian = true;
      // --value-size routes every phase through the variable-length value API
      // (PACTree's tiered value storage; others only if they pack inline).
      ApplyBenchValueSpec(&spec);

      // L-A is the measured load phase.
      spec.kind = YcsbKind::kLoadA;
      IndexFactoryOptions fopts;
      auto index = CreateIndex(kind, [&] {
        IndexFactoryOptions o;
        o.string_keys = true;
        o.pool_size = std::max<size_t>(512ULL << 20, scale.keys * 3072 * 2);
        return o;
      }());
      if (index == nullptr) {
        std::fprintf(stderr, "skipping %s\n", IndexKindName(kind));
        continue;
      }
      if (spec.value_size > kMaxInlineValue && !index->SupportsLargeValues()) {
        std::fprintf(stderr, "skipping %s: no large-value support (--value-size=%llu)\n",
                     IndexKindName(kind),
                     static_cast<unsigned long long>(spec.value_size));
        CleanupIndex(std::move(index), kind);
        continue;
      }
      YcsbResult load = YcsbDriver::Load(index.get(), spec);
      YcsbDriver::PrintRow(index->Name(), spec, load);
      index->Drain();

      for (YcsbKind wl : {YcsbKind::kA, YcsbKind::kB, YcsbKind::kC, YcsbKind::kE}) {
        spec.kind = wl;
        YcsbResult r = YcsbDriver::Run(index.get(), spec);
        YcsbDriver::PrintRow(index->Name(), spec, r);
        BenchJsonAdd(YcsbJsonRow(index->Name(), spec, r, index.get()));
      }
      if (kind == IndexKind::kPacTree) {
        PrintPacTreeNodeStats(index.get());
      }
      CleanupIndex(std::move(index), kind);
    }
  }
  std::printf("# paper shape: PACTree leads every workload (up to 4x on writes via\n"
              "# async SMOs, up to 3.2x on reads via the trie search layer)\n");
  BenchJsonWrite("fig09_ycsb_string");
  return 0;
}
