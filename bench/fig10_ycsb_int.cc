// Figure 10: YCSB scalability, INTEGER keys (8 bytes), Zipfian distribution.
// Same as Figure 9 plus FPTree (integer keys only).
#include "bench/bench_common.h"

using namespace pactree;

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  Banner("Figure 10", "YCSB (integer keys, Zipfian) thread-scaling, all indexes");
  BenchScale scale = ReadScale(1'000'000, 300'000);
  YcsbDriver::PrintHeader();
  for (IndexKind kind : {IndexKind::kPacTree, IndexKind::kPdlArt, IndexKind::kBzTree,
                         IndexKind::kFastFair, IndexKind::kFpTree}) {
    for (uint32_t t : scale.threads) {
      ConfigureNvmMachine();
      YcsbSpec spec;
      spec.record_count = scale.keys;
      spec.op_count = scale.ops;
      spec.threads = t;
      spec.string_keys = false;
      spec.zipfian = true;

      spec.kind = YcsbKind::kLoadA;
      IndexFactoryOptions o;
      o.pool_size = std::max<size_t>(512ULL << 20, scale.keys * 3072 * 2);
      auto index = CreateIndex(kind, o);
      if (index == nullptr) {
        std::fprintf(stderr, "skipping %s\n", IndexKindName(kind));
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
  std::printf("# paper shape: PACTree leads; FPTree collapses at high thread counts\n"
              "# (HTM aborts); FastFair competitive on integer keys only\n");
  BenchJsonWrite("fig10_ycsb_int");
  return 0;
}
