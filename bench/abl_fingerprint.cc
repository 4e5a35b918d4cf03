// Ablation: the data node's one-byte fingerprint array (§5.2).
//
// PACTree matches a 64-byte fingerprint vector with SIMD before comparing any
// slot's key. This microbench measures a data-node point search with the
// fingerprint filter vs. a linear KeyEquals scan over the live slots, at
// several occupancies.
#include "bench/bench_common.h"
#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/pactree/data_node.h"
#include "src/pmem/heap.h"

using namespace pactree;

int main(int argc, char** argv) {
  ParseBenchFlags(argc, argv);
  Banner("Ablation", "data-node lookup: fingerprint SIMD filter vs full key scan");
  ConfigureNvmMachine(/*latency=*/false);
  PmemHeap::Destroy("abl_fp");
  PmemHeapOptions h;
  h.pool_id_base = 440;
  h.pool_size = 16 << 20;
  auto heap = PmemHeap::OpenOrCreate("abl_fp", h);
  auto* node = static_cast<DataNode*>(heap->Alloc(sizeof(DataNode)).get());

  std::printf("%-10s %16s %16s %8s\n", "occupancy", "with_fp(ns/op)", "no_fp(ns/op)",
              "speedup");
  for (int occupancy : {16, 32, 48, 64}) {
    Rng rng(occupancy);
    std::vector<Key> keys;
    uint64_t bitmap = 0;
    std::memset(static_cast<void*>(node), 0, sizeof(DataNode));
    for (int i = 0; i < occupancy; ++i) {
      Key k = Key::FromInt(rng.Next());
      node->FillSlot(i, k, k.Fingerprint(), i);
      bitmap |= 1ULL << i;
      keys.push_back(k);
    }
    node->PublishBitmap(bitmap);

    constexpr int kProbes = 2'000'000;
    // With fingerprints (the production path).
    uint64_t t0 = NowNs();
    uint64_t sink = 0;
    for (int i = 0; i < kProbes; ++i) {
      const Key& k = keys[static_cast<size_t>(i) % keys.size()];
      sink += static_cast<uint64_t>(node->FindKey(k, k.Fingerprint()));
    }
    double with_fp = static_cast<double>(NowNs() - t0) / kProbes;

    // Without: key comparison against every live slot.
    t0 = NowNs();
    for (int i = 0; i < kProbes; ++i) {
      const Key& k = keys[static_cast<size_t>(i) % keys.size()];
      uint64_t live = node->Bitmap();
      int found = -1;
      while (live != 0) {
        int s = __builtin_ctzll(live);
        live &= live - 1;
        if (node->KeyEquals(s, k)) {
          found = s;
          break;
        }
      }
      sink += static_cast<uint64_t>(found);
    }
    double no_fp = static_cast<double>(NowNs() - t0) / kProbes;
    std::printf("%-10d %16.1f %16.1f %7.2fx   (sink %llu)\n", occupancy, with_fp,
                no_fp, no_fp / with_fp, static_cast<unsigned long long>(sink & 1));
  }
  std::printf("# the fingerprint filter replaces O(live) key compares with two\n"
              "# AVX2 compares + (usually) one key compare (GA1)\n");
  heap.reset();
  PmemHeap::Destroy("abl_fp");
  return 0;
}
