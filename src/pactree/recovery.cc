// PACTree recovery (paper §5.6): roll every pending SMO forward (or discard
// it when its data-layer effects never became visible), rebuild the volatile
// search layer when configured, and reset the SMO rings. Runs single-threaded
// from PacTree::Init, after the heaps map and before updater services start.
#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "src/nvm/persist.h"
#include "src/pactree/pac_root.h"
#include "src/pactree/pactree.h"
#include "src/pactree/updater.h"
#include "src/pmem/registry.h"

namespace pactree {
namespace {

// True while |anchor|'s trie leaf still points at data node |node_raw|.
[[maybe_unused]] bool TrieMapsTo(const PdlArt& art, const Key& anchor, uint64_t node_raw) {
  uint64_t v = 0;
  return art.Lookup(anchor, &v) == Status::kOk && v == node_raw;
}

}  // namespace

void PacTree::Recover() {
  // Gather every pending SMO entry across the per-writer logs.
  // Scan entire rings (not just [head, tail]): the persisted tail may lag a
  // published entry that a crash cut off.
  std::vector<SmoLogEntry*> pending;
  uint64_t max_seq = 0;
  for (size_t s = 0; s < kMaxWriterSlots; ++s) {
    SmoLog* log = updater_->log(s);
    if (log == nullptr) {
      continue;
    }
    for (size_t i = 0; i < kSmoLogEntries; ++i) {
      SmoLogEntry& e = log->entries[i];
      if (e.type == 0) {
        continue;
      }
      if (e.checksum != SmoEntryChecksum(e)) {
        // A split crash between AllocTo's attach and the checksum re-seal
        // leaves the entry validating only with other_raw treated as 0. The
        // data layer is untouched at that point, so release the fresh node
        // and forget the split.
        SmoLogEntry probe = e;
        probe.other_raw = 0;
        if (e.type == kSmoTypeSplit && e.other_raw != 0 &&
            e.checksum == SmoEntryChecksum(probe)) {
          PmemFree(PPtr<void>(e.other_raw));
        }
        // Anything else is a torn publish: part of the entry committed next
        // to a recycled slot's stale payload. The entry's fence precedes all
        // data mutation, so discarding it means the SMO never started.
        std::memset(static_cast<void*>(&e), 0, sizeof(e));
        PersistFence(&e, sizeof(e));
        continue;
      }
      max_seq = std::max(max_seq, e.seq);
      if (!e.applied) {
        pending.push_back(&e);
      }
    }
  }
  updater_->SetNextSeq(max_seq + 1);
  // In-flight entries (seq not yet published) are the last op of their writer
  // and replay after every published one.
  auto order = [](const SmoLogEntry* e) { return e->seq == 0 ? ~uint64_t{0} : e->seq; };
  std::sort(pending.begin(), pending.end(),
            [&](const SmoLogEntry* a, const SmoLogEntry* b) { return order(a) < order(b); });

  for (SmoLogEntry* e : pending) {
    if (e->type == kSmoTypeSplit) {
      RecoverSplit(e);
    } else {
      RecoverMerge(e);
    }
  }

  if (opts_.dram_search_layer) {
    // Rebuild the volatile trie from the (now consistent) data layer.
    DataNode* node = PPtr<DataNode>(root_->head_raw).get();
    while (node != nullptr) {
      if (!node->IsDeleted()) {
        art_->Insert(node->anchor, ToPPtr(node).Cast<void>().raw);
      }
      node = node->Next();
    }
  }

  art_->Recover();

  // All pending work has been rolled forward; reset the rings.
  for (size_t s = 0; s < kMaxWriterSlots; ++s) {
    SmoLog* log = updater_->log(s);
    if (log == nullptr) {
      continue;
    }
    std::memset(static_cast<void*>(log->entries), 0, sizeof(log->entries));
    log->head = 0;
    log->tail = 0;
    PersistFence(log, sizeof(SmoLog));
  }
}

void PacTree::RecoverSplit(SmoLogEntry* e) {
  DataNode* node = PPtr<DataNode>(e->node_raw).get();
  uint64_t new_raw = e->other_raw;
  if (new_raw == 0) {
    // Crash before the new node was even allocated: the split never became
    // visible and the triggering insert was never acknowledged. Drop it.
    return;
  }
  DataNode* new_node = PPtr<DataNode>(new_raw).get();
  // Is the new node linked into the list? Walk forward from the split node.
  bool linked = false;
  DataNode* cur = node;
  for (int hops = 0; hops < 1 << 20 && cur != nullptr; ++hops) {
    uint64_t nxt = cur->NextRaw();
    if (nxt == new_raw) {
      linked = true;
      break;
    }
    cur = PPtr<DataNode>(nxt).get();
    if (cur == nullptr || cur->anchor > e->anchor) {
      break;
    }
  }
  if (!linked) {
    // Not visible: release the allocated node and forget the split.
    PmemFree(PPtr<void>(new_raw));
    return;
  }
  // Visible: roll forward. (1) the predecessor must not keep keys that moved.
  DataNode* pred = PPtr<DataNode>(new_node->PrevRaw()).get();
  if (pred != nullptr) {
    uint64_t bm = pred->Bitmap();
    uint64_t trimmed = bm;
    while (bm != 0) {
      int i = __builtin_ctzll(bm);
      if (pred->KeyAt(i) >= e->anchor) {
        trimmed &= ~(1ULL << i);
      }
      bm &= bm - 1;
    }
    if (trimmed != pred->Bitmap()) {
      pred->PublishBitmap(trimmed);
    }
  }
  // (2) the right neighbor's back-pointer.
  DataNode* right = PPtr<DataNode>(new_node->NextRaw()).get();
  if (right != nullptr && right->PrevRaw() != new_raw) {
    right->StorePrevPersist(new_raw);
  }
  // (3) the search layer.
  art_->Insert(e->anchor, new_raw);
  e->applied = 1;
  PersistFence(&e->applied, sizeof(e->applied));
}

void PacTree::RecoverMerge(SmoLogEntry* e) {
  DataNode* node = PPtr<DataNode>(e->node_raw).get();
  DataNode* right = PPtr<DataNode>(e->other_raw).get();
  if (right == nullptr) {
    return;
  }
  if (!right->IsDeleted()) {
    // Copy phase may be incomplete: move over every live key the survivor does
    // not already hold, then mark the victim deleted.
    // The survivor's arena must fit every missing suffix before any copy
    // (TryMergeLocked pre-checks the same bound pre-crash, but the crash may
    // land after suffix appends consumed arena room). Compact once if short;
    // abandon the roll-forward if still short -- both nodes stay live and the
    // list stays valid. Recovery is single-threaded, so the lock-holding
    // contract of CompactArenaLocked holds trivially.
    size_t need = 0;
    uint64_t vbm = right->Bitmap();
    while (vbm != 0) {
      int i = __builtin_ctzll(vbm);
      vbm &= vbm - 1;
      Key k = right->KeyAt(i);
      if (node->FindKey(k, k.Fingerprint()) >= 0) {
        continue;
      }
      need += node->ArenaNeed(k);
    }
    if (kArenaBytes - node->arena_cursor < need) {
      node->CompactArenaLocked();
    }
    if (kArenaBytes - node->arena_cursor < need) {
      return;
    }
    uint64_t bm = right->Bitmap();
    uint64_t add = 0;
    while (bm != 0) {
      int i = __builtin_ctzll(bm);
      bm &= bm - 1;
      const Key k = right->KeyAt(i);
      if (node->FindKey(k, k.Fingerprint()) >= 0) {
        continue;
      }
      uint64_t live = node->Bitmap() | add;
      if (live == ~0ULL) {
        break;  // no room: abandon the merge roll-forward (victim stays live)
      }
      int free = __builtin_ctzll(~live);
      node->FillSlot(free, k, k.Fingerprint(), right->ValueAt(i));
      add |= 1ULL << free;
    }
    if ((right->Bitmap() != 0 && add == 0 && node->Bitmap() == ~0ULL)) {
      return;  // could not complete; leave both nodes live (list still valid)
    }
    if (add != 0) {
      node->PublishBitmap(node->Bitmap() | add);
    }
    std::atomic_ref<uint32_t>(right->deleted).store(1, std::memory_order_release);
    PersistFence(&right->deleted, sizeof(right->deleted));
  }
  // Unlink.
  if (node->NextRaw() == e->other_raw) {
    node->StoreNextPersist(right->NextRaw());
  }
  DataNode* r2 = PPtr<DataNode>(right->NextRaw()).get();
  if (r2 != nullptr && r2->PrevRaw() == e->other_raw) {
    r2->StorePrevPersist(e->node_raw);
  }
  // Search layer + physical free. Recovery is single-threaded, so no reader can
  // hold the victim's trie leaf: free directly once the removal is durable.
  art_->Remove(e->anchor);
  assert(!TrieMapsTo(*art_, e->anchor, e->other_raw));
  e->applied = 1;
  PersistFence(&e->applied, sizeof(e->applied));
  PmemFree(PPtr<void>(e->other_raw));
}

}  // namespace pactree
