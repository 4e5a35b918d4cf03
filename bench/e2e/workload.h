// The benchmark's own traffic and correctness oracle: key universe, value
// encoding, op streams and latency histograms. Nothing here calls into the
// library except the Key constructors, so a library change cannot change the
// traffic the benchmark sends.
#ifndef PACTREE_BENCH_E2E_WORKLOAD_H_
#define PACTREE_BENCH_E2E_WORKLOAD_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/key.h"

namespace e2e {

using pactree::Key;

// --- random numbers ---------------------------------------------------------

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// xoshiro256**, seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (auto& s : s_) {
      seed = SplitMix64(seed);
      s = seed;
    }
  }
  uint64_t Next() {
    uint64_t r = Rotl(s_[1] * 5, 7) * 9;
    uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return r;
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

// Zipfian ranks over [0, n) (Gray et al., SIGMOD'94; YCSB's generator).
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    double zeta2 = 1.0 + std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }
  uint64_t Next(Rng& rng) const {
    double u = rng.Unit();
    double uz = u * zetan_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < 1.0 + std::pow(0.5, theta_)) {
      return 1;
    }
    auto v = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return v >= n_ ? n_ - 1 : v;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

// --- key universe -----------------------------------------------------------
// Record i's key is Perm(i + salt), a bijection on 63-bit integers, written as
// an 8-byte big-endian integer or as YCSB's 23-byte "user" + 19 digits (63
// bits always fit 19 digits). The oracle inverts it: key -> record index.

class KeyUniverse {
 public:
  static constexpr uint64_t kMask = (1ULL << 63) - 1;

  KeyUniverse(bool string_keys, uint64_t seed)
      : string_keys_(string_keys), salt_(SplitMix64(seed) & kMask) {}

  bool string_keys() const { return string_keys_; }

  Key At(uint64_t index) const {
    uint64_t v = Perm((index + salt_) & kMask);
    if (!string_keys_) {
      return Key::FromInt(v);
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "user%019llu", static_cast<unsigned long long>(v));
    return Key::FromBytes(buf, 23);
  }

  // Record index of |key|; false when |key| is not in the universe's format.
  bool IndexOf(const Key& key, uint64_t* index) const {
    uint64_t v = 0;
    if (!string_keys_) {
      v = key.ToInt();
    } else {
      std::string_view s = key.View();
      if (s.size() != 23 || s.substr(0, 4) != "user") {
        return false;
      }
      for (char c : s.substr(4)) {
        if (c < '0' || c > '9') {
          return false;
        }
        v = v * 10 + static_cast<uint64_t>(c - '0');
      }
    }
    if (v > kMask) {
      return false;
    }
    *index = (Unperm(v) - salt_) & kMask;
    return true;
  }

 private:
  static constexpr uint64_t kC1 = 0xbf58476d1ce4e5b9ULL;
  static constexpr uint64_t kC2 = 0x94d049bb133111ebULL;

  // Inverse of an odd multiplier modulo 2^64 (hence modulo 2^63).
  static constexpr uint64_t Inverse(uint64_t c) {
    uint64_t x = c;
    for (int i = 0; i < 6; ++i) {
      x *= 2 - c * x;
    }
    return x;
  }
  // Inverse of x ^= x >> s on 63-bit values.
  static uint64_t UnXorShift(uint64_t y, int s) {
    uint64_t x = y;
    for (int i = 0; i < 63 / s + 1; ++i) {
      x = y ^ (x >> s);
    }
    return x;
  }
  static uint64_t Perm(uint64_t x) {
    x ^= x >> 31;
    x = (x * kC1) & kMask;
    x ^= x >> 29;
    x = (x * kC2) & kMask;
    return x ^ (x >> 32);
  }
  static uint64_t Unperm(uint64_t x) {
    x = UnXorShift(x, 32);
    x = (x * Inverse(kC2)) & kMask;
    x = UnXorShift(x, 29);
    x = (x * Inverse(kC1)) & kMask;
    return UnXorShift(x, 31);
  }

  bool string_keys_;
  uint64_t salt_;
};

// --- values -----------------------------------------------------------------
// A u64 value holds (index + 1) above a 20-bit version; value-tier bytes
// start with the index and version and are filled with a byte derived from
// both. Either way a read proves which record it came from.

inline constexpr int kVersionBits = 20;

inline uint64_t WordValue(uint64_t index, uint64_t version) {
  return ((index + 1) << kVersionBits) | (version & ((1ULL << kVersionBits) - 1));
}
inline bool WordMatches(uint64_t value, uint64_t index) {
  return (value >> kVersionBits) == index + 1;
}

// 80% 64-B and 20% 1-KiB values.
inline size_t ValueLen(uint64_t index, uint64_t version) {
  return SplitMix64(index * 0x100000001b3ULL + version) % 5 == 4 ? 1024 : 64;
}
inline char FillByte(uint64_t index, uint64_t version) {
  return static_cast<char>((index * 131 + version * 7 + 1) & 0xff);
}
inline void MakeValue(uint64_t index, uint64_t version, std::string* out) {
  out->assign(ValueLen(index, version), FillByte(index, version));
  std::memcpy(out->data(), &index, 8);
  std::memcpy(out->data() + 8, &version, 8);
}
inline bool BytesMatch(std::string_view v, uint64_t index) {
  if (v.size() < 16) {
    return false;
  }
  uint64_t got_index = 0;
  uint64_t version = 0;
  std::memcpy(&got_index, v.data(), 8);
  std::memcpy(&version, v.data() + 8, 8);
  if (got_index != index || v.size() != ValueLen(index, version)) {
    return false;
  }
  const char fill = FillByte(index, version);
  for (size_t i = 16; i < v.size(); ++i) {
    if (v[i] != fill) {
      return false;
    }
  }
  return true;
}

// --- workloads and op streams -------------------------------------------------

enum class ReadOp { kLookup, kScan, kLookupValue };
enum class WriteOp { kNone, kUpdate, kInsert, kInsertValue };

struct WorkloadSpec {
  const char* name;
  bool string_keys;
  bool value_tier;
  bool zipf;  // zipf theta 0.99 over the loaded records; uniform otherwise
  uint32_t write_pct;
  ReadOp read;
  WriteOp write;
  // Ops per second of run length: a run of S seconds is a fixed stream of
  // kops * 1000 * S ops, so every run of one seed sends the same ops. Sized so
  // that the measured run of the 2 clients on a 4-vCPU Xeon VM lasts about S.
  uint32_t kops;
};

// Why each workload exists is in README.md.
inline constexpr WorkloadSpec kWorkloads[] = {
    {"lookup-uniform-str", true, false, false, 0, ReadOp::kLookup, WriteOp::kNone, 360},
    {"update-zipf-int", false, false, true, 50, ReadOp::kLookup, WriteOp::kUpdate, 740},
    {"scan-zipf-int", false, false, true, 5, ReadOp::kScan, WriteOp::kInsert, 142},
    {"value-zipf-str", true, true, true, 5, ReadOp::kLookupValue, WriteOp::kInsertValue, 300},
};

inline constexpr double kZipfTheta = 0.99;
inline constexpr uint32_t kMaxScanLen = 100;

struct Op {
  bool write = false;
  uint64_t index = 0;    // record the op addresses (a fresh one for kInsert)
  uint64_t version = 0;  // value version a write stores
  uint32_t scan_len = 0;
};

// Client |thread|'s op sequence: a pure function of (workload, seed, thread),
// so a replay thread can regenerate exactly the keys a client sent.
class OpStream {
 public:
  OpStream(const WorkloadSpec& w, const Zipf* zipf, uint64_t records, uint64_t seed,
           uint32_t thread, uint32_t threads)
      : w_(w), zipf_(zipf), records_(records), thread_(thread), threads_(threads),
        rng_(SplitMix64(seed) ^ (0x51ed27a3ULL * (thread + 1))) {}

  Op Next() {
    Op op;
    op.write = w_.write_pct > 0 && rng_.Uniform(100) < w_.write_pct;
    if (op.write && w_.write == WriteOp::kInsert) {
      op.index = records_ + writes_ * threads_ + thread_;
    } else {
      op.index = zipf_ != nullptr ? zipf_->Next(rng_) : rng_.Uniform(records_);
    }
    if (op.write) {
      op.version = writes_ * threads_ + thread_ + 1;
      ++writes_;
    } else if (w_.read == ReadOp::kScan) {
      op.scan_len = 1 + static_cast<uint32_t>(rng_.Uniform(kMaxScanLen));
    }
    return op;
  }

  // Records this stream has inserted so far (kInsert workloads).
  uint64_t inserts() const { return w_.write == WriteOp::kInsert ? writes_ : 0; }

 private:
  const WorkloadSpec& w_;
  const Zipf* zipf_;
  uint64_t records_;
  uint32_t thread_;
  uint32_t threads_;
  Rng rng_;
  uint64_t writes_ = 0;
};

// --- latency histogram --------------------------------------------------------
// Log-linear buckets (128 per power of two, <0.8% wide) with interpolation
// inside the bucket, so percentiles move continuously between runs instead of
// snapping to bucket bounds.

class Histogram {
 public:
  static constexpr int kSub = 128;
  static constexpr int kExp = 40;  // values up to 2^40 ns

  void Record(uint64_t v) {
    counts_[Bucket(v)]++;
    n_++;
  }
  void Merge(const Histogram& o) {
    for (size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += o.counts_[i];
    }
    n_ += o.n_;
  }
  uint64_t count() const { return n_; }

  double Percentile(double p) const {
    if (n_ == 0) {
      return 0;
    }
    double rank = p / 100.0 * static_cast<double>(n_ - 1);
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) {
        continue;
      }
      if (static_cast<double>(seen + counts_[i]) > rank) {
        double frac = (rank - static_cast<double>(seen) + 0.5) /
                      static_cast<double>(counts_[i]);
        return Lower(i) + frac * (Lower(i + 1) - Lower(i));
      }
      seen += counts_[i];
    }
    return Lower(counts_.size() - 1);
  }

 private:
  // Bucket i < kSub holds value i exactly; above that, each power of two is
  // split into kSub equal buckets.
  static size_t Bucket(uint64_t v) {
    if (v < kSub) {
      return v;
    }
    int msb = 63 - __builtin_clzll(v);
    int shift = msb - 7;  // log2(kSub)
    size_t i = static_cast<size_t>(msb - 6) * kSub + ((v >> shift) & (kSub - 1));
    return i < kSub * kExp ? i : kSub * kExp - 1;
  }
  static double Lower(size_t i) {
    if (i < kSub) {
      return static_cast<double>(i);
    }
    int msb = static_cast<int>(i / kSub) + 6;
    return std::ldexp(1.0 + static_cast<double>(i % kSub) / kSub, msb);
  }

  std::array<uint32_t, kSub * kExp> counts_{};  // 20 KiB
  uint64_t n_ = 0;
};

}  // namespace e2e

#endif  // PACTREE_BENCH_E2E_WORKLOAD_H_
