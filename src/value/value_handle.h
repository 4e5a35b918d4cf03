// Tagged 8-byte value handle: the bridge between the key index (which stores
// bare uint64_t values) and the log-structured value tier (value_storage.h).
//
// A handle is either an *inline* value (payload <= 7 bytes packed into the
// word itself) or the PPtr raw of a checksummed record in the value log. The
// discriminator is bit 63: a PPtr raw is (pool_id << 48) | offset and every
// pool id in this repository is far below 32768, so bit 63 of a real
// persistent pointer is always 0 -- the inline tag can claim it without
// narrowing the address space the index actually uses. Because the tag bit is
// set, an inline handle is never 0 even for the empty value, so "slot holds a
// handle" and "slot empty" stay distinguishable everywhere a raw 0 means null.
//
// Inline layout (bit 63 set):
//   [63]      1  (tag)
//   [58..56]  payload length, 0..7
//   [55..0]   payload bytes, byte 0 of the value in the LOW byte
//
// The encoding is what lets PACTree's node layout and SMO protocol carry
// variable-length values untouched: they keep moving opaque 8-byte words,
// and only the value-aware entry points interpret them.
#ifndef PACTREE_SRC_VALUE_VALUE_HANDLE_H_
#define PACTREE_SRC_VALUE_VALUE_HANDLE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace pactree {

inline constexpr uint64_t kValueInlineTag = 1ULL << 63;
inline constexpr size_t kMaxInlineValue = 7;

inline bool ValueHandleIsInline(uint64_t handle) {
  return (handle & kValueInlineTag) != 0;
}

// Precondition: v.size() <= kMaxInlineValue.
inline uint64_t EncodeInlineValue(std::string_view v) {
  uint64_t payload = 0;
  std::memcpy(&payload, v.data(), v.size());  // little-endian: byte 0 low
  return kValueInlineTag | (static_cast<uint64_t>(v.size()) << 56) |
         (payload & ((1ULL << 56) - 1));
}

// Precondition: ValueHandleIsInline(handle).
inline void DecodeInlineValue(uint64_t handle, std::string* out) {
  const size_t len = (handle >> 56) & 0x7;
  uint64_t payload = handle & ((1ULL << 56) - 1);
  out->assign(reinterpret_cast<const char*>(&payload), len);
}

}  // namespace pactree

#endif  // PACTREE_SRC_VALUE_VALUE_HANDLE_H_
