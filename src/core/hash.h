// The one 128-bit content hash in the tree.
//
// The serve-layer artifact cache, the persistent store's content keys and
// the sharded store's rendezvous router all address bytes by the same
// digest: FNV-1a run twice over the input with two independent offset
// bases, giving a 128-bit address. It is not cryptographic, but it is
// collision-safe at fleet-cache scale, dependency-free, and cheap enough
// to run per request. It used to live as a private struct inside
// serve/cache.cpp; this header is the single shared definition, pinned by
// hash_test.cpp's fixed vectors so no caller can drift byte-wise.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace nc::core {

/// A 128-bit digest. `lo` and `hi` are the two independent FNV-1a states;
/// both halves see every input byte.
struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const Hash128&) const = default;

  /// 32 lowercase hex chars, hi first -- matches CacheKey/store Key hex().
  std::string hex() const;
};

/// Streaming dual-offset FNV-1a. Feed bytes/integers in any chunking; the
/// digest depends only on the byte sequence. Default-constructed state is
/// the empty-input digest.
class Fnv128 {
 public:
  static constexpr std::uint64_t kPrime = 0x100000001B3ull;
  static constexpr std::uint64_t kOffsetLo = 0xCBF29CE484222325ull;
  // A second, independent offset basis turns one FNV-1a pass into a
  // 128-bit address.
  static constexpr std::uint64_t kOffsetHi = 0x6C62272E07BB0142ull;

  void update(std::uint8_t byte) noexcept {
    lo_ = (lo_ ^ byte) * kPrime;
    hi_ = (hi_ ^ byte) * kPrime;
  }

  /// Little-endian: feeds the 8 bytes of `v` least-significant first.
  void update_u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) update(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void update_bytes(const std::uint8_t* data, std::size_t len) noexcept {
    for (std::size_t i = 0; i < len; ++i) update(data[i]);
  }

  Hash128 digest() const noexcept { return {lo_, hi_}; }

 private:
  std::uint64_t lo_ = kOffsetLo;
  std::uint64_t hi_ = kOffsetHi;
};

/// One-shot digest over raw bytes.
Hash128 fnv128(const std::uint8_t* data, std::size_t len) noexcept;

/// splitmix64 finalizer (with the golden-ratio increment): the one seed
/// mixer in the tree. Fleet derives per-(device, batch) channel seeds and
/// the tuner derives per-candidate RNG seeds through this, so nested
/// `mix64(a ^ mix64(b))` compositions never correlate adjacent streams.
/// Pinned by hash_test.cpp's golden vectors; changing it re-seeds every
/// deterministic replay in the repo, so don't.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// One step of the splitmix64 generator over `state`: returns
/// mix64(state), then advances the state by the golden-ratio increment.
/// The seeded backoff jitters and the greedy X-code search draw from it.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  const std::uint64_t out = mix64(state);
  state += 0x9E3779B97F4A7C15ULL;
  return out;
}

/// "Equal jitter" for a backoff `d`: a seeded draw from U[d/2, d] in whole
/// milliseconds. The floor still grows with an exponential backoff and the
/// spread scales with it, so parties that failed together (workers after
/// one disk hiccup, clients after one dropped burst) do not retry in
/// lockstep. One splitmix64 step per draw.
inline std::chrono::milliseconds equal_jitter(
    std::uint64_t& state, std::chrono::milliseconds d) noexcept {
  const auto half = d.count() / 2;
  const auto span = static_cast<std::uint64_t>(d.count() - half + 1);
  return std::chrono::milliseconds(
      half + static_cast<std::int64_t>(splitmix64(state) % span));
}

}  // namespace nc::core
