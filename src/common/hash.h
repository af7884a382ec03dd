// Shared content-hash primitives: FNV-1a chaining plus a splitmix64
// avalanche, and a word-at-a-time variant for in-process keys. Used by the
// catalog stats fingerprint (src/scope/) and the compilation-cache keys
// (src/cache/) — one definition, so the two sides of a fingerprint can
// never drift apart.
#ifndef QO_COMMON_HASH_H_
#define QO_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace qo {

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

/// FNV-1a over a byte range, chained through `seed`.
inline uint64_t HashBytes(const void* data, size_t n,
                          uint64_t seed = kFnvOffsetBasis) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t HashString(const std::string& s,
                           uint64_t seed = kFnvOffsetBasis) {
  return HashBytes(s.data(), s.size(), seed);
}

inline uint64_t HashU64(uint64_t v, uint64_t seed) {
  return HashBytes(&v, sizeof(v), seed);
}

inline uint64_t HashDouble(double v, uint64_t seed) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return HashU64(bits, seed);
}

/// Final avalanche (splitmix64 tail): spreads FNV's weak low bits before a
/// hash is used for shard selection or order-independent (+) combination.
inline uint64_t MixHash(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// Word-at-a-time hash of a byte range for in-process lookup keys (the
/// front-end cache's script key): eight bytes per multiply instead of one,
/// the zero-padded tail as a last word, the length folded in, then MixHash.
/// Each step is a bijection of the running state for a fixed word and of
/// the word for a fixed state, so two inputs of one length that differ in a
/// single word never collide. Endian-dependent, so never a stable digest:
/// persisted and reported hashes stay on HashString.
inline uint64_t HashBytesWide(const void* data, size_t n) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = kFnvOffsetBasis;
  auto step = [&h](uint64_t word) {
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  };
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    step(word);
  }
  if (i < n) {
    uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    step(tail);
  }
  return MixHash(h ^ static_cast<uint64_t>(n));
}

}  // namespace qo

#endif  // QO_COMMON_HASH_H_
