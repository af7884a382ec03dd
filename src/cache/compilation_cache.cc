#include "cache/compilation_cache.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "cache/fingerprint.h"

namespace qo::cache {

namespace {

/// Parses a positive decimal env var; returns `fallback` when unset, empty,
/// zero, signed, out of range or unparsable (a misspelled knob degrades to
/// defaults, never to UB). strtoull alone would read "-1" as ULLONG_MAX.
size_t EnvSize(const char* name, size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw < '0' || *raw > '9') return fallback;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(raw, &end, 10);
  if (*end != '\0' || errno == ERANGE || v == 0) return fallback;
  return static_cast<size_t>(v);
}

}  // namespace

CompileCacheOptions CompileCacheOptions::FromEnv() {
  CompileCacheOptions options;
  options.capacity = EnvSize("QO_COMPILE_CACHE_CAPACITY", options.capacity);
  // Saturates at INT_MAX; ShardedLruCache clamps it to the capacity.
  options.num_shards = static_cast<int>(std::min<size_t>(
      EnvSize("QO_COMPILE_CACHE_SHARDS",
              static_cast<size_t>(options.num_shards)),
      std::numeric_limits<int>::max()));
  return options;
}

size_t FrontEndKeyHasher::operator()(const FrontEndKey& k) const {
  return static_cast<size_t>(
      MixHash(k.script_hash ^ MixHash(k.catalog_fingerprint)));
}

}  // namespace qo::cache
