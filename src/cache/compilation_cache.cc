#include "cache/compilation_cache.h"

#include <cstdlib>

#include "cache/fingerprint.h"

namespace qo::cache {

namespace {

/// Parses a positive integer env var; returns `fallback` when unset, empty
/// or unparsable (a misspelled knob degrades to defaults, never to UB).
size_t EnvSize(const char* name, size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || v == 0) return fallback;
  return static_cast<size_t>(v);
}

}  // namespace

CompileCacheOptions CompileCacheOptions::FromEnv() {
  CompileCacheOptions options;
  options.capacity = EnvSize("QO_COMPILE_CACHE_CAPACITY", options.capacity);
  options.num_shards = static_cast<int>(
      EnvSize("QO_COMPILE_CACHE_SHARDS",
              static_cast<size_t>(options.num_shards)));
  return options;
}

size_t FrontEndKeyHasher::operator()(const FrontEndKey& k) const {
  return static_cast<size_t>(
      MixHash(k.script_hash ^ MixHash(k.catalog_fingerprint)));
}

}  // namespace qo::cache
