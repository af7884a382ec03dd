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
  options.compilation_capacity =
      EnvSize("QO_COMPILE_CACHE_CAPACITY", options.compilation_capacity);
  // One front-end entry serves every config of a job, so a quarter of the
  // level-2 bound keeps level 1 effectively unevicted in practice.
  options.front_end_capacity = options.compilation_capacity / 4 > 0
                                   ? options.compilation_capacity / 4
                                   : 1;
  options.num_shards = static_cast<int>(
      EnvSize("QO_COMPILE_CACHE_SHARDS",
              static_cast<size_t>(options.num_shards)));
  return options;
}

size_t FrontEndKeyHasher::operator()(const FrontEndKey& k) const {
  return static_cast<size_t>(
      MixHash(k.script_hash ^ MixHash(k.catalog_fingerprint)));
}

size_t CompilationKeyHasher::operator()(const CompilationKey& k) const {
  return static_cast<size_t>(
      MixHash(FrontEndKeyHasher{}(k.front_end) ^ k.config.Hash()));
}

CompilationCache::CompilationCache(CompileCacheOptions options)
    : options_(options),
      front_end_(options.front_end_capacity, options.num_shards),
      compilations_(options.compilation_capacity, options.num_shards) {}

FrontEndPtr CompilationCache::GetOrParse(
    const FrontEndKey& key,
    const std::function<Result<scope::LogicalPlan>()>& compile) {
  return front_end_.GetOrCompute(key, [&]() -> FrontEndPtr {
    auto entry = std::make_shared<CachedFrontEnd>();
    Result<scope::LogicalPlan> result = compile();
    if (result.ok()) {
      entry->plan = std::move(result).value();
    } else {
      entry->status = result.status();
    }
    return entry;
  });
}

CompilationPtr CompilationCache::GetOrCompile(
    const CompilationKey& key,
    const std::function<
        Result<std::shared_ptr<const opt::CompilationOutput>>()>& compile) {
  return compilations_.GetOrCompute(key, [&]() -> CompilationPtr {
    auto entry = std::make_shared<CachedCompilation>();
    Result<std::shared_ptr<const opt::CompilationOutput>> result = compile();
    if (result.ok()) {
      entry->output = std::move(result).value();
    } else {
      entry->status = result.status();
    }
    return entry;
  });
}

void CompilationCache::Clear() {
  front_end_.Clear();
  compilations_.Clear();
}

}  // namespace qo::cache
