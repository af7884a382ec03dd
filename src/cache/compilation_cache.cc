#include "cache/compilation_cache.h"

#include "cache/fingerprint.h"

namespace qo::cache {

size_t FrontEndKeyHasher::operator()(const FrontEndKey& k) const {
  return static_cast<size_t>(
      MixHash(k.script_hash ^ MixHash(k.catalog_fingerprint)));
}

}  // namespace qo::cache
