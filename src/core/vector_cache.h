#ifndef EMBER_CORE_VECTOR_CACHE_H_
#define EMBER_CORE_VECTOR_CACHE_H_

#include <string>
#include <vector>

#include "common/retry.h"
#include "embed/embedding_model.h"
#include "la/matrix.h"

namespace ember::core {

/// On-disk cache of batch-vectorized sentence matrices, keyed by model code
/// and a caller-chosen key. Files are little-endian dumps in the
/// checksummed "EMBV0004" container (common/binary_io.h), published
/// atomically via temp file + rename; stale-format, truncated, or
/// corrupted files fail closed — they miss and are recomputed.
class VectorCache {
 public:
  /// Process-wide instance rooted at $EMBER_CACHE or ./ember_cache.
  static VectorCache& Default();

  explicit VectorCache(std::string dir) : dir_(std::move(dir)) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  const std::string& dir() const { return dir_; }

  /// Backoff policy for transient store failures (a failed store only costs
  /// a future recompute, so attempts stay small). Loads are never retried:
  /// a corrupt entry misses deterministically and is recomputed.
  void set_store_retry(const RetryPolicy& policy) { store_retry_ = policy; }
  const RetryPolicy& store_retry() const { return store_retry_; }

  /// Returns the cached matrix for (model code, key) or vectorizes
  /// `sentences` and caches the result. When `fresh_seconds` is non-null it
  /// receives the vectorization time, or -1 on a cache hit.
  la::Matrix GetOrCompute(embed::EmbeddingModel& model, const std::string& key,
                          const std::vector<std::string>& sentences,
                          double* fresh_seconds = nullptr);

 private:
  std::string path_for(const std::string& code, const std::string& key) const;

  std::string dir_;
  bool enabled_ = true;
  RetryPolicy store_retry_;
};

}  // namespace ember::core

#endif  // EMBER_CORE_VECTOR_CACHE_H_
