#include "core/vector_cache.h"

#include <cstdint>
#include <cstdlib>
#include <filesystem>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "la/matrix_io.h"

namespace ember::core {

namespace {

/// 0003 added the checksummed container (trailing length + FNV-1a) and the
/// temp-file + rename publish. 0004 marks vectors computed with the explicit
/// fused-lane kernels, whose low bits differ from the compiler-contracted
/// ones. 0002/0003 files — and any torn, truncated, or bit-flipped file —
/// simply miss and are recomputed.
constexpr char kMagic[8] = {'E', 'M', 'B', 'V', '0', '0', '0', '4'};

bool LoadMatrix(const std::string& path, la::Matrix& out) {
  if (!fail::Check("cache/load").ok()) return false;  // injected miss
  Result<std::string> payload = ReadFileVerified(path, kMagic);
  if (!payload.ok()) return false;
  BinaryReader reader(payload.value());
  return la::ReadMatrix(reader, out) && reader.ok() &&
         reader.remaining() == 0;
}

Status SaveMatrix(const std::string& path, const la::Matrix& m) {
  EMBER_FAILPOINT("cache/store");
  BinaryWriter writer;
  la::WriteMatrix(writer, m);
  // Atomic publish: a crashed or concurrent writer never leaves a torn
  // file at the final path. A failed write only costs a future recompute.
  return WriteFileAtomic(path, kMagic, writer.buffer());
}

}  // namespace

VectorCache& VectorCache::Default() {
  static VectorCache* const kInstance = [] {
    const char* env = std::getenv("EMBER_CACHE");
    return new VectorCache(env != nullptr && *env != '\0' ? env
                                                          : "ember_cache");
  }();
  return *kInstance;
}

std::string VectorCache::path_for(const std::string& code,
                                  const std::string& key) const {
  return dir_ + "/" + code + "_" + key + ".vec";
}

la::Matrix VectorCache::GetOrCompute(embed::EmbeddingModel& model,
                                     const std::string& key,
                                     const std::vector<std::string>& sentences,
                                     double* fresh_seconds) {
  const std::string path = path_for(model.info().code, key);
  la::Matrix cached;
  if (enabled_ && LoadMatrix(path, cached) &&
      cached.rows() == sentences.size() && cached.cols() == model.info().dim) {
    if (fresh_seconds != nullptr) *fresh_seconds = -1.0;
    return cached;
  }
  model.Initialize();  // weight building stays out of the reported time
  WallTimer timer;
  la::Matrix fresh = model.VectorizeAll(sentences);
  const double seconds = timer.Seconds();
  if (fresh_seconds != nullptr) *fresh_seconds = seconds;
  if (enabled_) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    // Stores ride the retry policy: a transient write failure (full disk
    // blip, injected fault) gets another chance; a persistent one is
    // reported once per storm thanks to the rate-limited warn, and the
    // caller still gets its freshly computed matrix either way.
    const Status stored = RetryStatus(
        store_retry_, HashBytes(path.data(), path.size()),
        [&] { return SaveMatrix(path, fresh); });
    if (!stored.ok()) {
      EMBER_WARN("vector cache store failed after %zu attempts: %s",
                 store_retry_.max_attempts, stored.ToString().c_str());
    }
  }
  return fresh;
}

}  // namespace ember::core
