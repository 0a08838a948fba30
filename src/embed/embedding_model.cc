#include "embed/embedding_model.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace ember::embed {

namespace {
constexpr size_t kMaxEncodeChunk = 16;
}  // namespace

double EmbeddingModel::Initialize() {
  if (!initialized_) {
    WallTimer timer;
    BuildWeights();
    init_seconds_ = timer.Seconds();
    initialized_ = true;
  }
  return init_seconds_;
}

la::Matrix EmbeddingModel::VectorizeAll(
    const std::vector<std::string>& sentences) {
  Initialize();
  la::Matrix out(sentences.size(), info_.dim);
  obs::Span span("embed/vectorize_all");
  span.AddCount("sentences", sentences.size());
  const obs::SpanContext parent = span.context();
  // Deterministic data parallelism: each sentence writes only its own
  // preallocated row, and the chunking never depends on the thread count.
  // Chunk spans take the chunk offset as ordinal, so the span tree is
  // identical at every thread count. Chunks hold at most kMaxEncodeChunk
  // sentences, so on a large input the workers finish within a few
  // sentences of each other.
  const size_t grain =
      std::min(kMaxEncodeChunk, (sentences.size() + 63) / 64);
  ParallelFor(0, sentences.size(), grain, [&](size_t lo, size_t hi) {
    obs::Span chunk("embed/encode_chunk", parent, lo);
    chunk.AddCount("rows", hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      EncodeInto(sentences[i], out.Row(i));
    }
  });
  return out;
}

}  // namespace ember::embed
