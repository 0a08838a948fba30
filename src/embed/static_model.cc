#include "embed/static_model.h"

#include <vector>

#include "common/logging.h"
#include "la/vector_ops.h"
#include "text/tokenizer.h"

namespace ember::embed {

namespace {

/// Per-model lexicon streams: FastText's must match exp21's ablation
/// (0x57a71c + 0x9e37), so all three share the 0x57a71c base.
TokenEncoderParams StaticParams(ModelId id) {
  TokenEncoderParams p;
  p.dim = 300;
  p.surface_weight = 0.20f;
  switch (id) {
    case ModelId::kWord2Vec:
      p.seed = 0x57a71cULL;
      p.vocab_coverage = 0.85;
      p.synonym_coverage = 0.15;
      break;
    case ModelId::kFastText:
      p.seed = 0x57a71cULL + 0x9e37ULL;
      p.vocab_coverage = 0.90;
      p.synonym_coverage = 0.30;
      p.ngram_weight = 0.55f;
      p.ngram_min = 3;
      p.ngram_max = 5;
      break;
    case ModelId::kGloVe:
      p.seed = 0x57a71cULL + 2 * 0x9e37ULL;
      p.vocab_coverage = 0.92;
      p.synonym_coverage = 0.22;
      break;
    default:
      EMBER_CHECK_MSG(false, "not a static model id");
  }
  return p;
}

}  // namespace

StaticEmbeddingModel::StaticEmbeddingModel(ModelId id, bool idf_weighting)
    : EmbeddingModel(GetModelInfo(id)),
      encoder_(StaticParams(id)),
      idf_weighting_(idf_weighting) {}

void StaticEmbeddingModel::BuildWeights() {
  // The lexicon is hash-defined; warming a handful of vectors stands in for
  // the (fast) mmap of a real embedding table.
  std::vector<float> scratch(encoder_.params().dim);
  encoder_.Encode("warmup", scratch.data());
}

void StaticEmbeddingModel::EncodeInto(const std::string& sentence,
                                      float* out) const {
  // Per-thread token rows, fully overwritten by every call.
  thread_local EncodedTokens tokens;
  encoder_.EncodeTokens(text::Tokenize(sentence), &tokens);
  const size_t dim = encoder_.params().dim;
  for (size_t d = 0; d < dim; ++d) out[d] = 0.f;
  float total = 0.f;
  for (size_t t = 0; t < tokens.covered.size(); ++t) {
    if (!tokens.covered[t]) continue;
    const float w = idf_weighting_ ? tokens.idf[t] : 1.f;
    la::Axpy(w, tokens.vectors.Row(t), out, dim);
    total += w;
  }
  if (total > 0.f) la::Scale(1.f / total, out, dim);
  la::NormalizeInPlace(out, dim);
}

}  // namespace ember::embed
