#ifndef EMBER_EMBED_STATIC_MODEL_H_
#define EMBER_EMBED_STATIC_MODEL_H_

#include <string>

#include "embed/embedding_model.h"
#include "embed/token_encoder.h"

namespace ember::embed {

/// Frozen word-vector models (Word2Vec, FastText, GloVe): a sentence embeds
/// as the (optionally idf-weighted) mean of its token vectors, normalized.
/// FastText adds the character-n-gram component that buys robustness to
/// misspellings; the others drop OOV tokens. One TokenEncoder per model, so
/// every thread shares its bounded token memo.
class StaticEmbeddingModel : public EmbeddingModel {
 public:
  /// `idf_weighting` is false for the registry models (real static
  /// embeddings are plain means); exp21 flips it as an ablation.
  explicit StaticEmbeddingModel(ModelId id, bool idf_weighting = false);

  void EncodeInto(const std::string& sentence, float* out) const override;

 protected:
  void BuildWeights() override;

 private:
  TokenEncoder encoder_;
  bool idf_weighting_;
};

}  // namespace ember::embed

#endif  // EMBER_EMBED_STATIC_MODEL_H_
