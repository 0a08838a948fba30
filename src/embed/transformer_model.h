#ifndef EMBER_EMBED_TRANSFORMER_MODEL_H_
#define EMBER_EMBED_TRANSFORMER_MODEL_H_

#include <memory>
#include <string>

#include "embed/embedding_model.h"
#include "embed/token_encoder.h"
#include "la/matrix.h"
#include "nn/transformer.h"

namespace ember::embed {

/// Transformer-based models. The encoder runs an honest quadratic
/// self-attention forward over a small internal width, then a fixed random
/// projection lifts the pooled state to the model's nominal dimension
/// (cosine geometry is what the experiments measure, and random projection
/// preserves it).
///
/// Two pooling regimes reproduce the paper's central contrast:
///   - kBertLike: CLS pooling with BERT-scale weight gain and positional
///     amplitude — anisotropic, weakly discriminative embeddings;
///   - kSentence: idf-weighted mean over token states with calibrated
///     small gain — the SentenceBERT regime.
class TransformerEmbeddingModel : public EmbeddingModel {
 public:
  struct Config {
    TokenEncoderParams token;
    nn::TransformerConfig encoder;
    bool cls_pooling = true;
    /// Input truncation (the analogue of the 512-token window).
    size_t max_tokens = 48;
  };

  TransformerEmbeddingModel(const ModelInfo& info, const Config& config);

  /// Const and thread-safe: the transformer workspace, token rows and
  /// pooling buffers live in thread-local scratch (one per pool worker
  /// under VectorizeAll), fully overwritten each call, so repeated encodes
  /// are allocation-free after warmup and bit-identical at any thread
  /// count. Token vectors and idf weights come from the TokenEncoder memo,
  /// shared by all threads.
  void EncodeInto(const std::string& sentence, float* out) const override;

 protected:
  void BuildWeights() override;

 private:
  Config config_;
  std::unique_ptr<TokenEncoder> token_encoder_;
  std::unique_ptr<nn::TransformerEncoder> encoder_;
  la::Matrix projection_;  // info().dim x encoder.dim
};

/// Registry configs for the BERT family (BT, AT, RA, DT, XT) and the
/// sentence encoders (ST, S5, SA, SM).
TransformerEmbeddingModel::Config TransformerConfigFor(ModelId id);

}  // namespace ember::embed

#endif  // EMBER_EMBED_TRANSFORMER_MODEL_H_
