#include "embed/transformer_model.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "la/vector_ops.h"
#include "text/tokenizer.h"

namespace ember::embed {

namespace {

/// Per-thread reusable scratch for EncodeInto: the transformer workspace
/// plus the token rows and pooling buffers. Thread-local storage keeps
/// EncodeInto const and thread-safe under VectorizeAll's parallel encode
/// (each pool worker owns one scratch), while amortizing all per-sentence
/// heap allocations away after the first call at peak shape. Values never
/// leak between calls: every buffer is fully overwritten before being read,
/// so outputs stay bit-identical regardless of scratch history or thread
/// assignment.
struct EncodeScratch {
  nn::TransformerEncoder::Workspace workspace;
  EncodedTokens tokens;
  std::vector<float> pooled;
};

EncodeScratch& LocalScratch() {
  thread_local EncodeScratch scratch;
  return scratch;
}

}  // namespace

TransformerEmbeddingModel::TransformerEmbeddingModel(const ModelInfo& info,
                                                     const Config& config)
    : EmbeddingModel(info), config_(config) {
  EMBER_CHECK(config_.token.dim == config_.encoder.dim);
  // The encoder never sees more than max_tokens inputs (plus CLS), so the
  // precomputed positional table only needs that many rows.
  config_.encoder.max_positions =
      std::min(config_.encoder.max_positions, config_.max_tokens + 1);
}

void TransformerEmbeddingModel::BuildWeights() {
  token_encoder_ = std::make_unique<TokenEncoder>(config_.token);
  encoder_ = std::make_unique<nn::TransformerEncoder>(config_.encoder);
  projection_ = la::Matrix(info().dim, config_.encoder.dim);
  Rng rng(SplitMix64(config_.encoder.seed ^ 0x9c07ULL));
  projection_.FillGaussian(rng, 1.f);
}

void TransformerEmbeddingModel::EncodeInto(const std::string& sentence,
                                           float* out) const {
  const size_t dim = config_.encoder.dim;
  std::vector<std::string> tokens = text::Tokenize(sentence);
  if (tokens.size() > config_.max_tokens) tokens.resize(config_.max_tokens);
  for (size_t d = 0; d < info().dim; ++d) out[d] = 0.f;
  if (tokens.empty()) return;

  EncodeScratch& scratch = LocalScratch();
  // Subword tokenization leaves nothing OOV: when the lexicon misses a
  // token, its n-gram/surface hash vector still fills the row. Repeated
  // tokens come out of the encoder's memo with the same bits.
  token_encoder_->EncodeTokens(tokens, &scratch.tokens);
  const la::Matrix* states_out = nullptr;
  {
    obs::Span forward_span("embed/transformer_forward");
    forward_span.AddCount("tokens", tokens.size());
    states_out = &encoder_->Forward(scratch.tokens.vectors, scratch.workspace);
  }
  const la::Matrix& states = *states_out;

  scratch.pooled.assign(dim, 0.f);
  float* pooled = scratch.pooled.data();
  if (config_.cls_pooling) {
    const float* cls = states.Row(0);
    for (size_t d = 0; d < dim; ++d) pooled[d] = cls[d];
  } else {
    float total = 0.f;
    for (size_t t = 0; t < tokens.size(); ++t) {
      const float w = scratch.tokens.idf[t];
      la::Axpy(w, states.Row(t + 1), pooled, dim);
      total += w;
    }
    if (total > 0.f) la::Scale(1.f / total, pooled, dim);
  }

  la::Gemv(projection_, pooled, out);
  la::NormalizeInPlace(out, info().dim);
}

TransformerEmbeddingModel::Config TransformerConfigFor(ModelId id) {
  TransformerEmbeddingModel::Config c;
  // BERT regime by default: Xavier-scale weights and strong positional
  // signal make CLS states anisotropic (Section 5 of the paper's analysis).
  c.token.dim = 64;
  c.token.vocab_coverage = 0.97;
  c.token.synonym_coverage = 0.45;
  c.token.surface_weight = 0.18f;
  c.token.ngram_weight = 0.25f;
  c.token.ngram_min = 4;
  c.token.ngram_max = 5;
  c.encoder.dim = 64;
  c.encoder.num_heads = 4;
  c.encoder.ffn_dim = 128;
  c.encoder.num_layers = 4;
  c.encoder.weight_gain = 1.05f;
  c.encoder.pos_scale = 0.10f;
  c.cls_pooling = true;

  const auto sentence_regime = [&c] {
    // Calibrated SentenceBERT regime: tiny gain + weak positions, richer
    // synonym lexicon, idf-mean pooling.
    c.token.dim = 80;
    c.token.vocab_coverage = 0.97;
    c.token.synonym_coverage = 0.88;
    c.token.ngram_weight = 0.30f;
    c.encoder.dim = 80;
    c.encoder.ffn_dim = 160;
    c.encoder.weight_gain = 0.06f;
    c.encoder.pos_scale = 0.015f;
    c.cls_pooling = false;
  };

  switch (id) {
    case ModelId::kBert:
      c.encoder.seed = 0xbe27ULL;
      break;
    case ModelId::kAlbert:
      // Cross-layer parameter sharing, modeled as a shallower stack.
      c.encoder.num_layers = 2;
      c.encoder.seed = 0xa1beULL;
      break;
    case ModelId::kRoberta:
      c.encoder.seed = 0x20beULL;
      c.token.vocab_coverage = 0.98;
      c.token.synonym_coverage = 0.50;
      break;
    case ModelId::kDistilBert:
      c.encoder.num_layers = 2;
      c.encoder.seed = 0xd157ULL;
      break;
    case ModelId::kXlnet:
      c.encoder.seed = 0x817eULL;
      c.encoder.pos_scale = 0.08f;
      c.token.synonym_coverage = 0.40;
      break;
    case ModelId::kSMpnet:
      sentence_regime();
      c.encoder.seed = 0x5b3a7ULL ^ 0x5e2cULL;
      break;
    case ModelId::kSGtrT5:
      sentence_regime();
      c.encoder.seed = 0x575ULL;
      // The paper's overall winner: the widest synonym lexicon.
      c.token.synonym_coverage = 0.94;
      c.encoder.num_layers = 6;
      break;
    case ModelId::kSDistilRoberta:
      sentence_regime();
      c.encoder.seed = 0x5d20ULL;
      c.encoder.num_layers = 3;
      c.token.synonym_coverage = 0.82;
      break;
    case ModelId::kSMiniLm:
      sentence_regime();
      c.encoder.seed = 0x5717ULL;
      c.encoder.num_layers = 3;
      c.token.dim = 64;
      c.encoder.dim = 64;
      c.encoder.ffn_dim = 128;
      c.token.synonym_coverage = 0.80;
      break;
    default:
      EMBER_CHECK_MSG(false, "not a transformer model id");
  }
  c.token.seed = SplitMix64(c.encoder.seed ^ 0x70ceULL);
  return c;
}

}  // namespace ember::embed
