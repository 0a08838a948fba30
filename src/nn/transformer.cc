#include "nn/transformer.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "la/vector_ops.h"

namespace ember::nn {

namespace {

la::Matrix InitWeight(size_t rows, size_t cols, float gain, Rng& rng) {
  la::Matrix w(rows, cols);
  const float scale = gain * std::sqrt(2.f / static_cast<float>(rows + cols));
  w.FillGaussian(rng, scale);
  return w;
}

}  // namespace

TransformerEncoder::TransformerEncoder(const TransformerConfig& config)
    : config_(config) {
  EMBER_CHECK(config.dim % config.num_heads == 0);
  EMBER_CHECK(config.max_positions > 0);
  Rng rng(SplitMix64(config.seed ^ 0x7a45f03eULL));
  cls_.resize(config.dim);
  for (float& v : cls_) v = static_cast<float>(rng.Gaussian()) * 0.5f;
  layers_.resize(config.num_layers);
  for (Layer& layer : layers_) {
    layer.wq = InitWeight(config.dim, config.dim, config.weight_gain, rng);
    layer.wk = InitWeight(config.dim, config.dim, config.weight_gain, rng);
    layer.wv = InitWeight(config.dim, config.dim, config.weight_gain, rng);
    layer.wo = InitWeight(config.dim, config.dim, config.weight_gain, rng);
    layer.ffn1 = InitWeight(config.ffn_dim, config.dim, config.weight_gain, rng);
    layer.ffn2 = InitWeight(config.dim, config.ffn_dim, config.weight_gain, rng);
    layer.ln1_gain.assign(config.dim, 1.f);
    layer.ln1_bias.assign(config.dim, 0.f);
    layer.ln2_gain.assign(config.dim, 1.f);
    layer.ln2_bias.assign(config.dim, 0.f);
  }
  final_gain_.assign(config.dim, 1.f);
  final_bias_.assign(config.dim, 0.f);

  // Sinusoidal positional encoding, hoisted out of Forward: large
  // amplitudes make the representation order-sensitive (BERT regime),
  // small ones yield the position-robust pooling of sentence encoders.
  // Each entry stores the already-scaled term Forward adds to the input.
  pos_table_ = la::Matrix(config.max_positions, config.dim);
  for (size_t t = 0; t < config.max_positions; ++t) {
    float* row = pos_table_.Row(t);
    for (size_t c = 0; c < config.dim; ++c) {
      const double rate =
          std::pow(10000.0, -static_cast<double>(c / 2 * 2) / config.dim);
      const double angle = static_cast<double>(t) * rate;
      row[c] = config.pos_scale *
               static_cast<float>(c % 2 == 0 ? std::sin(angle) : std::cos(angle));
    }
  }
}

const la::Matrix& TransformerEncoder::Forward(const la::Matrix& tokens,
                                              Workspace& ws) const {
  EMBER_CHECK(tokens.cols() == config_.dim);
  const size_t dim = config_.dim;
  const size_t seq = tokens.rows() + 1;
  EMBER_CHECK(seq <= config_.max_positions);
  const size_t heads = config_.num_heads;
  const size_t head_dim = dim / heads;

  // Everything below writes only into the workspace; after it has been
  // warmed up at its peak shape, Forward performs no heap allocation.
  ws.x.Resize(seq, dim);
  ws.normed.Resize(seq, dim);
  ws.q.Resize(seq, dim);
  ws.k.Resize(seq, dim);
  ws.v.Resize(seq, dim);
  ws.attended.Resize(seq, dim);
  ws.hidden.Resize(seq, config_.ffn_dim);
  ws.scores.Resize(seq, seq);
  la::Matrix& x = ws.x;

  for (size_t c = 0; c < dim; ++c) x.At(0, c) = cls_[c];
  for (size_t t = 1; t < seq; ++t) {
    const float* in = tokens.Row(t - 1);
    const float* pos = pos_table_.Row(t);
    float* row = x.Row(t);
    for (size_t c = 0; c < dim; ++c) row[c] = in[c] + pos[c];
  }

  for (const Layer& layer : layers_) {
    // --- Attention block (pre-LN residual) ---
    // Multi-row kernels: each row gets exactly the per-row op sequence
    // (la::LayerNormRows == LayerNormInPlace per row, and likewise below).
    la::LayerNormRows(x.data(), dim, ws.normed.data(), dim, seq, dim,
                      layer.ln1_gain.data(), layer.ln1_bias.data());
    // Sequence-level projections: row t of each product is exactly the
    // Gemv(w, normed.Row(t)) of the per-token formulation, bit for bit.
    la::GemmBtInto(ws.normed, layer.wq, &ws.q);
    la::GemmBtInto(ws.normed, layer.wk, &ws.k);
    la::GemmBtInto(ws.normed, layer.wv, &ws.v);
    const float inv_sqrt = 1.f / std::sqrt(static_cast<float>(head_dim));
    for (size_t h = 0; h < heads; ++h) {
      const size_t off = h * head_dim;
      // One blocked QK^T panel per head over head-strided views of the
      // packed Q/K matrices; each (t, u) entry keeps the Dot reduction
      // order of the scalar path.
      la::GemmBtStrided(ws.q.data() + off, seq, dim, ws.k.data() + off, seq,
                        dim, head_dim, ws.scores.data(), seq);
      la::SoftmaxRows(ws.scores.data(), seq, seq, seq, inv_sqrt);
      // The softmax-weighted V aggregation keeps the sequential
      // ascending-u accumulation order per output element (the chains
      // live in registers), so outputs remain exactly reproducible.
      la::WeightedSumRowsMulti(ws.scores.data(), seq, seq, ws.v.data() + off,
                               seq, dim, head_dim, ws.attended.data() + off,
                               dim);
    }
    la::GemmBtInto(ws.attended, layer.wo, &ws.normed);  // reuse as scratch
    // Rows are contiguous, so each residual add runs as one flat Axpy.
    la::Axpy(1.f, ws.normed.data(), x.data(), seq * dim);
    // --- FFN block (pre-LN residual, GELU-ish tanh activation) ---
    la::LayerNormRows(x.data(), dim, ws.normed.data(), dim, seq, dim,
                      layer.ln2_gain.data(), layer.ln2_bias.data());
    la::GemmBtInto(ws.normed, layer.ffn1, &ws.hidden);
    // Rows are contiguous, so the activation runs as one flat vector pass.
    la::GeluTanhInPlace(ws.hidden.data(), seq * config_.ffn_dim);
    la::GemmBtInto(ws.hidden, layer.ffn2, &ws.normed);
    la::Axpy(1.f, ws.normed.data(), x.data(), seq * dim);
  }
  la::LayerNormRows(x.data(), dim, x.data(), dim, seq, dim,
                    final_gain_.data(), final_bias_.data());
  return x;
}

la::Matrix TransformerEncoder::Forward(const la::Matrix& tokens) const {
  Workspace ws;
  Forward(tokens, ws);
  return std::move(ws.x);
}

}  // namespace ember::nn
