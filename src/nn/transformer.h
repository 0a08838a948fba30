#ifndef EMBER_NN_TRANSFORMER_H_
#define EMBER_NN_TRANSFORMER_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace ember::nn {

/// Configuration of a forward-only transformer encoder stack.
struct TransformerConfig {
  size_t dim = 64;
  size_t num_heads = 4;
  size_t num_layers = 2;
  size_t ffn_dim = 128;
  /// Weight init scale relative to Xavier. ~1 reproduces the un-fine-tuned
  /// BERT regime (anisotropic CLS embeddings); sentence encoders use a
  /// calibrated small gain.
  float weight_gain = 1.0f;
  /// Amplitude of the sinusoidal positional encoding added to the inputs.
  float pos_scale = 0.1f;
  /// Length of the positional-encoding table precomputed by the
  /// constructor (the analogue of BERT's 512-position window). Forward
  /// accepts at most max_positions - 1 input tokens: the CLS slot occupies
  /// position 0.
  size_t max_positions = 512;
  uint64_t seed = 1;
};

/// Multi-head self-attention + FFN encoder stack with pre-layer-norm
/// residual blocks and deterministic pseudo-random ("pre-trained but not
/// fine-tuned") weights.
///
/// Forward is GEMM-based: Q/K/V, the output projection, and both FFN
/// projections run as whole-sequence la::GemmBt panels, and per-head
/// attention scores as one strided QK^T panel per head. Layer norms,
/// softmaxes and the P·V sums run through the multi-row la kernels
/// (LayerNormRows, SoftmaxRows, WeightedSumRowsMulti), which give every row
/// its lone-row op sequence. Because every GEMM entry is accumulated in
/// exactly the la::Dot lane order, the output is bit-identical to the naive
/// one-Gemv-per-token formulation (tests/nn_test.cc keeps that reference
/// and proves 0-ULP parity).
class TransformerEncoder {
 public:
  /// Reusable scratch for Forward. All per-call temporaries live here, so a
  /// workspace warmed up at its peak sequence length makes Forward
  /// allocation-free. A workspace must not be shared by concurrent calls —
  /// use one per thread (embed keeps one per pool worker); it may be shared
  /// freely across encoders and sequence lengths, since Forward resizes and
  /// fully overwrites everything it reads.
  class Workspace {
   public:
    Workspace() = default;

   private:
    friend class TransformerEncoder;
    la::Matrix x, normed, q, k, v, attended, hidden, scores;
  };

  /// Weights of one pre-LN block, exposed (with the accessors below) so
  /// tests can run a naive per-token reference forward against the GEMM
  /// path.
  struct Layer {
    la::Matrix wq, wk, wv, wo;       // dim x dim
    la::Matrix ffn1, ffn2;           // ffn_dim x dim, dim x ffn_dim
    std::vector<float> ln1_gain, ln1_bias, ln2_gain, ln2_bias;
  };

  explicit TransformerEncoder(const TransformerConfig& config);

  const TransformerConfig& config() const { return config_; }

  /// Input: (T x dim) token embeddings, T < config().max_positions.
  /// Output: (T+1 x dim) hidden states, row 0 being the prepended CLS token
  /// after the final layer norm. The returned reference aliases `ws` and
  /// stays valid until the workspace's next Forward. Const and thread-safe
  /// as long as each thread brings its own workspace.
  const la::Matrix& Forward(const la::Matrix& tokens, Workspace& ws) const;

  /// Convenience overload with a call-local workspace (allocates).
  la::Matrix Forward(const la::Matrix& tokens) const;

  // Weight access for test-side reference implementations.
  const std::vector<float>& cls() const { return cls_; }
  size_t num_layers() const { return layers_.size(); }
  const Layer& layer(size_t i) const { return layers_[i]; }
  const std::vector<float>& final_gain() const { return final_gain_; }
  const std::vector<float>& final_bias() const { return final_bias_; }
  /// (max_positions x dim) table; row t is the pos_scale-scaled sinusoidal
  /// encoding added to the token at sequence slot t (row 0 is unused — the
  /// CLS state carries no positional term).
  const la::Matrix& pos_table() const { return pos_table_; }

 private:
  TransformerConfig config_;
  std::vector<float> cls_;
  std::vector<Layer> layers_;
  std::vector<float> final_gain_, final_bias_;
  la::Matrix pos_table_;
};

}  // namespace ember::nn

#endif  // EMBER_NN_TRANSFORMER_H_
