#ifndef EMBER_EMBED_TOKEN_ENCODER_H_
#define EMBER_EMBED_TOKEN_ENCODER_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <vector>

#include "la/matrix.h"

namespace ember::embed {

/// Knobs of the deterministic token-level "pre-trained lexicon". Every
/// vector is a pure hash of (seed, key), so two encoders with the same
/// params agree exactly and no table has to be materialized.
struct TokenEncoderParams {
  size_t dim = 300;
  uint64_t seed = 1;
  /// Fraction of canonical words the model "knows" (in-vocabulary).
  double vocab_coverage = 0.9;
  /// Fraction of synonym surface forms the model maps back to their
  /// canonical sense (the semantic axis separating sentence encoders from
  /// lexical models).
  double synonym_coverage = 0.3;
  /// Weight of the surface-form-specific component mixed into a resolved
  /// synonym (distinct surfaces of one sense stay close, not identical).
  float surface_weight = 0.2f;
  /// Weight of the character-n-gram component (fastText-style subwords;
  /// 0 disables it). Grants robustness to misspellings and OOV words.
  float ngram_weight = 0.0f;
  size_t ngram_min = 3;
  size_t ngram_max = 5;
};

/// One sentence's tokens as EncodeTokens returns them. Callers keep one
/// per thread and reuse it: after warmup a lookup allocates nothing.
struct EncodedTokens {
  la::Matrix vectors;            // row t: Encode(tokens[t]) (zero if uncovered)
  std::vector<float> idf;        // Idf(tokens[t])
  std::vector<uint8_t> covered;  // Encode(tokens[t])'s return value
  std::vector<uint64_t> hashes;  // scratch: memo key of each token
  std::vector<size_t> misses;    // scratch: tokens computed outside the memo
};

/// Deterministic token embedder shared by all embedding models. Encode and
/// Idf are pure functions of (params, token); EncodeTokens returns exactly
/// their values through a bounded memo, so repeated tokens are copied
/// instead of re-hashed (the char n-gram vectors dominate the cost).
///
/// The memo is a fixed flat arena: at most kMemoMaxEntries tokens and
/// kMemoMaxBytes of vectors (so 300-d static models hold fewer entries
/// than 64/80-d encoders), reserved on the first insert and never grown.
/// Admission is first come, and nothing is ever evicted, so a hit never
/// writes. A sentence takes one shared lock for all its lookups; misses are
/// computed outside any lock and inserted under one exclusive lock. All
/// methods are const and thread-safe.
class TokenEncoder {
 public:
  static constexpr size_t kMemoMaxEntries = 4096;
  static constexpr size_t kMemoMaxBytes = size_t{2} << 20;

  explicit TokenEncoder(const TokenEncoderParams& params);
  TokenEncoder(const TokenEncoder&) = delete;
  TokenEncoder& operator=(const TokenEncoder&) = delete;

  const TokenEncoderParams& params() const { return params_; }

  /// Writes the token's vector (length params().dim, NOT normalized) into
  /// `out`. Returns false — leaving `out` zeroed — when the token is fully
  /// out of vocabulary and no n-gram component is enabled.
  bool Encode(const std::string& token, float* out) const;

  /// Deterministic pseudo-idf weight in [0.2, 1.0] of the token's canonical
  /// sense; shared across encoders so pooling weights agree between models.
  float Idf(const std::string& token) const;

  /// Fills `out` for `tokens`: row t of out->vectors, out->idf[t] and
  /// out->covered[t] equal Encode(tokens[t]), Idf(tokens[t]) and Encode's
  /// return value, bit for bit, whether they come from the memo or not.
  void EncodeTokens(const std::vector<std::string>& tokens,
                    EncodedTokens* out) const;

  /// Tokens the memo holds now, and the most it will ever hold.
  size_t memo_size() const;
  size_t memo_capacity() const { return memo_capacity_; }

 private:
  struct Entry {
    uint64_t hash;
    std::string token;
    float idf;
    bool covered;
  };

  /// Index into slots_ of `token`'s entry, or of the empty slot where it
  /// would go. Requires mu_ (shared or exclusive) and a reserved table.
  size_t Probe(const std::string& token, uint64_t hash) const;

  TokenEncoderParams params_;
  size_t memo_capacity_;
  mutable std::shared_mutex mu_;
  // Set once an insert finds the arena full: later misses skip the
  // exclusive lock altogether.
  mutable std::atomic<bool> memo_full_{false};
  // Open-addressing table of 2 x memo_capacity_ (a power of two) slots:
  // 0 is empty, otherwise 1 + the entry's index. Entry e's vector is
  // vectors_[e * dim, (e + 1) * dim).
  mutable std::vector<uint32_t> slots_;
  mutable std::vector<Entry> entries_;
  mutable std::vector<float> vectors_;
};

}  // namespace ember::embed

#endif  // EMBER_EMBED_TOKEN_ENCODER_H_
