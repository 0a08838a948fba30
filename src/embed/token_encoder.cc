#include "embed/token_encoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <mutex>

#include "common/rng.h"
#include "text/tokenizer.h"

namespace ember::embed {

namespace {

constexpr uint64_t kVocabSalt = 0x70cab1eULL;
constexpr uint64_t kSynonymSalt = 0x5e4fULL;
constexpr uint64_t kIdfSalt = 0x1dfULL;

uint64_t KeyHash(const std::string& key, uint64_t seed) {
  return HashBytes(key.data(), key.size(), SplitMix64(seed));
}

/// Deterministic coverage coin: the same word is in/out of vocabulary for
/// every encoder sharing (seed, salt), independent of call order.
bool Covered(const std::string& key, uint64_t seed, uint64_t salt,
             double coverage) {
  const uint64_t h = SplitMix64(KeyHash(key, seed ^ salt));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < coverage;
}

/// Adds `weight` times the hash-vector of `key` into out[0..dim).
/// Components are cheap deterministic pseudo-gaussians (sum of two uniforms,
/// centered), good enough for near-orthogonal high-dim codes.
void AddHashVector(const std::string& key, uint64_t seed, float weight,
                   float* out, size_t dim) {
  uint64_t state = KeyHash(key, seed);
  for (size_t d = 0; d < dim; ++d) {
    state = SplitMix64(state);
    const double u1 = static_cast<double>(state >> 42) / 4194304.0;  // [0,1)
    const double u2 =
        static_cast<double>((state >> 20) & 0x3fffff) / 4194304.0;
    out[d] += weight * static_cast<float>(u1 + u2 - 1.0);
  }
}

/// Memo entries a `dim`-float vector size allows under both caps.
size_t MemoCapacity(size_t dim) {
  const size_t by_bytes =
      TokenEncoder::kMemoMaxBytes / std::max<size_t>(1, dim * sizeof(float));
  return std::min(TokenEncoder::kMemoMaxEntries, by_bytes);
}

}  // namespace

TokenEncoder::TokenEncoder(const TokenEncoderParams& params)
    : params_(params), memo_capacity_(MemoCapacity(params.dim)) {}

bool TokenEncoder::Encode(const std::string& token, float* out) const {
  std::memset(out, 0, params_.dim * sizeof(float));
  const std::string canonical = text::CanonicalWordForm(token);
  const bool is_synonym_surface = canonical != token;

  // Resolve the sense key this encoder attributes to the token.
  bool have_sense = false;
  std::string sense;
  if (!is_synonym_surface) {
    if (Covered(canonical, params_.seed, kVocabSalt, params_.vocab_coverage)) {
      have_sense = true;
      sense = canonical;
    }
  } else if (Covered(token, params_.seed, kSynonymSalt,
                     params_.synonym_coverage) &&
             Covered(canonical, params_.seed, kVocabSalt,
                     params_.vocab_coverage)) {
    // The lexicon maps this surface form back to its canonical sense.
    have_sense = true;
    sense = canonical;
  } else if (Covered(token, params_.seed, kVocabSalt,
                     params_.vocab_coverage)) {
    // Unresolved surface form, but the literal token itself is known: it
    // embeds as an unrelated word (the lexical-model failure mode).
    have_sense = true;
    sense = token;
  }

  bool any = false;
  if (have_sense) {
    AddHashVector(sense, params_.seed, 1.0f - params_.surface_weight, out,
                  params_.dim);
    if (sense != token) {
      AddHashVector(token, params_.seed, params_.surface_weight, out,
                    params_.dim);
    }
    any = true;
  }

  if (params_.ngram_weight > 0.f && token.size() >= params_.ngram_min) {
    size_t count = 0;
    for (size_t n = params_.ngram_min; n <= params_.ngram_max; ++n) {
      if (token.size() < n) break;
      count += token.size() - n + 1;
    }
    if (count > 0) {
      const float w =
          params_.ngram_weight / static_cast<float>(std::sqrt(count));
      for (size_t n = params_.ngram_min; n <= params_.ngram_max; ++n) {
        if (token.size() < n) break;
        for (const std::string& gram : text::CharNgrams(token, n)) {
          AddHashVector(gram, params_.seed ^ 0x96a3ULL, w, out, params_.dim);
        }
      }
      any = true;
    }
  }
  return any;
}

float TokenEncoder::Idf(const std::string& token) const {
  const std::string canonical = text::CanonicalWordForm(token);
  // Idf is a property of the sense, not the encoder: use a fixed stream so
  // every model weights tokens identically.
  const uint64_t h = SplitMix64(KeyHash(canonical, kIdfSalt));
  return 0.2f + 0.8f * static_cast<float>(
                           static_cast<double>(h >> 11) * 0x1.0p-53);
}

size_t TokenEncoder::Probe(const std::string& token, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const uint32_t index = slots_[slot];
    if (index == 0) return slot;
    const Entry& entry = entries_[index - 1];
    if (entry.hash == hash && entry.token == token) return slot;
  }
}

void TokenEncoder::EncodeTokens(const std::vector<std::string>& tokens,
                                EncodedTokens* out) const {
  const size_t dim = params_.dim;
  const size_t n = tokens.size();
  out->vectors.Resize(n, dim);
  out->idf.resize(n);
  out->covered.resize(n);
  out->hashes.resize(n);
  out->misses.clear();
  for (size_t t = 0; t < n; ++t) {
    out->hashes[t] = HashBytes(tokens[t].data(), tokens[t].size());
  }
  {
    std::shared_lock lock(mu_);
    for (size_t t = 0; t < n; ++t) {
      const uint32_t index =
          slots_.empty() ? 0 : slots_[Probe(tokens[t], out->hashes[t])];
      if (index == 0) {
        out->misses.push_back(t);
        continue;
      }
      const Entry& entry = entries_[index - 1];
      std::memcpy(out->vectors.Row(t), vectors_.data() + (index - 1) * dim,
                  dim * sizeof(float));
      out->idf[t] = entry.idf;
      out->covered[t] = entry.covered;
    }
  }
  if (out->misses.empty()) return;

  for (const size_t t : out->misses) {
    out->covered[t] = Encode(tokens[t], out->vectors.Row(t));
    out->idf[t] = Idf(tokens[t]);
  }
  if (memo_full_.load()) return;
  std::unique_lock lock(mu_);
  if (slots_.empty()) {
    // The whole arena at once, so inserts never reallocate; vector pages
    // are only touched as entries arrive.
    slots_.assign(std::bit_ceil(2 * memo_capacity_), 0);
    entries_.reserve(memo_capacity_);
    vectors_.reserve(memo_capacity_ * dim);
  }
  for (const size_t t : out->misses) {
    if (entries_.size() == memo_capacity_) {
      memo_full_.store(true);
      break;
    }
    const size_t slot = Probe(tokens[t], out->hashes[t]);
    if (slots_[slot] != 0) continue;  // admitted meanwhile, or a repeat
    entries_.push_back(
        {out->hashes[t], tokens[t], out->idf[t], out->covered[t] != 0});
    const float* row = out->vectors.Row(t);
    vectors_.insert(vectors_.end(), row, row + dim);
    slots_[slot] = static_cast<uint32_t>(entries_.size());
  }
}

size_t TokenEncoder::memo_size() const {
  std::shared_lock lock(mu_);
  return entries_.size();
}

}  // namespace ember::embed
