#include "embed/model_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "datagen/benchmark_datasets.h"
#include "embed/embedding_model.h"
#include "embed/static_model.h"
#include "embed/token_encoder.h"
#include "la/vector_ops.h"
#include "text/tokenizer.h"

namespace ember::embed {
namespace {

TEST(ModelRegistryTest, TwelveModelsInPaperOrder) {
  const auto& models = AllModels();
  ASSERT_EQ(models.size(), 12u);
  EXPECT_EQ(GetModelInfo(models.front()).code, "WC");
  EXPECT_EQ(GetModelInfo(models.back()).code, "SM");
}

TEST(ModelRegistryTest, DimsMatchTable1) {
  EXPECT_EQ(GetModelInfo(ModelId::kWord2Vec).dim, 300u);
  EXPECT_EQ(GetModelInfo(ModelId::kFastText).dim, 300u);
  EXPECT_EQ(GetModelInfo(ModelId::kBert).dim, 768u);
  EXPECT_EQ(GetModelInfo(ModelId::kSMpnet).dim, 768u);
  EXPECT_EQ(GetModelInfo(ModelId::kSMiniLm).dim, 384u);
}

TEST(ModelRegistryTest, LookupByCodeAndName) {
  ASSERT_TRUE(ModelIdFromString("FT").ok());
  EXPECT_EQ(ModelIdFromString("FT").value(), ModelId::kFastText);
  ASSERT_TRUE(ModelIdFromString("S-MiniLM").ok());
  EXPECT_EQ(ModelIdFromString("S-MiniLM").value(), ModelId::kSMiniLm);
  EXPECT_FALSE(ModelIdFromString("nope").ok());
}

TEST(TokenEncoderTest, DeterministicAndNormNonZeroForCoveredTokens) {
  TokenEncoderParams params;
  params.dim = 64;
  params.seed = 123;
  params.vocab_coverage = 1.0;
  const TokenEncoder a(params), b(params);
  std::vector<float> va(params.dim), vb(params.dim);
  ASSERT_TRUE(a.Encode("battery", va.data()));
  ASSERT_TRUE(b.Encode("battery", vb.data()));
  EXPECT_EQ(va, vb);
  EXPECT_GT(la::Norm(va.data(), params.dim), 0.f);
}

TEST(TokenEncoderTest, PartialCoverageDropsSomeTokens) {
  TokenEncoderParams params;
  params.dim = 32;
  params.seed = 9;
  params.vocab_coverage = 0.5;
  params.ngram_weight = 0.f;
  const TokenEncoder encoder(params);
  std::vector<float> v(params.dim);
  int covered = 0;
  const char* words[] = {"alpha", "bravo",  "charlie", "delta", "echo",
                         "fox",   "golf",   "hotel",   "india", "juliet",
                         "kilo",  "lima",   "mike",    "nov",   "oscar",
                         "papa",  "quebec", "romeo",   "sierra", "tango"};
  for (const char* w : words) covered += encoder.Encode(w, v.data()) ? 1 : 0;
  EXPECT_GT(covered, 2);
  EXPECT_LT(covered, 18);
}

TEST(TokenEncoderTest, IdfInRange) {
  TokenEncoderParams params;
  params.dim = 16;
  params.seed = 5;
  const TokenEncoder encoder(params);
  for (const char* w : {"one", "two", "three"}) {
    const float idf = encoder.Idf(w);
    EXPECT_GE(idf, 0.2f);
    EXPECT_LE(idf, 1.0f);
  }
}

TEST(EmbeddingModelTest, RowsAreNormalizedOrZero) {
  for (const ModelId id : {ModelId::kFastText, ModelId::kSMiniLm}) {
    auto model = CreateModel(id);
    model->Initialize();
    const la::Matrix out = model->VectorizeAll(
        {"acme deluxe wireless headset", "premium stereo adapter", ""});
    ASSERT_EQ(out.rows(), 3u);
    ASSERT_EQ(out.cols(), model->info().dim);
    for (size_t r = 0; r < 2; ++r) {
      EXPECT_NEAR(la::Norm(out.Row(r), out.cols()), 1.f, 1e-4f);
    }
    EXPECT_EQ(la::Norm(out.Row(2), out.cols()), 0.f);
  }
}

TEST(EmbeddingModelTest, InitializeIsIdempotent) {
  auto model = CreateModel(ModelId::kGloVe);
  const double first = model->Initialize();
  EXPECT_GE(first, 0.0);
  const la::Matrix a = model->VectorizeAll({"alpha beta"});
  model->Initialize();
  const la::Matrix b = model->VectorizeAll({"alpha beta"});
  EXPECT_EQ(a, b);
}

TEST(EmbeddingModelTest, SimilarSentencesScoreHigherThanRandom) {
  embed::StaticEmbeddingModel model(ModelId::kFastText);
  model.Initialize();
  const la::Matrix out = model.VectorizeAll({
      "acme deluxe wireless headset xk2400",
      "acme deluxe wireless headset xk2401",
      "completely different thing entirely unrelated",
  });
  const float near = la::Dot(out.Row(0), out.Row(1), out.cols());
  const float far = la::Dot(out.Row(0), out.Row(2), out.cols());
  EXPECT_GT(near, far);
}

// --- Token memo ------------------------------------------------------------
// TokenEncoder::EncodeTokens serves repeated tokens from a bounded memo
// shared by all threads. These tests pin that the memo is invisible in the
// output: whatever it holds, in whatever order it filled, every row is the
// bits a cold model computes.

std::vector<std::string> D2Sentences() {
  const auto spec = datagen::CleanCleanSpecById("D2").value();
  const auto data = datagen::GenerateCleanClean(spec, 0.05, 42);
  std::vector<std::string> sentences = data.left.AllSentences();
  for (const std::string& s : data.right.AllSentences()) sentences.push_back(s);
  return sentences;
}

/// 420 sentences of ten tokens each, 4200 distinct tokens in all: more than
/// kMemoMaxEntries, so every model's memo fills and then keeps missing.
std::vector<std::string> ManyDistinctTokenSentences() {
  std::vector<std::string> sentences;
  for (size_t s = 0; s < 420; ++s) {
    std::string sentence;
    for (size_t t = 0; t < 10; ++t) {
      const size_t id = s * 10 + t;
      sentence += "tok";
      for (size_t v = id; v > 0; v /= 26) {
        sentence += static_cast<char>('a' + v % 26);
      }
      sentence += ' ';
    }
    sentences.push_back(sentence);
  }
  return sentences;
}

std::vector<std::string> Reversed(const std::vector<std::string>& v) {
  return {v.rbegin(), v.rend()};
}

/// A cold model and one warmed on the same sentences in reverse order (so
/// the memo admits tokens in a different order) embed bit-identically.
void ExpectWarmMatchesCold(const std::vector<std::string>& sentences) {
  for (const ModelId id : AllModels()) {
    auto cold = CreateModel(id);
    const la::Matrix expected = cold->VectorizeAll(sentences);
    auto warm = CreateModel(id);
    warm->VectorizeAll(Reversed(sentences));
    EXPECT_EQ(warm->VectorizeAll(sentences), expected)
        << GetModelInfo(id).code;
  }
}

TEST(TokenMemoTest, WarmModelMatchesColdForEveryModel) {
  ExpectWarmMatchesCold(D2Sentences());
}

TEST(TokenMemoTest, WarmModelMatchesColdPastTheMemoCap) {
  ExpectWarmMatchesCold(ManyDistinctTokenSentences());
}

TEST(TokenMemoTest, ConcurrentVectorizeAllMatchesSerial) {
  const std::vector<std::string> sentences = D2Sentences();
  const size_t third = sentences.size() / 3;
  const std::vector<std::string> a(sentences.begin(),
                                   sentences.begin() + 2 * third);
  const std::vector<std::string> b(sentences.begin() + third, sentences.end());
  for (const ModelId id : {ModelId::kFastText, ModelId::kSGtrT5}) {
    auto serial = CreateModel(id);
    const la::Matrix expected_a = serial->VectorizeAll(a);
    const la::Matrix expected_b = serial->VectorizeAll(b);
    auto shared = CreateModel(id);
    shared->Initialize();
    la::Matrix got_a, got_b;
    std::thread ta([&] { got_a = shared->VectorizeAll(a); });
    std::thread tb([&] { got_b = shared->VectorizeAll(b); });
    ta.join();
    tb.join();
    EXPECT_EQ(got_a, expected_a) << GetModelInfo(id).code;
    EXPECT_EQ(got_b, expected_b) << GetModelInfo(id).code;
  }
}

TEST(TokenMemoTest, EncodeTokensMatchesEncodeAndStopsAtItsCap) {
  // Both caps bind: 64-d vectors fit kMemoMaxEntries, 300-d ones run into
  // the byte budget first.
  std::vector<std::string> tokens;
  for (const std::string& s : ManyDistinctTokenSentences()) {
    for (const std::string& t : text::Tokenize(s)) tokens.push_back(t);
  }
  for (const size_t dim : {64ul, 300ul}) {
    TokenEncoderParams params;
    params.dim = dim;
    params.seed = 77;
    params.vocab_coverage = 0.5;
    params.ngram_weight = dim == 64 ? 0.3f : 0.f;
    const TokenEncoder encoder(params);
    const size_t cap = std::min(TokenEncoder::kMemoMaxEntries,
                                TokenEncoder::kMemoMaxBytes / (dim * 4));
    EXPECT_EQ(encoder.memo_capacity(), cap);
    EncodedTokens got;
    std::vector<float> expected(dim);
    for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
      encoder.EncodeTokens(tokens, &got);
      ASSERT_EQ(got.vectors.rows(), tokens.size());
      for (size_t t = 0; t < tokens.size(); ++t) {
        const bool covered = encoder.Encode(tokens[t], expected.data());
        ASSERT_EQ(got.covered[t] != 0, covered) << tokens[t];
        ASSERT_EQ(got.idf[t], encoder.Idf(tokens[t])) << tokens[t];
        ASSERT_EQ(std::vector<float>(got.vectors.Row(t),
                                     got.vectors.Row(t) + dim),
                  expected)
            << tokens[t];
      }
      EXPECT_EQ(encoder.memo_size(), cap) << "dim=" << dim;
    }
  }
}

}  // namespace
}  // namespace ember::embed
