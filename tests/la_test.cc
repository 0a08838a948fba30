#include "la/vector_ops.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "la/matrix.h"
#include "la/quantize.h"
#include "proptest.h"

namespace ember::la {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  m.FillGaussian(rng, 1.f);
  return m;
}

TEST(VectorOpsTest, DotMatchesSmallCases) {
  const float a[] = {1.f, 2.f, 3.f};
  const float b[] = {4.f, -5.f, 6.f};
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 4.f - 10.f + 18.f);
  EXPECT_FLOAT_EQ(Dot(a, b, 0), 0.f);
}

TEST(VectorOpsTest, GemmBtBitIdenticalToDot) {
  // The contract the blocked index and matcher rely on: every GemmBt cell
  // equals the scalar Dot of the corresponding rows, bit for bit, at sizes
  // that do and do not divide the kernel's blocking factors.
  for (const size_t k : {1ul, 7ul, 8ul, 60ul, 300ul}) {
    const Matrix a = RandomMatrix(13, k, 17 + k);
    const Matrix b = RandomMatrix(9, k, 99 + k);
    const Matrix c = GemmBt(a, b);
    ASSERT_EQ(c.rows(), a.rows());
    ASSERT_EQ(c.cols(), b.rows());
    for (size_t i = 0; i < a.rows(); ++i) {
      for (size_t j = 0; j < b.rows(); ++j) {
        const float expected = Dot(a.Row(i), b.Row(j), k);
        EXPECT_EQ(c.At(i, j), expected) << "k=" << k << " (" << i << "," << j
                                        << ")";
      }
    }
  }
}

/// `count` elements of T placed flush against a PROT_NONE page: the first
/// byte past the buffer is unmapped, so any kernel reading or writing beyond
/// its operand faults instead of silently touching a neighbour.
template <typename T>
class GuardedBuffer {
 public:
  explicit GuardedBuffer(size_t count) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t bytes = count * sizeof(T);
    const size_t data_pages = (bytes + page - 1) / page;
    mapped_ = (data_pages + 1) * page;
    void* base = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EMBER_CHECK(base != MAP_FAILED);
    base_ = static_cast<char*>(base);
    EMBER_CHECK(mprotect(base_ + data_pages * page, page, PROT_NONE) == 0);
    data_ = reinterpret_cast<T*>(base_ + data_pages * page - bytes);
  }
  ~GuardedBuffer() { munmap(base_, mapped_); }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  T* data() { return data_; }

 private:
  char* base_ = nullptr;
  size_t mapped_ = 0;
  T* data_ = nullptr;
};

void FillGaussian(float* x, size_t n, Rng& rng) {
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<float>(rng.Gaussian());
}

void FillCodes(int8_t* x, size_t n, Rng& rng) {
  for (size_t i = 0; i < n; ++i) {
    x[i] = static_cast<int8_t>(static_cast<int>(rng.Next() % 255) - 127);
  }
}

TEST(VectorOpsTest, KernelsNeverTouchMemoryPastTheirOperands) {
  // Every operand ends flush against an unmapped page. A read or write one
  // element too far is a SIGSEGV, which deliberately fails the test run.
  const size_t kDims[] = {1, 7, 8, 20, 64, 80, 160, 300, 768};
  Rng rng(0x6a4d);
  for (const size_t k : kDims) {
    for (size_t m = 1; m <= 17; ++m) {
      for (size_t n = 1; n <= 17; ++n) {
        std::vector<float> a(m * k), b(n * k);
        FillGaussian(a.data(), a.size(), rng);
        FillGaussian(b.data(), b.size(), rng);
        GuardedBuffer<float> ga(m * k), gb(n * k), gc(m * n);
        std::copy(a.begin(), a.end(), ga.data());
        std::copy(b.begin(), b.end(), gb.data());
        std::vector<float> c(m * n);
        // a guarded, then b guarded, then c guarded.
        GemmBtStrided(ga.data(), m, k, b.data(), n, k, k, c.data(), n);
        GemmBtStrided(a.data(), m, k, gb.data(), n, k, k, c.data(), n);
        GemmBtStrided(a.data(), m, k, b.data(), n, k, k, gc.data(), n);
        const Matrix va = Matrix::View(ga.data(), m, k);
        const Matrix vb = Matrix::View(gb.data(), n, k);
        const Matrix c2 = GemmBt(va, vb);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            const float expected = Dot(a.data() + i * k, b.data() + j * k, k);
            ASSERT_EQ(c[i * n + j], expected) << m << "x" << n << "x" << k;
            ASSERT_EQ(gc.data()[i * n + j], expected);
            ASSERT_EQ(c2.At(i, j), expected);
          }
        }

        // WeightedSumRows: m weights over m rows of n columns.
        GuardedBuffer<float> gw(m), grows(m * n), gout(n);
        FillGaussian(gw.data(), m, rng);
        FillGaussian(grows.data(), m * n, rng);
        WeightedSumRows(gw.data(), grows.data(), m, n, n, gout.data());

        std::vector<int8_t> qa(m * k), qb(n * k);
        FillCodes(qa.data(), qa.size(), rng);
        FillCodes(qb.data(), qb.size(), rng);
        GuardedBuffer<int8_t> gqa(m * k), gqb(n * k);
        std::copy(qa.begin(), qa.end(), gqa.data());
        std::copy(qb.begin(), qb.end(), gqb.data());
        std::vector<int32_t> ci(m * n);
        GemmBtI8Strided(gqa.data(), m, k, qb.data(), n, k, k, ci.data(), n);
        GemmBtI8Strided(qa.data(), m, k, gqb.data(), n, k, k, ci.data(), n);
      }
    }
    GuardedBuffer<float> x(k), y(k);
    FillGaussian(x.data(), k, rng);
    FillGaussian(y.data(), k, rng);
    EXPECT_EQ(Dot(x.data(), y.data(), k), Dot(y.data(), x.data(), k));
    EXPECT_GE(SquaredDistance(x.data(), y.data(), k), 0.f);
    Axpy(0.5f, x.data(), y.data(), k);
  }
}

TEST(VectorOpsTest, GemmBtStridedShapesMatchDotProperty) {
  // Random shapes reach every kernel: full blocks, the column edge, the row
  // edge, the 1x1 corner, and k tails. Each cell must equal Dot bit for bit
  // and the ldc padding between output rows must be left untouched.
  proptest::Config config;
  config.cases = 60;
  config.max_size = 800;
  proptest::ForAll(
      "GemmBtStrided == Dot on padded panels", config,
      [](Rng& rng, size_t k) {
        const size_t m = 1 + rng.Next() % 40;
        const size_t n = 1 + rng.Next() % 70;
        const size_t lda = k + 1 + rng.Next() % 9;
        const size_t ldb = k + 1 + rng.Next() % 9;
        const size_t ldc = n + 1 + rng.Next() % 5;
        std::vector<float> a(m * lda), b(n * ldb);
        FillGaussian(a.data(), a.size(), rng);
        FillGaussian(b.data(), b.size(), rng);
        constexpr float kSentinel = -12345.f;
        std::vector<float> c(m * ldc, kSentinel);
        GemmBtStrided(a.data(), m, lda, b.data(), n, ldb, k, c.data(), ldc);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < ldc; ++j) {
            const float got = c[i * ldc + j];
            if (j >= n) {
              if (got != kSentinel) return false;
            } else if (got != Dot(a.data() + i * lda, b.data() + j * ldb, k)) {
              return false;
            }
          }
        }
        return true;
      });
}

TEST(VectorOpsTest, GemmBtIntoMatchesGemmBtInPreallocatedOutput) {
  const Matrix a = RandomMatrix(11, 37, 41);
  const Matrix b = RandomMatrix(6, 37, 43);
  const Matrix expected = GemmBt(a, b);
  Matrix out(11, 6);
  GemmBtInto(a, b, &out);
  EXPECT_EQ(out, expected);
}

TEST(VectorOpsTest, GemmBtStridedMatchesDotOnHeadViews) {
  // The attention use case: per-head panels are column slices of packed
  // (seq x dim) matrices, i.e. rows strided by the full dim. Every cell
  // must still equal the scalar Dot of the strided rows, bit for bit.
  const size_t dim = 24;
  const Matrix q = RandomMatrix(19, dim, 51);
  const Matrix k = RandomMatrix(19, dim, 52);
  for (const size_t head_dim : {3ul, 8ul, 12ul}) {
    for (size_t off = 0; off + head_dim <= dim; off += head_dim) {
      Matrix scores(q.rows(), k.rows());
      GemmBtStrided(q.data() + off, q.rows(), dim, k.data() + off, k.rows(),
                    dim, head_dim, scores.data(), k.rows());
      for (size_t i = 0; i < q.rows(); ++i) {
        for (size_t j = 0; j < k.rows(); ++j) {
          EXPECT_EQ(scores.At(i, j),
                    Dot(q.Row(i) + off, k.Row(j) + off, head_dim))
              << "head_dim=" << head_dim << " off=" << off;
        }
      }
    }
  }
}

TEST(VectorOpsTest, WeightedSumRowsMatchesSequentialAxpyChain) {
  // WeightedSumRows must reproduce the zero-then-Axpy-per-row loop exactly:
  // attention's determinism story depends on the accumulation order being
  // the same chain, just held in registers.
  for (const size_t n : {1ul, 5ul, 16ul, 20ul, 37ul}) {
    const size_t m = 23, stride = 41;
    const Matrix rows = RandomMatrix(m, stride, 61 + n);
    const Matrix w = RandomMatrix(1, m, 62 + n);
    std::vector<float> expected(n, 0.f);
    for (size_t i = 0; i < m; ++i) {
      Axpy(w.At(0, i), rows.Row(i), expected.data(), n);
    }
    std::vector<float> got(n);
    WeightedSumRows(w.Row(0), rows.data(), m, stride, n, got.data());
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(got[j], expected[j]) << "n=" << n << " j=" << j;
    }
  }
}

TEST(VectorOpsTest, SoftmaxMatchesDoubleReference) {
  // The vectorized exp inside SoftmaxInPlace is an approximation; it must
  // stay within a few ULP of an exact double-precision softmax.
  Matrix logits = RandomMatrix(8, 101, 71);
  Scale(4.f, logits.data(), logits.rows() * logits.cols());
  for (size_t r = 0; r < logits.rows(); ++r) {
    float* row = logits.Row(r);
    std::vector<double> ref(logits.cols());
    double max = row[0];
    for (size_t i = 0; i < logits.cols(); ++i) {
      max = std::max(max, static_cast<double>(row[i]));
    }
    double sum = 0;
    for (size_t i = 0; i < logits.cols(); ++i) {
      ref[i] = std::exp(row[i] - max);
      sum += ref[i];
    }
    SoftmaxInPlace(row, logits.cols());
    double check = 0;
    for (size_t i = 0; i < logits.cols(); ++i) {
      EXPECT_NEAR(row[i], ref[i] / sum, 1e-6);
      check += row[i];
    }
    EXPECT_NEAR(check, 1.0, 1e-5);
  }
}

TEST(VectorOpsTest, GeluTanhMatchesLibmFormula) {
  Matrix x = RandomMatrix(1, 4096, 73);
  Scale(3.f, x.Row(0), x.cols());
  Matrix got = x;
  GeluTanhInPlace(got.Row(0), x.cols());
  for (size_t i = 0; i < x.cols(); ++i) {
    const double z = x.At(0, i);
    const double ref =
        0.5 * z * (1.0 + std::tanh(0.7978845608 * (z + 0.044715 * z * z * z)));
    EXPECT_NEAR(got.At(0, i), ref, 1e-5) << "z=" << z;
  }
  // Saturation: far outside the polynomial's core range the result must be
  // exactly z (tanh -> 1) or exactly 0 (tanh -> -1), like the libm version.
  float big[2] = {30.f, -30.f};
  GeluTanhInPlace(big, 2);
  EXPECT_EQ(big[0], 30.f);
  EXPECT_EQ(big[1], 0.f);
}

TEST(VectorOpsTest, NormalizeInPlaceGivesUnitNorm) {
  Matrix m = RandomMatrix(4, 37, 5);
  for (size_t r = 0; r < m.rows(); ++r) {
    NormalizeInPlace(m.Row(r), m.cols());
    EXPECT_NEAR(Norm(m.Row(r), m.cols()), 1.f, 1e-5f);
  }
}

TEST(VectorOpsTest, NormalizeZeroVectorStaysZero) {
  Matrix m(1, 16);
  NormalizeInPlace(m.Row(0), 16);
  for (size_t c = 0; c < 16; ++c) EXPECT_EQ(m.At(0, c), 0.f);
}

TEST(VectorOpsTest, AxpyAndScale) {
  float x[] = {1.f, 2.f};
  const float y[] = {10.f, 20.f};
  Axpy(2.f, y, x, 2);
  EXPECT_FLOAT_EQ(x[0], 21.f);
  EXPECT_FLOAT_EQ(x[1], 42.f);
  Scale(0.5f, x, 2);
  EXPECT_FLOAT_EQ(x[0], 10.5f);
  EXPECT_FLOAT_EQ(x[1], 21.f);
}

TEST(VectorOpsTest, SquaredDistanceMatchesDotExpansion) {
  Matrix m = RandomMatrix(2, 100, 11);
  const float* a = m.Row(0);
  const float* b = m.Row(1);
  // ||a-b||^2 == ||a||^2 + ||b||^2 - 2<a,b>, and the lane split must handle
  // a tail that is not a multiple of kDotLanes (100 = 12*8 + 4).
  const float expanded =
      Dot(a, a, 100) + Dot(b, b, 100) - 2.f * Dot(a, b, 100);
  EXPECT_NEAR(SquaredDistance(a, b, 100), expanded, 1e-3f);
  EXPECT_EQ(SquaredDistance(a, a, 100), 0.f);
  EXPECT_EQ(SquaredDistance(a, b, 0), 0.f);
}

TEST(VectorOpsTest, LayerNormInPlaceNormalizesAndAppliesGainBias) {
  Matrix m = RandomMatrix(1, 64, 13);
  std::vector<float> plain(m.Row(0), m.Row(0) + 64);
  LayerNormInPlace(plain.data(), 64, nullptr, nullptr);
  double mean = 0, var = 0;
  for (const float x : plain) mean += x;
  mean /= 64;
  for (const float x : plain) var += (x - mean) * (x - mean);
  EXPECT_NEAR(mean, 0.0, 1e-5);
  EXPECT_NEAR(var / 64, 1.0, 1e-3);

  // gain/bias scale and shift the normalized values elementwise.
  std::vector<float> affine(m.Row(0), m.Row(0) + 64);
  std::vector<float> gain(64), bias(64);
  for (size_t i = 0; i < 64; ++i) {
    gain[i] = 0.5f + 0.01f * static_cast<float>(i);
    bias[i] = 1.f - 0.02f * static_cast<float>(i);
  }
  LayerNormInPlace(affine.data(), 64, gain.data(), bias.data());
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(affine[i], plain[i] * gain[i] + bias[i], 1e-4f);
  }
  LayerNormInPlace(plain.data(), 0, nullptr, nullptr);  // n == 0 is a no-op
}

TEST(VectorOpsTest, SoftmaxSumsToOne) {
  float v[] = {1.f, 2.f, 3.f, 4.f};
  SoftmaxInPlace(v, 4);
  float sum = 0;
  for (const float x : v) sum += x;
  EXPECT_NEAR(sum, 1.f, 1e-5f);
  EXPECT_GT(v[3], v[0]);
}

bool Aligned64(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % kMatrixAlign == 0;
}

TEST(MatrixTest, OwnedStorageIs64ByteAligned) {
  // The kernels and the EMBS0002 container both assume every owned numeric
  // payload starts on a cache line; Resize must preserve that through the
  // capacity-reuse path as well as reallocation.
  for (const size_t cols : {1ul, 3ul, 17ul, 768ul}) {
    Matrix m(5, cols);
    EXPECT_TRUE(Aligned64(m.data())) << "cols=" << cols;
    m.Resize(2, cols);
    EXPECT_TRUE(Aligned64(m.data())) << "shrink cols=" << cols;
    m.Resize(64, cols + 1);
    EXPECT_TRUE(Aligned64(m.data())) << "grow cols=" << cols;
  }
  const QuantizedMatrix q = QuantizedMatrix::Quantize(RandomMatrix(9, 33, 3));
  EXPECT_TRUE(Aligned64(q.codes()));
  EXPECT_TRUE(Aligned64(q.params()));
}

TEST(QuantizeTest, DotI8MatchesNaiveIntegerLoop) {
  // Exactness contract: DotI8 is plain int32 accumulation, so it must equal
  // the scalar loop bit for bit at sizes around every blocking boundary.
  Rng rng(0xd07);
  for (const size_t n : {0ul, 1ul, 7ul, 8ul, 15ul, 32ul, 100ul, 768ul}) {
    std::vector<int8_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<int8_t>(static_cast<int>(rng.Next() % 255) - 127);
      b[i] = static_cast<int8_t>(static_cast<int>(rng.Next() % 255) - 127);
    }
    int32_t expected = 0;
    for (size_t i = 0; i < n; ++i) {
      expected += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
    }
    EXPECT_EQ(DotI8(a.data(), b.data(), n), expected) << "n=" << n;
  }
}

TEST(QuantizeTest, GemmBtI8StridedMatchesDotI8) {
  // The batched scan kernel must agree with the single-row kernel exactly,
  // including when rows are strided wider than the dot length (the tile
  // slicing the quantized scan uses).
  Rng rng(0xd08);
  const size_t m = 13, n = 37, k = 29, lda = 40, ldb = 33;
  std::vector<int8_t> a(m * lda), b(n * ldb);
  for (int8_t& v : a) {
    v = static_cast<int8_t>(static_cast<int>(rng.Next() % 255) - 127);
  }
  for (int8_t& v : b) {
    v = static_cast<int8_t>(static_cast<int>(rng.Next() % 255) - 127);
  }
  std::vector<int32_t> c(m * n, -1);
  GemmBtI8Strided(a.data(), m, lda, b.data(), n, ldb, k, c.data(), n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(c[i * n + j], DotI8(a.data() + i * lda, b.data() + j * ldb, k))
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(QuantizeTest, RoundTripErrorWithinPerRowScaleBound) {
  // The quantization model's promise: |x - dequantize(quantize(x))| is at
  // most scale/2 per element (rounding), with a hair of float slack.
  proptest::Config config;
  config.max_size = 96;
  proptest::ForAll(
      "quantize->dequantize error <= scale/2", config,
      [](Rng& rng, size_t n) {
        std::vector<float> x(n);
        // Mix magnitudes so rows exercise very different dynamic ranges.
        const float spread = 0.01f + static_cast<float>(rng.Next() % 1000);
        for (float& v : x) {
          v = static_cast<float>(rng.Gaussian()) * spread;
        }
        std::vector<int8_t> codes(n);
        QuantParams params;
        QuantizeRow(x.data(), n, codes.data(), &params);
        int32_t sum = 0;
        for (const int8_t c : codes) sum += c;
        if (sum != params.code_sum) return false;
        std::vector<float> back(n);
        DequantizeRow(codes.data(), params, n, back.data());
        const float bound = params.scale * 0.5f + spread * 1e-5f;
        for (size_t i = 0; i < n; ++i) {
          if (std::fabs(x[i] - back[i]) > bound) return false;
        }
        return true;
      });
}

TEST(QuantizeTest, ConstantRowQuantizesExactly) {
  std::vector<float> x(19, 3.25f);
  std::vector<int8_t> codes(x.size());
  QuantParams params;
  QuantizeRow(x.data(), x.size(), codes.data(), &params);
  EXPECT_EQ(params.scale, 0.f);
  std::vector<float> back(x.size());
  DequantizeRow(codes.data(), params, x.size(), back.data());
  for (const float v : back) EXPECT_EQ(v, 3.25f);
}

TEST(QuantizeTest, QuantizedMatrixViewIsBitIdenticalToOwned) {
  // The mmap path serves QuantizedMatrix::View over the owned layout's
  // bytes; both modes must describe the exact same codes and params.
  const Matrix m = RandomMatrix(11, 48, 0xd09);
  const QuantizedMatrix owned = QuantizedMatrix::Quantize(m);
  const QuantizedMatrix view = QuantizedMatrix::View(
      owned.codes(), owned.params(), owned.rows(), owned.cols());
  ASSERT_TRUE(view.is_view());
  ASSERT_FALSE(owned.is_view());
  for (size_t r = 0; r < owned.rows(); ++r) {
    EXPECT_EQ(std::memcmp(view.Row(r), owned.Row(r), owned.cols()), 0);
    EXPECT_EQ(view.Params(r).scale, owned.Params(r).scale);
    EXPECT_EQ(view.Params(r).zero_point, owned.Params(r).zero_point);
    EXPECT_EQ(view.Params(r).code_sum, owned.Params(r).code_sum);
  }
  // And ApproxDot over the reconstruction tracks the float dot to within
  // the accumulated per-element error budget.
  const Matrix deq = owned.Dequantize();
  ASSERT_EQ(deq.rows(), m.rows());
  for (size_t r = 0; r + 1 < m.rows(); ++r) {
    const float exact = Dot(deq.Row(r), deq.Row(r + 1), m.cols());
    const float approx =
        ApproxDot(owned.Params(r), owned.Params(r + 1),
                  DotI8(owned.Row(r), owned.Row(r + 1), m.cols()), m.cols());
    EXPECT_NEAR(approx, exact, 1e-2f * (1.f + std::fabs(exact))) << r;
  }
}

TEST(VectorOpsTest, GemvMatchesManual) {
  Matrix m(2, 3);
  m.At(0, 0) = 1;
  m.At(0, 1) = 2;
  m.At(0, 2) = 3;
  m.At(1, 0) = -1;
  m.At(1, 1) = 0;
  m.At(1, 2) = 1;
  const float x[] = {1.f, 1.f, 1.f};
  float out[2];
  Gemv(m, x, out);
  EXPECT_FLOAT_EQ(out[0], 6.f);
  EXPECT_FLOAT_EQ(out[1], 0.f);
}

bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

TEST(VectorOpsTest, MultiRowKernelsMatchPerRowCallsProperty) {
  // WeightedSumRowsMulti, SoftmaxRows and LayerNormRows over random row
  // counts, widths (attention's head_dim 16/20/24 and every lane tail) and
  // padded strides must equal their per-row calls bit for bit, and must
  // leave the padding between output rows untouched.
  proptest::Config config;
  config.cases = 80;
  config.max_size = 96;
  proptest::ForAll(
      "multi-row kernels == per-row calls", config,
      [](Rng& rng, size_t size) {
        constexpr float kSentinel = -777.f;
        const size_t kHeadDims[] = {16, 20, 24};
        const size_t n = rng.Next() % 2 == 0 ? kHeadDims[rng.Next() % 3]
                                             : 1 + rng.Next() % size;
        const size_t rows = 1 + rng.Next() % 19;
        const size_t m = 1 + rng.Next() % 40;

        // P·V: `rows` weight rows over m value rows of n columns; the
        // per-row call and the zero-then-Axpy chain are both references.
        const size_t ldw = m + rng.Next() % 5;
        const size_t stride = n + rng.Next() % 7;
        const size_t ldo = n + rng.Next() % 6;
        std::vector<float> w(rows * ldw), values(m * stride);
        FillGaussian(w.data(), w.size(), rng);
        FillGaussian(values.data(), values.size(), rng);
        std::vector<float> out(rows * ldo, kSentinel);
        WeightedSumRowsMulti(w.data(), ldw, rows, values.data(), m, stride, n,
                             out.data(), ldo);
        std::vector<float> one(n), chain(n);
        for (size_t r = 0; r < rows; ++r) {
          WeightedSumRows(w.data() + r * ldw, values.data(), m, stride, n,
                          one.data());
          std::fill(chain.begin(), chain.end(), 0.f);
          for (size_t i = 0; i < m; ++i) {
            Axpy(w[r * ldw + i], values.data() + i * stride, chain.data(), n);
          }
          for (size_t j = 0; j < ldo; ++j) {
            const float got = out[r * ldo + j];
            if (j >= n ? got != kSentinel
                       : !SameBits(got, one[j]) || !SameBits(got, chain[j])) {
              return false;
            }
          }
        }

        // Scaled softmax over padded rows.
        const size_t ld = n + rng.Next() % 6;
        std::vector<float> x(rows * ld, kSentinel);
        for (size_t r = 0; r < rows; ++r) {
          for (size_t j = 0; j < n; ++j) {
            x[r * ld + j] = 3.f * static_cast<float>(rng.Gaussian());
          }
        }
        std::vector<float> expected = x;
        const float scale = 0.05f + static_cast<float>(rng.Uniform());
        SoftmaxRows(x.data(), rows, ld, n, scale);
        for (size_t r = 0; r < rows; ++r) {
          float* row = expected.data() + r * ld;
          for (size_t j = 0; j < n; ++j) row[j] *= scale;
          SoftmaxInPlace(row, n);
        }
        for (size_t i = 0; i < x.size(); ++i) {
          if (!SameBits(x[i], expected[i])) return false;
        }

        // Layer norm, out of place and in place, with and without gain/bias.
        const size_t lds = n + rng.Next() % 6;
        const size_t ldd = n + rng.Next() % 6;
        std::vector<float> src(rows * lds), gain(n), bias(n);
        FillGaussian(src.data(), src.size(), rng);
        FillGaussian(gain.data(), n, rng);
        FillGaussian(bias.data(), n, rng);
        const bool affine = rng.Next() % 2 == 0;
        const float* g = affine ? gain.data() : nullptr;
        const float* b = affine ? bias.data() : nullptr;
        std::vector<float> dst(rows * ldd, kSentinel);
        LayerNormRows(src.data(), lds, dst.data(), ldd, rows, n, g, b);
        std::vector<float> in_place = src;
        LayerNormRows(in_place.data(), lds, in_place.data(), lds, rows, n, g,
                      b);
        for (size_t r = 0; r < rows; ++r) {
          std::vector<float> row(src.begin() + r * lds,
                                 src.begin() + r * lds + n);
          LayerNormInPlace(row.data(), n, g, b);
          for (size_t j = 0; j < ldd; ++j) {
            const float got = dst[r * ldd + j];
            if (j >= n ? got != kSentinel : !SameBits(got, row[j])) {
              return false;
            }
          }
          for (size_t j = 0; j < n; ++j) {
            if (!SameBits(in_place[r * lds + j], row[j])) return false;
          }
        }
        return true;
      });
}

TEST(VectorOpsTest, MultiRowKernelsNeverTouchMemoryPastTheirOperands) {
  // Every operand of the multi-row kernels ends flush against an unmapped
  // page, at widths covering full lane vectors, every tail and the
  // attention head widths; an access one element too far is a SIGSEGV.
  Rng rng(0x6b5e);
  for (const size_t n : {1ul, 7ul, 8ul, 9ul, 16ul, 20ul, 24ul, 25ul, 80ul}) {
    for (size_t rows = 1; rows <= 17; ++rows) {
      const size_t m = rows + 3;
      GuardedBuffer<float> w(rows * m), values(m * n), out(rows * n);
      FillGaussian(w.data(), rows * m, rng);
      FillGaussian(values.data(), m * n, rng);
      WeightedSumRowsMulti(w.data(), m, rows, values.data(), m, n, n,
                           out.data(), n);

      GuardedBuffer<float> x(rows * n);
      FillGaussian(x.data(), rows * n, rng);
      SoftmaxRows(x.data(), rows, n, n, 0.5f);

      GuardedBuffer<float> src(rows * n), dst(rows * n), gain(n), bias(n);
      FillGaussian(src.data(), rows * n, rng);
      FillGaussian(gain.data(), n, rng);
      FillGaussian(bias.data(), n, rng);
      LayerNormRows(src.data(), n, dst.data(), n, rows, n, gain.data(),
                    bias.data());
      LayerNormRows(dst.data(), n, dst.data(), n, rows, n, nullptr, nullptr);
    }
  }
}

}  // namespace
}  // namespace ember::la
