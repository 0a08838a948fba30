#include "la/vector_ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>

#if defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/logging.h"
#include "common/parallel.h"

namespace ember::la {

namespace {

/// Branch-free exp approximation (range reduction by powers of two plus a
/// degree-6 polynomial; max error ~2 ULP against libm). Pure float
/// arithmetic in a fixed order, so it is deterministic and the softmax loop
/// over it auto-vectorizes — libm's expf is the single hottest call in the
/// attention path and cannot be vectorized by the compiler.
inline float FastExp(float x) {
  constexpr float kLog2e = 1.442695041f;
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  // 1.5 * 2^23: adding it rounds x * log2(e) to the nearest integer in the
  // mantissa (the libm floor() call would block vectorization).
  constexpr float kMagic = 12582912.f;
  // Upper clamp keeps 2^n finite (n <= 127); softmax inputs are <= 0 and
  // GELU saturates well before either bound.
  x = std::max(-87.33f, std::min(88.0f, x));
  const float t = x * kLog2e + kMagic;
  const float nf = t - kMagic;
  const int32_t n =
      std::bit_cast<int32_t>(t) - std::bit_cast<int32_t>(kMagic);
  float r = x - nf * kLn2Hi;
  r -= nf * kLn2Lo;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * r * r + r + 1.f;
  const auto bits = static_cast<uint32_t>(n + 127) << 23;
  return p * std::bit_cast<float>(bits);
}

// ---------------------------------------------------------------------------
// The fused lane primitive. `Lanes` holds kDotLanes floats; MulAdd is the
// only multiply-accumulate any kernel below performs. With FMA hardware it is
// one _mm256_fmadd_ps (a single rounding, fixed in source); without it the
// portable float[8] form computes an unfused a * b + c (an x86 target without
// FMA has nothing to contract into, and EMBER_SIMD=OFF compiles with
// -ffp-contract=off). The rounding of every accumulate step is chosen here,
// not by the optimizer, so Dot, the GEMM micro-kernels and their edge
// kernels agree bit for bit.
// ---------------------------------------------------------------------------

#if defined(__FMA__)

struct Lanes {
  __m256 v;
};

inline Lanes Zero() { return {_mm256_setzero_ps()}; }
inline Lanes Broadcast(float x) { return {_mm256_set1_ps(x)}; }
inline Lanes Load(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void Store(float* p, Lanes x) { _mm256_storeu_ps(p, x.v); }

/// Mask selecting lanes [0, n) for n in [0, kDotLanes]: the 8-int window
/// starting at kTailMask + 8 - n.
alignas(64) inline constexpr int32_t kTailMask[16] = {-1, -1, -1, -1, -1, -1,
                                                      -1, -1, 0,  0,  0,  0,
                                                      0,  0,  0,  0};
inline __m256i TailMask(size_t n) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + kDotLanes - n));
}

/// Lanes [0, n) from p, zeros above. Masked lanes are never read, so a row
/// ending flush against an unmapped page is safe.
inline Lanes LoadTail(const float* p, size_t n) {
  return {_mm256_maskload_ps(p, TailMask(n))};
}
inline void StoreTail(float* p, size_t n, Lanes x) {
  _mm256_maskstore_ps(p, TailMask(n), x.v);
}

inline Lanes MulAdd(Lanes a, Lanes b, Lanes c) {
  return {_mm256_fmadd_ps(a.v, b.v, c.v)};
}
inline Lanes Sub(Lanes a, Lanes b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline Lanes Add(Lanes a, Lanes b) { return {_mm256_add_ps(a.v, b.v)}; }
/// a * b rounded on its own. The empty asm makes the product opaque, so
/// -ffp-contract=fast cannot fuse it into a following Add: kernels that
/// need a separately rounded multiply (layer norm) get one in source.
inline Lanes Mul(Lanes a, Lanes b) {
  __m256 p = _mm256_mul_ps(a.v, b.v);
  asm("" : "+x"(p));
  return {p};
}

/// Folds the lanes as ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)).
inline float Sum(Lanes x) {
  const __m256 pairs = _mm256_hadd_ps(x.v, x.v);      // l01 l23 . . l45 l67
  const __m256 quads = _mm256_hadd_ps(pairs, pairs);  // l0123 . . . l4567
  return _mm_cvtss_f32(_mm_add_ss(_mm256_castps256_ps128(quads),
                                  _mm256_extractf128_ps(quads, 1)));
}

/// out[s] = Sum(x[s]) for s < 4, in one shuffle tree with Sum's exact
/// pairing (hadd pairs neighbouring lanes; the last add joins the halves).
inline void Sum4(const Lanes* x, float* out) {
  const __m256 pairs01 = _mm256_hadd_ps(x[0].v, x[1].v);
  const __m256 pairs23 = _mm256_hadd_ps(x[2].v, x[3].v);
  const __m256 quads = _mm256_hadd_ps(pairs01, pairs23);
  _mm_storeu_ps(out, _mm_add_ps(_mm256_castps256_ps128(quads),
                                _mm256_extractf128_ps(quads, 1)));
}

#else  // portable lanes

struct Lanes {
  float v[kDotLanes];
};

inline Lanes Zero() { return {}; }
inline Lanes Broadcast(float x) {
  Lanes r;
  for (size_t l = 0; l < kDotLanes; ++l) r.v[l] = x;
  return r;
}
inline Lanes Load(const float* p) {
  Lanes r;
  for (size_t l = 0; l < kDotLanes; ++l) r.v[l] = p[l];
  return r;
}
inline void Store(float* p, Lanes x) {
  for (size_t l = 0; l < kDotLanes; ++l) p[l] = x.v[l];
}
inline Lanes LoadTail(const float* p, size_t n) {
  Lanes r{};
  for (size_t l = 0; l < n; ++l) r.v[l] = p[l];
  return r;
}
inline void StoreTail(float* p, size_t n, Lanes x) {
  for (size_t l = 0; l < n; ++l) p[l] = x.v[l];
}

inline Lanes MulAdd(Lanes a, Lanes b, Lanes c) {
  for (size_t l = 0; l < kDotLanes; ++l) c.v[l] = a.v[l] * b.v[l] + c.v[l];
  return c;
}
inline Lanes Sub(Lanes a, Lanes b) {
  for (size_t l = 0; l < kDotLanes; ++l) a.v[l] -= b.v[l];
  return a;
}
inline Lanes Add(Lanes a, Lanes b) {
  for (size_t l = 0; l < kDotLanes; ++l) a.v[l] += b.v[l];
  return a;
}
/// Separately rounded: the portable path builds with contraction off.
inline Lanes Mul(Lanes a, Lanes b) {
  for (size_t l = 0; l < kDotLanes; ++l) a.v[l] *= b.v[l];
  return a;
}

inline float Sum(Lanes x) {
  const float* v = x.v;
  return ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
}
inline void Sum4(const Lanes* x, float* out) {
  for (size_t s = 0; s < 4; ++s) out[s] = Sum(x[s]);
}

#endif

/// The one GEMM micro-kernel: c[r * ldc + s] = Dot(a_r, b_s) for an Mr x Nr
/// block, with a_r = a + r * lda and b_s = b + s * ldb (k valid floats
/// each). Every cell walks k in kDotLanes-wide MulAdd steps, then one
/// zero-padded tail step, then folds with Sum, whatever the block shape, so
/// Dot itself is the 1x1 instance and every shape yields identical bits.
template <size_t Mr, size_t Nr>
inline void MicroKernel(const float* a, size_t lda, const float* b,
                        size_t ldb, size_t k, float* c, size_t ldc) {
  Lanes acc[Mr][Nr];
  for (size_t r = 0; r < Mr; ++r) {
    for (size_t s = 0; s < Nr; ++s) acc[r][s] = Zero();
  }
  size_t p = 0;
  for (; p + kDotLanes <= k; p += kDotLanes) {
    Lanes bv[Nr];
    for (size_t s = 0; s < Nr; ++s) bv[s] = Load(b + s * ldb + p);
    for (size_t r = 0; r < Mr; ++r) {
      const Lanes av = Load(a + r * lda + p);
      for (size_t s = 0; s < Nr; ++s) acc[r][s] = MulAdd(av, bv[s], acc[r][s]);
    }
  }
  if (p < k) {
    const size_t tail = k - p;
    Lanes bv[Nr];
    for (size_t s = 0; s < Nr; ++s) bv[s] = LoadTail(b + s * ldb + p, tail);
    for (size_t r = 0; r < Mr; ++r) {
      const Lanes av = LoadTail(a + r * lda + p, tail);
      for (size_t s = 0; s < Nr; ++s) acc[r][s] = MulAdd(av, bv[s], acc[r][s]);
    }
  }
  for (size_t r = 0; r < Mr; ++r) {
    size_t s = 0;
    for (; s + 4 <= Nr; s += 4) Sum4(&acc[r][s], c + r * ldc + s);
    for (; s < Nr; ++s) c[r * ldc + s] = Sum(acc[r][s]);
  }
}

/// Main block shape. 6x4 keeps 24 accumulators plus 4 b vectors in the 32
/// vector registers AVX-512VL exposes; with 16 registers 3x4 fits instead.
#if defined(__AVX512VL__)
constexpr size_t kMr = 6;
#else
constexpr size_t kMr = 3;
#endif
constexpr size_t kNr = 4;
/// Row-edge width: leftover rows (and single-query scans) take 8 columns per
/// pass, so every b row loaded feeds one accumulator chain.
constexpr size_t kEdgeNr = 8;

/// Lanes [0, width) of p for width in [1, kDotLanes]: a plain load or store
/// when the vector is full, the masked tail form otherwise.
inline Lanes LoadUpTo(const float* p, size_t width) {
  return width == kDotLanes ? Load(p) : LoadTail(p, width);
}
inline void StoreUpTo(float* p, size_t width, Lanes x) {
  if (width == kDotLanes) {
    Store(p, x);
  } else {
    StoreTail(p, width, x);
  }
}

/// Runs fn(integral_constant<Block>, r) over row blocks of [begin, rows):
/// as many Block-row blocks as fit, then at most one block each of Block/2,
/// Block/4, ..., 1 rows. The multi-row kernels below are templates over the
/// block height, so a single row is simply their 1-row instance.
template <size_t Block, typename Fn>
void ForRowBlocks(size_t begin, size_t rows, Fn&& fn) {
  for (; begin + Block <= rows; begin += Block) {
    fn(std::integral_constant<size_t, Block>{}, begin);
  }
  if constexpr (Block > 1) ForRowBlocks<Block / 2>(begin, rows, fn);
}

/// Columns per WeightedSumRows register block: 4 rows x 3 lane vectors of
/// accumulators, the 3 shared row vectors and a broadcast fit 16 registers.
constexpr size_t kSumVecs = 3;

/// out_r[j] = sum_i w_r[i] * rows[i * stride + j] for Rows output rows and
/// the Vecs lane vectors of one column block (the last `last` wide): each
/// loaded `rows` vector feeds Rows independent MulAdd chains, and every
/// chain runs i = 0..m-1 in order, exactly the zero-then-Axpy loop.
template <size_t Rows, size_t Vecs>
inline void WeightedSumKernel(const float* w, size_t ldw, const float* rows,
                              size_t m, size_t stride, size_t last,
                              float* out, size_t ldo) {
  Lanes acc[Rows][Vecs];
  for (size_t r = 0; r < Rows; ++r) {
    for (size_t c = 0; c < Vecs; ++c) acc[r][c] = Zero();
  }
  for (size_t i = 0; i < m; ++i) {
    const float* row = rows + i * stride;
    Lanes v[Vecs];
    for (size_t c = 0; c + 1 < Vecs; ++c) v[c] = Load(row + c * kDotLanes);
    v[Vecs - 1] = LoadUpTo(row + (Vecs - 1) * kDotLanes, last);
    for (size_t r = 0; r < Rows; ++r) {
      const Lanes wi = Broadcast(w[r * ldw + i]);
      for (size_t c = 0; c < Vecs; ++c) {
        acc[r][c] = MulAdd(wi, v[c], acc[r][c]);
      }
    }
  }
  for (size_t r = 0; r < Rows; ++r) {
    float* o = out + r * ldo;
    for (size_t c = 0; c + 1 < Vecs; ++c) Store(o + c * kDotLanes, acc[r][c]);
    StoreUpTo(o + (Vecs - 1) * kDotLanes, last, acc[r][Vecs - 1]);
  }
}

template <size_t Rows>
void WeightedSumBlock(const float* w, size_t ldw, const float* rows,
                      size_t m, size_t stride, size_t n, float* out,
                      size_t ldo) {
  for (size_t j = 0; j < n; j += kSumVecs * kDotLanes) {
    const size_t width = std::min(kSumVecs * kDotLanes, n - j);
    const size_t vecs = (width + kDotLanes - 1) / kDotLanes;
    const size_t last = width - (vecs - 1) * kDotLanes;
    switch (vecs) {
      case 1:
        WeightedSumKernel<Rows, 1>(w, ldw, rows + j, m, stride, last, out + j,
                                   ldo);
        break;
      case 2:
        WeightedSumKernel<Rows, 2>(w, ldw, rows + j, m, stride, last, out + j,
                                   ldo);
        break;
      default:
        WeightedSumKernel<Rows, kSumVecs>(w, ldw, rows + j, m, stride, last,
                                          out + j, ldo);
        break;
    }
  }
}

/// Scale + softmax of Rows rows at once (row r at x + r * ld). The running
/// max is a serial compare chain per row; interleaving Rows chains lets
/// them overlap. Every row keeps the 1-row op sequence: scale each element,
/// max over ascending i, FastExp(x - max), the fixed kDotLanes sum fold,
/// then one scale by 1 / sum.
template <size_t Rows>
void SoftmaxBlock(float* x, size_t ld, size_t n, float scale) {
  float max[Rows];
  for (size_t r = 0; r < Rows; ++r) {
    float& first = x[r * ld];
    first *= scale;
    max[r] = first;
  }
  for (size_t i = 1; i < n; ++i) {
    for (size_t r = 0; r < Rows; ++r) {
      float& v = x[r * ld + i];
      v *= scale;
      max[r] = std::max(max[r], v);
    }
  }
  for (size_t r = 0; r < Rows; ++r) {
    float* row = x + r * ld;
    // Exponentiation pass kept free of the sum dependency so it vectorizes;
    // the sum then uses the fixed kDotLanes fold shared by Dot.
    for (size_t i = 0; i < n; ++i) row[i] = FastExp(row[i] - max[r]);
    float acc[kDotLanes] = {};
    size_t i = 0;
    for (; i + kDotLanes <= n; i += kDotLanes) {
      for (size_t l = 0; l < kDotLanes; ++l) acc[l] += row[i + l];
    }
    for (; i < n; ++i) acc[i % kDotLanes] += row[i];
    const float sum = Sum(Load(acc));
    if (sum > 0.f) Scale(1.f / sum, row, n);
  }
}

/// Layer norm of Rows rows at once (row r reads src + r * lds, writes
/// dst + r * ldd; src == dst is fine). The mean and variance sums are
/// serial add chains in ascending column order; Rows independent chains
/// overlap instead of waiting on each other. The squared deviations are
/// computed with an unfused Mul into a column-chunk buffer before being
/// summed, and the output is ((x - mean) * inv) * gain + bias with each
/// step rounded on its own, so every row is the 1-row instance bit for bit.
template <size_t Rows>
void LayerNormBlock(const float* src, size_t lds, float* dst, size_t ldd,
                    size_t n, const float* gain, const float* bias) {
  float mean[Rows] = {};
  for (size_t i = 0; i < n; ++i) {
    for (size_t r = 0; r < Rows; ++r) mean[r] += src[r * lds + i];
  }
  for (size_t r = 0; r < Rows; ++r) mean[r] /= static_cast<float>(n);

  constexpr size_t kChunk = 64;
  float squares[Rows][kChunk];
  float var[Rows] = {};
  for (size_t i0 = 0; i0 < n; i0 += kChunk) {
    const size_t len = std::min(kChunk, n - i0);
    for (size_t r = 0; r < Rows; ++r) {
      const float* x = src + r * lds + i0;
      const Lanes mr = Broadcast(mean[r]);
      for (size_t i = 0; i < len; i += kDotLanes) {
        const size_t width = std::min(kDotLanes, len - i);
        const Lanes d = Sub(LoadUpTo(x + i, width), mr);
        StoreUpTo(squares[r] + i, width, Mul(d, d));
      }
    }
    for (size_t i = 0; i < len; ++i) {
      for (size_t r = 0; r < Rows; ++r) var[r] += squares[r][i];
    }
  }

  for (size_t r = 0; r < Rows; ++r) {
    const float inv = 1.f / std::sqrt(var[r] / static_cast<float>(n) + 1e-5f);
    const Lanes mr = Broadcast(mean[r]);
    const Lanes vinv = Broadcast(inv);
    const float* x = src + r * lds;
    float* y = dst + r * ldd;
    for (size_t i = 0; i < n; i += kDotLanes) {
      const size_t width = std::min(kDotLanes, n - i);
      Lanes v = Mul(Sub(LoadUpTo(x + i, width), mr), vinv);
      if (gain != nullptr) v = Mul(v, LoadUpTo(gain + i, width));
      if (bias != nullptr) v = Add(v, LoadUpTo(bias + i, width));
      StoreUpTo(y + i, width, v);
    }
  }
}

}  // namespace

float Dot(const float* a, const float* b, size_t n) {
  float out;
  MicroKernel<1, 1>(a, 0, b, 0, n, &out, 0);
  return out;
}

float SquaredDistance(const float* a, const float* b, size_t n) {
  Lanes acc = Zero();
  size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    const Lanes d = Sub(Load(a + i), Load(b + i));
    acc = MulAdd(d, d, acc);
  }
  if (i < n) {
    const Lanes d = Sub(LoadTail(a + i, n - i), LoadTail(b + i, n - i));
    acc = MulAdd(d, d, acc);
  }
  return Sum(acc);
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  const Lanes va = Broadcast(alpha);
  size_t i = 0;
  for (; i + kDotLanes <= n; i += kDotLanes) {
    Store(y + i, MulAdd(va, Load(x + i), Load(y + i)));
  }
  if (i < n) {
    StoreTail(y + i, n - i,
              MulAdd(va, LoadTail(x + i, n - i), LoadTail(y + i, n - i)));
  }
}

void Scale(float alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

float Norm(const float* x, size_t n) { return std::sqrt(Dot(x, x, n)); }

void NormalizeInPlace(float* x, size_t n) {
  const float norm = Norm(x, n);
  if (norm > 0.f) Scale(1.f / norm, x, n);
}

Matrix GemmBt(const Matrix& a, const Matrix& b) {
  EMBER_CHECK(a.cols() == b.cols());
  Matrix c(a.rows(), b.rows());
  GemmBtInto(a, b, &c);
  return c;
}

void GemmBtInto(const Matrix& a, const Matrix& b, Matrix* out) {
  EMBER_CHECK(a.cols() == b.cols());
  EMBER_CHECK(out->rows() == a.rows() && out->cols() == b.rows());
  GemmBtStrided(a.data(), a.rows(), a.cols(), b.data(), b.rows(), b.cols(),
                a.cols(), out->data(), b.rows());
}

void GemmBtStrided(const float* a, size_t m, size_t lda, const float* b,
                   size_t n, size_t ldb, size_t k, float* c, size_t ldc) {
  // L2-sized tiles of kMr x kNr micro-kernel blocks; leftover columns of a
  // row block take the kMr x 1 edge, leftover rows the 1 x kEdgeNr edge and
  // finally 1 x 1. Tiling only reorders whole cells, and each cell is the
  // same MicroKernel walk, so c[i * ldc + j] == Dot(a_i, b_j) bit-for-bit.
  constexpr size_t kTileA = 16 * kMr;
  constexpr size_t kTileB = 64;
  for (size_t i0 = 0; i0 < m; i0 += kTileA) {
    const size_t i1 = std::min(m, i0 + kTileA);
    for (size_t j0 = 0; j0 < n; j0 += kTileB) {
      const size_t j1 = std::min(n, j0 + kTileB);
      size_t i = i0;
      for (; i + kMr <= i1; i += kMr) {
        const float* ai = a + i * lda;
        float* ci = c + i * ldc;
        size_t j = j0;
        for (; j + kNr <= j1; j += kNr) {
          MicroKernel<kMr, kNr>(ai, lda, b + j * ldb, ldb, k, ci + j, ldc);
        }
        for (; j < j1; ++j) {
          MicroKernel<kMr, 1>(ai, lda, b + j * ldb, ldb, k, ci + j, ldc);
        }
      }
      for (; i < i1; ++i) {
        const float* ai = a + i * lda;
        float* ci = c + i * ldc;
        size_t j = j0;
        for (; j + kEdgeNr <= j1; j += kEdgeNr) {
          MicroKernel<1, kEdgeNr>(ai, lda, b + j * ldb, ldb, k, ci + j, ldc);
        }
        for (; j < j1; ++j) {
          MicroKernel<1, 1>(ai, lda, b + j * ldb, ldb, k, ci + j, ldc);
        }
      }
    }
  }
}

void WeightedSumRows(const float* w, const float* rows, size_t m,
                     size_t stride, size_t n, float* out) {
  WeightedSumRowsMulti(w, m, 1, rows, m, stride, n, out, n);
}

void WeightedSumRowsMulti(const float* w, size_t ldw, size_t count,
                          const float* rows, size_t m, size_t stride,
                          size_t n, float* out, size_t ldo) {
  ForRowBlocks<4>(0, count, [&](auto block, size_t r) {
    WeightedSumBlock<decltype(block)::value>(w + r * ldw, ldw, rows, m,
                                             stride, n, out + r * ldo, ldo);
  });
}

void Gemv(const Matrix& m, const float* x, float* out) {
  // One query row against every matrix row: the 1 x kEdgeNr edge kernel,
  // and out[r] == Dot(x, m.Row(r)) == Dot(m.Row(r), x) bit-for-bit.
  GemmBtStrided(x, 1, m.cols(), m.data(), m.rows(), m.cols(), m.cols(), out,
                m.rows());
}

void SoftmaxInPlace(float* x, size_t n) { SoftmaxRows(x, 1, n, n, 1.f); }

void SoftmaxRows(float* x, size_t rows, size_t ld, size_t n, float scale) {
  if (n == 0) return;
  ForRowBlocks<8>(0, rows, [&](auto block, size_t r) {
    SoftmaxBlock<decltype(block)::value>(x + r * ld, ld, n, scale);
  });
}

void GeluTanhInPlace(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float z = x[i];
    // tanh(a) = (e^2a - 1) / (e^2a + 1) with a = sqrt(2/pi) (z + 0.044715
    // z^3); the constant below is 2 * sqrt(2/pi). FastExp's input clamp
    // saturates the ratio to +/-1 for large |a|, exactly like tanh.
    const float u = 1.59576912f * (z + 0.044715f * z * z * z);
    const float e = FastExp(u);
    x[i] = 0.5f * z * (1.f + (e - 1.f) / (e + 1.f));
  }
}

void LayerNormInPlace(float* x, size_t n, const float* gain,
                      const float* bias) {
  LayerNormRows(x, n, x, n, 1, n, gain, bias);
}

void LayerNormRows(const float* src, size_t lds, float* dst, size_t ldd,
                   size_t rows, size_t n, const float* gain,
                   const float* bias) {
  if (n == 0) return;
  ForRowBlocks<8>(0, rows, [&](auto block, size_t r) {
    LayerNormBlock<decltype(block)::value>(src + r * lds, lds,
                                           dst + r * ldd, ldd, n, gain, bias);
  });
}

}  // namespace ember::la
