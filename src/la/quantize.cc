#include "la/quantize.h"

#include <algorithm>
#include <cmath>

#include "la/vector_ops.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ember::la {

void QuantizeRow(const float* x, size_t n, int8_t* codes,
                 QuantParams* params) {
  *params = QuantParams{};
  if (n == 0) return;
  float lo = x[0], hi = x[0];
  for (size_t i = 1; i < n; ++i) {
    lo = std::min(lo, x[i]);
    hi = std::max(hi, x[i]);
  }
  // Affine per-row mapping: spend the symmetric [-127, 127] code range on
  // the row's actual [lo, hi]. A constant row gets scale 0 and quantizes
  // exactly through the zero point.
  const float scale = (hi - lo) / 254.f;
  const float zero_point = 0.5f * (hi + lo);
  params->scale = scale;
  params->zero_point = zero_point;
  const float inv = scale > 0.f ? 1.f / scale : 0.f;
  int32_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    const float q = std::nearbyintf((x[i] - zero_point) * inv);
    const int32_t code =
        std::max(-127, std::min(127, static_cast<int32_t>(q)));
    codes[i] = static_cast<int8_t>(code);
    sum += code;
  }
  params->code_sum = sum;
}

void DequantizeRow(const int8_t* codes, const QuantParams& params, size_t n,
                   float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = params.zero_point +
             params.scale * static_cast<float>(codes[i]);
  }
}

#if defined(__AVX2__)
namespace {

inline int32_t HorizontalSumI32(__m256i v) {
  alignas(32) int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  int32_t total = 0;
  for (int l = 0; l < 8; ++l) total += lanes[l];
  return total;
}

/// One 32-code step: vpmaddubsw needs an unsigned left operand, so it
/// multiplies |a| against b carrying a's sign (a == 0 lanes contribute 0
/// through |a|). Saturation-safe for QuantizeRow output: codes are clamped
/// to [-127, 127], so each adjacent pair sums to at most 2 * 127^2 = 32258
/// < INT16_MAX and the result is exact. (A crafted -128 code — possible
/// only in a corrupted file loaded with verify_checksum off — would wrap
/// in vpsignb, never read out of bounds.) `abs_a` must be abs(va); passing
/// it in lets the GEMM micro-kernel amortize the abs across b columns.
inline __m256i DotStepI8(__m256i abs_a, __m256i va, __m256i vb, __m256i acc) {
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
  // VPDPBUSD fuses the u8 x i8 multiply, the 4-wide pair sum, and the i32
  // accumulate into one instruction with no i16 intermediate, so it is
  // exact for the full code range.
  return _mm256_dpbusd_epi32(acc, abs_a, _mm256_sign_epi8(vb, va));
#else
  const __m256i prod =
      _mm256_maddubs_epi16(abs_a, _mm256_sign_epi8(vb, va));
  return _mm256_add_epi32(acc,
                          _mm256_madd_epi16(prod, _mm256_set1_epi16(1)));
#endif
}

inline __m256i LoadI8(const int8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

}  // namespace
#endif

int32_t DotI8(const int8_t* a, const int8_t* b, size_t n) {
  size_t i = 0;
  int32_t total = 0;
#if defined(__AVX2__)
  // Two independent accumulator chains over 64 codes per step. Integer
  // arithmetic is exact, so this equals the scalar loop bit-for-bit.
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  for (; i + 64 <= n; i += 64) {
    const __m256i va0 = LoadI8(a + i);
    const __m256i va1 = LoadI8(a + i + 32);
    acc0 = DotStepI8(_mm256_abs_epi8(va0), va0, LoadI8(b + i), acc0);
    acc1 = DotStepI8(_mm256_abs_epi8(va1), va1, LoadI8(b + i + 32), acc1);
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i va = LoadI8(a + i);
    acc0 = DotStepI8(_mm256_abs_epi8(va), va, LoadI8(b + i), acc0);
  }
  total = HorizontalSumI32(_mm256_add_epi32(acc0, acc1));
#else
  // Portable baseline: the same kDotLanes independent-accumulator shape as
  // the float Dot kernel, which auto-vectorizes under -O3.
  int32_t acc[kDotLanes] = {};
  for (; i + kDotLanes <= n; i += kDotLanes) {
    for (size_t l = 0; l < kDotLanes; ++l) {
      acc[l] += static_cast<int32_t>(a[i + l]) * static_cast<int32_t>(b[i + l]);
    }
  }
  for (size_t l = 0; l < kDotLanes; ++l) total += acc[l];
#endif
  for (; i < n; ++i) {
    total += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return total;
}

void GemmBtI8Strided(const int8_t* a, size_t m, size_t lda, const int8_t* b,
                     size_t n, size_t ldb, size_t k, int32_t* c, size_t ldc) {
  // L2-sized row tiles around a register-blocked 2x4 micro-kernel (the
  // int8 analogue of GemmBtStrided's 6x4): each 32-code step loads 2 a-rows
  // and 4 b-rows and updates 8 accumulators, amortizing loads and the
  // abs(a) across columns. Integer accumulation is exact, so blocking is
  // purely a throughput optimization — every entry equals
  // DotI8(row_i, row_j, k) bit-for-bit regardless of block shape.
  constexpr size_t kTileA = 32;
  constexpr size_t kTileB = 128;
  for (size_t i0 = 0; i0 < m; i0 += kTileA) {
    const size_t i1 = std::min(m, i0 + kTileA);
    for (size_t j0 = 0; j0 < n; j0 += kTileB) {
      const size_t j1 = std::min(n, j0 + kTileB);
      size_t i = i0;
#if defined(__AVX2__)
      for (; i + 2 <= i1; i += 2) {
        const int8_t* a0 = a + i * lda;
        const int8_t* a1 = a0 + lda;
        int32_t* c0 = c + i * ldc;
        int32_t* c1 = c0 + ldc;
        size_t j = j0;
        for (; j + 4 <= j1; j += 4) {
          const int8_t* bj[4] = {b + j * ldb, b + (j + 1) * ldb,
                                 b + (j + 2) * ldb, b + (j + 3) * ldb};
          __m256i acc[2][4];
          for (int r = 0; r < 2; ++r) {
            for (int s = 0; s < 4; ++s) acc[r][s] = _mm256_setzero_si256();
          }
          size_t p = 0;
          for (; p + 32 <= k; p += 32) {
            const __m256i va0 = LoadI8(a0 + p);
            const __m256i va1 = LoadI8(a1 + p);
            const __m256i abs0 = _mm256_abs_epi8(va0);
            const __m256i abs1 = _mm256_abs_epi8(va1);
            for (int s = 0; s < 4; ++s) {
              const __m256i vb = LoadI8(bj[s] + p);
              acc[0][s] = DotStepI8(abs0, va0, vb, acc[0][s]);
              acc[1][s] = DotStepI8(abs1, va1, vb, acc[1][s]);
            }
          }
          for (int s = 0; s < 4; ++s) {
            int32_t cell0 = HorizontalSumI32(acc[0][s]);
            int32_t cell1 = HorizontalSumI32(acc[1][s]);
            for (size_t t = p; t < k; ++t) {
              cell0 += static_cast<int32_t>(a0[t]) *
                       static_cast<int32_t>(bj[s][t]);
              cell1 += static_cast<int32_t>(a1[t]) *
                       static_cast<int32_t>(bj[s][t]);
            }
            c0[j + s] = cell0;
            c1[j + s] = cell1;
          }
        }
        for (; j < j1; ++j) {
          const int8_t* bjp = b + j * ldb;
          c0[j] = DotI8(a0, bjp, k);
          c1[j] = DotI8(a1, bjp, k);
        }
      }
#endif
      for (; i < i1; ++i) {
        const int8_t* ai = a + i * lda;
        int32_t* ci = c + i * ldc;
        for (size_t j = j0; j < j1; ++j) {
          ci[j] = DotI8(ai, b + j * ldb, k);
        }
      }
    }
  }
}

QuantizedMatrix QuantizedMatrix::Quantize(const Matrix& m) {
  QuantizedMatrix q;
  q.rows_ = m.rows();
  q.cols_ = m.cols();
  q.codes_.resize(m.rows() * m.cols());
  q.params_.resize(m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    QuantizeRow(m.Row(r), m.cols(), q.codes_.data() + r * m.cols(),
                &q.params_[r]);
  }
  return q;
}

QuantizedMatrix QuantizedMatrix::View(const int8_t* codes,
                                      const QuantParams* params, size_t rows,
                                      size_t cols) {
  QuantizedMatrix q;
  q.rows_ = rows;
  q.cols_ = cols;
  q.view_codes_ = codes;
  q.view_params_ = params;
  return q;
}

Matrix QuantizedMatrix::Dequantize() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    DequantizeRow(Row(r), Params(r), cols_, out.Row(r));
  }
  return out;
}

}  // namespace ember::la
