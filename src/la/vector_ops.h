#ifndef EMBER_LA_VECTOR_OPS_H_
#define EMBER_LA_VECTOR_OPS_H_

#include <cstddef>

#include "la/matrix.h"

namespace ember::la {

/// Number of independent accumulator lanes in the kernels. Element i of a
/// reduction always lands in lane i % kDotLanes, every accumulate step is
/// one multiply-add whose rounding (fused with FMA hardware, unfused
/// without) is fixed in source, and the lanes fold in a fixed pairwise
/// order, so the one-pair path and the blocked GEMM path are bit-identical.
inline constexpr size_t kDotLanes = 8;

/// Dot product with 8 independent partial sums and a fixed pairwise lane
/// reduction: the 1x1 instance of the GEMM micro-kernel.
float Dot(const float* a, const float* b, size_t n);

/// Squared Euclidean distance, same lane structure as Dot.
float SquaredDistance(const float* a, const float* b, size_t n);

/// y += alpha * x, one multiply-add per element (the lane primitive).
void Axpy(float alpha, const float* x, float* y, size_t n);

/// x *= alpha.
void Scale(float alpha, float* x, size_t n);

/// Euclidean norm (sqrt of the lane-reduced Dot(x, x)).
float Norm(const float* x, size_t n);

/// x /= ||x|| (no-op on the zero vector). Fused single pass over the lanes
/// for the norm, then one scale pass.
void NormalizeInPlace(float* x, size_t n);

/// C = A * B^T, where A is (m x k) and B is (n x k); C is (m x n). Uses
/// register-blocked micro-kernels (with row and column edge kernels) tiled
/// for L2 residency; every C entry is accumulated in exactly the Dot() lane
/// order, so GemmBt(a, b).At(i, j) == Dot(a.Row(i), b.Row(j), k)
/// bit-for-bit. Never reads past the last row's k-th float.
Matrix GemmBt(const Matrix& a, const Matrix& b);

/// Allocation-free GemmBt: writes A * B^T into the preallocated
/// (a.rows() x b.rows()) matrix `out`. Bit-identical to GemmBt.
void GemmBtInto(const Matrix& a, const Matrix& b, Matrix* out);

/// Strided-view GemmBt over raw panels: row i of A starts at a + i * lda
/// (k valid floats), row j of B at b + j * ldb, and C(i, j) lands at
/// c[i * ldc + j]. Runs the same register-blocked micro-kernels with the
/// same kDotLanes accumulation order as GemmBt, so
/// c[i * ldc + j] == Dot(a + i * lda, b + j * ldb, k) bit-for-bit; only the
/// n cells of each c row are written, never the ldc padding. This is what
/// lets per-head attention panels (head-strided slices of packed Q/K
/// matrices) and the exact index's corpus blocks go through the blocked
/// kernel without materializing copies.
void GemmBtStrided(const float* a, size_t m, size_t lda, const float* b,
                   size_t n, size_t ldb, size_t k, float* c, size_t ldc);

/// out[j] = sum_i w[i] * rows[i * stride + j] for j in [0, n), with each
/// output element accumulated in strictly ascending-i order — the exact FP
/// operation sequence of the naive "zero out, then Axpy row by row" loop it
/// replaces (attention's softmax-weighted V aggregation), but with the
/// accumulators blocked into registers across the whole i sweep instead of
/// streaming out[] through memory once per row.
void WeightedSumRows(const float* w, const float* rows, size_t m,
                     size_t stride, size_t n, float* out);

/// WeightedSumRows for `count` weight rows at once: out + r * ldo receives
/// WeightedSumRows(w + r * ldw, rows, m, stride, n) for r in [0, count).
/// Rows go four at a time, so each loaded `rows` vector feeds four
/// accumulator chains (attention's P·V over every query row). Each output
/// element keeps its ascending-i MulAdd chain, so the result equals the
/// per-row calls bit for bit; WeightedSumRows is the count = 1 instance.
void WeightedSumRowsMulti(const float* w, size_t ldw, size_t count,
                          const float* rows, size_t m, size_t stride,
                          size_t n, float* out, size_t ldo);

/// out[i] = Dot(m.Row(i), x) for every row of m: GemmBtStrided with x as
/// the single a row.
void Gemv(const Matrix& m, const float* x, float* out);

/// In-place softmax over x[0..n): SoftmaxRows' 1-row instance at scale 1.
void SoftmaxInPlace(float* x, size_t n);

/// Scaled in-place softmax of `rows` rows, row r at x + r * ld: every
/// element is multiplied by `scale`, then the row is softmaxed. Rows go up
/// to eight at a time so their serial max chains overlap; each row keeps
/// the op sequence of a lone row, so the result equals `x *= scale` then
/// SoftmaxInPlace per row, bit for bit.
void SoftmaxRows(float* x, size_t rows, size_t ld, size_t n, float scale);

/// In-place tanh-approximation GELU: x = 0.5 x (1 + tanh(sqrt(2/pi) (x +
/// 0.044715 x^3))). The tanh goes through the same branch-free exp core as
/// SoftmaxInPlace, so the loop vectorizes; absolute error vs the libm
/// formulation is below 1e-6, far inside the regime the encoder cares about.
void GeluTanhInPlace(float* x, size_t n);

/// In-place layer norm (mean 0, variance 1, then gain/bias) over x[0..n):
/// LayerNormRows' 1-row instance. The mean and variance are ascending-order
/// sums, the squares and every output step are rounded on their own
/// (never fused, whatever the FP-contraction flags), and gain/bias may be
/// null.
void LayerNormInPlace(float* x, size_t n, const float* gain, const float* bias);

/// Layer norm of `rows` rows: row r of src (at src + r * lds) is normalized
/// into dst + r * ldd; src == dst (with lds == ldd) works in place. Rows go
/// up to eight at a time so their serial sum chains overlap, and each row
/// equals LayerNormInPlace on a copy of it, bit for bit.
void LayerNormRows(const float* src, size_t lds, float* dst, size_t ldd,
                   size_t rows, size_t n, const float* gain,
                   const float* bias);

}  // namespace ember::la

#endif  // EMBER_LA_VECTOR_OPS_H_
