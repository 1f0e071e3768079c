// Numeric kernels over flat float spans: BLAS-1 style vector ops plus a
// register-blocked GEMM.  These are the only places in the project that touch raw
// float loops; everything above (optimizers, compressors, layers) composes
// them.
//
// All binary ops require equal extents (checked); outputs may alias inputs
// where noted.
#pragma once

#include <cstddef>
#include <span>

#include "util/rng.hpp"

namespace marsit {

// ---- fills / copies -------------------------------------------------------

void copy_into(std::span<const float> src, std::span<float> dst);
void fill(std::span<float> x, float value);
inline void zero(std::span<float> x) { fill(x, 0.0f); }

/// Fills x with i.i.d. N(mean, stddev) draws from rng.
void fill_normal(std::span<float> x, Rng& rng, float mean, float stddev);

/// Fills x with i.i.d. U[lo, hi) draws from rng.
void fill_uniform(std::span<float> x, Rng& rng, float lo, float hi);

// ---- elementwise ----------------------------------------------------------

/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha
void scale(std::span<float> x, float alpha);

/// out = a + b  (out may alias a or b)
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/// out = a - b  (out may alias a or b)
void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/// out = a * b elementwise  (out may alias a or b)
void hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out);

// ---- reductions -----------------------------------------------------------

float dot(std::span<const float> a, std::span<const float> b);
float l1_norm(std::span<const float> x);
float l2_norm(std::span<const float> x);
float squared_l2_norm(std::span<const float> x);
float sum(std::span<const float> x);
float mean(std::span<const float> x);
float max_abs(std::span<const float> x);

/// Index of the maximum element (first on ties).  x must be non-empty.
std::size_t argmax(std::span<const float> x);

/// true iff every element is finite (no NaN/Inf) — the trainer's divergence
/// detector.
bool all_finite(std::span<const float> x);

// ---- GEMM -----------------------------------------------------------------
//
// All three products run one register-blocked micro-kernel (DESIGN.md §7):
// it keeps a tile of c in registers for the whole k loop and accumulates
// every output element in ascending k, one fused multiply-add per term when
// the build contracts (GCC's C++ default), exactly as the *_reference loops
// below do.  For finite a and b, and a c holding no −0 when beta ≠ 0, the
// results are bit-identical to the reference twins (tests/tensor_test.cpp).

/// The GEMM arm this build compiled: "avx512", "avx2" or "generic".
const char* gemm_arm();

/// dst(cols×rows) = src(rows×cols)ᵀ, both row-major.
void transpose(std::span<const float> src, std::size_t rows, std::size_t cols,
               std::span<float> dst);

/// c = a(m×k) · b(k×n) + beta·c, all row-major.
void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
            float beta = 0.0f);

/// c = aᵀ(m×k, stored k×m) · b(k×n) + beta·c.
void matmul_at_b(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t k,
                 std::size_t n, float beta = 0.0f);

/// c = a(m×k) · bᵀ(k×n, stored n×k) + beta·c.
/// `bt` is caller-owned scratch of k·n floats; it receives bᵀ.
void matmul_a_bt(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t k,
                 std::size_t n, std::span<float> bt, float beta = 0.0f);

// Row-table forms: one operand is addressed through a table of row pointers,
// so rows may overlap or sit anywhere in memory (Conv2d's implicit GEMM reads
// every tap of a padded input image this way).  Same kernel, same contract.

/// c = a(m×k) · B + beta·c, where row p of B (k×n) is b_rows[p][0, n).
void matmul_b_rows(std::span<const float> a,
                   std::span<const float* const> b_rows, std::span<float> c,
                   std::size_t m, std::size_t k, std::size_t n,
                   float beta = 0.0f);

/// c = A · b(k×n) + beta·c, where row i of A (m×k) is a_rows[i][0, k).
void matmul_a_rows(std::span<const float* const> a_rows,
                   std::span<const float> b, std::span<float> c,
                   std::size_t m, std::size_t k, std::size_t n,
                   float beta = 0.0f);

// Reference twins: the plain axpy-form loops, which skip zero a terms, that
// the kernel must reproduce bit-for-bit.  Only tests and bench/micro_kernels
// call them.
void matmul_reference(std::span<const float> a, std::span<const float> b,
                      std::span<float> c, std::size_t m, std::size_t k,
                      std::size_t n, float beta = 0.0f);
void matmul_at_b_reference(std::span<const float> a, std::span<const float> b,
                           std::span<float> c, std::size_t m, std::size_t k,
                           std::size_t n, float beta = 0.0f);
void matmul_a_bt_reference(std::span<const float> a, std::span<const float> b,
                           std::span<float> c, std::size_t m, std::size_t k,
                           std::size_t n, float beta = 0.0f);

}  // namespace marsit
