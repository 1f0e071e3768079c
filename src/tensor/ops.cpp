#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/check.hpp"

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace marsit {

namespace {

void check_same_size(std::span<const float> a, std::span<const float> b,
                     const char* what) {
  MARSIT_CHECK(a.size() == b.size())
      << what << ": extents " << a.size() << " vs " << b.size();
}

}  // namespace

void copy_into(std::span<const float> src, std::span<float> dst) {
  check_same_size(src, dst, "copy_into");
  std::copy(src.begin(), src.end(), dst.begin());
}

void fill(std::span<float> x, float value) {
  std::fill(x.begin(), x.end(), value);
}

void fill_normal(std::span<float> x, Rng& rng, float mean, float stddev) {
  for (float& v : x) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
}

void fill_uniform(std::span<float> x, Rng& rng, float lo, float hi) {
  for (float& v : x) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  check_same_size(x, y, "axpy");
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void scale(std::span<float> x, float alpha) {
  for (float& v : x) {
    v *= alpha;
  }
}

void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out) {
  check_same_size(a, b, "add");
  check_same_size(a, out, "add");
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] + b[i];
  }
}

void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> out) {
  check_same_size(a, b, "sub");
  check_same_size(a, out, "sub");
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] - b[i];
  }
}

void hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out) {
  check_same_size(a, b, "hadamard");
  check_same_size(a, out, "hadamard");
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

float dot(std::span<const float> a, std::span<const float> b) {
  check_same_size(a, b, "dot");
  // Accumulate in double: gradient vectors reach 10^6 elements and float
  // accumulation would lose the small tail contributions the compressors
  // depend on.
  double acc = 0.0;
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return static_cast<float>(acc);
}

float l1_norm(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) {
    acc += std::fabs(static_cast<double>(v));
  }
  return static_cast<float>(acc);
}

float squared_l2_norm(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) {
    acc += static_cast<double>(v) * static_cast<double>(v);
  }
  return static_cast<float>(acc);
}

float l2_norm(std::span<const float> x) {
  return std::sqrt(squared_l2_norm(x));
}

float sum(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) {
    acc += static_cast<double>(v);
  }
  return static_cast<float>(acc);
}

float mean(std::span<const float> x) {
  MARSIT_CHECK(!x.empty()) << "mean of empty span";
  return sum(x) / static_cast<float>(x.size());
}

float max_abs(std::span<const float> x) {
  float best = 0.0f;
  for (float v : x) {
    best = std::max(best, std::fabs(v));
  }
  return best;
}

std::size_t argmax(std::span<const float> x) {
  MARSIT_CHECK(!x.empty()) << "argmax of empty span";
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) {
      best = i;
    }
  }
  return best;
}

bool all_finite(std::span<const float> x) {
  for (float v : x) {
    if (!std::isfinite(v)) {
      return false;
    }
  }
  return true;
}

namespace {

// ---- GEMM micro-kernel ----------------------------------------------------
//
// One kernel serves all three products: c(m×n) = A·B (+ c), with
//   A(i,p) = a[i·a_row + p·a_col]   (row-major a, or aᵀ via a_row = 1)
//   B(p,j) = b[p·ldb + j]           (row-major, contiguous along j)
// A tile of kRows × (V·kLanes) outputs lives in registers for the whole k
// loop: each step loads V vectors of B, broadcasts kRows values of A and
// issues kRows·V multiply-adds.  Every output element accumulates its terms
// in ascending p with `acc += a * b`, the same expression (and therefore the
// same contraction to FMA) as the reference loops.  The ISA arm is chosen at
// compile time, as in compress/kernels.cpp.
#if defined(__AVX512F__)
using Vec = __m512;
constexpr std::size_t kLanes = 16;
constexpr std::size_t kRows = 8;
constexpr const char* kArm = "avx512";
#elif defined(__AVX2__) && defined(__FMA__)
using Vec = __m256;
constexpr std::size_t kLanes = 8;
constexpr std::size_t kRows = 6;
constexpr const char* kArm = "avx2";
#else
typedef float Vec __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;
constexpr std::size_t kRows = 6;
constexpr const char* kArm = "generic";
#endif

Vec load(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store(float* p, Vec v) { std::memcpy(p, &v, sizeof(v)); }

// Partial vectors (the last `count` < kLanes columns of a row) read zeros
// in the dead lanes and never write them.  splat broadcasts one A value.
#if defined(__AVX512F__)
Vec splat(float x) { return _mm512_set1_ps(x); }
__mmask16 lane_mask(std::size_t count) {
  return static_cast<__mmask16>((1u << count) - 1u);
}
Vec load(const float* p, std::size_t count) {
  return _mm512_maskz_loadu_ps(lane_mask(count), p);
}
void store(float* p, Vec v, std::size_t count) {
  _mm512_mask_storeu_ps(p, lane_mask(count), v);
}
#elif defined(__AVX2__) && defined(__FMA__)
Vec splat(float x) { return _mm256_set1_ps(x); }
__m256i lane_mask(std::size_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
Vec load(const float* p, std::size_t count) {
  return _mm256_maskload_ps(p, lane_mask(count));
}
void store(float* p, Vec v, std::size_t count) {
  _mm256_maskstore_ps(p, lane_mask(count), v);
}
#else
Vec splat(float x) { return Vec{x, x, x, x}; }
Vec load(const float* p, std::size_t count) {
  Vec v{};
  std::memcpy(&v, p, count * sizeof(float));
  return v;
}
void store(float* p, Vec v, std::size_t count) {
  std::memcpy(p, &v, count * sizeof(float));
}
#endif

struct Gemm {
  const float* a;
  std::size_t a_row;
  std::size_t a_col;
  const float* b;
  std::size_t ldb;
  float* c;
  std::size_t ldc;
  std::size_t k;
  bool accumulate;  // c += A·B instead of c = A·B
};

/// Rows [i0, i0+R) × columns [j0, j0 + V·kLanes) of c; with kPartial the
/// last vector holds only `tail` live columns.
template <std::size_t R, std::size_t V, bool kPartial>
void tile(const Gemm& g, std::size_t i0, std::size_t j0, std::size_t tail) {
  const auto lanes = [tail](std::size_t v) {
    return kPartial && v == V - 1 ? tail : kLanes;
  };
  Vec acc[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    const float* c_row = g.c + (i0 + r) * g.ldc + j0;
    for (std::size_t v = 0; v < V; ++v) {
      if (!g.accumulate) {
        acc[r][v] = Vec{};
      } else if (lanes(v) == kLanes) {
        acc[r][v] = load(c_row + v * kLanes);
      } else {
        acc[r][v] = load(c_row + v * kLanes, tail);
      }
    }
  }
  const float* a = g.a + i0 * g.a_row;
  const float* b = g.b + j0;
  for (std::size_t p = 0; p < g.k; ++p, a += g.a_col, b += g.ldb) {
    Vec bv[V];
    for (std::size_t v = 0; v < V; ++v) {
      bv[v] = lanes(v) == kLanes ? load(b + v * kLanes)
                                 : load(b + v * kLanes, tail);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const Vec av = splat(a[r * g.a_row]);
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] += av * bv[v];
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    float* c_row = g.c + (i0 + r) * g.ldc + j0;
    for (std::size_t v = 0; v < V; ++v) {
      if (lanes(v) == kLanes) {
        store(c_row + v * kLanes, acc[r][v]);
      } else {
        store(c_row + v * kLanes, acc[r][v], tail);
      }
    }
  }
}

/// The final m mod kRows rows of one column block.
template <std::size_t R, std::size_t V, bool kPartial>
void edge_rows(const Gemm& g, std::size_t rows, std::size_t i0,
               std::size_t j0, std::size_t tail) {
  if constexpr (R > 0) {
    if (rows == R) {
      tile<R, V, kPartial>(g, i0, j0, tail);
    } else {
      edge_rows<R - 1, V, kPartial>(g, rows, i0, j0, tail);
    }
  }
}

template <std::size_t V, bool kPartial>
void column_block(const Gemm& g, std::size_t m, std::size_t j0,
                  std::size_t tail) {
  std::size_t i0 = 0;
  for (; i0 + kRows <= m; i0 += kRows) {
    tile<kRows, V, kPartial>(g, i0, j0, tail);
  }
  edge_rows<kRows - 1, V, kPartial>(g, m - i0, i0, j0, tail);
}

void gemm(const Gemm& g, std::size_t m, std::size_t n) {
  // Column blocks outermost: the k×(2·kLanes) panel of B stays in L1 while
  // every row tile streams past it.
  constexpr std::size_t kWide = 2 * kLanes;
  std::size_t j0 = 0;
  for (; j0 + kWide <= n; j0 += kWide) {
    column_block<2, false>(g, m, j0, 0);
  }
  const std::size_t rest = n - j0;
  if (rest > kLanes) {
    column_block<2, true>(g, m, j0, rest - kLanes);
  } else if (rest == kLanes) {
    column_block<1, false>(g, m, j0, 0);
  } else if (rest > 0) {
    column_block<1, true>(g, m, j0, rest);
  }
}

/// Applies beta to c ahead of the product; returns whether the product
/// accumulates into c (beta ≠ 0) or overwrites it.
bool apply_beta(std::span<float> c, float beta) {
  if (beta == 0.0f) {
    return false;
  }
  if (beta != 1.0f) {
    scale(c, beta);
  }
  return true;
}

void check_gemm_extents(const char* what, std::size_t a_size,
                        std::size_t b_size, std::size_t c_size, std::size_t m,
                        std::size_t k, std::size_t n) {
  MARSIT_CHECK(a_size == m * k) << what << ": a extent";
  MARSIT_CHECK(b_size == k * n) << what << ": b extent";
  MARSIT_CHECK(c_size == m * n) << what << ": c extent";
}

}  // namespace

const char* gemm_arm() { return kArm; }

void transpose(std::span<const float> src, std::size_t rows, std::size_t cols,
               std::span<float> dst) {
  MARSIT_CHECK(src.size() == rows * cols) << "transpose: src extent";
  MARSIT_CHECK(dst.size() == rows * cols) << "transpose: dst extent";
  for (std::size_t r = 0; r < rows; ++r) {
    const float* src_row = src.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      dst[c * rows + r] = src_row[c];
    }
  }
}

void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
            float beta) {
  check_gemm_extents("matmul", a.size(), b.size(), c.size(), m, k, n);
  const bool accumulate = apply_beta(c, beta);
  gemm({a.data(), k, 1, b.data(), n, c.data(), n, k, accumulate}, m, n);
}

void matmul_at_b(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t k,
                 std::size_t n, float beta) {
  check_gemm_extents("matmul_at_b", a.size(), b.size(), c.size(), m, k, n);
  const bool accumulate = apply_beta(c, beta);
  gemm({a.data(), 1, m, b.data(), n, c.data(), n, k, accumulate}, m, n);
}

void matmul_a_bt(std::span<const float> a, std::span<const float> b,
                 std::span<float> c, std::size_t m, std::size_t k,
                 std::size_t n, std::span<float> bt, float beta) {
  check_gemm_extents("matmul_a_bt", a.size(), b.size(), c.size(), m, k, n);
  // B must be contiguous along j, so materialize bᵀ (k×n): O(k·n) against
  // the O(m·k·n) product.
  transpose(b, n, k, bt);
  const bool accumulate = apply_beta(c, beta);
  gemm({a.data(), k, 1, bt.data(), n, c.data(), n, k, accumulate}, m, n);
}

namespace {

/// The reference loops' own beta step, kept apart from apply_beta so the
/// twins stay an independent oracle.
void reference_beta(std::span<float> c, float beta) {
  if (beta == 0.0f) {
    std::fill(c.begin(), c.end(), 0.0f);
  } else if (beta != 1.0f) {
    scale(c, beta);
  }
}

}  // namespace

void matmul_reference(std::span<const float> a, std::span<const float> b,
                      std::span<float> c, std::size_t m, std::size_t k,
                      std::size_t n, float beta) {
  check_gemm_extents("matmul_reference", a.size(), b.size(), c.size(), m, k,
                     n);
  reference_beta(c, beta);
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.data() + i * k;
    float* c_row = c.data() + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      if (a_ip == 0.0f) {
        continue;
      }
      const float* b_row = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ip * b_row[j];
      }
    }
  }
}

void matmul_at_b_reference(std::span<const float> a, std::span<const float> b,
                           std::span<float> c, std::size_t m, std::size_t k,
                           std::size_t n, float beta) {
  check_gemm_extents("matmul_at_b_reference", a.size(), b.size(), c.size(), m,
                     k, n);
  reference_beta(c, beta);
  for (std::size_t p = 0; p < k; ++p) {
    const float* a_row = a.data() + p * m;
    const float* b_row = b.data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float a_pi = a_row[i];
      if (a_pi == 0.0f) {
        continue;
      }
      float* c_row = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_pi * b_row[j];
      }
    }
  }
}

void matmul_a_bt_reference(std::span<const float> a, std::span<const float> b,
                           std::span<float> c, std::size_t m, std::size_t k,
                           std::size_t n, float beta) {
  std::vector<float> bt(k * n);
  transpose(b, n, k, bt);
  matmul_reference(a, bt, c, m, k, n, beta);
}

}  // namespace marsit
