#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/lu_kernel.hpp"

#if PPH_LU_X86_DISPATCH
#include <immintrin.h>
#endif

#if defined(__GNUC__) || defined(__clang__)
#define PPH_LU_INLINE __attribute__((always_inline)) inline
#else
#define PPH_LU_INLINE inline
#endif

namespace pph::linalg {

namespace detail {
namespace {

// Relative width of the |.|^2 window around the column maximum inside which
// std::abs decides the pivot.  |.|^2 and std::abs each carry a few ulps of
// rounding, so every row whose std::abs ties the maximum lies far inside it.
constexpr double kPivotWindow = 1e-12;

/// The textbook pivot: the first row r in [k, n) of largest std::abs(a(r,k))
/// (the earliest row wins ties; a NaN below row k never wins), with that
/// magnitude in `best`.
PPH_LU_INLINE std::size_t find_pivot(const Complex* a, std::size_t n, std::size_t k,
                                     double& best) {
  double n2max = 0.0;
  for (std::size_t r = k; r < n; ++r) n2max = std::max(n2max, std::norm(a[r * n + k]));
  // Squares of entries below ~1e-154 or above ~1e154 leave the normal range
  // and lose the relative accuracy the window needs: compare every row.
  const bool screen = std::isnormal(n2max);
  const double floor = n2max * (1.0 - kPivotWindow);
  std::size_t pivot = k;
  // Row k outside the window is beaten by the maximum; a NaN row k is kept,
  // as the strict comparison below would keep it.
  const double nk = std::norm(a[k * n + k]);
  best = (screen && nk < floor) ? -1.0 : std::abs(a[k * n + k]);
  for (std::size_t r = k + 1; r < n; ++r) {
    if (screen && !(std::norm(a[r * n + k]) >= floor)) continue;
    const double mag = std::abs(a[r * n + k]);
    if (mag > best) {
      best = mag;
      pivot = r;
    }
  }
  return pivot;
}

/// row[c] -= f * krow[c] for c in [c0, n), on interleaved re/im doubles.
PPH_LU_INLINE void row_update_generic(double* row, const double* krow, std::size_t c0,
                                      std::size_t n, double fr, double fi) {
  for (std::size_t c = c0; c < n; ++c) {
    const double ar = krow[2 * c];
    const double ai = krow[2 * c + 1];
    row[2 * c] -= fr * ar - fi * ai;
    row[2 * c + 1] -= fr * ai + fi * ar;
  }
}

#if PPH_LU_X86_DISPATCH
/// row_update_generic, two complex entries per register.  No FMA: the
/// products and the sums round separately, exactly as in the generic loop.
__attribute__((target("avx2"))) inline void row_update_avx2(double* row, const double* krow,
                                                            std::size_t c0, std::size_t n,
                                                            double fr, double fi) {
  const __m256d vfr = _mm256_set1_pd(fr);
  const __m256d vfi = _mm256_set1_pd(fi);
  std::size_t c = c0;
  for (; c + 2 <= n; c += 2) {
    const __m256d k = _mm256_loadu_pd(krow + 2 * c);                    // ar ai ar ai
    const __m256d t1 = _mm256_mul_pd(vfr, k);                           // fr*ar fr*ai
    const __m256d t2 = _mm256_mul_pd(vfi, _mm256_permute_pd(k, 0b0101));  // fi*ai fi*ar
    const __m256d prod = _mm256_addsub_pd(t1, t2);  // fr*ar - fi*ai, fr*ai + fi*ar
    _mm256_storeu_pd(row + 2 * c, _mm256_sub_pd(_mm256_loadu_pd(row + 2 * c), prod));
  }
  row_update_generic(row, krow, c, n, fr, fi);
}
#endif

/// The factorization loop; Avx2 selects the row update.  Force-inlined so
/// the AVX2 entry point compiles the whole body for its target.
template <bool Avx2>
PPH_LU_INLINE LuFactorResult factor_body(Complex* a, std::size_t n, std::size_t* piv) {
  LuFactorResult out;
  for (std::size_t i = 0; i < n; ++i) piv[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    double best = 0.0;
    const std::size_t p = find_pivot(a, n, k, best);
    if (best == 0.0) {
      out.singular = true;
      continue;  // leave the zero column; determinant() will report 0
    }
    if (p != k) {
      std::swap_ranges(a + k * n, a + k * n + n, a + p * n);
      std::swap(piv[k], piv[p]);
      out.perm_sign = -out.perm_sign;
    }
    const Complex pivot = a[k * n + k];
    const double* krow = reinterpret_cast<const double*>(a + k * n);
    for (std::size_t r = k + 1; r < n; ++r) {
      const Complex f = a[r * n + k] / pivot;
      a[r * n + k] = f;
      if (f == Complex{}) continue;
      double* row = reinterpret_cast<double*>(a + r * n);
      if constexpr (Avx2) {
#if PPH_LU_X86_DISPATCH
        row_update_avx2(row, krow, k + 1, n, f.real(), f.imag());
#endif
      } else {
        row_update_generic(row, krow, k + 1, n, f.real(), f.imag());
      }
    }
  }
  return out;
}

/// acc -= sum_j m[j] * x[j] for j in [j0, j1), in order.
PPH_LU_INLINE void subtract_dot(const Complex* m, const Complex* x, std::size_t j0,
                                std::size_t j1, double& accr, double& acci) {
  for (std::size_t j = j0; j < j1; ++j) {
    const double mr = m[j].real();
    const double mi = m[j].imag();
    const double xr = x[j].real();
    const double xi = x[j].imag();
    accr -= mr * xr - mi * xi;
    acci -= mr * xi + mi * xr;
  }
}

}  // namespace

LuFactorResult lu_factor_generic(Complex* a, std::size_t n, std::size_t* piv) {
  return factor_body<false>(a, n, piv);
}

#if PPH_LU_X86_DISPATCH
__attribute__((target("avx2"))) LuFactorResult lu_factor_avx2(Complex* a, std::size_t n,
                                                               std::size_t* piv) {
  return factor_body<true>(a, n, piv);
}

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }
#endif

LuFactorResult lu_factor(Complex* a, std::size_t n, std::size_t* piv) {
#if PPH_LU_X86_DISPATCH
  static const bool use_avx2 = cpu_has_avx2();
  if (use_avx2) return lu_factor_avx2(a, n, piv);
#endif
  return lu_factor_generic(a, n, piv);
}

void lu_solve(const Complex* lu, std::size_t n, const std::size_t* piv, const Complex* b,
              Complex* x) {
  // Apply the permutation and forward-substitute L (unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    double accr = b[piv[i]].real();
    double acci = b[piv[i]].imag();
    subtract_dot(lu + i * n, x, 0, i, accr, acci);
    x[i] = Complex{accr, acci};
  }
  // Back-substitute U.
  for (std::size_t ii = n; ii-- > 0;) {
    double accr = x[ii].real();
    double acci = x[ii].imag();
    subtract_dot(lu + ii * n, x, ii + 1, n, accr, acci);
    x[ii] = Complex{accr, acci} / lu[ii * n + ii];
  }
}

}  // namespace detail

LU::LU(const CMatrix& a) {
  CMatrix copy(a);
  factor(copy);
  norm_a_inf_ = norm_inf(a);
}

void LU::factor(CMatrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("LU: matrix not square");
  n_ = a.rows();
  std::swap(lu_, a);
  a.resize(n_, n_);  // hand the caller back a same-shaped buffer
  piv_.resize(n_);
  norm_a_inf_.reset();
  const detail::LuFactorResult r = detail::lu_factor(lu_.data(), n_, piv_.data());
  perm_sign_ = r.perm_sign;
  singular_ = r.singular;
}

std::optional<CVector> LU::solve(const CVector& b) const {
  CVector x;
  if (!solve_into(b, x)) return std::nullopt;
  return x;
}

bool LU::solve_into(const CVector& b, CVector& x) const {
  if (b.size() != n_) throw std::invalid_argument("LU::solve: size mismatch");
  if (singular_) return false;
  x.resize(n_);  // b and x must not alias: the permuted read of b interleaves writes to x
  detail::lu_solve(lu_.data(), n_, piv_.data(), b.data(), x.data());
  return true;
}

std::optional<CMatrix> LU::solve(const CMatrix& b) const {
  if (b.rows() != n_) throw std::invalid_argument("LU::solve: row mismatch");
  if (singular_) return std::nullopt;
  CMatrix x(n_, b.cols());
  CVector col(n_);
  CVector sol(n_);
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < n_; ++r) col[r] = b(r, c);
    solve_into(col, sol);
    for (std::size_t r = 0; r < n_; ++r) x(r, c) = sol[r];
  }
  return x;
}

Complex LU::determinant() const {
  if (singular_) return Complex{0.0, 0.0};
  Complex det{static_cast<double>(perm_sign_), 0.0};
  for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
  return det;
}

std::optional<CMatrix> LU::inverse() const {
  return solve(CMatrix::identity(n_));
}

double LU::rcond_estimate() const {
  if (!norm_a_inf_) {
    throw std::logic_error(
        "LU::rcond_estimate: ||A||_inf is unknown after an in-place factor(); "
        "factor through LU(const CMatrix&) to ask for it");
  }
  if (singular_ || n_ == 0) return 0.0;
  // One-sweep Hager estimate of ||A^-1||_inf via A^T-style solve is overkill
  // for our tiny systems; instead solve against the all-ones vector and a
  // +/-1 vector keyed to U's diagonal phases, take the larger growth.
  CVector ones(n_, Complex{1.0, 0.0});
  CVector alt(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const Complex d = lu_(i, i);
    const double mag = std::abs(d);
    alt[i] = (mag > 0.0) ? std::conj(d) / mag : Complex{1.0, 0.0};
  }
  double growth = 0.0;
  for (const auto& rhs : {ones, alt}) {
    auto x = solve(rhs);
    if (!x) return 0.0;
    growth = std::max(growth, norm_inf(*x) / norm_inf(rhs));
  }
  if (growth == 0.0 || *norm_a_inf_ == 0.0) return 0.0;
  return 1.0 / (growth * *norm_a_inf_);
}

double LU::min_pivot_magnitude() const {
  if (n_ == 0) return 0.0;
  double m = std::abs(lu_(0, 0));
  for (std::size_t i = 1; i < n_; ++i) m = std::min(m, std::abs(lu_(i, i)));
  return m;
}

Complex determinant(const CMatrix& a) { return LU(a).determinant(); }

std::optional<CVector> solve(const CMatrix& a, const CVector& b) {
  return LU(a).solve(b);
}

}  // namespace pph::linalg
