// Unit and property tests for src/linalg: matrix algebra identities, LU
// (solve/det/inverse/rcond), the LU kernels' bit-identity to a textbook
// elimination, and QR (orthogonality, least squares, rank) over randomly
// generated complex matrices.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/lu_kernel.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "util/prng.hpp"

namespace {

using pph::linalg::CMatrix;
using pph::linalg::Complex;
using pph::linalg::CVector;
using pph::linalg::LU;
using pph::linalg::QR;
using pph::util::Prng;

CMatrix random_matrix(Prng& rng, std::size_t rows, std::size_t cols) {
  CMatrix a(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) a(r, c) = rng.normal_complex();
  return a;
}

CVector random_vector(Prng& rng, std::size_t n) {
  CVector v(n);
  for (auto& x : v) x = rng.normal_complex();
  return v;
}

TEST(Matrix, InitializerListAndAccess) {
  CMatrix a{{Complex{1, 0}, Complex{2, 0}}, {Complex{3, 0}, Complex{4, 0}}};
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 2u);
  EXPECT_EQ(a(1, 0), (Complex{3, 0}));
}

TEST(Matrix, RaggedInitializerThrows) {
  auto make = [] {
    CMatrix a{{Complex{1, 0}}, {Complex{1, 0}, Complex{2, 0}}};
    return a;
  };
  EXPECT_THROW(make(), std::invalid_argument);
}

TEST(Matrix, IdentityMultiplicationIsNoop) {
  Prng rng(1);
  const CMatrix a = random_matrix(rng, 4, 4);
  const CMatrix i4 = CMatrix::identity(4);
  const CMatrix left = i4 * a;
  const CMatrix right = a * i4;
  EXPECT_NEAR(pph::linalg::norm_frobenius(left - a), 0.0, 1e-14);
  EXPECT_NEAR(pph::linalg::norm_frobenius(right - a), 0.0, 1e-14);
}

TEST(Matrix, TransposeOfTransposeIsIdentity) {
  Prng rng(2);
  const CMatrix a = random_matrix(rng, 3, 5);
  EXPECT_NEAR(pph::linalg::norm_frobenius(a.transpose().transpose() - a), 0.0, 0.0);
}

TEST(Matrix, AdjointConjugates) {
  CMatrix a{{Complex{1, 2}}};
  EXPECT_EQ(a.adjoint()(0, 0), (Complex{1, -2}));
}

TEST(Matrix, HcatVcatShapes) {
  Prng rng(3);
  const CMatrix a = random_matrix(rng, 3, 2);
  const CMatrix b = random_matrix(rng, 3, 4);
  const CMatrix h = CMatrix::hcat(a, b);
  EXPECT_EQ(h.rows(), 3u);
  EXPECT_EQ(h.cols(), 6u);
  EXPECT_EQ(h(2, 1), a(2, 1));
  EXPECT_EQ(h(2, 3), b(2, 1));

  const CMatrix c = random_matrix(rng, 2, 2);
  const CMatrix v = CMatrix::vcat(a, c);
  EXPECT_EQ(v.rows(), 5u);
  EXPECT_EQ(v(4, 1), c(1, 1));
}

TEST(Matrix, HcatRowMismatchThrows) {
  CMatrix a(2, 2), b(3, 2);
  EXPECT_THROW(CMatrix::hcat(a, b), std::invalid_argument);
}

TEST(Matrix, SelectRowsReorders) {
  Prng rng(4);
  const CMatrix a = random_matrix(rng, 4, 3);
  const CMatrix s = a.select_rows({2, 0});
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s(0, 1), a(2, 1));
  EXPECT_EQ(s(1, 2), a(0, 2));
}

TEST(Matrix, ApplyMatchesManualProduct) {
  Prng rng(5);
  const CMatrix a = random_matrix(rng, 3, 3);
  const CVector x = random_vector(rng, 3);
  const CVector y = a.apply(x);
  for (std::size_t r = 0; r < 3; ++r) {
    Complex acc{};
    for (std::size_t c = 0; c < 3; ++c) acc += a(r, c) * x[c];
    EXPECT_NEAR(std::abs(y[r] - acc), 0.0, 1e-14);
  }
}

TEST(Matrix, MultiplicationAssociativity) {
  Prng rng(6);
  const CMatrix a = random_matrix(rng, 3, 4);
  const CMatrix b = random_matrix(rng, 4, 2);
  const CMatrix c = random_matrix(rng, 2, 5);
  const CMatrix lhs = (a * b) * c;
  const CMatrix rhs = a * (b * c);
  EXPECT_NEAR(pph::linalg::norm_frobenius(lhs - rhs), 0.0, 1e-12);
}

TEST(VectorOps, NormsAndDot) {
  CVector x{Complex{3, 0}, Complex{0, 4}};
  EXPECT_DOUBLE_EQ(pph::linalg::norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(pph::linalg::norm_inf(x), 4.0);
  CVector y{Complex{1, 0}, Complex{0, 1}};
  // dot = conj(3)*1 + conj(4i)*i = 3 + 4.
  EXPECT_NEAR(std::abs(pph::linalg::dot(x, y) - Complex{7.0, 0.0}), 0.0, 1e-14);
}

// ---- LU -------------------------------------------------------------------

class LUSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LUSizes, SolveResidualSmall) {
  Prng rng(100 + GetParam());
  const std::size_t n = GetParam();
  const CMatrix a = random_matrix(rng, n, n);
  const CVector b = random_vector(rng, n);
  LU lu(a);
  ASSERT_FALSE(lu.singular());
  const auto x = lu.solve(b);
  ASSERT_TRUE(x.has_value());
  const CVector r = a.apply(*x);
  double res = 0.0;
  for (std::size_t i = 0; i < n; ++i) res += std::norm(r[i] - b[i]);
  EXPECT_LT(std::sqrt(res), 1e-9 * (1.0 + pph::linalg::norm2(b)));
}

TEST_P(LUSizes, InverseTimesSelfIsIdentity) {
  Prng rng(200 + GetParam());
  const std::size_t n = GetParam();
  const CMatrix a = random_matrix(rng, n, n);
  const auto inv = LU(a).inverse();
  ASSERT_TRUE(inv.has_value());
  const CMatrix prod = a * (*inv);
  EXPECT_NEAR(pph::linalg::norm_frobenius(prod - CMatrix::identity(n)), 0.0, 1e-8);
}

TEST_P(LUSizes, DeterminantMultiplicative) {
  Prng rng(300 + GetParam());
  const std::size_t n = GetParam();
  const CMatrix a = random_matrix(rng, n, n);
  const CMatrix b = random_matrix(rng, n, n);
  const Complex da = pph::linalg::determinant(a);
  const Complex db = pph::linalg::determinant(b);
  const Complex dab = pph::linalg::determinant(a * b);
  EXPECT_NEAR(std::abs(dab - da * db) / (1.0 + std::abs(dab)), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LUSizes, ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(LU, Determinant2x2Exact) {
  CMatrix a{{Complex{1, 0}, Complex{2, 0}}, {Complex{3, 0}, Complex{4, 0}}};
  EXPECT_NEAR(std::abs(pph::linalg::determinant(a) - Complex{-2.0, 0.0}), 0.0, 1e-14);
}

TEST(LU, SingularMatrixDetected) {
  CMatrix a{{Complex{1, 0}, Complex{2, 0}}, {Complex{2, 0}, Complex{4, 0}}};
  LU lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_EQ(lu.determinant(), (Complex{0, 0}));
  EXPECT_FALSE(lu.solve(CVector{Complex{1, 0}, Complex{0, 0}}).has_value());
  EXPECT_EQ(lu.rcond_estimate(), 0.0);
}

TEST(LU, PermutationSignCorrect) {
  // Row-swapped identity has determinant -1.
  CMatrix a{{Complex{0, 0}, Complex{1, 0}}, {Complex{1, 0}, Complex{0, 0}}};
  EXPECT_NEAR(std::abs(pph::linalg::determinant(a) - Complex{-1.0, 0.0}), 0.0, 1e-14);
}

TEST(LU, RcondSmallForIllConditioned) {
  CMatrix a{{Complex{1, 0}, Complex{0, 0}}, {Complex{0, 0}, Complex{1e-12, 0}}};
  LU lu(a);
  EXPECT_LT(lu.rcond_estimate(), 1e-10);
  CMatrix b = CMatrix::identity(2);
  EXPECT_GT(LU(b).rcond_estimate(), 0.1);
}

TEST(LU, MinPivotMagnitudeSignalsDegeneracy) {
  CMatrix good = CMatrix::identity(3);
  EXPECT_NEAR(LU(good).min_pivot_magnitude(), 1.0, 1e-14);
  CMatrix bad = CMatrix::identity(3);
  bad(2, 2) = Complex{1e-14, 0};
  EXPECT_LT(LU(bad).min_pivot_magnitude(), 1e-13);
}

TEST(LU, NonSquareThrows) {
  CMatrix a(2, 3);
  EXPECT_THROW(LU{a}, std::invalid_argument);
}

TEST(LU, SolveMatrixRhs) {
  Prng rng(7);
  const CMatrix a = random_matrix(rng, 4, 4);
  const CMatrix b = random_matrix(rng, 4, 2);
  const auto x = LU(a).solve(b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(pph::linalg::norm_frobenius(a * (*x) - b), 0.0, 1e-9);
}

// ---- LU kernel bit-identity ----------------------------------------------
//
// The reference the kernels must reproduce bit for bit: the textbook loop
// with a std::abs pivot search (first row of largest magnitude wins) and
// std::complex arithmetic in the row update and both substitutions.

struct OracleLU {
  CMatrix lu;
  std::vector<std::size_t> piv;
  int sign = 1;
  bool singular = false;
};

OracleLU oracle_factor(const CMatrix& a) {
  OracleLU f{a, std::vector<std::size_t>(a.rows()), 1, false};
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) f.piv[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot_row = k;
    double best = std::abs(f.lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(f.lu(r, k));
      if (mag > best) {
        best = mag;
        pivot_row = r;
      }
    }
    if (best == 0.0) {
      f.singular = true;
      continue;
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(f.lu(k, c), f.lu(pivot_row, c));
      std::swap(f.piv[k], f.piv[pivot_row]);
      f.sign = -f.sign;
    }
    const Complex pivot = f.lu(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const Complex factor = f.lu(r, k) / pivot;
      f.lu(r, k) = factor;
      if (factor == Complex{}) continue;
      for (std::size_t c = k + 1; c < n; ++c) f.lu(r, c) -= factor * f.lu(k, c);
    }
  }
  return f;
}

CVector oracle_solve(const OracleLU& f, const CVector& b) {
  const std::size_t n = b.size();
  CVector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    Complex acc = b[f.piv[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= f.lu(i, j) * x[j];
    x[i] = acc;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    Complex acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= f.lu(ii, j) * x[j];
    x[ii] = acc / f.lu(ii, ii);
  }
  return x;
}

Complex oracle_determinant(const OracleLU& f) {
  if (f.singular) return Complex{0.0, 0.0};
  Complex det{static_cast<double>(f.sign), 0.0};
  for (std::size_t i = 0; i < f.lu.rows(); ++i) det *= f.lu(i, i);
  return det;
}

bool same_bits(Complex a, Complex b) {
  return std::bit_cast<std::uint64_t>(a.real()) == std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) == std::bit_cast<std::uint64_t>(b.imag());
}

bool same_bits(const Complex* a, const Complex* b, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

/// Factor `a` with `kernel` and compare pivots, sign, singularity and every
/// entry of the packed factors with `want`.
template <typename Kernel>
void expect_kernel_matches(Kernel kernel, const CMatrix& a, const OracleLU& want,
                           const std::string& what) {
  CMatrix lu(a);
  std::vector<std::size_t> piv(a.rows());
  const auto got = kernel(lu.data(), a.rows(), piv.data());
  EXPECT_EQ(piv, want.piv) << what;
  EXPECT_EQ(got.perm_sign, want.sign) << what;
  EXPECT_EQ(got.singular, want.singular) << what;
  EXPECT_TRUE(same_bits(lu.data(), want.lu.data(), a.rows() * a.cols())) << what;
}

/// Every kernel and the LU class against the oracle, and the AVX2 kernel
/// against the generic one where the CPU runs it.
void expect_lu_matches_oracle(const CMatrix& a, Prng& rng, const std::string& what) {
  namespace detail = pph::linalg::detail;
  const std::size_t n = a.rows();
  const OracleLU want = oracle_factor(a);
  expect_kernel_matches(detail::lu_factor_generic, a, want, what + " generic");
  expect_kernel_matches(detail::lu_factor, a, want, what + " dispatched");
#if PPH_LU_X86_DISPATCH
  if (detail::cpu_has_avx2()) {
    CMatrix generic(a), avx2(a);
    std::vector<std::size_t> pg(n), pa(n);
    const auto rg = detail::lu_factor_generic(generic.data(), n, pg.data());
    const auto ra = detail::lu_factor_avx2(avx2.data(), n, pa.data());
    EXPECT_EQ(pa, pg) << what << " avx2 vs generic";
    EXPECT_EQ(ra.perm_sign, rg.perm_sign) << what << " avx2 vs generic";
    EXPECT_EQ(ra.singular, rg.singular) << what << " avx2 vs generic";
    EXPECT_TRUE(same_bits(avx2.data(), generic.data(), n * n)) << what << " avx2 vs generic";
  }
#endif

  const LU lu(a);
  EXPECT_EQ(lu.singular(), want.singular) << what;
  EXPECT_TRUE(same_bits(lu.determinant(), oracle_determinant(want))) << what << " determinant";
  const CVector b = random_vector(rng, n);
  const auto x = lu.solve(b);
  ASSERT_EQ(x.has_value(), !want.singular) << what;
  if (want.singular) return;
  EXPECT_TRUE(same_bits(x->data(), oracle_solve(want, b).data(), n)) << what << " solve";
  // The matrix right-hand side goes column by column through the same
  // substitutions.
  const CMatrix rhs = random_matrix(rng, n, 3);
  const auto xm = lu.solve(rhs);
  ASSERT_TRUE(xm.has_value()) << what;
  for (std::size_t c = 0; c < 3; ++c) {
    CVector col(n);
    for (std::size_t r = 0; r < n; ++r) col[r] = rhs(r, c);
    const CVector want_col = oracle_solve(want, col);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_TRUE(same_bits((*xm)(r, c), want_col[r])) << what << " matrix solve";
    }
  }
}

/// z times i^turns, or its conjugate: the same std::abs, exactly.
Complex rotate(Complex z, std::uint64_t how) {
  switch (how % 5) {
    case 0: return z;
    case 1: return {-z.imag(), z.real()};
    case 2: return {-z.real(), -z.imag()};
    case 3: return {z.imag(), -z.real()};
    default: return std::conj(z);
  }
}

/// x moved by `ulps` units in the last place (either sign).
double nudge(double x, int ulps) {
  for (; ulps > 0; --ulps) x = std::nextafter(x, INFINITY);
  for (; ulps < 0; ++ulps) x = std::nextafter(x, -INFINITY);
  return x;
}

class LUKernelBits : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LUKernelBits, RandomMatrices) {
  const std::size_t n = GetParam();
  Prng rng(1000 + n);
  for (int rep = 0; rep < 4; ++rep) {
    expect_lu_matches_oracle(random_matrix(rng, n, n), rng, "random");
  }
}

/// Rows that are each a rotated or conjugated copy of one random base row,
/// with both parts nudged by up to `max_ulps`: every column holds n entries
/// of equal (max_ulps = 0) or nearly equal std::abs, where |.|^2 and
/// std::abs can order two entries differently.
CMatrix tied_rows(Prng& rng, std::size_t n, int max_ulps) {
  const CMatrix base = random_matrix(rng, 1, n);
  const auto ulps = [&] {
    return static_cast<int>(rng.uniform_index(2 * max_ulps + 1)) - max_ulps;
  };
  CMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint64_t how = rng.uniform_index(5);
    for (std::size_t c = 0; c < n; ++c) {
      const Complex z{nudge(base(0, c).real(), ulps()), nudge(base(0, c).imag(), ulps())};
      a(r, c) = rotate(z, max_ulps == 0 ? how : rng.uniform_index(5));
    }
  }
  return a;
}

TEST_P(LUKernelBits, MagnitudeTies) {
  // Exact and ulp-near ties: the first row of largest std::abs must win.
  const std::size_t n = GetParam();
  Prng rng(2000 + n);
  expect_lu_matches_oracle(tied_rows(rng, n, 0), rng, "exact ties");
  expect_lu_matches_oracle(tied_rows(rng, n, 3), rng, "near ties");
  CMatrix first_column = random_matrix(rng, n, n);
  for (std::size_t r = 0; r < n; ++r) first_column(r, 0) = rotate(Complex{0.6, -0.8}, r);
  expect_lu_matches_oracle(first_column, rng, "tied first column");
}

TEST_P(LUKernelBits, ZeroColumnsAndZeroMultipliers) {
  const std::size_t n = GetParam();
  Prng rng(3000 + n);
  CMatrix zero_col = random_matrix(rng, n, n);
  for (std::size_t r = 0; r < n; ++r) zero_col(r, n / 2) = Complex{};
  expect_lu_matches_oracle(zero_col, rng, "zero column");
  // Upper triangular: every multiplier is exactly zero.
  CMatrix upper = random_matrix(rng, n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < r; ++c) upper(r, c) = Complex{};
  expect_lu_matches_oracle(upper, rng, "upper triangular");
  expect_lu_matches_oracle(CMatrix(n, n), rng, "zero matrix");
}

TEST_P(LUKernelBits, MagnitudesOutsideTheSquareRange) {
  // |.|^2 underflows near 1e-160 and overflows near 1e160, where the
  // pivot search must fall back to comparing every row.
  const std::size_t n = GetParam();
  Prng rng(4000 + n);
  for (const double scale : {1e-160, 1e160}) {
    CMatrix a = random_matrix(rng, n, n);
    a *= Complex{scale, 0.0};
    expect_lu_matches_oracle(a, rng, "uniform scale " + std::to_string(scale));
    // Subnormal squares round to a granularity far coarser than the
    // window, so only the full std::abs scan orders these near-ties.
    for (int rep = 0; rep < 4; ++rep) {
      CMatrix ties = tied_rows(rng, n, 3);
      ties *= Complex{scale, 0.0};
      expect_lu_matches_oracle(ties, rng, "near ties at scale " + std::to_string(scale));
    }
  }
  // Two entries whose subnormal squares order them the wrong way round:
  // std::abs(lo) < std::abs(hi) but std::norm(lo) > std::norm(hi).  The
  // first row holds lo and the last hi, so only a full std::abs scan picks
  // the last row.
  if (n >= 2) {
    Complex hi, lo;
    bool found = false;
    for (int attempt = 0; attempt < 10000 && !found; ++attempt) {
      const double a = rng.uniform(1e-161, 2e-161);
      const double theta = rng.uniform(0.1, 1.4);
      double c = a * std::sin(theta);
      const double b = a * std::cos(theta);
      while (std::abs(Complex{b, c}) >= a) c = std::nextafter(c, 0.0);
      hi = Complex{a, 0.0};
      lo = Complex{b, c};
      found = std::norm(lo) > std::norm(hi);
    }
    ASSERT_TRUE(found);
    CMatrix flip = random_matrix(rng, n, n);
    flip *= Complex{1e-170, 0.0};
    flip(0, 0) = lo;
    flip(n - 1, 0) = hi;
    expect_lu_matches_oracle(flip, rng, "subnormal squares in the wrong order");
  }
  // Rows of mixed scale: some columns overflow |.|^2, others keep a normal
  // maximum above rows whose squares underflow.
  const double scales[] = {1e-160, 1.0, 1e160, 1e-155, 1e150};
  CMatrix mixed = random_matrix(rng, n, n);
  for (std::size_t r = 0; r < n; ++r) {
    const double s = scales[rng.uniform_index(5)];
    for (std::size_t c = 0; c < n; ++c) mixed(r, c) *= s;
  }
  expect_lu_matches_oracle(mixed, rng, "mixed scales");
}

INSTANTIATE_TEST_SUITE_P(N1To20, LUKernelBits, ::testing::Range<std::size_t>(1, 21));

TEST(LU, RcondEstimateMatchesTheTextbookRecipe) {
  // LU(a).rcond_estimate() keeps its value: the oracle factors, two solves
  // against ones and the diagonal-phase vector, and ||A||_inf of the input.
  Prng rng(5);
  for (const std::size_t n : {1, 4, 7, 16}) {
    const CMatrix a = random_matrix(rng, n, n);
    const OracleLU f = oracle_factor(a);
    CVector alt(n);
    for (std::size_t i = 0; i < n; ++i) alt[i] = std::conj(f.lu(i, i)) / std::abs(f.lu(i, i));
    const CVector ones(n, Complex{1.0, 0.0});
    const double growth =
        std::max(pph::linalg::norm_inf(oracle_solve(f, ones)) / pph::linalg::norm_inf(ones),
                 pph::linalg::norm_inf(oracle_solve(f, alt)) / pph::linalg::norm_inf(alt));
    const double want = 1.0 / (growth * pph::linalg::norm_inf(a));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(LU(a).rcond_estimate()),
              std::bit_cast<std::uint64_t>(want))
        << "n = " << n;
  }
}

TEST(LU, RcondEstimateNeedsTheCopyingConstructor) {
  // An in-place factor() never computes ||A||_inf: asking for rcond then
  // is a precondition failure, not a silent 0 that would read "singular".
  Prng rng(6);
  CMatrix a = random_matrix(rng, 3, 3);
  LU lu;
  EXPECT_THROW(lu.rcond_estimate(), std::logic_error);
  lu.factor(a);
  ASSERT_FALSE(lu.singular());
  EXPECT_THROW(lu.rcond_estimate(), std::logic_error);
  EXPECT_GT(LU(random_matrix(rng, 3, 3)).rcond_estimate(), 0.0);
}

// ---- QR -------------------------------------------------------------------

class QRShapes : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(QRShapes, ThinQHasOrthonormalColumns) {
  auto [m, n] = GetParam();
  Prng rng(400 + m * 10 + n);
  const CMatrix a = random_matrix(rng, m, n);
  const CMatrix q = QR(a).thin_q();
  const CMatrix gram = q.adjoint() * q;
  EXPECT_NEAR(pph::linalg::norm_frobenius(gram - CMatrix::identity(std::min(m, n))), 0.0, 1e-10);
}

TEST_P(QRShapes, QTimesRReconstructsPermutedColumns) {
  auto [m, n] = GetParam();
  Prng rng(500 + m * 10 + n);
  const CMatrix a = random_matrix(rng, m, n);
  QR qr(a);
  const CMatrix qa = qr.thin_q() * qr.thin_r();
  // Q R equals A with columns permuted by the pivoting: column j of QR is
  // column perm()[j] of A.
  CMatrix ap(m, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t r = 0; r < m; ++r) ap(r, j) = a(r, qr.perm()[j]);
  EXPECT_NEAR(pph::linalg::norm_frobenius(qa - ap), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QRShapes,
                         ::testing::Values(std::make_pair<std::size_t, std::size_t>(3, 3),
                                           std::make_pair<std::size_t, std::size_t>(5, 3),
                                           std::make_pair<std::size_t, std::size_t>(8, 2),
                                           std::make_pair<std::size_t, std::size_t>(10, 7),
                                           std::make_pair<std::size_t, std::size_t>(4, 6)));

TEST(QR, LeastSquaresMatchesExactForSquare) {
  Prng rng(8);
  const CMatrix a = random_matrix(rng, 5, 5);
  const CVector b = random_vector(rng, 5);
  const auto x_qr = QR(a).solve_least_squares(b);
  const auto x_lu = LU(a).solve(b);
  ASSERT_TRUE(x_qr.has_value());
  ASSERT_TRUE(x_lu.has_value());
  EXPECT_LT(pph::linalg::distance2(*x_qr, *x_lu), 1e-8);
}

TEST(QR, LeastSquaresResidualOrthogonal) {
  Prng rng(9);
  const CMatrix a = random_matrix(rng, 8, 3);
  const CVector b = random_vector(rng, 8);
  const auto x = QR(a).solve_least_squares(b);
  ASSERT_TRUE(x.has_value());
  // Residual must be orthogonal to the column span: A^H (Ax - b) = 0.
  CVector r = a.apply(*x);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= b[i];
  const CVector atr = a.adjoint().apply(r);
  EXPECT_LT(pph::linalg::norm2(atr), 1e-9);
}

TEST(QR, RankDetectsDeficiency) {
  Prng rng(10);
  CMatrix a = random_matrix(rng, 6, 3);
  // Make column 2 a copy of column 0.
  for (std::size_t r = 0; r < 6; ++r) a(r, 2) = a(r, 0);
  EXPECT_EQ(QR(a).rank(), 2u);
  const CMatrix full = random_matrix(rng, 6, 3);
  EXPECT_EQ(QR(full).rank(), 3u);
}

TEST(QR, OrthonormalizeColumnsSpansInput) {
  Prng rng(11);
  const CMatrix a = random_matrix(rng, 7, 3);
  const CMatrix q = pph::linalg::orthonormalize_columns(a);
  // Projection of A onto span(Q) must reproduce A.
  const CMatrix proj = q * (q.adjoint() * a);
  EXPECT_NEAR(pph::linalg::norm_frobenius(proj - a), 0.0, 1e-9);
}

TEST(QR, ZeroColumnHandled) {
  CMatrix a(3, 2);
  a(0, 1) = Complex{2, 0};
  QR qr(a);  // first column identically zero
  EXPECT_EQ(qr.rank(), 1u);
}

}  // namespace
