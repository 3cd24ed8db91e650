#pragma once
// LU factorization with partial pivoting for dense complex matrices.
//
// This is the workhorse of the Newton corrector: every corrector step solves
// J * dx = -H(x,t) with J the Jacobian of the homotopy.  Determinants of the
// bordered matrices [X | K] in the Pieri intersection conditions also come
// from this factorization.

#include <optional>

#include "linalg/matrix.hpp"

namespace pph::linalg {

/// Factorization P*A = L*U of a square matrix.  Construction never throws on
/// singular input; `singular()` reports exact breakdown and `rcond_estimate`
/// gives a cheap conditioning signal.
///
/// The Newton loop refactors every iteration, so a default-constructed LU
/// can be re-`factor`ed in place: the incoming matrix's storage is swapped
/// into the object (no copy) and the pivot vector is reused.  After the
/// first factorization of a given size, `factor` + `solve_into` allocate
/// nothing.
///
/// The pivot is the first row of largest std::abs in its column and the
/// arithmetic rounds exactly like a textbook std::complex elimination, on
/// every CPU (DESIGN.md section 6; the kernels are in lu_kernel.hpp).
class LU {
 public:
  LU() = default;
  explicit LU(const CMatrix& a);

  /// Factor `a` in place, taking over its storage.  On return `a` holds the
  /// previous factorization's buffer resized to a's shape with unspecified
  /// contents — callers that refill their matrix every iteration (the
  /// tracker workspace) never see an allocation after warm-up.  ||A||_inf
  /// is not computed, so `rcond_estimate` is unavailable afterwards.
  void factor(CMatrix& a);

  std::size_t dim() const { return n_; }
  bool singular() const { return singular_; }

  /// Solve A x = b.  Returns nullopt when the factorization is singular.
  std::optional<CVector> solve(const CVector& b) const;

  /// Solve A x = b into a caller-provided vector (resized to dim()); returns
  /// false when the factorization is singular.  Allocation-free once x is at
  /// capacity.
  bool solve_into(const CVector& b, CVector& x) const;

  /// Solve A X = B column-by-column.
  std::optional<CMatrix> solve(const CMatrix& b) const;

  /// Determinant of A (product of U's diagonal with the permutation sign).
  Complex determinant() const;

  /// Inverse of A; nullopt when singular.
  std::optional<CMatrix> inverse() const;

  /// Reciprocal condition estimate in the infinity norm:
  /// 1 / (||A||_inf * ||A^-1||_inf_estimate), where ||A^-1|| is estimated by
  /// a few solves against +/-1 vectors (Hager-style, one sweep).  Returns 0
  /// for singular factorizations.  Precondition: the factorization came
  /// from `LU(const CMatrix&)`, the only path that records ||A||_inf;
  /// after a default construction or an in-place `factor` it throws
  /// std::logic_error.
  double rcond_estimate() const;

  /// Smallest |U(i,i)| over the diagonal, a cheap pivot-based degeneracy
  /// signal used by the tracker to detect near-singular Jacobians.
  double min_pivot_magnitude() const;

 private:
  std::size_t n_ = 0;
  CMatrix lu_;                    // packed L (unit diagonal, below) and U (on/above)
  std::vector<std::size_t> piv_;  // row permutation
  int perm_sign_ = 1;
  bool singular_ = false;
  std::optional<double> norm_a_inf_;  // ||A||_inf; set only by LU(const CMatrix&)
};

/// Convenience wrappers.
Complex determinant(const CMatrix& a);
std::optional<CVector> solve(const CMatrix& a, const CVector& b);

}  // namespace pph::linalg
