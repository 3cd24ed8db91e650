#pragma once
// INTERNAL header: the LU factor/solve kernels behind linalg::LU.  Included
// only from lu.cpp and the bit-identity test — not part of the public
// linalg/ interface.
//
// The factorization is Gaussian elimination with partial pivoting on a
// row-major n x n complex matrix, and every kernel here returns exactly the
// bits of the textbook loop (std::abs pivot search, std::complex multiply):
//   - The pivot is the first row of largest std::abs in the column.  The
//     column is pre-screened with |.|^2 and std::abs runs only on rows
//     within a relative 1e-12 of the largest |.|^2; when that largest
//     value is not a normal number (entries below ~1e-154 or above
//     ~1e154), the screen is skipped and every row is compared.
//   - Products are written out as fr*ar - fi*ai and fr*ai + fi*ar, the
//     formula std::complex uses for finite operands, minus its NaN
//     recovery branch; summation order is the textbook order and the
//     divisions stay std::complex divisions.
//   - The AVX2 row update holds two complex entries per register
//     (mul/permute/addsub).  It is compiled without FMA, so nothing is
//     contracted and it rounds exactly like the generic kernel; LU picks
//     it once at runtime via __builtin_cpu_supports, as eval/blend_kernel
//     does.

#include <cstddef>

#include "linalg/matrix.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PPH_LU_X86_DISPATCH 1
#else
#define PPH_LU_X86_DISPATCH 0
#endif

namespace pph::linalg::detail {

struct LuFactorResult {
  int perm_sign = 1;
  bool singular = false;
};

/// Factor the row-major n x n matrix `a` in place into P*A = L*U (L unit
/// lower, stored below the diagonal; U on and above it).  `piv` (length n)
/// receives the row permutation: row i of P*A is row piv[i] of A.
LuFactorResult lu_factor_generic(Complex* a, std::size_t n, std::size_t* piv);
#if PPH_LU_X86_DISPATCH
/// The same factorization with the AVX2 row update; callers must check
/// cpu_has_avx2() first.
LuFactorResult lu_factor_avx2(Complex* a, std::size_t n, std::size_t* piv);
bool cpu_has_avx2();
#endif
/// The kernel LU uses: AVX2 when the CPU has it, generic otherwise.
LuFactorResult lu_factor(Complex* a, std::size_t n, std::size_t* piv);

/// Solve A x = b from a non-singular factorization; b and x must not alias.
void lu_solve(const Complex* lu, std::size_t n, const std::size_t* piv, const Complex* b,
              Complex* x);

}  // namespace pph::linalg::detail
