#pragma once
// Output checks computed apart from the program: the benchmark's own
// long-double evaluation of the Pieri intersection conditions and of the
// cyclic n-roots equations, plus properties the method must have (root
// counts, pairwise distinct roots, every job accounted for).  A check
// returns an empty string when it passes, else what failed.

#include <array>
#include <span>
#include <string>
#include <vector>

#include "sched/job_pool.hpp"
#include "schubert/map.hpp"
#include "schubert/planes.hpp"

namespace perfbench {

/// Solutions of (m,p,q) = (3,2,2): the count in the paper's Table IV.
inline constexpr std::size_t kPieri322Roots = 610;
/// Isolated roots of cyclic-7 (Backelin & Froeberg).
inline constexpr std::size_t kCyclic7Roots = 924;
/// The cyclic-7 paths the tracker fails (kFailed) with default
/// TrackerOptions under the total-degree start system and gamma drawn from
/// Prng(3): each stalls just short of t = 1 with its step under min_step.
/// A path is named by k in TotalDegreeStart::solution(k), so the set does
/// not depend on the order a workload tracks the pool in.  Exactly these
/// fail, and they cost one of the 924 roots.
inline constexpr std::array<std::size_t, 15> kCyclic7FailedStarts = {
    54, 164, 307, 950, 1246, 1615, 2215, 2448, 3184, 3312, 3602, 4016, 4185, 4705, 5014};

/// Relative residual |det([X(s)|K])| / prod(column norms) of one condition,
/// evaluated in long double from the map's coefficient matrices.
long double pieri_condition_residual(const pph::schubert::PieriMap& map,
                                     const pph::schubert::PlaneCondition& condition);

struct PieriCheck {
  std::string error;              // empty = passed
  long double max_residual = 0.0;
  double min_distance = 0.0;      // smallest pairwise chart distance
};

/// `expected` solutions, each meeting every condition to `tol`, pairwise
/// distinct.
PieriCheck check_pieri(const pph::schubert::PieriInput& input,
                       const std::vector<pph::schubert::PieriMap>& solutions,
                       std::size_t expected, long double tol = 1e-8L);

/// Scaled residual of the cyclic-n equations at x (n = x.size()): per
/// equation |f_k(x)| over the sum of its term magnitudes, maximized.
long double cyclic_residual(const pph::linalg::CVector& x);

struct CyclicCheck {
  std::string error;
  std::size_t converged = 0;
  std::size_t diverged = 0;
  std::size_t failed = 0;
  std::size_t distinct = 0;
  long double max_residual = 0.0;
};

/// `report.paths` must hold each of the `origin.size()` jobs exactly once;
/// every converged endpoint must solve cyclic-n to `tol`; the distinct
/// converged endpoints number from `min_roots` to `max_roots`; and the
/// failed jobs are exactly those whose start index `origin[job]` is in
/// `failed_starts`.
CyclicCheck check_cyclic(const pph::sched::ParallelRunReport& report,
                         const std::vector<std::size_t>& origin, std::size_t min_roots,
                         std::size_t max_roots, std::span<const std::size_t> failed_starts,
                         long double tol = 1e-9L);

}  // namespace perfbench
