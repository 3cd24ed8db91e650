#pragma once
// Sequential Pieri solver: drain the virtual Pieri tree (schubert/
// pieri_walk.hpp) on one thread, tracking one Pieri homotopy per
// (solution, cover) edge from the trivial map until all solutions at the
// root pattern are found (paper sections III-B/C).  The per-level job
// counts and timings this produces are the data of the paper's Table III;
// the parallel scheduler (src/sched) drains the same walk on slaves, so
// both give the same solution set bit for bit.

#include "homotopy/certify.hpp"
#include "homotopy/tracker.hpp"
#include "schubert/map.hpp"
#include "schubert/pieri_homotopy.hpp"
#include "schubert/poset.hpp"

namespace pph::schubert {

struct PieriSolverOptions {
  homotopy::TrackerOptions tracker = default_tracker();
  std::uint64_t gamma_seed = 20040415;
  /// Relative residual bound for a verified solution.
  double verify_tolerance = 1e-7;
  /// Failed edges are retried with progressively tighter tracking.
  std::size_t max_retries = 2;
  /// Rescue tier (DESIGN.md section 9): after an instance tracks all its
  /// edges, the failed, colliding and suspect paths are re-tracked
  /// individually under the SAME deformation with progressively harsher
  /// tracking (shrunken steps, tighter corrector residual, early
  /// compensated endgame).  Same gamma is essential: the start-to-root
  /// correspondence depends on the deformation, so only a same-gamma
  /// re-track can recover the root its path actually leads to.  Fresh-gamma
  /// whole-instance retries (max_retries) remain the fallback.
  bool rescue = true;
  /// Targeted re-track rounds per instance attempt.
  std::size_t rescue_attempts = 3;
  /// Converged endpoints with tracker residual above this are suspects.
  double suspect_residual = 1e-7;
  /// Minimal pairwise chart distance for solutions to count as distinct.
  double distinct_tolerance = 1e-6;
  /// Track edges through the compiled Pieri tape (eval::CompiledPieriHomotopy).
  /// Off = the interpreted bordered-determinant walk, kept as the golden
  /// reference; the benches and the CI guard flip this for the A/B.
  bool compiled_eval = true;

  static homotopy::TrackerOptions default_tracker();
};

/// Tracker options for instance attempt `attempt` (0 = first try) at
/// rescue round `rescue` (0 = the regular sweep).  Retries shrink steps
/// and grant Newton iterations; rescue rounds additionally tighten the
/// corrector residual and engage the compensated endgame early -- a path
/// jump is a predictor landing in a clustered neighbour's basin, so the
/// decisive knob is the step bound.
homotopy::TrackerOptions attempt_tracker(const PieriSolverOptions& opts, std::size_t attempt,
                                         std::size_t rescue = 0);

/// Indices (into `results`) of the paths a rescue round must re-track:
/// hard failures, suspects (see suspect_residual) and both members of
/// every endpoint pair closer than distinct_tolerance.
std::vector<std::size_t> rescue_targets(const std::vector<homotopy::PathResult>& results,
                                        const PieriSolverOptions& opts);

/// Per-level accounting (the rows of the paper's Table III).  Every tracked
/// path charges its seconds and Newton iterations to its level; `jobs`
/// counts the tree edges of each instance's final attempt (the edges of a
/// superseded attempt and rescue re-tracks are not counted).
struct PieriLevelStats {
  std::size_t level = 0;
  std::uint64_t jobs = 0;
  std::uint64_t failures = 0;
  double seconds = 0.0;
  std::uint64_t newton_iterations = 0;
};

/// The result of a Pieri solve, sequential or parallel (the parallel report
/// adds the session's statistics).
struct PieriSolveSummary {
  /// Solutions in the root pattern's chart.
  std::vector<PieriMap> solutions;
  std::vector<PieriLevelStats> levels;
  std::uint64_t total_jobs = 0;
  std::uint64_t failures = 0;
  /// Wall seconds of the whole solve.
  double seconds = 0.0;
  /// Exact combinatorial root count (poset chain count).
  std::uint64_t expected_count = 0;
  /// Solutions whose worst relative condition residual passes verification.
  std::size_t verified = 0;
  double max_residual = 0.0;
  /// Number of pairwise-distinct solutions.
  std::size_t distinct = 0;
  /// Rescue provenance (DESIGN.md section 9): single paths re-tracked by
  /// the rescue tier, instances that passed quality control with rescue
  /// help, and rescue targets observed (failed + suspect + colliding path
  /// sightings).  Rescue re-tracks are not part of total_jobs.
  std::uint64_t rescue_retracks = 0;
  std::uint64_t rescued_instances = 0;
  std::uint64_t suspect_paths = 0;
  /// Seconds of the tree edges counted in `jobs`, instance by instance in
  /// the order the instances settled; this is the workload sample fed to
  /// the cluster simulator.
  std::vector<double> job_seconds;
  /// High-water mark of simultaneously live instances: the memory
  /// footprint argument of paper section III-C (tree nodes die fast).
  std::size_t peak_active_instances = 0;

  bool complete() const {
    return failures == 0 && solutions.size() == expected_count &&
           verified == solutions.size() && distinct == solutions.size();
  }
};

/// Solve a Pieri problem instance sequentially.
PieriSolveSummary solve_pieri(const PieriInput& input, const PieriSolverOptions& opts = {});

/// Certify a Pieri solve against the exact combinatorial root count: the
/// per-solution residual is the scale-aware max condition residual,
/// distinctness is measured in root-chart coordinates.
homotopy::CertificateReport certify_pieri(const PieriInput& input,
                                          const PieriSolveSummary& summary,
                                          const homotopy::CertifyOptions& opts = {});

/// Convenience: random instance for the given sizes.
PieriSolveSummary solve_random_pieri(const PieriProblem& problem, std::uint64_t seed = 1,
                                     const PieriSolverOptions& opts = {});

}  // namespace pph::schubert
