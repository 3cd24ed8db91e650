#include "schubert/pieri_solver.hpp"

#include <algorithm>

#include "schubert/pieri_walk.hpp"
#include "util/timer.hpp"

namespace pph::schubert {

homotopy::TrackerOptions PieriSolverOptions::default_tracker() {
  homotopy::TrackerOptions t;
  // Pieri paths are short and well conditioned (no path diverges in
  // theory); moderately small steps with a roomy rejection budget are
  // robust across the (m,p,q) grid.
  t.initial_step = 0.04;
  t.max_step = 0.15;
  t.corrector.max_iterations = 4;
  t.corrector.residual_tolerance = 1e-11;
  t.end_corrector.residual_tolerance = 1e-13;
  // The determinant equations scale like ||x||^p, so endpoints of larger
  // magnitude bottom out above the hard tolerance; solution quality is
  // ultimately judged by the scale-aware condition_residual.
  t.end_corrector.stagnation_tolerance = 1e-9;
  return t;
}

homotopy::TrackerOptions attempt_tracker(const PieriSolverOptions& opts, std::size_t attempt,
                                         std::size_t rescue) {
  homotopy::TrackerOptions t = opts.tracker;
  for (std::size_t k = 0; k < attempt; ++k) {
    t.initial_step *= 0.25;
    t.max_step *= 0.5;
    t.corrector.max_iterations += 2;
  }
  for (std::size_t k = 0; k < rescue; ++k) {
    t.initial_step *= 0.2;
    t.max_step *= 0.2;
    t.corrector.max_iterations += 2;
    // Tighten the corrector residual, but never below the double rounding
    // floor -- an unreachable tolerance rejects every step and the re-track
    // dies of step underflow instead of rescuing anything.
    t.corrector.residual_tolerance = std::max(t.corrector.residual_tolerance * 0.1, 1e-12);
  }
  if (rescue > 0) {
    t.endgame.enabled = true;
    t.endgame.threshold = 0.9;
    t.endgame.dd_refine = true;
  }
  if (rescue >= 2) {
    // Last-resort rounds: compensated Newton on EVERY step (not just the
    // endgame), an earlier endgame engagement, and stagnation acceptance in
    // the mid-path corrector.  A path skirting the discriminant locus hits
    // an interior near-singular point whose conditioning caps the
    // attainable residual above the hard tolerance; without a stagnation
    // floor every step there is rejected until the step size underflows.
    // The floor sits below suspect_residual, so accepted points still face
    // the suspect/collision quality control.
    t.corrector.dd_refine = true;
    t.corrector.stagnation_tolerance = std::max(t.corrector.stagnation_tolerance, 1e-8);
    t.endgame.threshold = 0.8;
    t.min_step = std::min(t.min_step, 1e-12);
  }
  return t;
}

std::vector<std::size_t> rescue_targets(const std::vector<homotopy::PathResult>& results,
                                        const PieriSolverOptions& opts) {
  std::vector<std::size_t> targets;
  std::vector<char> flagged(results.size(), 0);
  std::vector<CVector> endpoints;
  std::vector<std::size_t> endpoint_owner;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].converged() || homotopy::suspect_path(results[i], opts.suspect_residual)) {
      flagged[i] = 1;
    }
    if (results[i].converged()) {
      endpoints.push_back(results[i].x);
      endpoint_owner.push_back(i);
    }
  }
  // Both members of a colliding pair re-track: the jumped path is not
  // identifiable from the endpoints alone.
  for (const poly::ClosePair& p : poly::duplicate_pairs(endpoints, opts.distinct_tolerance)) {
    flagged[endpoint_owner[p.a]] = 1;
    flagged[endpoint_owner[p.b]] = 1;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (flagged[i]) targets.push_back(i);
  }
  return targets;
}

PieriSolveSummary solve_pieri(const PieriInput& input, const PieriSolverOptions& opts) {
  // The Pieri tree drained FIFO by one worker: the same walk, edges and
  // deformations as a parallel run (sched::PieriTreeJobSource).
  util::WallTimer total_timer;
  PieriTreeWalk walk(input, opts);
  homotopy::TrackerWorkspace ws = walk.make_workspace();
  while (walk.ready() > 0) {
    const PieriTreeWalk::EdgeId id = walk.pop();
    util::WallTimer edge_timer;
    const homotopy::PathResult r = walk.execute(*walk.find(id), ws);
    walk.consume(id, r, edge_timer.seconds());
  }
  PieriSolveSummary summary;
  walk.assemble(summary);
  summary.seconds = total_timer.seconds();
  return summary;
}

homotopy::CertificateReport certify_pieri(const PieriInput& input,
                                          const PieriSolveSummary& summary,
                                          const homotopy::CertifyOptions& opts) {
  std::vector<CVector> coords;
  std::vector<double> residuals;
  coords.reserve(summary.solutions.size());
  residuals.reserve(summary.solutions.size());
  for (const auto& sol : summary.solutions) {
    coords.push_back(sol.coords());
    residuals.push_back(sol.max_residual(input.conditions));
  }
  return homotopy::certify_solution_set(coords, residuals, summary.expected_count, opts);
}

PieriSolveSummary solve_random_pieri(const PieriProblem& problem, std::uint64_t seed,
                                     const PieriSolverOptions& opts) {
  util::Prng rng(seed);
  const PieriInput input = random_pieri_input(problem, rng);
  return solve_pieri(input, opts);
}

}  // namespace pph::schubert
