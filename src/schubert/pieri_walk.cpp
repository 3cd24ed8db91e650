#include "schubert/pieri_walk.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/logging.hpp"

namespace pph::schubert {

InstanceDeformation instance_deformation(std::uint64_t seed,
                                         const std::vector<std::size_t>& pivots,
                                         std::size_t attempt) {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ULL;
  for (const std::size_t piv : pivots) {
    h = (h ^ static_cast<std::uint64_t>(piv)) * 1099511628211ULL;
  }
  h = (h ^ static_cast<std::uint64_t>(attempt)) * 1099511628211ULL;
  util::Prng rng(h);
  InstanceDeformation d;
  d.gamma = rng.unit_complex();
  d.detour_s = 0.7 * rng.unit_complex();
  d.detour_u = 0.7 * rng.unit_complex();
  return d;
}

PieriTreeWalk::PieriTreeWalk(const PieriInput& input, const PieriSolverOptions& opts)
    : input_(&input),
      opts_(opts),
      poset_(input.problem),
      root_(Pattern::root(input.problem)),
      levels_(input.problem.condition_count()) {
  if (input.conditions.size() != input.problem.condition_count()) {
    throw std::invalid_argument("Pieri tree walk: wrong number of conditions");
  }
  for (std::size_t i = 0; i < levels_.size(); ++i) levels_[i].level = i + 1;
  // Seed: the minimal pattern's trivial solution feeds its covers.
  const Pattern minimal = Pattern::minimal(input.problem);
  for (const Pattern& up : minimal.parents()) {
    Instance& inst = instance_of(up);
    inst.starts.push_back(PatternChart(up).embed_child(PatternChart(minimal), {}));
    add_edge(up.pivots(), inst.attempt, 0, static_cast<std::uint32_t>(inst.starts.size() - 1),
             inst.starts.back());
  }
}

PieriTreeWalk::Instance& PieriTreeWalk::instance_of(const Pattern& pattern) {
  auto [it, inserted] = instances_.try_emplace(pattern.pivots());
  if (inserted) {
    it->second.expected = poset_.chain_count(pattern);
    it->second.results.resize(it->second.expected);
    ++active_instances_;
    peak_active_instances_ = std::max(peak_active_instances_, active_instances_);
  }
  return it->second;
}

void PieriTreeWalk::add_edge(const std::vector<std::size_t>& pivots, std::uint32_t attempt,
                             std::uint32_t rescue, std::uint32_t start_index, CVector start) {
  const EdgeId id = next_id_++;
  pending_.emplace(id, Pending{PieriEdge{pivots, attempt, rescue, std::move(start)}, start_index});
  ready_.push_back(id);
}

PieriTreeWalk::EdgeId PieriTreeWalk::pop() {
  const EdgeId id = ready_.front();
  ready_.pop_front();
  return id;
}

const PieriEdge* PieriTreeWalk::find(EdgeId id) const {
  const auto it = pending_.find(id);
  return it == pending_.end() ? nullptr : &it->second.edge;
}

std::size_t PieriTreeWalk::level(const PieriEdge& edge) const {
  return Pattern(input_->problem, edge.pivots).level();
}

homotopy::TrackerWorkspace PieriTreeWalk::make_workspace() const {
  homotopy::TrackerWorkspace ws;
  ws.hws = std::make_unique<PieriEvalWorkspace>();
  return ws;
}

homotopy::PathResult PieriTreeWalk::execute(const PieriEdge& edge,
                                            homotopy::TrackerWorkspace& ws) const {
  auto* pw = dynamic_cast<PieriEvalWorkspace*>(ws.hws.get());
  assert(pw != nullptr && "PieriTreeWalk::execute needs a workspace from make_workspace()");
  // The edge-reuse slot: consecutive edges into one instance attempt share
  // the deformation, so they share one homotopy and its compiled tape.
  if (!pw->edge || pw->edge_attempt != edge.attempt || pw->edge_pivots != edge.pivots) {
    const Pattern pattern(input_->problem, edge.pivots);
    const std::size_t lvl = pattern.level();
    std::vector<PlaneCondition> fixed(input_->conditions.begin(),
                                      input_->conditions.begin() + (lvl - 1));
    const InstanceDeformation def =
        instance_deformation(opts_.gamma_seed, edge.pivots, edge.attempt);
    pw->edge = std::make_unique<PieriEdgeHomotopy>(PatternChart(pattern), std::move(fixed),
                                                   input_->conditions[lvl - 1], def.gamma,
                                                   def.detour_s, def.detour_u);
    pw->edge->set_compiled(opts_.compiled_eval);
    pw->edge_pivots = edge.pivots;
    pw->edge_attempt = edge.attempt;
  }
  auto r = homotopy::track_path(*pw->edge, edge.start,
                                attempt_tracker(opts_, edge.attempt, edge.rescue), ws);
  r.rescue_attempts = edge.attempt + edge.rescue;
  r.rescued = edge.rescue > 0 && r.converged();
  return r;
}

bool PieriTreeWalk::consume(EdgeId id, const homotopy::PathResult& result, double seconds) {
  const auto jt = pending_.find(id);
  if (jt == pending_.end()) return false;
  const Pending job = std::move(jt->second);
  pending_.erase(jt);
  Instance& inst = instances_.at(job.edge.pivots);
  // A stale result from a superseded attempt.  (A retry only starts with no
  // rescue edges in flight, so this also covers them.)
  if (job.edge.attempt != inst.attempt) return false;
  PieriLevelStats& stats = levels_[level(job.edge) - 1];
  stats.seconds += seconds;
  stats.newton_iterations += result.newton_iterations;
  inst.results[job.start_index] = result;
  if (job.edge.rescue == 0) {
    ++inst.received;
    inst.sweep_seconds.push_back(seconds);
  } else {
    --inst.outstanding_rescue;
  }
  check(job.edge.pivots, inst);
  return true;
}

void PieriTreeWalk::check(const std::vector<std::size_t>& pivots, Instance& inst) {
  if (inst.received < inst.expected || inst.outstanding_rescue > 0) return;
  // Instance complete: quality control.  Targeted same-deformation rescue
  // first: the start-to-root correspondence is fixed by gamma, so only a
  // same-gamma re-track recovers the root a path actually leads to.  The
  // fresh-deformation whole-instance retry is the fallback (settle).
  const auto targets = rescue_targets(inst.results, opts_);
  if (!targets.empty() && opts_.rescue && inst.rescue_round < opts_.rescue_attempts) {
    ++inst.rescue_round;
    inst.used_rescue = true;
    suspect_paths_ += targets.size();
    rescue_retracks_ += targets.size();
    inst.outstanding_rescue = targets.size();
    for (const std::size_t i : targets) {
      add_edge(pivots, inst.attempt, inst.rescue_round, static_cast<std::uint32_t>(i),
               inst.starts[i]);
    }
    return;
  }
  settle(pivots, inst);
}

void PieriTreeWalk::settle(const std::vector<std::size_t>& pivots, Instance& inst) {
  const Pattern pattern(input_->problem, pivots);
  std::vector<CVector> endpoints;
  endpoints.reserve(inst.expected);
  for (const auto& r : inst.results) {
    if (r.converged()) endpoints.push_back(r.x);
  }
  const std::size_t distinct =
      poly::deduplicate_solutions(endpoints, opts_.distinct_tolerance).size();
  const bool clean = endpoints.size() == inst.expected && distinct == endpoints.size();
  if (!clean && inst.attempt < opts_.max_retries) {
    // Retry the whole instance with a fresh deformation.
    ++inst.attempt;
    inst.rescue_round = 0;
    inst.received = 0;
    inst.sweep_seconds.clear();
    inst.results.assign(inst.expected, {});
    for (std::size_t i = 0; i < inst.starts.size(); ++i) {
      add_edge(pivots, inst.attempt, 0, static_cast<std::uint32_t>(i), inst.starts[i]);
    }
    return;
  }
  if (!clean) {
    // A collision pair counts as one lost path on top of the tracking
    // losses, so `failures` reflects missing solutions downstream.
    const std::uint64_t lost = inst.expected - distinct;
    levels_[pattern.level() - 1].failures += lost;
    PPH_LOG_WARN << "Pieri instance failed at level " << pattern.level() << " pattern "
                 << pattern.to_string() << " (" << lost << " paths lost)";
    for (std::size_t i = 0; i < inst.results.size(); ++i) {
      const auto& r = inst.results[i];
      if (r.converged()) continue;
      PPH_LOG_WARN << "  lost path " << i << ": status="
                   << (r.status == homotopy::PathStatus::kDiverged ? "diverged" : "failed")
                   << " t=" << r.t_reached << " residual=" << r.residual
                   << " last_step=" << r.last_step << " rescue=" << r.rescue_attempts;
    }
  } else if (inst.used_rescue) {
    ++rescued_instances_;
  }
  PieriLevelStats& stats = levels_[pattern.level() - 1];
  stats.jobs += inst.sweep_seconds.size();
  job_seconds_.insert(job_seconds_.end(), inst.sweep_seconds.begin(), inst.sweep_seconds.end());
  // Instance memory dies here (the Pieri-tree memory argument); the
  // pattern's identity outlives it for the feeding below.
  const std::uint64_t chains = poset_.chain_count(pattern);
  instances_.erase(pivots);
  --active_instances_;
  if (pattern == root_) {
    root_solutions_ = std::move(endpoints);
    return;
  }
  // Feed the edges of every pattern above (paper: "the master generates at
  // most p new jobs per returned result" -- batched per instance here for
  // the deformation consistency).  The chains lost here or below never
  // arrive above, so each pattern above stops waiting for them; one whose
  // every chain is lost settles empty.
  const PatternChart chart(pattern);
  const std::uint64_t lost_chains = chains - endpoints.size();
  for (const Pattern& up : pattern.parents()) {
    Instance& next = instance_of(up);
    const PatternChart up_chart(up);
    for (const auto& end : endpoints) {
      next.starts.push_back(up_chart.embed_child(chart, end));
      add_edge(up.pivots(), next.attempt, 0, static_cast<std::uint32_t>(next.starts.size() - 1),
               next.starts.back());
    }
    if (lost_chains > 0) {
      next.expected -= lost_chains;
      next.results.resize(next.expected);
      check(up.pivots(), next);
    }
  }
}

void PieriTreeWalk::assemble(PieriSolveSummary& out) const {
  out.expected_count = poset_.root_count();
  out.levels = levels_;
  out.total_jobs = 0;
  out.failures = 0;
  for (const auto& l : levels_) {
    out.total_jobs += l.jobs;
    out.failures += l.failures;
  }
  out.job_seconds = job_seconds_;
  out.rescue_retracks = rescue_retracks_;
  out.rescued_instances = rescued_instances_;
  out.suspect_paths = suspect_paths_;
  out.peak_active_instances = peak_active_instances_;
  const PatternChart root_chart(root_);
  out.solutions.clear();
  for (const auto& coords : root_solutions_) out.solutions.emplace_back(root_chart, coords);
  out.verified = 0;
  out.max_residual = 0.0;
  for (const auto& sol : out.solutions) {
    const double res = sol.max_residual(input_->conditions);
    out.max_residual = std::max(out.max_residual, res);
    if (res < opts_.verify_tolerance) ++out.verified;
  }
  out.distinct = poly::deduplicate_solutions(root_solutions_, opts_.distinct_tolerance).size();
}

}  // namespace pph::schubert
