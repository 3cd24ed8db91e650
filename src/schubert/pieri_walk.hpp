#pragma once
// The virtual Pieri tree walk (paper sections III-C/D): the one state
// machine behind both Pieri solvers.  The walk hands out edges -- one
// path-tracking job each, with its start solution known -- and books their
// results into (pattern, level) instances; a completed instance runs
// quality control and then feeds the child edges of every pattern above
// it, so results create new edges and a node's memory dies with it.
//
// solve_pieri drains the walk FIFO on one thread; sched::PieriTreeJobSource
// puts it behind a Session, which hands the same edges to slaves under any
// dispatch policy.  Each edge's numerics depend only on the edge itself
// (pattern, attempt, rescue round, start), never on who tracks it or
// when, so both drains give the same solution set bit for bit.
//
// Quality control per instance: all sibling edges into one (pattern,
// level) instance ride one deformation (instance_deformation: gamma and
// point-path detours derived from the pattern and the attempt).  When an
// instance's edges have all reported, the failed, suspect and colliding
// paths are first re-tracked individually under the same deformation
// (DESIGN.md section 9); only if that rescue budget runs dry is the whole
// instance retried with a fresh deformation.

#include <deque>
#include <map>
#include <unordered_map>

#include "schubert/pieri_solver.hpp"

namespace pph::schubert {

/// Deterministic per-instance deformation: gamma and the two point-path
/// detour constants derived from (seed, pattern pivots, attempt).  Every
/// worker derives identical values without communication.
struct InstanceDeformation {
  Complex gamma;
  Complex detour_s;
  Complex detour_u;
};
InstanceDeformation instance_deformation(std::uint64_t seed,
                                         const std::vector<std::size_t>& pivots,
                                         std::size_t attempt);

/// One edge of the walk: track `start` into the pattern `pivots` under the
/// deformation of `attempt`.  rescue > 0 marks a targeted re-track (the
/// rescue round) of an edge that already reported.
struct PieriEdge {
  std::vector<std::size_t> pivots;
  std::uint32_t attempt = 0;
  std::uint32_t rescue = 0;
  CVector start;
};

class PieriTreeWalk {
 public:
  using EdgeId = std::uint64_t;

  PieriTreeWalk(const PieriInput& input, const PieriSolverOptions& opts);

  /// Edges ready to track, in creation order (ids are sequential).
  std::size_t ready() const { return ready_.size(); }
  EdgeId pop();
  /// Return a popped edge to the front of the queue (its worker died).
  void requeue(EdgeId id) { ready_.push_front(id); }
  /// A created edge whose result has not been consumed yet, or nullptr.
  const PieriEdge* find(EdgeId id) const;
  /// Tree level of an edge: the number of conditions its target meets.
  std::size_t level(const PieriEdge& edge) const;

  /// Scratch for execute(): one per worker of this walk, reused across
  /// every edge it tracks.  It holds the compiled tape caches and the
  /// edge-reuse slot, whose key assumes the walk's input and options.
  homotopy::TrackerWorkspace make_workspace() const;
  /// Track one edge in a workspace from make_workspace().  Reads only the
  /// input and the options, so workers may call it concurrently, each with
  /// its own workspace.
  homotopy::PathResult execute(const PieriEdge& edge, homotopy::TrackerWorkspace& ws) const;

  /// Book the result of edge `id`, tracked in `seconds`.  Returns false
  /// for an unknown id and for a result of a superseded attempt; both are
  /// dropped.  May create new ready edges.  Every booked edge charges its
  /// seconds and Newton iterations to its level; `jobs` and `job_seconds`
  /// take the first sweep of each instance's final attempt only, so they
  /// match the poset's edge count whenever no path is lost.
  bool consume(EdgeId id, const homotopy::PathResult& result, double seconds);

  /// Fill the summary from the walk: solutions, verdicts, per-level
  /// accounting.  `seconds` is left to the caller, who owns the clock.
  void assemble(PieriSolveSummary& out) const;

 private:
  /// State of one live (pattern, level) instance.
  struct Instance {
    /// Incoming edges: the chain count, less the chains lost below.
    std::uint64_t expected = 0;
    std::uint32_t attempt = 0;
    std::uint32_t rescue_round = 0;       // targeted re-track rounds issued
    std::vector<CVector> starts;          // retained for retries
    /// Per-start results of the current attempt, indexed like starts; the
    /// rescue quality control needs full diagnostics, not just endpoints.
    std::vector<homotopy::PathResult> results;
    std::uint64_t received = 0;           // first-sweep results received
    std::vector<double> sweep_seconds;    // their seconds, this attempt
    std::uint64_t outstanding_rescue = 0; // rescue re-tracks in flight
    bool used_rescue = false;
  };
  /// A pending edge plus the slot of its result in the instance.
  struct Pending {
    PieriEdge edge;
    std::uint32_t start_index = 0;
  };

  Instance& instance_of(const Pattern& pattern);
  void add_edge(const std::vector<std::size_t>& pivots, std::uint32_t attempt,
                std::uint32_t rescue, std::uint32_t start_index, CVector start);
  /// Quality control once every expected edge and rescue has reported.
  void check(const std::vector<std::size_t>& pivots, Instance& inst);
  void settle(const std::vector<std::size_t>& pivots, Instance& inst);

  const PieriInput* input_;
  PieriSolverOptions opts_;
  PatternPoset poset_;
  Pattern root_;
  std::map<std::vector<std::size_t>, Instance> instances_;
  std::unordered_map<EdgeId, Pending> pending_;  // created and not yet consumed
  std::deque<EdgeId> ready_;
  EdgeId next_id_ = 0;
  std::size_t active_instances_ = 0;

  // Summary accounting.
  std::vector<PieriLevelStats> levels_;
  std::vector<double> job_seconds_;
  std::uint64_t rescue_retracks_ = 0;
  std::uint64_t rescued_instances_ = 0;
  std::uint64_t suspect_paths_ = 0;
  std::size_t peak_active_instances_ = 0;
  std::vector<CVector> root_solutions_;
};

}  // namespace pph::schubert
