#pragma once
// Parallel Pieri homotopy (paper section III-D, Fig 6): the master (rank 0)
// expands the virtual Pieri tree -- a queue of path-tracking jobs whose
// start solutions are known -- and distributes jobs to slaves.  Slaves that
// return results with no job available are parked on an idle queue and
// re-activated when results create new jobs (the paper's fix for premature
// termination); after the root instance completes, the master broadcasts a
// stop message.
//
// The tree expansion lives in PieriTreeJobSource, a sched::JobSource
// (DESIGN.md section 7): run_pieri is a thin wrapper composing it with a
// Session, so the tree rides the same dispatch policies as the flat
// path pools -- Policy::kFCFS (the paper's per-job protocol) or
// Policy::kBatchSteal (level batches with master-brokered steals), with
// the session's FaultPlan fail injection and death re-queue.  Scheduling
// never changes the numerics: both policies produce the same solution set.
//
// On top of the paper's protocol this implementation adds the same
// instance-level quality control as the sequential solver: all sibling
// edges into one (pattern, level) instance ride one deformation (gamma and
// point-path detours derived deterministically from the pattern).  When an
// instance's edges all report back, the failed, suspect and colliding
// paths are first re-dispatched as targeted same-deformation rescue jobs
// (DESIGN.md section 9); only if the rescue budget runs dry is the whole
// instance re-dispatched with a fresh deformation.  See DESIGN.md
// section 2 for the protocol and the parking rationale.

#include <map>
#include <unordered_map>

#include "schubert/pieri_solver.hpp"
#include "sched/session.hpp"

namespace pph::sched {

struct ParallelPieriOptions {
  schubert::PieriSolverOptions solver;
  /// Dispatch policy: kFCFS (the paper's protocol) or kBatchSteal (level
  /// batches + master-brokered steals).  kStatic is rejected -- tree jobs
  /// are created by results, so no pre-assignment exists.
  Policy policy = Policy::kFCFS;
  /// BatchSteal knobs, as in SessionOptions::factor / min_batch.
  double factor = 2.0;
  std::size_t min_batch = 1;
  /// Simulated per-message latency (seconds), as in
  /// SessionOptions::injected_latency.
  double injected_latency = 0.0;
  /// Fail injection, forwarded to SessionOptions::fault_plan: e.g.
  /// FaultPlan().kill_announced(2, 3) kills slave 2 on its fourth edge and
  /// the master re-queues the edges it held.
  mp::FaultPlan fault_plan;
};

struct ParallelPieriReport {
  std::vector<schubert::PieriMap> solutions;
  std::uint64_t expected_count = 0;
  std::uint64_t total_jobs = 0;
  std::uint64_t failures = 0;
  std::vector<std::uint64_t> jobs_per_level;   // measured, one entry per level
  double wall_seconds = 0.0;
  std::vector<double> rank_busy_seconds;
  std::size_t verified = 0;
  std::size_t distinct = 0;
  double max_residual = 0.0;
  /// High-water mark of simultaneously active instances on the master: the
  /// memory footprint argument of paper section III-C (tree nodes die fast).
  std::size_t peak_active_instances = 0;
  /// Session traffic: master job/batch hand-outs and brokered steals.
  std::size_t dispatches = 0;
  std::size_t steals = 0;
  /// Rescue provenance (DESIGN.md section 9), mirroring PieriSolveSummary:
  /// targeted same-gamma re-tracks issued, instances that passed quality
  /// control with rescue help, and rescue-target sightings (failed +
  /// suspect + colliding paths).  Rescue re-tracks are NOT part of
  /// total_jobs/jobs_per_level, which keep counting tree edges.
  std::uint64_t rescue_retracks = 0;
  std::uint64_t rescued_instances = 0;
  std::uint64_t suspect_paths = 0;

  bool complete() const {
    return failures == 0 && solutions.size() == expected_count &&
           verified == solutions.size() && distinct == solutions.size();
  }
};

/// JobSource over the master's virtual Pieri tree expansion: consuming a
/// tracked edge's result books it into its (pattern, level) instance and --
/// when the instance completes -- creates the child jobs it feeds, so
/// results create new jobs and idle slaves park until work exists.  Jobs
/// get sequential ids; a retried instance re-enqueues its edges under a
/// fresh attempt, and results of superseded attempts are not counted.
class PieriTreeJobSource final : public JobSource {
 public:
  PieriTreeJobSource(const schubert::PieriInput& input,
                     const schubert::PieriSolverOptions& solver);

  std::size_t ready() const override { return ready_.size(); }
  JobId pop() override;
  void requeue(JobId id) override { ready_.push_front(id); }
  std::vector<std::byte> job_payload(JobId id) const override;
  bool consume(TrackedPath& tp) override;

  /// One workspace per slave, bound to the edge-homotopy FAMILY: the
  /// compiled fast path's caches are keyed on the owning tape, so the same
  /// workspace (predictor/corrector/LU buffers AND the eval scratch) is
  /// reused across every tree edge the slave tracks instead of being
  /// reallocated per edge.
  homotopy::TrackerWorkspace make_workspace() const override;
  PathResult execute(const std::vector<std::byte>& payload,
                     homotopy::TrackerWorkspace& ws) const override;

  /// Fill the tree-side report fields (solutions, QC verdicts, per-level
  /// job counts) after the session ends.
  void assemble(ParallelPieriReport& report) const;

 private:
  /// One enqueued-or-in-flight tree edge (rescue > 0: a targeted re-track
  /// of start_index under the same attempt deformation).
  struct Job {
    std::vector<std::size_t> pivots;
    std::uint32_t attempt = 0;
    std::uint32_t rescue = 0;
    std::uint32_t start_index = 0;
    linalg::CVector start;
  };
  /// Master-side state of one (pattern, level) instance.
  struct Instance {
    std::uint64_t expected = 0;   // chain count == number of incoming edges
    std::uint32_t attempt = 0;
    std::uint32_t rescue_round = 0;           // targeted re-track rounds issued
    std::vector<linalg::CVector> starts;      // retained for retries
    /// Per-start results of the current attempt, indexed like starts; the
    /// rescue quality control needs full diagnostics, not just endpoints.
    std::vector<homotopy::PathResult> results;
    std::uint64_t received = 0;               // first-sweep results received
    std::uint64_t outstanding_rescue = 0;     // rescue re-tracks in flight
    bool used_rescue = false;
  };

  Instance& instance_of(const std::vector<std::size_t>& pivots);
  JobId add_job(std::vector<std::size_t> pivots, std::uint32_t attempt, std::uint32_t rescue,
                std::uint32_t start_index, linalg::CVector start);
  void settle_instance(const std::vector<std::size_t>& pivots, Instance& inst);

  const schubert::PieriInput* input_;
  schubert::PieriSolverOptions solver_;
  schubert::PatternPoset poset_;
  schubert::Pattern root_;
  std::map<std::vector<std::size_t>, Instance> instances_;
  std::unordered_map<JobId, Job> jobs_;   // created and not yet consumed
  std::deque<JobId> ready_;
  JobId next_id_ = 0;
  std::size_t active_instances_ = 0;

  // Report accounting.
  std::uint64_t total_jobs_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t rescue_retracks_ = 0;
  std::uint64_t rescued_instances_ = 0;
  std::uint64_t suspect_paths_ = 0;
  std::vector<std::uint64_t> jobs_per_level_;
  std::size_t peak_active_instances_ = 0;
  std::vector<linalg::CVector> root_solutions_;
};

/// Solve a Pieri problem on `ranks` ranks (rank 0 = master; needs >= 2):
/// the tree facade symmetric with run_paths, composing PieriTreeJobSource
/// with a Session under opts.policy (kFCFS or kBatchSteal).
ParallelPieriReport run_pieri(const schubert::PieriInput& input, int ranks,
                              const ParallelPieriOptions& opts = {});

/// Canonical bitwise key of a solution set: the coordinate vectors sorted
/// lexicographically by (real, imag).  Runs over the same input must
/// produce EQUAL keys whatever the policy, worker count, or failure
/// injection -- the cross-policy identity invariant asserted by both the
/// tests and the ablation bench (the Pieri analogue of
/// identical_path_results).
std::vector<std::vector<linalg::Complex>> canonical_solution_set(
    const std::vector<schubert::PieriMap>& solutions);

/// Deterministic per-instance deformation: gamma and the two point-path
/// detour constants derived from (seed, pattern pivots, attempt).  Master
/// and slaves derive identical values without communication.
struct InstanceDeformation {
  linalg::Complex gamma;
  linalg::Complex detour_s;
  linalg::Complex detour_u;
};
InstanceDeformation instance_deformation(std::uint64_t seed,
                                         const std::vector<std::size_t>& pivots,
                                         std::size_t attempt);

}  // namespace pph::sched
