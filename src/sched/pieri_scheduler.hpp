#pragma once
// Parallel Pieri homotopy (paper section III-D, Fig 6): the master (rank 0)
// expands the virtual Pieri tree -- a queue of path-tracking jobs whose
// start solutions are known -- and distributes jobs to slaves.  Slaves that
// return results with no job available are parked on an idle queue and
// re-activated when results create new jobs (the paper's fix for premature
// termination); after the root instance completes, the master broadcasts a
// stop message.
//
// The tree expansion is schubert::PieriTreeWalk, the same walk the
// sequential solve_pieri drains on one thread; PieriTreeJobSource puts it
// behind a sched::JobSource (DESIGN.md section 7), and run_pieri composes
// that source with a Session.  The tree so rides the same dispatch
// policies as the flat path pools -- Policy::kFCFS (the paper's per-job
// protocol) or Policy::kBatchSteal (level batches with master-brokered
// steals), with the session's FaultPlan fail injection and death re-queue.
// Scheduling never changes the numerics: every policy, and the sequential
// solver, produce the same solution set bit for bit.  The walk's
// instance-level quality control (one deformation per instance, targeted
// same-deformation rescue, fresh-deformation retry) is described in
// schubert/pieri_walk.hpp and DESIGN.md sections 2 and 9.

#include "schubert/pieri_walk.hpp"
#include "sched/session.hpp"

namespace pph::sched {

// The deformation rule belongs to the walk; scheduler-side callers (the
// benchmark's probes, test_sched) name it through this namespace too.
using schubert::instance_deformation;

/// A Pieri solve on the message-passing runtime: the solver's summary plus
/// the session's statistics (wall time, per-rank busy time, dispatches,
/// steals).
struct ParallelPieriReport : schubert::PieriSolveSummary {
  SessionStats session;
};

/// JobSource over the virtual Pieri tree: edges become jobs, and consuming
/// an edge's result may create the edges it feeds, so results create new
/// jobs and idle slaves park until work exists.  The source only packs and
/// unpacks edge payloads and stamps the tree level on each record; the
/// tree state lives in the walk.
class PieriTreeJobSource final : public JobSource {
 public:
  PieriTreeJobSource(const schubert::PieriInput& input,
                     const schubert::PieriSolverOptions& solver)
      : walk_(input, solver) {}

  std::size_t ready() const override { return walk_.ready(); }
  JobId pop() override { return walk_.pop(); }
  void requeue(JobId id) override { walk_.requeue(id); }
  std::vector<std::byte> job_payload(JobId id) const override;
  bool consume(TrackedPath& tp) override;

  /// One workspace per slave, reused across every tree edge it tracks (the
  /// compiled tape caches and the walk's edge-reuse slot).
  homotopy::TrackerWorkspace make_workspace() const override { return walk_.make_workspace(); }
  PathResult execute(const std::vector<std::byte>& payload,
                     homotopy::TrackerWorkspace& ws) const override;

  /// Fill the solver-side report fields after the session ends.
  void assemble(ParallelPieriReport& report) const { walk_.assemble(report); }

 private:
  schubert::PieriTreeWalk walk_;
};

/// Solve a Pieri problem on `ranks` ranks (rank 0 = master; needs >= 2):
/// the tree facade symmetric with run_paths, composing PieriTreeJobSource
/// with a Session under session.policy (kFCFS or kBatchSteal; kStatic is
/// rejected -- tree jobs are created by results, so no pre-assignment
/// exists).  E.g. SessionOptions().with_fault_plan(
/// mp::FaultPlan().kill_announced(2, 3)) kills slave 2 on its fourth edge
/// and the master re-queues the edges it held.
ParallelPieriReport run_pieri(const schubert::PieriInput& input, int ranks,
                              SessionOptions session = {},
                              const schubert::PieriSolverOptions& solver = {});

/// Canonical bitwise key of a solution set: the coordinate vectors sorted
/// lexicographically by (real, imag).  Runs over the same input must
/// produce EQUAL keys whatever the policy, worker count, or failure
/// injection -- the cross-policy identity invariant asserted by both the
/// tests and the ablation bench (the Pieri analogue of
/// identical_path_results).
std::vector<std::vector<linalg::Complex>> canonical_solution_set(
    const std::vector<schubert::PieriMap>& solutions);

}  // namespace pph::sched
