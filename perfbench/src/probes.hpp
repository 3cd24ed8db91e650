#pragma once
// Layer probes: direct calls into one module's public functions, timed in
// wall and thread CPU time, on inputs captured from the workload's own run
// (points along its paths, its payload sizes, its result records, its
// store).  Every probe prints its timings (median, tail percentile, sample
// count) and adds its medians to the metric record.

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "homotopy/tracker.hpp"
#include "sched/job_pool.hpp"
#include "schubert/pieri_solver.hpp"

namespace perfbench {

/// A point (x, t) at which the tracker evaluated the homotopy.
struct PathPoint {
  pph::linalg::CVector x;
  double t = 0.0;
};

/// Re-track from `starts` single-threaded through a recording wrapper and
/// keep up to `max_points` evaluation points, spread evenly.  `reverse`
/// tracks H(x, 1 - t) from endpoints at t = 1 back toward t = 0, which
/// visits the same paths from their far end.
std::vector<PathPoint> capture_points(const pph::homotopy::Homotopy& h,
                                      const std::vector<pph::linalg::CVector>& starts,
                                      const pph::homotopy::TrackerOptions& opts, bool reverse,
                                      std::size_t max_points);

/// linalg.lu_us (LU::factor + solve_into on the Jacobians at `points`) and
/// eval.fused_us (one warm evaluate_fused at each point).
void probe_lu_and_eval(Metrics& metrics, const pph::homotopy::Homotopy& h,
                       const std::vector<PathPoint>& points);

/// eval.pieri_build_us: build one PieriEdgeHomotopy and finish its first
/// evaluation, once per edge of `input`'s Pieri tree.
void probe_pieri_build(Metrics& metrics, const pph::schubert::PieriInput& input,
                       const pph::schubert::PieriSolverOptions& solver);

/// mp.hop_us, mp.wake_hop_p50_us / _p99_us (receiver blocked for
/// `block_seconds` first), mp.bytes_per_job and mp.pack_us.
void probe_mp(Metrics& metrics, double block_seconds,
              const std::vector<pph::sched::TrackedPath>& records,
              const std::vector<double>& payload_bytes);

/// homotopy.steps_per_path / rejections_per_path / newton_per_path over
/// every record of the run.
void probe_path_counts(Metrics& metrics, const std::vector<pph::sched::TrackedPath>& records);

/// store.append_us (from `append_seconds` when the workload wrote the store
/// itself, else by appending `records` to a fresh store at `path`),
/// store.bytes_per_record, and store.open_ms / summary_ms / dedup_ms over
/// the store at `path`.
void probe_store(Metrics& metrics, const std::string& path,
                 const std::vector<pph::sched::TrackedPath>& records,
                 std::vector<double> append_seconds);

}  // namespace perfbench
