#pragma once
// The three workloads, each driven through the public API on 4 ranks (a
// master and 3 slaves):
//
//   pieri_tree    -- random (3,2,2) Pieri instances, a fresh one per round
//                    drawn from (seed, round), solved by PieriTreeJobSource
//                    under Policy::kFCFS;
//   path_drain    -- the cyclic-7 total-degree pool (5,040 paths) in a
//                    seeded order under Policy::kBatchSteal, tee'd into an
//                    in-memory report and a JsonlStoreSink;
//   solve_service -- the same paths in a seeded order, served by
//                    Session::serve under FCFS with open-loop Poisson
//                    arrivals at a fixed absolute rate.
//
// The cyclic-7 homotopy itself is fixed (Prng seed 3, as the repository's
// benches use); the seed only orders the pool and draws the arrival times,
// so the tracker's fixed cyclic-7 failures stay the same set of paths in
// every run.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "homotopy/start_total_degree.hpp"
#include "sched/pieri_scheduler.hpp"
#include "sched/session.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr int kRanks = 4;  // master + 3 slaves
inline constexpr std::size_t kSlaves = kRanks - 1;
/// Open-loop arrival rate of solve_service, requests per second: a fixed
/// constant (a little under half of the ~1,150 paths/s path_drain reaches
/// on the reference host), never derived from a capacity measured in the
/// run, so the offered load does not follow the code's speed.
inline constexpr double kServiceRate = 500.0;

/// One whole round of a workload.
struct RunOutcome {
  double origin = 0.0;        // now_s() just before Session::run / serve
  double wall_s = 0.0;        // wall time of run / serve
  double cpu_s = 0.0;         // process CPU time over the same interval
  double steal = 0.0;         // host steal share over the same interval
  std::size_t jobs = 0;       // results that reached the sink
  std::size_t failed = 0;     // of those, operations that failed
  std::size_t dispatches = 0;
  std::vector<double> sojourn_s;  // per job: due time -> result at the sink
  std::string error;              // first failed output check ("" = passed)
  // Results, for the bit-identity checks and the layer probes.
  pph::sched::ParallelRunReport report;                        // cyclic pools
  std::vector<std::vector<pph::linalg::Complex>> canonical;    // Pieri tree
  std::vector<pph::sched::TrackedPath> records;                // traced runs only
  std::uint64_t initial_ready = 0; // jobs ready before the first dispatch
  std::vector<double> due;        // solve_service traced: due time per job (now_s())
  std::vector<double> admit_late; // solve_service traced: admission - due
};

/// What the layer probes hand back besides their metrics.
struct ProbeOutcome {
  double baseline_s = 0.0;  // single-threaded baseline of the whole workload
  std::string error;        // a failed check inside the probes ("" = passed)
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Build the seed's inputs, kept for every round.
  virtual void prepare(std::uint64_t seed) = 0;
  /// One complete set-up as a user pays it before the first dispatch.
  virtual void setup_once() const = 0;
  /// Round `round`; with a trace log the source and sinks are wrapped.
  virtual RunOutcome run(TraceLog* trace, std::size_t round) = 0;
  /// Whether every round solves the same inputs (so rounds must agree bit
  /// for bit), or each round draws a fresh instance from (seed, round).
  virtual bool same_inputs_every_round() const { return true; }
  /// Bit-identity of two rounds' results.
  virtual bool identical(const RunOutcome& a, const RunOutcome& b) const = 0;
  /// How the trace reducer reads dispatch and due times for this workload.
  virtual ReduceOptions reduce_options(const RunOutcome& traced) const = 0;
  /// Layer probes on inputs captured from `traced`, including the
  /// workload's single-threaded baseline.
  virtual ProbeOutcome layer_probes(Metrics& metrics, const RunOutcome& traced,
                                    const Phases& phases) = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, const std::string& workdir);

}  // namespace perfbench
