#pragma once
// The scheduler front door (DESIGN.md sections 7 and 10).  Every parallel
// run in this library is a sched::Session composed from three orthogonal
// axes -- a JobSource (where jobs come from), a Policy (how jobs reach
// slaves), and a ResultSink (where finished jobs go) -- and this header
// owns the types a caller composes a session FROM: the Policy enum, the
// fluent SessionOptions, and the SessionStats / ServiceStats a run hands
// back.  Include "sched/session.hpp" for Session itself and the built-in
// sources and sinks, "sched/stream_source.hpp" + "sched/arrival.hpp" for
// the streamed solve-service mode, "sched/result_store.hpp" for the
// on-disk store, "sched/pieri_scheduler.hpp" for the Pieri tree source.
//
//   // batch drain:
//   auto report = sched::run_paths(workload, ranks,
//       sched::SessionOptions().with_policy(sched::Policy::kBatchSteal)
//                              .with_batch(/*factor=*/2.0, /*min_batch=*/4));
//   // solve service (DESIGN.md section 10):
//   sched::StreamJobSource stream(inner, trace, stream_opts);
//   sched::Session session(stream, sink,
//       sched::SessionOptions().with_serve_deadline(10.0));
//   auto stats = session.serve(ranks);  // stats.service has the queue metrics
//
// A drain (Session::run) and a serve (Session::serve) share one validation
// path and one master loop; the drain is the serve loop with no arrival
// gate.  Compose a Session, or call the run_paths / run_pieri /
// run_with_store facades.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mp/fault.hpp"
#include "util/stats.hpp"

namespace pph::sched {

/// Dispatch policy of a session.  The cluster simulator understands the
/// same enum (simcluster::simulate, simcluster::simulate_service), so a
/// simulated and a real run of one experiment are selected by one type.
enum class Policy {
  kFCFS,        // per-job master/slave dispatch (paper section II-A "dynamic")
  kStatic,      // pre-assigned shares, no dispatch (paper section II-A)
  kBatchSteal,  // guided batches + brokered stealing (DESIGN.md section 2)
};

const char* policy_name(Policy policy);

/// How the static policy pre-assigns job positions to ranks.
enum class StaticAssignment {
  kBlock,   // contiguous chunks: rank r gets [r*N/P, (r+1)*N/P)
  kCyclic,  // interleaved: rank r gets r, r+P, r+2P, ...
};

/// What a bounded admission queue does with an arrival that finds it full
/// (DESIGN.md section 10, "Backpressure").
enum class AdmissionPolicy {
  kDrop,   // reject the request (counted in ServiceStats::dropped)
  kBlock,  // hold it at the door until the queue drains (flow control)
};

const char* admission_policy_name(AdmissionPolicy policy);

/// Queueing metrics of a serve() run (DESIGN.md section 10, "Metrics").
/// The simulator twin (simcluster::simulate_service) fills the same struct
/// so a modeled and a measured service are compared field by field.
struct ServiceStats {
  std::size_t arrivals = 0;   // requests whose modeled arrival time was reached
  std::size_t admitted = 0;   // entered the admission queue
  std::size_t dropped = 0;    // rejected by AdmissionPolicy::kDrop backpressure
  std::size_t shed = 0;       // deadline/brownout shed: never arrived, or at the door
  std::size_t completed = 0;  // admitted jobs whose results reached the sink
  /// Admitted requests whose per-request deadline expired before a genuine
  /// result could be delivered: synthesized kDeadlineExpired results
  /// (DESIGN.md section 13).  Disjoint from completed.
  std::size_t expired = 0;
  /// Admission-queue depth (admitted, waiting for dispatch): high-water
  /// mark and time-weighted average over the serving window.
  std::size_t max_queue_depth = 0;
  double avg_queue_depth = 0.0;
  /// Per-job sojourn time, admission -> result accepted on the master.
  util::PercentileAccumulator sojourn;

  /// Admitted jobs reported as failed by the supervisor's attempt ledger
  /// (DESIGN.md section 11), disjoint from completed.  Zero in a healthy
  /// service.
  std::size_t quarantined = 0;

  /// Zero-loss drain invariant of a graceful shutdown: every admitted job
  /// ended in exactly one terminal bucket that reached the sink.
  bool drained() const { return completed + expired + quarantined == admitted; }

  /// Request-conservation identity (DESIGN.md section 13): every request
  /// that ever existed is in exactly one terminal bucket.  On a drained
  /// service this equals the request count (arrivals plus never-arrived
  /// requests shed at close); bench_solve_service and the CI reliability
  /// smoke exit non-zero when it does not.
  std::size_t terminal_requests() const {
    return completed + expired + shed + dropped + quarantined;
  }
};

/// Per-request budget (DESIGN.md section 13): attached to every request at
/// admission by the serve loop when ReliabilityOptions::enabled.  The
/// deadline is measured from the request's admission instant; attempts
/// count every consumed try (first dispatch, death re-queues, failure
/// retries) against ONE ledger shared with the supervisor's quarantine.
struct RequestBudget {
  /// Seconds from admission until the request is shed as a synthesized
  /// kDeadlineExpired result (0 expires at admission; nullopt = no deadline).
  std::optional<double> deadline_seconds;
  /// Total attempts a request may consume (1 = never retried).
  std::size_t max_attempts = 1;
  /// Exponential backoff before re-admitting a failed attempt:
  /// base * multiplier^(attempt-1), +/- jitter_fraction of itself (seeded,
  /// deterministic: see sched::backoff_seconds).
  double backoff_base_seconds = 0.0;
  double backoff_multiplier = 2.0;
  double jitter_fraction = 0.0;
};

/// Overload-brownout controller knobs (DESIGN.md section 13).  The
/// controller watches the admission-queue depth (and optionally a sojourn
/// EWMA) and walks a degradation ladder: 1 = no speculation, 2 = no
/// endgame/dd-refine on dispatched jobs, 3 = shed arrivals at the door.
/// Hysteresis: escalation at the high watermark is immediate; recovery
/// needs the depth back under low_fraction of that level's watermark AND
/// min_dwell_seconds since the last transition.
struct OverloadOptions {
  bool enabled = false;
  /// Queue-depth high watermarks of levels 1..3 (0 disables a level).
  std::size_t depth_no_speculation = 0;
  std::size_t depth_no_endgame = 0;
  std::size_t depth_shed = 0;
  /// Recovery watermark as a fraction of the escalation watermark.
  double low_fraction = 0.5;
  /// Minimum seconds between de-escalations (0 = none; the fixed-trace
  /// simulator parity tests run with 0 so transitions are time-free).
  double min_dwell_seconds = 0.0;
  /// Optional sojourn-EWMA escalation signal (seconds; infinity = off).
  double sojourn_high_seconds = std::numeric_limits<double>::infinity();
  double sojourn_ewma_alpha = 0.2;

  OverloadOptions& with_depths(std::size_t no_speculation, std::size_t no_endgame,
                               std::size_t shed) {
    enabled = true;
    depth_no_speculation = no_speculation;
    depth_no_endgame = no_endgame;
    depth_shed = shed;
    return *this;
  }
  OverloadOptions& with_hysteresis(double fraction, double dwell_seconds) {
    low_fraction = fraction;
    min_dwell_seconds = dwell_seconds;
    return *this;
  }
  OverloadOptions& with_sojourn_high(double seconds, double alpha = 0.2) {
    sojourn_high_seconds = seconds;
    sojourn_ewma_alpha = alpha;
    return *this;
  }
};

/// The request reliability layer (DESIGN.md section 13), serve() only: per
/// request deadlines + retry budgets, cooperative cancellation of expired
/// in-flight work, and overload brownout.  Off by default -- a disabled
/// layer leaves every existing suite bit-identical.
struct ReliabilityOptions {
  bool enabled = false;
  RequestBudget budget;
  /// Seed of the deterministic backoff jitter (hashed with request id and
  /// attempt number, so runtime and simulator draw identical waits).
  std::uint64_t jitter_seed = 0;
  OverloadOptions overload;

  ReliabilityOptions& with_deadline(double seconds) {
    enabled = true;
    budget.deadline_seconds = seconds;
    return *this;
  }
  ReliabilityOptions& with_attempts(std::size_t attempts, double backoff_base,
                                    double multiplier = 2.0, double jitter = 0.0) {
    enabled = true;
    budget.max_attempts = attempts;
    budget.backoff_base_seconds = backoff_base;
    budget.backoff_multiplier = multiplier;
    budget.jitter_fraction = jitter;
    return *this;
  }
  ReliabilityOptions& with_jitter_seed(std::uint64_t seed) {
    jitter_seed = seed;
    return *this;
  }
  ReliabilityOptions& with_overload(OverloadOptions options) {
    enabled = true;
    overload = options;
    overload.enabled = true;
    return *this;
  }
};

/// Reliability counters of one serve() run (DESIGN.md section 13); the
/// simulator twin fills the same struct on fixed traces.
struct ReliabilityStats {
  std::size_t cancelled = 0;            // kTagCancel sent to in-flight owners
  std::size_t retried = 0;              // failed attempts re-admitted after backoff
  std::size_t brownout_transitions = 0; // level changes recorded by the controller
  std::size_t max_brownout_level = 0;   // deepest degradation level reached
  std::size_t brownout_shed = 0;        // arrivals shed at the door by level 3
  /// Seconds each retry waited before re-admission (seeded jitter included).
  util::PercentileAccumulator backoff_wait;
};

/// Supervisor knobs (DESIGN.md section 11).  Defaults are sized for the
/// in-process runtime: heartbeats every 20 ms, a slave is suspect after 25
/// missed beats (0.5 s of silence) and dead at twice that.  All thresholds
/// scale with the measured per-job EWMA so slow (sanitizer) builds do not
/// produce false positives on busy slaves.
struct SupervisorOptions {
  /// Master-side supervision: heartbeat tracking, silent-death/hang
  /// detection, speculative re-dispatch, poison-job quarantine.  Off by
  /// default -- the classic drain loop stays blocking-recv and byte-for-byte
  /// on its hot path.
  bool enabled = false;
  /// Idle slaves beacon at this cadence; the master's supervision tick (the
  /// recv_for timeout) uses the same period.
  double heartbeat_seconds = 0.02;
  /// An idle slave silent for miss_budget * heartbeat_seconds is suspect.
  std::size_t miss_budget = 25;
  /// ... and declared dead after death_multiplier times the suspect window.
  double death_multiplier = 2.0;
  /// EWMA smoothing of the per-job service time observed at the master.
  double ewma_alpha = 0.2;
  /// A busy slave (jobs in flight) gets hang_factor * EWMA of silence
  /// before suspicion instead of the idle window, whichever is larger.
  double hang_factor = 16.0;
  /// Straggler mitigation: re-dispatch a copy of a job older than
  /// speculation_factor * EWMA to an idle slave (first result wins).
  bool speculate = true;
  double speculation_factor = 8.0;
  /// Speculation needs a trustworthy EWMA first.
  std::size_t speculation_min_samples = 8;
  /// Poison-job quarantine: a job whose owner died this many times is
  /// reported as a failed PathResult instead of being re-queued forever.
  std::size_t max_attempts = 3;

  SupervisorOptions& with_heartbeat(double seconds) {
    heartbeat_seconds = seconds;
    return *this;
  }
  SupervisorOptions& with_miss_budget(std::size_t beats, double multiplier = 2.0) {
    miss_budget = beats;
    death_multiplier = multiplier;
    return *this;
  }
  SupervisorOptions& with_hang_factor(double factor) {
    hang_factor = factor;
    return *this;
  }
  SupervisorOptions& with_speculation(double factor, std::size_t min_samples = 8) {
    speculate = true;
    speculation_factor = factor;
    speculation_min_samples = min_samples;
    return *this;
  }
  SupervisorOptions& without_speculation() {
    speculate = false;
    return *this;
  }
  SupervisorOptions& with_max_attempts(std::size_t attempts) {
    max_attempts = attempts;
    return *this;
  }
  SupervisorOptions& with_ewma_alpha(double alpha) {
    ewma_alpha = alpha;
    return *this;
  }
};

/// Supervision counters of one session run (all-zero when the supervisor
/// is disabled and no fault plan is armed).
struct SupervisionStats {
  std::size_t heartbeats = 0;             // beacons received by the master
  std::size_t suspects = 0;               // suspect transitions
  std::size_t deaths_detected = 0;        // declared dead by silence
  std::size_t deaths_announced = 0;       // cooperative kTagDead deaths
  std::size_t requeued_jobs = 0;          // re-queued off dead slaves
  std::size_t speculative_dispatches = 0; // straggler copies handed out
  std::size_t speculation_wins = 0;       // a copy's result arrived first
  std::size_t quarantined = 0;            // jobs failed by the attempt ledger
  double ewma_job_seconds = 0.0;          // final per-job EWMA on the master
};

/// Compact single-line JSON renderings used by the PPH_CHAOS_REPORT rows
/// and the bench JSON trajectories (one format, not two; stats_json.cpp).
std::string to_json(const ServiceStats& s);
std::string to_json(const SupervisionStats& s);
std::string to_json(const ReliabilityStats& s);

struct SessionStats {
  double wall_seconds = 0.0;
  std::vector<double> rank_busy_seconds;  // tracking time per rank
  std::size_t dispatches = 0;             // master job/batch hand-outs
  std::size_t steals = 0;                 // successful slave-to-slave steals
  std::size_t accepted = 0;               // results delivered to the sink
  bool stopped_early = false;             // stop_after_results fired
  /// Filled by Session::serve() only (all-zero for batch runs).
  ServiceStats service;
  /// Supervision counters (DESIGN.md section 11).
  SupervisionStats supervision;
  /// Request-reliability counters (DESIGN.md section 13; serve() only).
  ReliabilityStats reliability;
};

struct SessionOptions {
  Policy policy = Policy::kFCFS;
  /// Static only: how pre-assigned positions interleave across ranks.
  StaticAssignment assignment = StaticAssignment::kCyclic;
  /// FCFS only: jobs handed to each slave up front (the paper uses one).
  std::size_t initial_jobs_per_slave = 1;
  /// BatchSteal only: guided shrink rate (a refill takes
  /// remaining/(factor*slaves) jobs) and the batch size floor.
  double factor = 2.0;
  std::size_t min_batch = 1;
  /// Simulated per-message latency in seconds (0 for none), charged on the
  /// sender before each send; surfaces communication overhead in-process.
  double injected_latency = 0.0;
  /// Checkpoint control (DESIGN.md section 7 "Resume protocol"): once this
  /// many results have been accepted the master broadcasts kTagAbort,
  /// collects the slaves' completed-but-unreported results (kTagAbortFlush)
  /// into the sink, and returns early with stopped_early set.  A session
  /// whose sink is a result store can then be resumed.  nullopt runs to
  /// completion.  Not supported by the static policy (no master dispatch).
  std::optional<std::size_t> stop_after_results;
  /// serve() only: close the stream after this many seconds of serving --
  /// requests not yet arrived are shed, everything admitted or in flight
  /// drains to the sink (graceful shutdown, DESIGN.md section 10).
  /// nullopt serves until the arrival schedule is exhausted and drained.
  std::optional<double> serve_deadline_seconds;
  /// Master-side supervision (DESIGN.md section 11): heartbeat liveness
  /// tracking, suspect -> dead declaration for silent/hung slaves,
  /// speculative re-dispatch of stragglers, poison-job quarantine.
  /// Requires a master, so not supported by the static policy.
  SupervisorOptions supervisor;
  /// Request reliability (DESIGN.md section 13): per-request budgets,
  /// cooperative cancellation, retry-with-backoff, overload brownout.
  /// serve() only -- budgets attach at the stream's admission gate.
  ReliabilityOptions reliability;
  /// Deterministic fault injection (mp/fault.hpp): the plan is compiled
  /// into a FaultInjector consulted by the slave loops at job boundaries
  /// and by Comm::send.  Uncooperative faults (silent death, hang) require
  /// the supervisor -- nobody else would notice.  A cooperative worker
  /// death for tests is FaultPlan().kill_announced(rank, after_jobs): the
  /// master re-queues everything the dead slave still owned.
  mp::FaultPlan fault_plan;
  /// Name used in validation error messages (facades pass theirs).
  const char* who = "sched::Session";

  // Fluent setters, chainable on an rvalue:
  //   SessionOptions().with_policy(Policy::kBatchSteal).with_batch(2.0, 4)
  SessionOptions& with_policy(Policy p) {
    policy = p;
    return *this;
  }
  SessionOptions& with_assignment(StaticAssignment a) {
    assignment = a;
    return *this;
  }
  SessionOptions& with_initial_jobs(std::size_t per_slave) {
    initial_jobs_per_slave = per_slave;
    return *this;
  }
  SessionOptions& with_batch(double shrink_factor, std::size_t batch_floor = 1) {
    factor = shrink_factor;
    min_batch = batch_floor;
    return *this;
  }
  SessionOptions& with_latency(double seconds) {
    injected_latency = seconds;
    return *this;
  }
  SessionOptions& with_stop_after(std::size_t results) {
    stop_after_results = results;
    return *this;
  }
  SessionOptions& with_serve_deadline(double seconds) {
    serve_deadline_seconds = seconds;
    return *this;
  }
  /// Enable supervision, optionally with tuned knobs (`enabled` is forced
  /// on -- passing options is opting in).
  SessionOptions& with_supervision(SupervisorOptions options = {}) {
    supervisor = options;
    supervisor.enabled = true;
    return *this;
  }
  /// Enable the request reliability layer (`enabled` is forced on --
  /// passing options is opting in).
  SessionOptions& with_reliability(ReliabilityOptions options) {
    reliability = options;
    reliability.enabled = true;
    return *this;
  }
  SessionOptions& with_fault_plan(mp::FaultPlan plan) {
    fault_plan = std::move(plan);
    return *this;
  }
  SessionOptions& with_name(const char* name) {
    who = name;
    return *this;
  }
};

/// Admission-queue knobs of a StreamJobSource (DESIGN.md section 10).
struct StreamOptions {
  /// Bound on the admission queue depth; 0 = unbounded (never drop/block).
  std::size_t queue_capacity = 0;
  AdmissionPolicy on_full = AdmissionPolicy::kDrop;

  StreamOptions& with_capacity(std::size_t capacity, AdmissionPolicy policy) {
    queue_capacity = capacity;
    on_full = policy;
    return *this;
  }
};

}  // namespace pph::sched
