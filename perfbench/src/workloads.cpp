#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "checks.hpp"
#include "probes.hpp"
#include "sched/arrival.hpp"
#include "sched/result_store.hpp"
#include "sched/stream_source.hpp"
#include "schubert/poset.hpp"
#include "store/store_reader.hpp"
#include "systems/cyclic.hpp"

namespace perfbench {

namespace {

using pph::sched::JobId;
using pph::sched::JobSource;
using pph::sched::ParallelRunReport;
using pph::sched::Policy;
using pph::sched::ResultSink;
using pph::sched::SessionOptions;
using pph::sched::SessionStats;
using pph::sched::TrackedPath;

constexpr pph::schubert::PieriProblem kPieriProblem{3, 2, 2};
constexpr std::size_t kCyclicN = 7;
/// The cyclic-7 start system and gamma are drawn from this fixed seed (the
/// repository benches' choice), never from the workload seed.
constexpr std::uint64_t kCyclicHomotopySeed = 3;
/// Paths of a cyclic pool re-tracked single-threaded after every round.
constexpr std::size_t kRetrackSample = 24;

/// Records when each result reached the sink (on `clock`), and with
/// `capture` a copy of the record itself.
class StampSink final : public ResultSink {
 public:
  StampSink(std::function<double()> clock, bool capture)
      : clock_(std::move(clock)), capture_(capture) {}
  void accept(const TrackedPath& tp) override {
    stamps_.emplace_back(tp.index, clock_());
    if (capture_) records_.push_back(tp);
  }
  const std::vector<std::pair<JobId, double>>& stamps() const { return stamps_; }
  std::vector<TrackedPath> take_records() { return std::move(records_); }

 private:
  std::function<double()> clock_;
  bool capture_;
  std::vector<std::pair<JobId, double>> stamps_;
  std::vector<TrackedPath> records_;
};

/// Runs one session call, filling the round's timing fields.
SessionStats timed_round(RunOutcome& out, const std::function<SessionStats()>& call) {
  const HostTicks h0 = host_ticks();
  const double c0 = process_cpu_s();
  out.origin = now_s();
  SessionStats stats = call();
  out.wall_s = now_s() - out.origin;
  out.cpu_s = process_cpu_s() - c0;
  out.steal = steal_share(h0, host_ticks());
  out.jobs = stats.accepted;
  out.dispatches = stats.dispatches;
  return stats;
}

/// Sojourn of a drained round: run start -> result at the sink.
std::vector<double> drain_sojourn(const StampSink& stamps, double origin) {
  std::vector<double> out;
  out.reserve(stamps.stamps().size());
  for (const auto& [id, t] : stamps.stamps()) out.push_back(t - origin);
  return out;
}

/// Wall times of a single-threaded run over `starts`; `mismatch` is set to
/// the first index whose result is not bit-identical to `parallel`.
struct SequentialTrack {
  std::vector<double> seconds;
  double total = 0.0;
  std::optional<std::size_t> mismatch;
};

SequentialTrack track_sequentially(const pph::sched::PathWorkload& workload,
                                   const std::vector<std::size_t>& indices,
                                   const ParallelRunReport& parallel) {
  SequentialTrack out;
  pph::homotopy::TrackerWorkspace ws(*workload.homotopy);
  const double t0 = now_s();
  for (const std::size_t i : indices) {
    ParallelRunReport one;
    one.paths.resize(1);
    one.paths[0].index = i;
    const double s0 = now_s();
    one.paths[0].result =
        pph::homotopy::track_path(*workload.homotopy, (*workload.starts)[i], workload.tracker, ws);
    out.seconds.push_back(now_s() - s0);
    ParallelRunReport theirs;
    if (i < parallel.paths.size()) theirs.paths.push_back(parallel.paths[i]);
    if (!out.mismatch && !pph::sched::identical_path_results(one, theirs)) out.mismatch = i;
  }
  out.total = now_s() - t0;
  return out;
}

std::string describe(const CyclicCheck& c) {
  char residual[32];
  std::snprintf(residual, sizeof residual, "%.3Le", c.max_residual);
  return std::to_string(c.converged) + " converged, " + std::to_string(c.diverged) +
         " diverged, " + std::to_string(c.failed) + " failed, " + std::to_string(c.distinct) +
         " distinct roots, max scaled residual " + residual;
}

// ---------------------------------------------------------------------------
// pieri_tree
// ---------------------------------------------------------------------------

class PieriTree final : public Workload {
 public:
  explicit PieriTree(std::string workdir) : workdir_(std::move(workdir)) {}
  const char* name() const override { return "pieri_tree"; }

  void prepare(std::uint64_t seed) override { seed_ = seed; }

  void setup_once() const override {
    const auto input = instance(0);
    const pph::sched::PieriTreeJobSource source(input, solver_);
  }

  bool same_inputs_every_round() const override { return false; }

  RunOutcome run(TraceLog* trace, std::size_t round) override {
    RunOutcome out;
    input_ = instance(round);
    pph::sched::PieriTreeJobSource source(input_, solver_);
    out.initial_ready = source.ready();
    StampSink stamps(now_s, trace != nullptr);
    std::optional<TracedSource> traced;
    std::optional<TracedSink> traced_sink;
    JobSource& src = trace ? traced.emplace(source, *trace) : static_cast<JobSource&>(source);
    ResultSink& sink = trace ? traced_sink.emplace(stamps, *trace) : static_cast<ResultSink&>(stamps);
    pph::sched::Session session(
        src, sink, SessionOptions().with_policy(Policy::kFCFS).with_name("perfbench pieri_tree"));
    timed_round(out, [&] { return session.run(kRanks); });
    out.sojourn_s = drain_sojourn(stamps, out.origin);
    out.records = stamps.take_records();

    pph::sched::ParallelPieriReport report;
    source.assemble(report);
    out.failed = report.failures;
    const PieriCheck check = check_pieri(input_, report.solutions, kPieri322Roots);
    if (!check.error.empty()) {
      out.error = check.error;
    } else if (!report.complete()) {
      out.error = "pieri: the solver reports an incomplete solution set";
    }
    last_residual_ = check.max_residual;
    out.canonical = pph::sched::canonical_solution_set(report.solutions);
    solutions_ = std::move(report.solutions);
    return out;
  }

  bool identical(const RunOutcome& a, const RunOutcome& b) const override {
    return a.canonical == b.canonical;
  }

  ReduceOptions reduce_options(const RunOutcome& traced) const override {
    ReduceOptions o;
    o.initial = traced.initial_ready;
    o.origin = traced.origin;
    return o;
  }

  ProbeOutcome layer_probes(Metrics& metrics, const RunOutcome& traced,
                            const Phases& phases) override {
    using namespace pph::schubert;
    ProbeOutcome out;
    std::printf("pieri check: %zu solutions, max relative det residual %.3Le\n",
                solutions_.size(), last_residual_);
    // Points along the root-level edges (n = 16), tracked back from the
    // run's own solutions under the root instance's deformation.
    const PatternPoset poset(input_.problem);
    const Pattern& root = poset.patterns_at_level(poset.levels() - 1).front();
    const std::size_t n = input_.conditions.size();
    const std::vector<PlaneCondition> fixed(input_.conditions.begin(),
                                            input_.conditions.begin() + (n - 1));
    const auto def = pph::sched::instance_deformation(solver_.gamma_seed, root.pivots(), 0);
    const PieriEdgeHomotopy edge(PatternChart(root), fixed, input_.conditions[n - 1], def.gamma,
                                 def.detour_s, def.detour_u);
    std::vector<pph::linalg::CVector> ends;
    const std::size_t stride = std::max<std::size_t>(1, solutions_.size() / 16);
    for (std::size_t i = 0; i < solutions_.size(); i += stride) {
      ends.push_back(solutions_[i].coords());
    }
    const auto points =
        capture_points(edge, ends, attempt_tracker(solver_, 0), /*reverse=*/true, 200);
    probe_lu_and_eval(metrics, edge, points);
    probe_pieri_build(metrics, input_, solver_);
    probe_mp(metrics, std::clamp(pph::util::median(phases.exec), 5e-4, 5e-3), traced.records,
             phases.payload_bytes);
    probe_path_counts(metrics, traced.records);
    const std::string store_path = workdir_ + "/pieri_tree-probe.jsonl";
    probe_store(metrics, store_path, traced.records, {});
    std::filesystem::remove(store_path);

    // The sequential solver on the same instance: one tape per instance.
    const double t0 = now_s();
    const PieriSolveSummary seq = solve_pieri(input_, solver_);
    out.baseline_s = now_s() - t0;
    if (!seq.complete()) out.error = "pieri: the sequential solve is incomplete";
    const Timing track = summarize(seq.job_seconds);
    print_timing("homotopy.track_ms", track, 1e3, "ms");
    metrics.add("homotopy.track_ms", track.median * 1e3, "ms");
    const double per_edge =
        out.baseline_s / static_cast<double>(std::max<std::uint64_t>(1, seq.total_jobs));
    std::printf("  sequential solve_pieri: %.3f s for %llu edges, %.4f ms per edge\n",
                out.baseline_s, static_cast<unsigned long long>(seq.total_jobs), per_edge * 1e3);
    metrics.add("schubert.seq_edge_ms", per_edge * 1e3, "ms");
    return out;
  }

 private:
  /// Round r's instance: the seed's own for round 0, then fresh draws, so
  /// a run's median spans several instances rather than one.
  pph::schubert::PieriInput instance(std::size_t round) const {
    pph::util::Prng rng(seed_ + round * 0x9E3779B97F4A7C15ULL);
    return pph::schubert::random_pieri_input(kPieriProblem, rng);
  }

  std::string workdir_;
  std::uint64_t seed_ = 0;
  pph::schubert::PieriInput input_;  // the instance of the latest round
  pph::schubert::PieriSolverOptions solver_;
  std::vector<pph::schubert::PieriMap> solutions_;
  long double last_residual_ = 0.0L;
};

// ---------------------------------------------------------------------------
// The cyclic-7 pool shared by path_drain and solve_service
// ---------------------------------------------------------------------------

struct CyclicPool {
  pph::poly::PolySystem target;
  std::unique_ptr<pph::homotopy::TotalDegreeStart> start;
  std::unique_ptr<pph::homotopy::ConvexHomotopy> homotopy;
  std::vector<pph::linalg::CVector> starts;  // in the seed's order
  std::vector<std::size_t> origin;  // starts[i] is start->solution(origin[i])
  pph::sched::PathWorkload workload;

  explicit CyclicPool(std::uint64_t seed) : target(pph::systems::cyclic(kCyclicN)) {
    pph::util::Prng rng(kCyclicHomotopySeed);
    start = std::make_unique<pph::homotopy::TotalDegreeStart>(target, rng);
    homotopy = std::make_unique<pph::homotopy::ConvexHomotopy>(start->system(), target,
                                                               rng.unit_complex());
    const auto all = start->all_solutions();
    origin.resize(all.size());
    std::iota(origin.begin(), origin.end(), std::size_t{0});
    pph::util::Prng order(seed);
    order.shuffle(origin);
    starts.reserve(all.size());
    for (const std::size_t k : origin) starts.push_back(all[k]);
    workload.homotopy = homotopy.get();
    workload.starts = &starts;
  }
  CyclicPool(const CyclicPool&) = delete;
  CyclicPool& operator=(const CyclicPool&) = delete;
};

class CyclicWorkload : public Workload {
 public:
  explicit CyclicWorkload(std::string workdir) : workdir_(std::move(workdir)) {}

  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    pool_ = std::make_unique<CyclicPool>(seed);
    pph::util::Prng pick(seed + 101);
    sample_.clear();
    for (std::size_t i = 0; i < kRetrackSample; ++i) {
      sample_.push_back(static_cast<std::size_t>(pick.uniform_index(pool_->starts.size())));
    }
  }

  bool identical(const RunOutcome& a, const RunOutcome& b) const override {
    return pph::sched::identical_path_results(a.report, b.report);
  }

 protected:
  /// The output checks every round of a cyclic workload must pass.
  void check_round(RunOutcome& out) const {
    // The named fault costs one root; a tracker that loses any other
    // fails the lower bound.
    const CyclicCheck check = check_cyclic(out.report, pool_->origin, kCyclic7Roots - 1,
                                           kCyclic7Roots, kCyclic7FailedStarts);
    out.failed += check.failed;
    last_check_ = describe(check);
    if (!check.error.empty()) {
      out.error = check.error;
      return;
    }
    const auto retrack = track_sequentially(pool_->workload, sample_, out.report);
    if (retrack.mismatch) {
      out.error = "cyclic: job " + std::to_string(*retrack.mismatch) +
                  " re-tracked single-threaded differs from the parallel result";
    }
  }

  /// Probes shared by both cyclic workloads; the store probe is the
  /// caller's.
  ProbeOutcome cyclic_probes(Metrics& metrics, const RunOutcome& traced, const Phases& phases) {
    ProbeOutcome out;
    std::printf("cyclic check: %s\n", last_check_.c_str());
    std::vector<pph::linalg::CVector> starts;
    for (std::size_t i = 0; i < 16; ++i) starts.push_back(pool_->starts[sample_[i]]);
    const auto points =
        capture_points(*pool_->homotopy, starts, pool_->workload.tracker, false, 200);
    probe_lu_and_eval(metrics, *pool_->homotopy, points);
    {
      // Predicted to move nothing here: measured on the seed's (3,2,2)
      // instance (pieri_tree's round 0), which only pieri_tree tracks.
      pph::util::Prng rng(seed_);
      probe_pieri_build(metrics, pph::schubert::random_pieri_input(kPieriProblem, rng), {});
    }
    probe_mp(metrics, std::clamp(pph::util::median(phases.exec), 5e-4, 5e-3),
             traced.report.paths, phases.payload_bytes);
    probe_path_counts(metrics, traced.report.paths);

    // Single-threaded baseline over the whole pool, every path compared
    // bit for bit with the traced parallel run.
    std::vector<std::size_t> all(pool_->starts.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    const auto seq = track_sequentially(pool_->workload, all, traced.report);
    if (seq.mismatch) {
      out.error = "cyclic: job " + std::to_string(*seq.mismatch) +
                  " tracked single-threaded differs from the parallel result";
    }
    out.baseline_s = seq.total;
    const Timing track = summarize(seq.seconds);
    print_timing("homotopy.track_ms", track, 1e3, "ms");
    metrics.add("homotopy.track_ms", track.median * 1e3, "ms");
    std::printf("  sequential track of the pool: %.3f s for %zu paths\n", seq.total, all.size());
    metrics.add("schubert.seq_edge_ms", seq.total / static_cast<double>(all.size()) * 1e3, "ms");
    return out;
  }

  std::string workdir_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<CyclicPool> pool_;
  std::vector<std::size_t> sample_;
  mutable std::string last_check_;
};

// ---------------------------------------------------------------------------
// path_drain
// ---------------------------------------------------------------------------

class PathDrain final : public CyclicWorkload {
 public:
  explicit PathDrain(std::string workdir)
      : CyclicWorkload(workdir), store_path_(workdir + "/path_drain-store.jsonl") {}
  const char* name() const override { return "path_drain"; }

  void setup_once() const override {
    const CyclicPool pool(seed_);
    const pph::sched::VectorJobSource source(pool.workload);
    const std::string path = workdir_ + "/path_drain-setup.jsonl";
    {
      const pph::sched::JsonlStoreSink store(path, false, meta());
    }
    std::filesystem::remove(path);
  }

  RunOutcome run(TraceLog* trace, std::size_t /*round*/) override {
    RunOutcome out;
    pph::sched::VectorJobSource source(pool_->workload);
    out.initial_ready = source.ready();
    pph::sched::InMemoryReportSink report;
    pph::sched::JsonlStoreSink store(store_path_, false, meta());
    StampSink stamps(now_s, false);
    std::optional<TracedSource> traced;
    std::optional<TracedSink> traced_report, traced_store;
    std::vector<ResultSink*> sinks{&report, &store, &stamps};
    JobSource* src = &source;
    if (trace) {
      src = &traced.emplace(source, *trace);
      sinks[0] = &traced_report.emplace(report, *trace);
      sinks[1] = &traced_store.emplace(store, *trace, SpanKind::kStoreAppend);
    }
    pph::sched::FanoutSink fan(sinks);
    pph::sched::Session session(
        *src, fan,
        SessionOptions().with_policy(Policy::kBatchSteal).with_name("perfbench path_drain"));
    const SessionStats stats = timed_round(out, [&] { return session.run(kRanks); });
    out.sojourn_s = drain_sojourn(stamps, out.origin);
    out.report = report.report(stats);
    check_round(out);
    if (out.error.empty()) check_store(out);
    return out;
  }

  ReduceOptions reduce_options(const RunOutcome& traced) const override {
    ReduceOptions o;
    o.initial = traced.initial_ready;
    o.origin = traced.origin;
    return o;
  }

  ProbeOutcome layer_probes(Metrics& metrics, const RunOutcome& traced,
                            const Phases& phases) override {
    ProbeOutcome out = cyclic_probes(metrics, traced, phases);
    // The store the traced round wrote, appended by the master between
    // dispatches: append times come from the trace.
    probe_store(metrics, store_path_, traced.report.paths, phases.store_append);
    return out;
  }

  ~PathDrain() override { std::filesystem::remove(store_path_); }

 private:
  pph::store::StoreMeta meta() const {
    return {pph::sched::policy_name(Policy::kBatchSteal), kRanks, seed_};
  }

  /// The store read back must match the in-memory report bit for bit.
  void check_store(RunOutcome& out) const {
    const pph::store::StoreReader reader(store_path_);
    ParallelRunReport back;
    for (std::size_t i = 0; i < reader.size(); ++i) back.paths.push_back(reader.load(i));
    std::sort(back.paths.begin(), back.paths.end(),
              [](const TrackedPath& a, const TrackedPath& b) { return a.index < b.index; });
    if (!reader.footer_seen() || !pph::sched::identical_path_results(out.report, back)) {
      out.error = "path_drain: the store read back differs from the in-memory report";
    }
  }

  std::string store_path_;
};

// ---------------------------------------------------------------------------
// solve_service
// ---------------------------------------------------------------------------

class SolveService final : public CyclicWorkload {
 public:
  using CyclicWorkload::CyclicWorkload;
  const char* name() const override { return "solve_service"; }

  void prepare(std::uint64_t seed) override {
    CyclicWorkload::prepare(seed);
    arrivals_ = make_arrivals(seed, pool_->starts.size());
  }

  void setup_once() const override {
    const CyclicPool pool(seed_);
    pph::sched::VectorJobSource inner(pool.workload);
    const pph::sched::StreamJobSource stream(inner, make_arrivals(seed_, pool.starts.size()));
  }

  RunOutcome run(TraceLog* trace, std::size_t /*round*/) override {
    RunOutcome out;
    const std::size_t n = pool_->starts.size();
    pph::sched::VectorJobSource inner(pool_->workload);
    std::optional<TracedSource> traced;
    JobSource& in = trace ? traced.emplace(inner, *trace) : static_cast<JobSource&>(inner);
    pph::sched::StreamJobSource stream(in, arrivals_);
    out.initial_ready = n;
    pph::sched::InMemoryReportSink report;
    StampSink stamps([&stream] { return stream.now(); }, false);
    std::optional<TracedSink> traced_report;
    ResultSink& first = trace ? traced_report.emplace(report, *trace) : static_cast<ResultSink&>(report);
    std::vector<double> admit_service, admit_steady;
    if (trace) {
      admit_service.assign(n, 0.0);
      admit_steady.assign(n, 0.0);
      stream.set_admit_observer([&](JobId id) {
        admit_service[id] = stream.now();
        admit_steady[id] = now_s();
      });
    }
    pph::sched::FanoutSink fan({&first, &stamps});
    pph::sched::Session session(
        stream, fan, SessionOptions().with_policy(Policy::kFCFS).with_name("perfbench solve_service"));
    const SessionStats stats = timed_round(out, [&] { return session.serve(kRanks); });
    for (const auto& [id, t] : stamps.stamps()) out.sojourn_s.push_back(t - arrivals_[id]);
    out.report = report.report(stats);
    check_round(out);
    const auto& svc = stats.service;
    if (out.error.empty() && (svc.terminal_requests() != n || svc.completed != n)) {
      out.error = "solve_service: " + std::to_string(svc.terminal_requests()) +
                  " terminal requests, " + std::to_string(svc.completed) + " completed, of " +
                  std::to_string(n);
    }
    if (trace) {
      const double offset = admit_steady[0] - admit_service[0];
      for (std::size_t i = 0; i < n; ++i) {
        out.due.push_back(arrivals_[i] + offset);
        out.admit_late.push_back(admit_service[i] - arrivals_[i]);
      }
    }
    return out;
  }

  ReduceOptions reduce_options(const RunOutcome& traced) const override {
    ReduceOptions o;
    o.dispatch_is_payload = true;
    o.due = traced.due;
    o.origin = traced.origin;
    return o;
  }

  ProbeOutcome layer_probes(Metrics& metrics, const RunOutcome& traced,
                            const Phases& phases) override {
    ProbeOutcome out = cyclic_probes(metrics, traced, phases);
    const std::string store_path = workdir_ + "/solve_service-probe.jsonl";
    probe_store(metrics, store_path, traced.report.paths, {});
    std::filesystem::remove(store_path);
    return out;
  }

 private:
  static std::vector<double> make_arrivals(std::uint64_t seed, std::size_t n) {
    pph::sched::PoissonArrivals process(kServiceRate);
    pph::util::Prng rng(seed + 1000003);
    return pph::sched::arrival_times(process, rng, n);
  }

  std::vector<double> arrivals_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const std::string& workdir) {
  if (name == "pieri_tree") return std::make_unique<PieriTree>(workdir);
  if (name == "path_drain") return std::make_unique<PathDrain>(workdir);
  if (name == "solve_service") return std::make_unique<SolveService>(workdir);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (pieri_tree, path_drain, solve_service)");
}

}  // namespace perfbench
