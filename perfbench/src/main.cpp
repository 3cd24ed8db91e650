// perfbench: one workload per process, so peak RSS belongs to it.
//
//   perfbench --workload <pieri_tree|path_drain|solve_service>
//                    --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// --trace 0 measures the end-to-end metrics: whole rounds of the workload
// repeated for --seconds, each round's outputs checked, with slices of
// repeated set-ups between them; medians over the set-ups and the rounds
// are reported.  --trace 1
// alternates untraced and traced rounds for --seconds (the traced rounds
// must return bit-identical results; the gap in jobs/s is the tracing
// overhead; the untraced rounds give jobs/s and the sojourn percentiles),
// reduces the spans into per-job phases, then runs the layer probes.  The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed output check prints correct=false and exits 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/run";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--workdir") {
      a.workdir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) {
    throw std::invalid_argument("usage: perfbench --workload <name> --seed <n> "
                                "--seconds <s> --trace <0|1> [--workdir <dir>]");
  }
  return a;
}

double median_of(const std::vector<double>& xs) { return pph::util::median(xs); }

void print_round(std::size_t k, const RunOutcome& r) {
  std::printf("round %zu: wall %.4f s, cpu %.4f s, %zu jobs (%zu failed), %zu dispatches, "
              "sojourn p50 %.3f ms p99 %.3f ms, steal %.1f%%%s%s\n",
              k, r.wall_s, r.cpu_s, r.jobs, r.failed, r.dispatches,
              pph::util::percentile(r.sojourn_s, 50.0) * 1e3,
              pph::util::percentile(r.sojourn_s, 99.0) * 1e3, r.steal * 100.0,
              r.error.empty() ? "" : " CHECK FAILED: ", r.error.c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, m.json().c_str());
  std::fflush(stdout);
}

/// One slice of set-up repetitions, appended to `xs`.  A single set-up
/// lasts 0.05-3 ms, well inside the host's noise, so it is repeated in
/// slices between the rounds and the median over the whole run taken: the
/// set-up then samples the same stretch of host speed as the rounds do.
void sample_setup(const Workload& w, std::vector<double>& xs) {
  constexpr double kSliceSeconds = 0.25;
  constexpr std::size_t kMinReps = 5, kMaxReps = 1000;
  const double start = now_s();
  for (std::size_t r = 0; r < kMaxReps && (r < kMinReps || now_s() - start < kSliceSeconds);
       ++r) {
    const double t0 = now_s();
    w.setup_once();
    xs.push_back(now_s() - t0);
  }
}

int run_end_to_end(Workload& w, const Args& args) {
  const HostTicks host0 = host_ticks();
  const double cpu0 = process_cpu_s();
  std::vector<double> setup, jobs_per_s, cpu_ms_per_job, p50, p99;
  std::size_t attempted = 0, failed = 0;
  bool correct = true;
  RunOutcome first;
  const double start = now_s();
  for (std::size_t k = 0; k == 0 || now_s() - start < args.seconds; ++k) {
    sample_setup(w, setup);
    RunOutcome r = w.run(nullptr, k);
    print_round(k, r);
    attempted += r.jobs;
    failed += r.failed;
    if (!r.error.empty()) correct = false;
    jobs_per_s.push_back(static_cast<double>(r.jobs) / r.wall_s);
    cpu_ms_per_job.push_back(r.cpu_s * 1e3 / static_cast<double>(r.jobs));
    p50.push_back(pph::util::percentile(r.sojourn_s, 50.0));
    p99.push_back(pph::util::percentile(r.sojourn_s, 99.0));
    if (k == 0) {
      first = std::move(r);
    } else if (w.same_inputs_every_round() && !w.identical(first, r)) {
      std::printf("CHECK FAILED: round %zu results differ from round 0\n", k);
      correct = false;
    }
  }
  const HostTicks host1 = host_ticks();
  std::printf("%s seed %llu: %zu rounds in %.2f s; process cpu %.2f s; steal %llu of %llu "
              "host ticks (%.1f%%)\n",
              w.name(), static_cast<unsigned long long>(args.seed), jobs_per_s.size(),
              now_s() - start, process_cpu_s() - cpu0,
              static_cast<unsigned long long>(host1.steal - host0.steal),
              static_cast<unsigned long long>(host1.total - host0.total),
              steal_share(host0, host1) * 100.0);
  sample_setup(w, setup);
  print_timing("setup", summarize(setup), 1e3, "ms");
  print_timing("jobs_per_s", summarize(jobs_per_s), 1.0, "1/s");
  print_timing("cpu_ms_per_job", summarize(cpu_ms_per_job), 1.0, "ms");
  print_timing("sojourn_p50", summarize(p50), 1e3, "ms");
  print_timing("sojourn_p99", summarize(p99), 1e3, "ms");

  // Wall-time throughput is printed above but carries no bound: host steal
  // moves it by more than any bound could hold (see README.md).
  Metrics m;
  m.add("setup_s", median_of(setup), "s");
  m.add("cpu_ms_per_job", median_of(cpu_ms_per_job), "ms");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  correct = correct && m.all_finite();
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

void add_timing(Metrics& m, const std::string& name, const std::vector<double>& xs, double scale,
                const char* unit) {
  const Timing t = summarize(xs);
  print_timing(name, t, scale, unit);
  m.add(name, t.median * scale, unit);
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

int run_traced(Workload& w, const Args& args) {
  const HostTicks host0 = host_ticks();
  const double cpu0 = process_cpu_s();
  TraceLog log;
  Phases all;
  std::vector<double> plain_jps, traced_jps, plain_wall, plain_p50, plain_p99, admit_late;
  std::size_t attempted = 0, failed = 0, dispatches = 0, traced_jobs = 0;
  double traced_wall = 0.0;
  bool correct = true;
  RunOutcome last;
  std::vector<Span> last_spans;
  const double start = now_s();
  for (std::size_t k = 0; k == 0 || now_s() - start < args.seconds; ++k) {
    RunOutcome plain = w.run(nullptr, k);
    print_round(2 * k, plain);
    log.clear();
    RunOutcome traced = w.run(&log, k);
    print_round(2 * k + 1, traced);
    for (const RunOutcome* r : {&plain, &traced}) {
      attempted += r->jobs;
      failed += r->failed;
      if (!r->error.empty()) correct = false;
    }
    if (!w.identical(plain, traced)) {
      std::printf("CHECK FAILED: traced round %zu differs from the untraced round\n", k);
      correct = false;
    }
    plain_jps.push_back(static_cast<double>(plain.jobs) / plain.wall_s);
    plain_wall.push_back(plain.wall_s);
    plain_p50.push_back(pph::util::percentile(plain.sojourn_s, 50.0));
    plain_p99.push_back(pph::util::percentile(plain.sojourn_s, 99.0));
    traced_jps.push_back(static_cast<double>(traced.jobs) / traced.wall_s);
    last_spans = log.collect();
    const Phases ph = reduce_spans(last_spans, w.reduce_options(traced));
    if (ph.incomplete != 0 || ph.duplicated != 0 || ph.disordered != 0) {
      std::printf("CHECK FAILED: of the traced jobs, %zu miss an event, %zu have an event twice, "
                  "%zu have a negative phase\n",
                  ph.incomplete, ph.duplicated, ph.disordered);
      correct = false;
    }
    for (auto [to, from] : {std::pair{&all.to_slave, &ph.to_slave}, {&all.exec, &ph.exec},
                            {&all.exec_cpu, &ph.exec_cpu}, {&all.to_master, &ph.to_master},
                            {&all.consume, &ph.consume}, {&all.accept, &ph.accept},
                            {&all.store_append, &ph.store_append},
                            {&all.queue_wait, &ph.queue_wait}, {&all.slave_idle, &ph.slave_idle},
                            {&all.payload_bytes, &ph.payload_bytes}}) {
      append(*to, *from);
    }
    all.exec_total += ph.exec_total;
    all.jobs += ph.jobs;
    if (traced.admit_late.empty()) {
      admit_late.push_back(ph.first_master_call);
    } else {
      append(admit_late, traced.admit_late);
    }
    traced_wall += traced.wall_s;
    traced_jobs += traced.jobs;
    dispatches += traced.dispatches;
    last = std::move(traced);
  }
  const std::string spans_path = args.workdir + "/spans-" + w.name() + ".csv";
  write_spans(spans_path, last_spans, last.origin);
  std::printf("%s seed %llu traced: %zu jobs with all four phases in causal order; spans of "
              "the last round in %s\n",
              w.name(), static_cast<unsigned long long>(args.seed), all.jobs, spans_path.c_str());

  Metrics m;
  add_timing(m, "sched.exec_ms", all.exec, 1e3, "ms");
  add_timing(m, "sched.exec_cpu_ms", all.exec_cpu, 1e3, "ms");
  add_timing(m, "sched.to_slave_us", all.to_slave, 1e6, "us");
  add_timing(m, "sched.to_master_us", all.to_master, 1e6, "us");
  add_timing(m, "sched.consume_us", all.consume, 1e6, "us");
  add_timing(m, "sched.slave_idle_ms", all.slave_idle, 1e3, "ms");
  add_timing(m, "sched.queue_wait_ms", all.queue_wait, 1e3, "ms");
  add_timing(m, "sched.admit_late_ms", admit_late, 1e3, "ms");
  print_timing("sink accept_us", summarize(all.accept), 1e6, "us");
  const double slave_seconds = static_cast<double>(kSlaves) * traced_wall;
  m.add("sched.busy_share", all.exec_total / slave_seconds, "share");
  m.add("sched.dispatches_per_job",
        static_cast<double>(dispatches) / static_cast<double>(std::max<std::size_t>(1, traced_jobs)),
        "count");
  const double overhead = 1.0 - median_of(traced_jps) / median_of(plain_jps);
  std::printf("  tracing overhead: untraced %.2f jobs/s, traced %.2f jobs/s (%.2f%%)\n",
              median_of(plain_jps), median_of(traced_jps), overhead * 100.0);
  m.add("sched.trace_overhead", overhead, "share");
  // Throughput and sojourn are what a user sees, but host steal moves them
  // by more than any regression bound could hold, so they are reported
  // here, from the untraced rounds, without one.
  m.add("jobs_per_s", median_of(plain_jps), "1/s");
  add_timing(m, "sojourn_p50_ms", plain_p50, 1e3, "ms");
  add_timing(m, "sojourn_p99_ms", plain_p99, 1e3, "ms");

  const ProbeOutcome probes = w.layer_probes(m, last, all);
  if (!probes.error.empty()) {
    std::printf("CHECK FAILED: %s\n", probes.error.c_str());
    correct = false;
  }
  // The baseline solved the last round's inputs, as did the last untraced
  // round.
  const double efficiency =
      probes.baseline_s / (static_cast<double>(kSlaves) * plain_wall.back());
  std::printf("  single-threaded baseline %.3f s; untraced run %.3f s on %zu slaves\n",
              probes.baseline_s, plain_wall.back(), kSlaves);
  m.add("sched.efficiency", efficiency, "share");
  const HostTicks host1 = host_ticks();
  std::printf("%s traced run: process cpu %.2f s; steal %llu of %llu host ticks (%.1f%%)\n",
              w.name(), process_cpu_s() - cpu0,
              static_cast<unsigned long long>(host1.steal - host0.steal),
              static_cast<unsigned long long>(host1.total - host0.total),
              steal_share(host0, host1) * 100.0);
  correct = correct && m.all_finite();
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.workdir);
    auto workload = make_workload(args.workload, args.workdir);
    workload->prepare(args.seed);
    std::printf("workload %s, seed %llu, %.0f s, %d ranks (master + %zu slaves), trace %d\n",
                workload->name(), static_cast<unsigned long long>(args.seed), args.seconds,
                kRanks, kSlaves, args.trace ? 1 : 0);
    return args.trace ? run_traced(*workload, args) : run_end_to_end(*workload, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
