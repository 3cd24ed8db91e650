// The parallel Pieri homotopy end to end (paper section III-D, Fig 6):
// the master/slave tree scheduler on the message-passing runtime, plus the
// tree-structure observations of section III-C, plus the compiled Pieri
// edge tape A/B (DESIGN.md section 8).
//
//  - per-edge micro-benchmark: the same tree solved through the interpreted
//    bordered-determinant walk and the compiled tape, reporting mean
//    per-edge track time and whole-tree wall time for each (the tentpole
//    claim: compiled >= 2x interpreted per edge), and verifying the two
//    solution sets agree — any disagreement (or incomplete solve) makes
//    the binary exit non-zero, which the CI smoke job relies on;
//  - runs the Table III instance (m=3, p=2, q=1; 252 jobs) on 2..5 ranks
//    and checks the solution set is complete on every width;
//  - reports the per-level available parallelism (the tree is narrow near
//    the root -- "at the start only very few processors are active");
//  - reports the master's peak number of simultaneously active instances,
//    the memory argument for trees over posets;
//  - projects the measured per-job durations through a level-synchronous
//    schedule to estimate the parallel efficiency at larger CPU counts.
//
// Set PPH_BENCH_PIERI_TINY=1 for a seconds-scale run (CI smoke): the
// instance drops to (m,p,q)=(2,2,1) and the rank sweep shrinks.  Set
// PPH_BENCH_JSON=<path> to also write the measured rows as JSON (the
// perf-trajectory format committed under docs/bench/).
//
// Protocol notes in DESIGN.md section 2; paper-vs-measured in EXPERIMENTS.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sched/pieri_scheduler.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

bool tiny_mode() {
  const char* v = std::getenv("PPH_BENCH_PIERI_TINY");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// One measured row of the JSON perf trajectory.
struct JsonRow {
  std::string name;
  double wall_seconds = 0.0;
  double per_edge_microseconds = 0.0;
  double throughput = 0.0;  // edges per second
};

void write_bench_json(const std::string& path, const std::vector<JsonRow>& rows, bool tiny,
                      double edge_speedup, bool solution_sets_agree) {
  std::ofstream out(path);
  if (!out.is_open()) {
    std::fprintf(stderr, "PPH_BENCH_JSON: cannot open %s\n", path.c_str());
    return;
  }
  char stamp[32] = "";
  const std::time_t now = std::time(nullptr);
  std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  out << "{\n  \"context\": {\n"
      << "    \"bench\": \"bench_pieri_parallel\",\n"
      << "    \"date\": \"" << stamp << "\",\n"
      << "    \"tiny\": " << (tiny ? "true" : "false") << ",\n"
      << "    \"compiled_edge_speedup\": " << edge_speedup << ",\n"
      << "    \"compiled_vs_interpreted_solutions_agree\": "
      << (solution_sets_agree ? "true" : "false") << "\n  },\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"wall_seconds\": " << r.wall_seconds
        << ", \"per_edge_microseconds\": " << r.per_edge_microseconds
        << ", \"edges_per_second\": " << r.throughput << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote JSON trajectory point: %s\n", path.c_str());
}

double mean_seconds(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return xs.empty() ? 0.0 : total / static_cast<double>(xs.size());
}

}  // namespace

int main() {
  using namespace pph;
  const bool tiny = tiny_mode();
  if (tiny) std::printf("(tiny mode: PPH_BENCH_PIERI_TINY set)\n\n");
  const schubert::PieriProblem pb = tiny ? schubert::PieriProblem{2, 2, 1}
                                         : schubert::PieriProblem{3, 2, 1};
  util::Prng rng(2004);
  const auto input = schubert::random_pieri_input(pb, rng);
  bool ok = true;
  std::vector<JsonRow> json_rows;

  // ---- interpreted vs compiled edge tracking (DESIGN.md section 8) -----------
  // The same tree, the same deformations, solved sequentially through both
  // evaluation paths: per-edge mean time is the micro-benchmark, the total
  // is the whole-tree wall time.  The endpoints must describe the same
  // solution set (paired within the tracking tolerance after canonical
  // ordering) — the analogue of ablation 5's identical-results guard.
  schubert::PieriSolveSummary summaries[2];
  double edge_us[2] = {0.0, 0.0};
  {
    util::Table t("compiled Pieri edge tape vs interpreted determinant walk "
                  "(sequential whole tree)");
    t.set_header({"evaluation", "edges", "per-edge (us)", "tree wall (s)", "complete"});
    const char* names[2] = {"interpreted", "compiled"};
    for (int mode = 0; mode < 2; ++mode) {
      schubert::PieriSolverOptions opts;
      opts.compiled_eval = mode == 1;
      util::WallTimer timer;
      summaries[mode] = schubert::solve_pieri(input, opts);
      const double wall = timer.seconds();
      edge_us[mode] = mean_seconds(summaries[mode].job_seconds) * 1e6;
      ok = ok && summaries[mode].complete();
      t.add_row({names[mode],
                 util::Table::cell(static_cast<std::size_t>(summaries[mode].total_jobs)),
                 util::Table::cell(edge_us[mode], 1), util::Table::cell(wall, 2),
                 summaries[mode].complete() ? "yes" : "NO"});
      json_rows.push_back({std::string("pieri_edge_") + names[mode], wall, edge_us[mode],
                           static_cast<double>(summaries[mode].total_jobs) / wall});
    }
    std::cout << t.to_string();
  }
  const double edge_speedup = edge_us[1] > 0.0 ? edge_us[0] / edge_us[1] : 0.0;
  bool solutions_agree =
      summaries[0].solutions.size() == summaries[1].solutions.size();
  if (solutions_agree) {
    const auto ka = sched::canonical_solution_set(summaries[0].solutions);
    const auto kb = sched::canonical_solution_set(summaries[1].solutions);
    for (std::size_t i = 0; i < ka.size() && solutions_agree; ++i) {
      for (std::size_t c = 0; c < ka[i].size(); ++c) {
        if (std::abs(ka[i][c] - kb[i][c]) > 1e-6) {
          solutions_agree = false;
          break;
        }
      }
    }
  }
  ok = ok && solutions_agree;
  std::printf("  per-edge speedup: %.1fx (tentpole claim: >= 2x)\n", edge_speedup);
  std::printf("  compiled and interpreted solution sets agree: %s\n\n",
              solutions_agree ? "yes" : "NO");

  // ---- parallel runs on the thread runtime -----------------------------------
  char title[96];
  std::snprintf(title, sizeof title,
                "parallel Pieri on the message-passing runtime, m=%zu p=%zu q=%zu (%zu jobs)",
                pb.m, pb.p, pb.q, static_cast<std::size_t>(summaries[1].total_jobs));
  util::Table t(title);
  t.set_header({"ranks", "solutions", "complete", "jobs", "peak instances", "wall (s)"});
  const std::vector<int> widths = tiny ? std::vector<int>{2, 3} : std::vector<int>{2, 3, 5};
  for (const int ranks : widths) {
    const auto report = sched::run_pieri(input, ranks);
    ok = ok && report.complete();
    t.add_row({util::Table::cell(static_cast<std::size_t>(ranks)),
               util::Table::cell(report.solutions.size()),
               report.complete() ? "yes" : "NO",
               util::Table::cell(static_cast<std::size_t>(report.total_jobs)),
               util::Table::cell(report.peak_active_instances),
               util::Table::cell(report.session.wall_seconds, 2)});
    if (ranks == widths.back()) {
      json_rows.push_back({"pieri_parallel_compiled", report.session.wall_seconds, 0.0,
                           static_cast<double>(report.total_jobs) / report.session.wall_seconds});
    }
  }
  std::cout << t.to_string() << "\n";

  // ---- tree shape: available parallelism per level ---------------------------
  schubert::PatternPoset poset(pb);
  const auto jobs = poset.jobs_per_level();
  std::printf("available parallelism per level (jobs that can run concurrently):\n  ");
  for (const auto j : jobs) std::printf("%llu ", static_cast<unsigned long long>(j));
  const std::uint64_t width_cap = *std::max_element(jobs.begin(), jobs.end());
  std::printf("\n  -> few processors active near the root; the width saturates at d=%llu.\n\n",
              static_cast<unsigned long long>(width_cap));

  // ---- level-synchronous projection -----------------------------------------
  // With per-level job counts J_l and per-job cost c_l, P processors need
  // sum_l c_l * ceil(J_l / P); measure c_l from the sequential compiled run.
  const auto& seq = summaries[1];
  std::vector<double> level_cost(seq.levels.size());
  for (std::size_t i = 0; i < seq.levels.size(); ++i) {
    level_cost[i] = seq.levels[i].seconds / static_cast<double>(seq.levels[i].jobs);
  }
  util::Table proj("level-synchronous projection (measured per-level job costs, compiled)");
  proj.set_header({"CPUs", "time (s)", "speedup", "efficiency"});
  double t1 = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) t1 += level_cost[i] * static_cast<double>(jobs[i]);
  for (const std::size_t cpus : {1u, 2u, 4u, 8u, 16u, 32u, 55u}) {
    double tp = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto waves = (jobs[i] + cpus - 1) / cpus;
      tp += level_cost[i] * static_cast<double>(waves);
    }
    proj.add_row({util::Table::cell(cpus), util::Table::cell(tp, 2),
                  util::Table::cell(t1 / tp, 1),
                  util::Table::cell(100.0 * t1 / tp / static_cast<double>(cpus), 0) + "%"});
  }
  std::cout << proj.to_string();
  std::printf("\nthe tree width (max %llu) caps the useful processor count for this instance;\n"
              "larger (m,p,q) widen exponentially (Table IV), which is the paper's point.\n",
              static_cast<unsigned long long>(width_cap));

  if (const char* json_path = std::getenv("PPH_BENCH_JSON");
      json_path != nullptr && json_path[0] != '\0') {
    write_bench_json(json_path, json_rows, tiny, edge_speedup, solutions_agree);
  }
  std::printf("\ncompiled/interpreted agreement and completeness everywhere: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
