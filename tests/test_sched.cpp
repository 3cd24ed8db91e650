// Tests for the parallel schedulers: static and dynamic runs must track
// every path exactly once and agree with the sequential baseline; the two
// policies must produce *identical* PathResult sets (the scheduler-
// independence invariant every new policy, including BatchSteal, must
// also satisfy); the dynamic protocol must survive worker death (failure
// injection); the parallel Pieri scheduler must reproduce the sequential
// solver's solution set on multiple worker counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sched/pieri_scheduler.hpp"
#include "sched/session.hpp"
#include "scheduler_fixture.hpp"

namespace {

namespace sched = pph::sched;
using pph::linalg::Complex;
using pph::schubert::PieriProblem;
using pph::testing::SchedulerTest;
using pph::util::Prng;

TEST_F(SchedulerTest, StaticCyclicMatchesSequential) {
  const auto report = sched::run_paths(workload_, 4, sched::SessionOptions().with_policy(sched::Policy::kStatic));
  expect_matches_baseline(report);
  EXPECT_EQ(report.converged + report.diverged + report.failed, starts_.size());
}

TEST_F(SchedulerTest, StaticBlockMatchesSequential) {
  const auto report =
      sched::run_paths(workload_, 3,
                       sched::SessionOptions()
                           .with_policy(sched::Policy::kStatic)
                           .with_assignment(sched::StaticAssignment::kBlock));
  expect_matches_baseline(report);
}

TEST_F(SchedulerTest, StaticSingleRankDegeneratesToSequential) {
  const auto report = sched::run_paths(workload_, 1, sched::SessionOptions().with_policy(sched::Policy::kStatic));
  expect_matches_baseline(report);
  EXPECT_GT(report.rank_busy_seconds[0], 0.0);
}

TEST_F(SchedulerTest, DynamicMatchesSequential) {
  const auto report = sched::run_paths(workload_, 4);
  expect_matches_baseline(report);
}

TEST_F(SchedulerTest, DynamicManyWorkers) {
  const auto report = sched::run_paths(workload_, 9);
  expect_matches_baseline(report);
  // Master does not track.
  EXPECT_EQ(report.rank_busy_seconds[0], 0.0);
}

TEST_F(SchedulerTest, DynamicSurvivesWorkerDeath) {
  // Rank 2 dies on its 4th job.
  const auto opts =
      sched::SessionOptions().with_fault_plan(pph::mp::FaultPlan().kill_announced(2, 3));
  const auto report = sched::run_paths(workload_, 4, opts);
  // All paths still tracked exactly once, by the surviving workers.
  expect_matches_baseline(report);
  std::set<int> workers;
  for (const auto& tp : report.paths) workers.insert(tp.worker);
  EXPECT_TRUE(workers.count(1) == 1 && workers.count(3) == 1);
}

TEST_F(SchedulerTest, StatusTalliesAgreeAcrossSchedulers) {
  const auto st = sched::run_paths(workload_, 5, sched::SessionOptions().with_policy(sched::Policy::kStatic));
  const auto dy = sched::run_paths(workload_, 5);
  EXPECT_EQ(status_multiset(st), status_multiset(dy));
  EXPECT_EQ(st.converged, dy.converged);
  EXPECT_EQ(st.diverged, dy.diverged);
}

TEST_F(SchedulerTest, StaticAndDynamicProduceIdenticalPathResults) {
  // The scheduler-independence invariant: policy changes who tracks a path
  // and when, never the numerics, so the PathResult sets must be identical
  // bit for bit (status, step counts, endpoints).
  const auto st = sched::run_paths(workload_, 4, sched::SessionOptions().with_policy(sched::Policy::kStatic));
  const auto dy = sched::run_paths(workload_, 4);
  expect_identical_results(st, dy);
}

TEST_F(SchedulerTest, BusyTimesCoverAllRanks) {
  const auto report = sched::run_paths(workload_, 4, sched::SessionOptions().with_policy(sched::Policy::kStatic));
  ASSERT_EQ(report.rank_busy_seconds.size(), 4u);
  for (const double b : report.rank_busy_seconds) EXPECT_GE(b, 0.0);
}

// ---- parallel Pieri --------------------------------------------------------

TEST(ParallelPieri, MatchesSequentialSolutionSet221) {
  const PieriProblem pb{2, 2, 1};
  pph::util::Prng rng(42);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto sequential = pph::schubert::solve_pieri(input);
  ASSERT_TRUE(sequential.complete());

  const auto parallel = sched::run_pieri(input, 4);
  EXPECT_TRUE(parallel.complete());
  // One walk, drained by one worker or by three slaves: the same solution
  // set, bit for bit.
  EXPECT_EQ(sched::canonical_solution_set(parallel.solutions),
            sched::canonical_solution_set(sequential.solutions));
}

TEST(ParallelPieri, WorkerCountInvariance) {
  const PieriProblem pb{2, 2, 1};
  pph::util::Prng rng(43);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto two = sched::run_pieri(input, 2);
  const auto five = sched::run_pieri(input, 5);
  EXPECT_TRUE(two.complete());
  EXPECT_TRUE(five.complete());
  EXPECT_EQ(two.solutions.size(), five.solutions.size());
  EXPECT_EQ(two.total_jobs, five.total_jobs);
}

TEST(ParallelPieri, JobsPerLevelMatchPoset) {
  const PieriProblem pb{3, 2, 1};  // the Table III instance
  pph::util::Prng rng(44);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto report = sched::run_pieri(input, 3);
  EXPECT_TRUE(report.complete());
  pph::schubert::PatternPoset poset(pb);
  const auto expected = poset.jobs_per_level();
  ASSERT_EQ(report.levels.size(), expected.size());
  // Retries can only add jobs; a clean run matches exactly.
  if (report.failures == 0 && report.total_jobs == poset.total_jobs()) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(report.levels[i].jobs, expected[i]) << "level " << i + 1;
    }
  }
  EXPECT_EQ(report.solutions.size(), 55u);
}

TEST(ParallelPieri, PeakActiveInstancesBounded) {
  // The Pieri-tree memory argument (paper section III-C): the master never
  // holds more than a couple of poset levels' worth of instances.
  const PieriProblem pb{2, 2, 1};
  pph::util::Prng rng(45);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto report = sched::run_pieri(input, 3);
  pph::schubert::PatternPoset poset(pb);
  EXPECT_LE(report.peak_active_instances, poset.pattern_count());
  EXPECT_GT(report.peak_active_instances, 0u);
}

TEST(ParallelPieri, RequiresTwoRanks) {
  const PieriProblem pb{2, 2, 0};
  pph::util::Prng rng(46);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  EXPECT_THROW(sched::run_pieri(input, 1), std::invalid_argument);
}

TEST(ParallelPieri, DeformationDeterministic) {
  const std::vector<std::size_t> pivots{4, 7};
  const auto a = pph::sched::instance_deformation(7, pivots, 0);
  const auto b = pph::sched::instance_deformation(7, pivots, 0);
  EXPECT_EQ(a.gamma, b.gamma);
  EXPECT_EQ(a.detour_s, b.detour_s);
  const auto c = pph::sched::instance_deformation(7, pivots, 1);
  EXPECT_NE(a.gamma, c.gamma);
  const auto d = pph::sched::instance_deformation(8, pivots, 0);
  EXPECT_NE(a.gamma, d.gamma);
}

}  // namespace
