// Tests for the unified scheduler sessions (sched/session.hpp): run() and
// serve() must reject the same invalid options through their one shared
// validation path, the Pieri tree source must ride both dispatch policies
// with one solution set, fault-plan fail injection must cover the Pieri
// scheduler (death re-queue), and the checkpoint control
// (stop_after_results) must stop a session early without losing results.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "sched/pieri_scheduler.hpp"
#include "sched/stream_source.hpp"
#include "scheduler_fixture.hpp"

namespace {

using pph::linalg::Complex;
using pph::mp::FaultPlan;
using pph::schubert::PieriProblem;
using pph::sched::Policy;
using pph::sched::SessionOptions;
using pph::sched::SupervisorOptions;
using pph::testing::SchedulerTest;
using pph::util::Prng;

// ---- validation parity -------------------------------------------------------

TEST_F(SchedulerTest, RunAndServeRejectTheSameOptions) {
  // A drain and a serve share one validation path: every invalid option
  // throws from both, before any rank starts.
  const std::vector<double> burst(starts_.size(), 0.0);
  const auto expect_rejected = [&](const std::string& what, const SessionOptions& opts,
                                   int ranks) {
    SCOPED_TRACE(what + " under " + pph::sched::policy_name(opts.policy));
    pph::sched::VectorJobSource source(workload_);
    pph::sched::DiscardSink sink;
    EXPECT_THROW(pph::sched::Session(source, sink, opts).run(ranks), std::invalid_argument);
    pph::sched::VectorJobSource inner(workload_);
    pph::sched::StreamJobSource stream(inner, burst);
    EXPECT_THROW(pph::sched::Session(stream, sink, opts).serve(ranks), std::invalid_argument);
  };
  for (const Policy policy : {Policy::kFCFS, Policy::kBatchSteal}) {
    const auto base = [policy] { return SessionOptions().with_policy(policy); };
    const auto supervised = [&](SupervisorOptions so) { return base().with_supervision(so); };
    expect_rejected("a fault on the master",
                    base().with_fault_plan(FaultPlan().kill_announced(0, 1)), 4);
    expect_rejected("a fault on rank >= ranks",
                    base().with_fault_plan(FaultPlan().kill_announced(4, 1)), 4);
    expect_rejected("an any-rank fault without an on_job trigger",
                    supervised(SupervisorOptions())
                        .with_fault_plan(FaultPlan().add(
                            {pph::mp::kAnyFaultRank, pph::mp::FaultKind::kDieSilently, 0,
                             std::nullopt, 0.0})),
                    4);
    expect_rejected("a silent death without supervision",
                    base().with_fault_plan(FaultPlan().kill(2, 3)), 4);
    expect_rejected("a hang without supervision", base().with_fault_plan(FaultPlan().hang(1, 0)),
                    4);
    expect_rejected("no slave left alive",
                    supervised(SupervisorOptions())
                        .with_fault_plan(FaultPlan().kill(1, 0).kill(2, 0).kill(3, 0)),
                    4);
    expect_rejected("heartbeat 0", supervised(SupervisorOptions().with_heartbeat(0.0)), 4);
    expect_rejected("miss budget 0", supervised(SupervisorOptions().with_miss_budget(0)), 4);
    expect_rejected("death multiplier < 1",
                    supervised(SupervisorOptions().with_miss_budget(25, 0.5)), 4);
    expect_rejected("ewma alpha 0", supervised(SupervisorOptions().with_ewma_alpha(0.0)), 4);
    expect_rejected("ewma alpha > 1", supervised(SupervisorOptions().with_ewma_alpha(1.5)), 4);
    expect_rejected("max attempts 0", supervised(SupervisorOptions().with_max_attempts(0)), 4);
    expect_rejected("one rank", base(), 1);
  }
  for (const double factor : {0.0, -1.0}) {
    expect_rejected("factor " + std::to_string(factor),
                    SessionOptions().with_policy(Policy::kBatchSteal).with_batch(factor), 4);
  }

  // The Pieri facade forwards its plan into the same validation.
  Prng rng(46);
  const auto input = pph::schubert::random_pieri_input(PieriProblem{2, 2, 0}, rng);
  EXPECT_THROW(pph::sched::run_pieri(
                   input, 4, SessionOptions().with_fault_plan(FaultPlan().kill_announced(0, 1))),
               std::invalid_argument);
}

TEST_F(SchedulerTest, FcfsHonorsInitialJobsPerSlave) {
  SessionOptions opts;
  opts.policy = Policy::kFCFS;
  opts.initial_jobs_per_slave = 3;
  const auto report = pph::sched::run_paths(workload_, 4, opts);
  expect_matches_baseline(report);
}

// ---- checkpoint control -----------------------------------------------------

TEST_F(SchedulerTest, StopAfterResultsStopsEarly) {
  pph::sched::VectorJobSource source(workload_);
  pph::sched::InMemoryReportSink sink;
  SessionOptions opts;
  opts.stop_after_results = 10;
  pph::sched::Session session(source, sink, opts);
  const auto stats = session.run(4);
  EXPECT_TRUE(stats.stopped_early);
  EXPECT_GE(stats.accepted, 10u);
  EXPECT_LT(stats.accepted, starts_.size());
  const auto report = sink.report(stats);
  // Every accepted result is a real, correctly tracked path.
  for (const auto& tp : report.paths) {
    EXPECT_EQ(static_cast<int>(tp.result.status),
              static_cast<int>(baseline_[tp.index].status));
  }
}

TEST_F(SchedulerTest, StaticPolicyRejectsEarlyStop) {
  SessionOptions opts;
  opts.policy = Policy::kStatic;
  opts.stop_after_results = 10;
  EXPECT_THROW(pph::sched::run_paths(workload_, 3, opts), std::invalid_argument);
}

// ---- the Pieri tree on both policies ---------------------------------------

// Two runs must produce equal canonical solution keys -- tracking is
// deterministic per edge, so the policies must agree to the bit.  The key
// comes from the shared sched::canonical_solution_set (the same helper the
// ablation bench's CI guard uses, so the checks cannot drift).
using pph::sched::canonical_solution_set;

TEST(ParallelPieriSession, BatchStealMatchesFcfsSolutionSet) {
  const PieriProblem pb{2, 2, 1};
  Prng rng(42);
  const auto input = pph::schubert::random_pieri_input(pb, rng);

  const auto fcfs = pph::sched::run_pieri(input, 4);
  ASSERT_TRUE(fcfs.complete());

  const auto batch =
      pph::sched::run_pieri(input, 4, SessionOptions().with_policy(Policy::kBatchSteal));
  EXPECT_TRUE(batch.complete());
  EXPECT_EQ(batch.total_jobs, fcfs.total_jobs);
  ASSERT_EQ(batch.levels.size(), fcfs.levels.size());
  for (std::size_t i = 0; i < fcfs.levels.size(); ++i) {
    EXPECT_EQ(batch.levels[i].jobs, fcfs.levels[i].jobs) << "level " << i + 1;
  }
  // Per-job FCFS dispatches every job exactly once (the baseline the
  // (3,2,1) batching test below measures against).
  EXPECT_EQ(fcfs.session.dispatches, fcfs.total_jobs);

  // Identical solution sets, bit for bit.
  const auto a = canonical_solution_set(fcfs.solutions);
  const auto b = canonical_solution_set(batch.solutions);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (std::size_t k = 0; k < a[i].size(); ++k) {
      EXPECT_EQ(a[i][k].real(), b[i][k].real());
      EXPECT_EQ(a[i][k].imag(), b[i][k].imag());
    }
  }
}

TEST(ParallelPieriSession, BatchStealBatchesDispatches) {
  // Level batches: the batch policy must hand out fewer, larger messages
  // than per-job FCFS on the same tree.  A clean FCFS run dispatches every
  // job exactly once (dispatches == total_jobs, and job counts are
  // policy-invariant -- asserted on the smaller tree above), so the
  // per-job baseline is total_jobs: no second full solve needed, which
  // keeps this suite inside the sanitizer-leg time budget.
  const PieriProblem pb{3, 2, 1};  // 252 jobs
  Prng rng(44);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto batch =
      pph::sched::run_pieri(input, 4, SessionOptions().with_policy(Policy::kBatchSteal));
  ASSERT_TRUE(batch.complete());
  EXPECT_LT(batch.session.dispatches, (batch.total_jobs * 2) / 3);
}

TEST(ParallelPieriSession, RejectsStaticPolicy) {
  const PieriProblem pb{2, 2, 0};
  Prng rng(46);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  EXPECT_THROW(pph::sched::run_pieri(input, 3, SessionOptions().with_policy(Policy::kStatic)),
               std::invalid_argument);
}

// ---- Pieri fail injection -----------------------------------------------------

TEST(ParallelPieriSession, SurvivesWorkerDeathUnderFcfs) {
  const PieriProblem pb{2, 2, 1};
  Prng rng(42);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto healthy = pph::sched::run_pieri(input, 4);
  ASSERT_TRUE(healthy.complete());

  // Rank 2 dies on its 4th edge.
  const auto report = pph::sched::run_pieri(
      input, 4, SessionOptions().with_fault_plan(FaultPlan().kill_announced(2, 3)));
  // The master re-queues the dead slave's edges; the survivors finish the
  // tree with the full solution set.
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.solutions.size(), healthy.solutions.size());
  const auto a = canonical_solution_set(healthy.solutions);
  const auto b = canonical_solution_set(report.solutions);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ParallelPieriSession, SurvivesWorkerDeathUnderBatchSteal) {
  const PieriProblem pb{2, 2, 1};
  Prng rng(43);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto report = pph::sched::run_pieri(input, 4,
                                            SessionOptions()
                                                .with_policy(Policy::kBatchSteal)
                                                .with_fault_plan(FaultPlan().kill_announced(1, 2)));
  EXPECT_TRUE(report.complete());
}

}  // namespace
