// Tests for the supervision layer (DESIGN.md section 11) and its
// deterministic chaos harness (mp/fault.hpp): seeded fault plans, heartbeat
// liveness tracking, silent-death and hang detection (kTagDead never sent),
// speculative re-dispatch of stragglers, poison-job quarantine, the
// all-workers-lost failsafe, and a seeded chaos matrix sweeping fault plans
// across FCFS/BatchSteal x drain/serve that asserts zero lost jobs and
// bit-identical solution sets against a fault-free run.
//
// Every fault below is injected from a declarative seeded plan, so each
// test replays the same failure on every run -- no sleeps hoping a race
// shows up.  Supervision windows are sized for sanitizer builds: the
// heartbeat is 10 ms and a death verdict takes ~0.4 s of silence.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "mp/fault.hpp"
#include "sched/session.hpp"
#include "sched/stream_source.hpp"
#include "scheduler_fixture.hpp"

namespace {

namespace sched = pph::sched;
namespace mp = pph::mp;
using pph::testing::SchedulerTest;

// Supervision knobs used throughout: 10 ms heartbeats, suspect after 0.2 s
// of silence, dead at 0.4 s.  Large enough that sanitizer-slow slaves never
// trip it while healthy, small enough to keep the suite fast.
sched::SupervisorOptions test_supervisor() {
  return sched::SupervisorOptions().with_heartbeat(0.01).with_miss_budget(20, 2.0);
}

// ---- seeded fault plans -----------------------------------------------------

void expect_same_actions(const mp::FaultPlan& a, const mp::FaultPlan& b) {
  ASSERT_EQ(a.actions().size(), b.actions().size());
  for (std::size_t i = 0; i < a.actions().size(); ++i) {
    const auto& x = a.actions()[i];
    const auto& y = b.actions()[i];
    EXPECT_EQ(x.rank, y.rank);
    EXPECT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind));
    EXPECT_EQ(x.after_jobs, y.after_jobs);
    EXPECT_EQ(x.on_job, y.on_job);
    EXPECT_DOUBLE_EQ(x.seconds, y.seconds);
  }
}

TEST(FaultPlan, RandomIsSeedDeterministic) {
  const auto a = mp::FaultPlan::random(99, 4);
  const auto b = mp::FaultPlan::random(99, 4);
  expect_same_actions(a, b);
  EXPECT_FALSE(a.empty());
  const auto c = mp::FaultPlan::random(100, 4);
  // Different seed, different plan (fixed seeds: deterministic check).
  bool differs = a.actions().size() != c.actions().size();
  for (std::size_t i = 0; !differs && i < a.actions().size(); ++i) {
    differs = a.actions()[i].rank != c.actions()[i].rank ||
              a.actions()[i].kind != c.actions()[i].kind ||
              a.actions()[i].after_jobs != c.actions()[i].after_jobs ||
              a.actions()[i].seconds != c.actions()[i].seconds;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, RandomAlwaysLeavesASurvivor) {
  mp::ChaosOptions greedy;
  greedy.max_terminal = 10;  // far more than the world has slaves
  const auto plan = mp::FaultPlan::random(5, 4, greedy);
  std::size_t terminal = 0;
  for (const auto& a : plan.actions()) {
    if (mp::fault_is_terminal(a.kind)) ++terminal;
    EXPECT_GE(a.rank, 1);  // rank 0 (the master) is never targeted
    EXPECT_LT(a.rank, 4);
  }
  EXPECT_LE(terminal, 2u);  // 3 slaves -> at most 2 terminal faults
  // A world too small for a surviving slave gets an empty plan.
  EXPECT_TRUE(mp::FaultPlan::random(5, 2).empty());
}

TEST(FaultPlan, InjectorFiresAtJobBoundaries) {
  mp::FaultPlan plan;
  plan.kill(2, 3).straggle(1, 0, 0.25).poison(17, mp::FaultKind::kDieSilently);
  mp::FaultInjector inj(plan, 4);
  EXPECT_TRUE(inj.active());
  // Rank 2 survives jobs 0..2, dies at its 4th job boundary.
  EXPECT_FALSE(inj.on_job_start(2, 0, 100).has_value());
  EXPECT_FALSE(inj.on_job_start(2, 2, 101).has_value());
  const auto f = inj.on_job_start(2, 3, 102);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, mp::FaultKind::kDieSilently);
  // The straggler arms its sleep on the first boundary and keeps it.
  EXPECT_DOUBLE_EQ(inj.straggle_seconds(1), 0.0);
  EXPECT_FALSE(inj.on_job_start(1, 0, 200).has_value());
  EXPECT_DOUBLE_EQ(inj.straggle_seconds(1), 0.25);
  // The poison job kills every rank that picks it up, repeatedly.
  EXPECT_TRUE(inj.on_job_start(3, 5, 17).has_value());
  EXPECT_TRUE(inj.on_job_start(1, 9, 17).has_value());
  EXPECT_FALSE(inj.on_job_start(3, 6, 18).has_value());
}

// ---- uncooperative death and hang, drain mode -------------------------------
// The victim never sends kTagDead: the only way the session can finish with
// a full result set is the heartbeat-miss verdict.  Speculation is off so
// recovery must go through the death re-queue (the speculation test below
// exercises the other path).

TEST_F(SchedulerTest, FcfsSurvivesSilentDeathByHeartbeatMiss) {
  // Whichever survivor starts the pool's last job sleeps 0.1 s first (half
  // the suspect window), so the other survivor has nothing to do for ~10
  // heartbeats and must beacon, however slow the build is.  Without that
  // window a slow survivor may never idle and heartbeats stays 0.
  const std::uint64_t last_job = starts_.size() - 1;
  const auto opts =
      sched::SessionOptions()
          .with_fault_plan(mp::FaultPlan().kill(2, 3).add(
              {mp::kAnyFaultRank, mp::FaultKind::kStraggle, 0, last_job, 0.1}))
          .with_supervision(test_supervisor().without_speculation());
  sched::VectorJobSource source(workload_);
  sched::InMemoryReportSink sink;
  sched::Session session(source, sink, opts);
  const auto stats = session.run(4);
  EXPECT_EQ(stats.supervision.deaths_detected, 1u);
  EXPECT_EQ(stats.supervision.deaths_announced, 0u);
  EXPECT_GE(stats.supervision.suspects, 1u);
  EXPECT_GE(stats.supervision.requeued_jobs, 1u);
  EXPECT_EQ(stats.supervision.quarantined, 0u);
  EXPECT_GT(stats.supervision.heartbeats, 0u);
  expect_matches_baseline(sink.report(stats));
}

TEST_F(SchedulerTest, FcfsSurvivesHangByHeartbeatMiss) {
  // A hung slave keeps its thread parked on the mailbox (the world must
  // still join) but goes completely silent; the supervisor must tell the
  // difference between "slow" and "gone" by the silence window alone.
  const auto opts = sched::SessionOptions()
                        .with_fault_plan(mp::FaultPlan().hang(1, 2))
                        .with_supervision(test_supervisor().without_speculation());
  sched::VectorJobSource source(workload_);
  sched::InMemoryReportSink sink;
  sched::Session session(source, sink, opts);
  const auto stats = session.run(4);
  EXPECT_EQ(stats.supervision.deaths_detected, 1u);
  EXPECT_EQ(stats.supervision.deaths_announced, 0u);
  EXPECT_GE(stats.supervision.requeued_jobs, 1u);
  expect_matches_baseline(sink.report(stats));
}

TEST_F(SchedulerTest, BatchStealSurvivesSilentDeathByHeartbeatMiss) {
  // The batch victim dies holding most of its first guided batch, so the
  // re-queue recovers a whole chunk, and any thief pointed at the corpse
  // must be refilled by the death cleanup instead of waiting forever.
  const auto opts = sched::SessionOptions()
                        .with_policy(sched::Policy::kBatchSteal)
                        .with_fault_plan(mp::FaultPlan().kill(1, 2))
                        .with_supervision(test_supervisor().without_speculation());
  sched::VectorJobSource source(workload_);
  sched::InMemoryReportSink sink;
  sched::Session session(source, sink, opts);
  const auto stats = session.run(4);
  EXPECT_EQ(stats.supervision.deaths_detected, 1u);
  EXPECT_EQ(stats.supervision.deaths_announced, 0u);
  EXPECT_GE(stats.supervision.requeued_jobs, 1u);
  expect_matches_baseline(sink.report(stats));
}

TEST_F(SchedulerTest, BatchStealSurvivesHangByHeartbeatMiss) {
  const auto opts = sched::SessionOptions()
                        .with_policy(sched::Policy::kBatchSteal)
                        .with_fault_plan(mp::FaultPlan().hang(3, 1))
                        .with_supervision(test_supervisor().without_speculation());
  sched::VectorJobSource source(workload_);
  sched::InMemoryReportSink sink;
  sched::Session session(source, sink, opts);
  const auto stats = session.run(4);
  EXPECT_EQ(stats.supervision.deaths_detected, 1u);
  EXPECT_EQ(stats.supervision.deaths_announced, 0u);
  expect_matches_baseline(sink.report(stats));
}

// ---- uncooperative death under serve ----------------------------------------

TEST_F(SchedulerTest, ServeSurvivesSilentDeathWithZeroLoss) {
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(inner, burst);
  sched::InMemoryReportSink sink;
  sched::Session session(stream, sink,
                         sched::SessionOptions()
                             .with_fault_plan(mp::FaultPlan().kill(2, 3))
                             .with_supervision(test_supervisor().without_speculation()));
  const auto stats = session.serve(4);
  EXPECT_TRUE(stats.service.drained());
  EXPECT_EQ(stats.service.completed, starts_.size());
  EXPECT_EQ(stats.service.quarantined, 0u);
  EXPECT_EQ(stats.supervision.deaths_detected, 1u);
  EXPECT_EQ(stats.supervision.deaths_announced, 0u);
  expect_matches_baseline(sink.report(stats));
}

TEST_F(SchedulerTest, ServeBatchStealSurvivesHangWithZeroLoss) {
  const std::vector<double> burst(starts_.size(), 0.0);
  sched::VectorJobSource inner(workload_);
  sched::StreamJobSource stream(inner, burst);
  sched::InMemoryReportSink sink;
  sched::Session session(stream, sink,
                         sched::SessionOptions()
                             .with_policy(sched::Policy::kBatchSteal)
                             .with_fault_plan(mp::FaultPlan().hang(1, 2))
                             .with_supervision(test_supervisor().without_speculation()));
  const auto stats = session.serve(4);
  EXPECT_TRUE(stats.service.drained());
  EXPECT_EQ(stats.supervision.deaths_detected, 1u);
  EXPECT_EQ(stats.supervision.deaths_announced, 0u);
  expect_matches_baseline(sink.report(stats));
}

// ---- cooperative deaths --------------------------------------------------------

TEST_F(SchedulerTest, AnnouncedDeathUnderSupervisionNeedsNoSilenceVerdict) {
  // A kDieAnnounced action sends the cooperative kTagDead: the supervisor
  // counts it as announced, no silence verdict is ever needed.
  sched::VectorJobSource source(workload_);
  sched::InMemoryReportSink sink;
  sched::Session session(source, sink,
                         sched::SessionOptions()
                             .with_fault_plan(mp::FaultPlan().kill_announced(2, 3))
                             .with_supervision(test_supervisor()));
  const auto stats = session.run(4);
  EXPECT_EQ(stats.supervision.deaths_announced, 1u);
  EXPECT_EQ(stats.supervision.deaths_detected, 0u);
  expect_matches_baseline(sink.report(stats));
}

TEST_F(SchedulerTest, AnnouncedDeathNeedsNoSupervisor) {
  // A cooperative death is visible without supervision, and the
  // announced-death counter still tallies it.
  sched::VectorJobSource source(workload_);
  sched::InMemoryReportSink sink;
  sched::Session session(
      source, sink,
      sched::SessionOptions().with_fault_plan(mp::FaultPlan().kill_announced(2, 3)));
  const auto stats = session.run(4);
  EXPECT_EQ(stats.supervision.deaths_announced, 1u);
  EXPECT_EQ(stats.supervision.heartbeats, 0u);
  expect_matches_baseline(sink.report(stats));
}

// ---- speculative re-dispatch ------------------------------------------------

TEST_F(SchedulerTest, SpeculationOutrunsAStraggler) {
  // Rank 2 sleeps 0.5 s before every job.  Once the pool drains and the
  // EWMA is seeded, its in-flight job goes over-age and a copy is handed to
  // an idle slave, whose result lands first (the straggler is still
  // asleep).  The loser's duplicate is dropped, so the bits cannot depend
  // on who won -- which expect_matches_baseline then proves.
  const auto opts =
      sched::SessionOptions()
          .with_fault_plan(mp::FaultPlan().straggle(2, 0, 0.5))
          .with_supervision(sched::SupervisorOptions()
                                .with_heartbeat(0.02)
                                .with_miss_budget(50, 2.0)  // 1 s: outlasts the sleep
                                .with_speculation(/*factor=*/1.5, /*min_samples=*/4));
  sched::VectorJobSource source(workload_);
  sched::InMemoryReportSink sink;
  sched::Session session(source, sink, opts);
  const auto stats = session.run(4);
  EXPECT_GE(stats.supervision.speculative_dispatches, 1u);
  EXPECT_GE(stats.supervision.speculation_wins, 1u);
  EXPECT_EQ(stats.supervision.deaths_detected, 0u);  // slow is not dead
  EXPECT_EQ(stats.supervision.quarantined, 0u);
  EXPECT_GT(stats.supervision.ewma_job_seconds, 0.0);
  expect_matches_baseline(sink.report(stats));
}

// ---- poison-job quarantine --------------------------------------------------

TEST_F(SchedulerTest, PoisonJobIsQuarantinedAfterMaxAttempts) {
  // Job 7 kills whichever slave executes it.  Two victims die (both by
  // silence); the attempt ledger then fails the job as a quarantined
  // PathResult instead of feeding it a third slave, and every other path is
  // tracked bit-identically.
  const auto opts =
      sched::SessionOptions()
          .with_fault_plan(mp::FaultPlan().poison(7, mp::FaultKind::kDieSilently))
          .with_supervision(
              test_supervisor().without_speculation().with_max_attempts(2));
  sched::VectorJobSource source(workload_);
  sched::InMemoryReportSink sink;
  sched::Session session(source, sink, opts);
  const auto stats = session.run(5);
  EXPECT_EQ(stats.supervision.deaths_detected, 2u);
  EXPECT_EQ(stats.supervision.quarantined, 1u);
  const auto report = sink.report(stats);
  ASSERT_EQ(report.paths.size(), starts_.size());  // zero lost jobs
  for (std::size_t i = 0; i < report.paths.size(); ++i) {
    EXPECT_EQ(report.paths[i].index, i);
    if (i == 7) {
      EXPECT_EQ(report.paths[i].result.status, pph::homotopy::PathStatus::kFailed);
      EXPECT_EQ(report.paths[i].worker, -1);  // synthesized on the master
    } else {
      EXPECT_EQ(static_cast<int>(report.paths[i].result.status),
                static_cast<int>(baseline_[i].status));
    }
  }
}

TEST_F(SchedulerTest, AllWorkersLostFailsafeFailsRemainingJobs) {
  // With only two slaves and a generous attempt budget, the poison job
  // outlives the whole pool.  The failsafe must fail everything left in the
  // ready queue instead of spinning forever, and the report still accounts
  // for all 120 jobs.
  const auto opts =
      sched::SessionOptions()
          .with_fault_plan(mp::FaultPlan().poison(7, mp::FaultKind::kDieSilently))
          .with_supervision(
              test_supervisor().without_speculation().with_max_attempts(10));
  sched::VectorJobSource source(workload_);
  sched::InMemoryReportSink sink;
  sched::Session session(source, sink, opts);
  const auto stats = session.run(3);
  EXPECT_EQ(stats.supervision.deaths_detected, 2u);
  EXPECT_GE(stats.supervision.quarantined, 1u);
  const auto report = sink.report(stats);
  ASSERT_EQ(report.paths.size(), starts_.size());
  std::size_t failed_by_quarantine = 0;
  for (std::size_t i = 0; i < report.paths.size(); ++i) {
    EXPECT_EQ(report.paths[i].index, i);
    if (report.paths[i].worker == -1) ++failed_by_quarantine;
  }
  EXPECT_EQ(failed_by_quarantine, stats.supervision.quarantined);
}

// ---- the chaos matrix -------------------------------------------------------
// Seeded random fault plans (one terminal fault, one straggler, one
// send-delayer) swept across policy x mode.  Zero lost jobs and bit-identity
// with a fault-free run, every time: with one death per plan the attempt
// ledger never reaches the quarantine threshold, so the full solution set
// must come back exactly.

mp::ChaosOptions chaos_options() {
  mp::ChaosOptions opts;
  opts.max_terminal = 1;
  opts.max_jobs_before_fault = 6;
  return opts;
}

/// One JSONL row per chaos run when PPH_CHAOS_REPORT names a file (the CI
/// chaos-smoke step collects it as an artifact).  The stat structs render
/// through their to_json() functions (sched/api.hpp), so a chaos row and a
/// bench row carry the same nested objects.
void append_chaos_report(const char* policy, const char* mode, std::uint64_t seed,
                         const sched::SessionStats& stats,
                         std::optional<double> deadline = std::nullopt) {
  const char* path = std::getenv("PPH_CHAOS_REPORT");
  if (path == nullptr) return;
  std::ofstream out(path, std::ios::app);
  out << "{\"policy\":\"" << policy << "\",\"mode\":\"" << mode << "\",\"seed\":" << seed
      << ",\"deadline_seconds\":";
  if (deadline.has_value()) {
    out << *deadline;
  } else {
    out << "null";
  }
  out << ",\"wall_seconds\":" << stats.wall_seconds
      << ",\"service\":" << sched::to_json(stats.service)
      << ",\"supervision\":" << sched::to_json(stats.supervision)
      << ",\"reliability\":" << sched::to_json(stats.reliability) << "}\n";
}

class ChaosMatrix : public SchedulerTest {
 protected:
  sched::SessionOptions chaos_session(sched::Policy policy, std::uint64_t seed) {
    return sched::SessionOptions()
        .with_policy(policy)
        .with_fault_plan(mp::FaultPlan::random(seed, 4, chaos_options()))
        .with_supervision(test_supervisor());
  }

  void expect_recovered(const sched::SessionStats& stats,
                        const sched::ParallelRunReport& report) {
    // Exactly one terminal fault per plan, never announced: the death (or
    // hang) must have been detected by heartbeat miss, and the job ledger
    // must never have reached quarantine.
    EXPECT_EQ(stats.supervision.deaths_detected, 1u);
    EXPECT_EQ(stats.supervision.deaths_announced, 0u);
    EXPECT_EQ(stats.supervision.quarantined, 0u);
    // Zero lost jobs, bit-identical to the fault-free baseline run.
    expect_matches_baseline(report);
    expect_identical_results(report, *healthy_);
  }

  void SetUp() override {
    SchedulerTest::SetUp();
    healthy_ = std::make_unique<sched::ParallelRunReport>(sched::run_paths(workload_, 4));
  }

  std::unique_ptr<sched::ParallelRunReport> healthy_;
};

TEST_F(ChaosMatrix, FcfsDrainSurvivesSeededChaos) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    sched::VectorJobSource source(workload_);
    sched::InMemoryReportSink sink;
    sched::Session session(source, sink, chaos_session(sched::Policy::kFCFS, seed));
    const auto stats = session.run(4);
    append_chaos_report("fcfs", "drain", seed, stats);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_recovered(stats, sink.report(stats));
  }
}

TEST_F(ChaosMatrix, BatchStealDrainSurvivesSeededChaos) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    sched::VectorJobSource source(workload_);
    sched::InMemoryReportSink sink;
    sched::Session session(source, sink, chaos_session(sched::Policy::kBatchSteal, seed));
    const auto stats = session.run(4);
    append_chaos_report("batchsteal", "drain", seed, stats);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_recovered(stats, sink.report(stats));
  }
}

TEST_F(ChaosMatrix, FcfsServeSurvivesSeededChaos) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const std::vector<double> burst(starts_.size(), 0.0);
    sched::VectorJobSource inner(workload_);
    sched::StreamJobSource stream(inner, burst);
    sched::InMemoryReportSink sink;
    sched::Session session(stream, sink, chaos_session(sched::Policy::kFCFS, seed));
    const auto stats = session.serve(4);
    append_chaos_report("fcfs", "serve", seed, stats);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(stats.service.drained());
    expect_recovered(stats, sink.report(stats));
  }
}

TEST_F(ChaosMatrix, BatchStealServeSurvivesSeededChaos) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const std::vector<double> burst(starts_.size(), 0.0);
    sched::VectorJobSource inner(workload_);
    sched::StreamJobSource stream(inner, burst);
    sched::InMemoryReportSink sink;
    sched::Session session(stream, sink, chaos_session(sched::Policy::kBatchSteal, seed));
    const auto stats = session.serve(4);
    append_chaos_report("batchsteal", "serve", seed, stats);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_TRUE(stats.service.drained());
    expect_recovered(stats, sink.report(stats));
  }
}

// ---- the chaos x deadline matrix (DESIGN.md section 13) ---------------------
// Seeded random fault plans crossed with per-request deadlines: a mid
// deadline that splits the pool into completed and expired, and a tight
// deadline that cancels nearly everything in flight.  Whatever the fault
// and the budget do to an individual request, the conservation identity
// must hold exactly: every request ends in exactly one terminal bucket
// (completed / expired / shed / dropped / quarantined), none lost, none
// double-counted, and no request retried past its attempt budget.

class ChaosDeadlineMatrix : public SchedulerTest {
 protected:
  sched::SessionOptions chaos_session(sched::Policy policy, std::uint64_t seed,
                                      std::optional<double> deadline) {
    mp::ChaosOptions chaos;
    chaos.max_terminal = 1;
    chaos.max_jobs_before_fault = 6;
    auto rel = sched::ReliabilityOptions()
                   .with_attempts(2, 0.001, 2.0, 0.2)
                   .with_jitter_seed(seed);
    if (deadline.has_value()) rel.with_deadline(*deadline);
    return sched::SessionOptions()
        .with_policy(policy)
        .with_fault_plan(mp::FaultPlan::random(seed, 4, chaos))
        .with_supervision(test_supervisor())
        .with_reliability(rel);
  }

  void run_cell(sched::Policy policy, const char* policy_name, std::uint64_t seed,
                std::optional<double> deadline) {
    SCOPED_TRACE(std::string(policy_name) + " seed " + std::to_string(seed) +
                 " deadline " + (deadline ? std::to_string(*deadline) : "none"));
    const std::vector<double> burst(starts_.size(), 0.0);
    sched::VectorJobSource inner(workload_);
    sched::StreamJobSource stream(inner, burst);
    sched::InMemoryReportSink sink;
    sched::Session session(stream, sink, chaos_session(policy, seed, deadline));
    const auto stats = session.serve(4);
    append_chaos_report(policy_name, "serve-deadline", seed, stats, deadline);
    // The conservation identity, exact under chaos: every request terminal
    // exactly once (with a burst trace nothing is shed at the door here,
    // so the terminal buckets must sum to the request count).
    EXPECT_EQ(stats.service.arrivals, starts_.size());
    EXPECT_EQ(stats.service.terminal_requests(), starts_.size());
    EXPECT_TRUE(stats.service.drained());
    // Budget cap: at most one retry per request (max_attempts = 2).
    EXPECT_LE(stats.reliability.retried, starts_.size());
    // The sink saw each surviving request exactly once.
    const auto report = sink.report(stats);
    EXPECT_EQ(report.paths.size(),
              stats.service.completed + stats.service.expired + stats.service.quarantined);
    std::size_t expired_records = 0;
    for (std::size_t i = 1; i < report.paths.size(); ++i) {
      EXPECT_LT(report.paths[i - 1].index, report.paths[i].index) << "duplicate terminal";
    }
    for (const auto& tp : report.paths) {
      if (tp.result.status == pph::homotopy::PathStatus::kDeadlineExpired) {
        ++expired_records;
        EXPECT_EQ(tp.worker, -1);  // synthesized on the master, never a stub
      }
    }
    EXPECT_EQ(expired_records, stats.service.expired);
  }
};

TEST_F(ChaosDeadlineMatrix, FcfsConservesEveryRequestUnderMidDeadline) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    run_cell(sched::Policy::kFCFS, "fcfs", seed, 0.25);
  }
}

TEST_F(ChaosDeadlineMatrix, FcfsConservesEveryRequestUnderTightDeadline) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    run_cell(sched::Policy::kFCFS, "fcfs", seed, 0.002);
  }
}

TEST_F(ChaosDeadlineMatrix, BatchStealConservesEveryRequestUnderDeadlines) {
  run_cell(sched::Policy::kBatchSteal, "batchsteal", 11, 0.25);
  run_cell(sched::Policy::kBatchSteal, "batchsteal", 11, 0.002);
}

// ---- front-door validation --------------------------------------------------
// Fault-plan and supervisor-knob rejections of the master/slave policies are
// pinned for run() and serve() alike by test_session's
// RunAndServeRejectTheSameOptions; the static policy is run()-only.

TEST_F(SchedulerTest, StaticPolicyRejectsSupervisionAndFaults) {
  sched::VectorJobSource source(workload_);
  sched::DiscardSink sink;
  sched::Session supervised(source, sink,
                            sched::SessionOptions()
                                .with_policy(sched::Policy::kStatic)
                                .with_supervision(test_supervisor()));
  EXPECT_THROW(supervised.run(3), std::invalid_argument);
  sched::VectorJobSource source2(workload_);
  sched::Session faulted(
      source2, sink,
      sched::SessionOptions()
          .with_policy(sched::Policy::kStatic)
          .with_fault_plan(mp::FaultPlan().kill_announced(1, 0)));
  EXPECT_THROW(faulted.run(3), std::invalid_argument);
}

}  // namespace
