// Tests for the batched work-stealing scheduler (DESIGN.md section 2,
// "Batched work stealing"): adaptive batch sizing, result identity with the
// sequential baseline and the other schedulers, forced steals, and
// kill-a-slave fail injection.  Option validation is pinned for every
// policy by test_session's RunAndServeRejectTheSameOptions.

#include <gtest/gtest.h>

#include <set>

#include "sched/session.hpp"
#include "scheduler_fixture.hpp"

namespace {

namespace sched = pph::sched;
using pph::sched::guided_chunk_size;
using pph::testing::SchedulerTest;

/// Batch-steal session options shared by every test below.
sched::SessionOptions batch_opts() {
  return sched::SessionOptions().with_policy(sched::Policy::kBatchSteal);
}

// ---- adaptive batch sizing -------------------------------------------------

TEST(GuidedChunkSize, ShrinksAsThePoolDrains) {
  const std::size_t workers = 4;
  std::size_t last = guided_chunk_size(1000, workers, 2.0, 1);
  EXPECT_EQ(last, 125u);  // 1000 / (2 * 4)
  for (std::size_t remaining = 500; remaining > 0; remaining /= 2) {
    const std::size_t chunk = guided_chunk_size(remaining, workers, 2.0, 1);
    EXPECT_LE(chunk, last);
    last = chunk;
  }
}

TEST(GuidedChunkSize, RespectsFloorAndRemaining) {
  EXPECT_EQ(guided_chunk_size(1000, 4, 2.0, 200), 200u);  // floor wins
  EXPECT_EQ(guided_chunk_size(3, 4, 2.0, 8), 3u);         // never beyond the pool
  EXPECT_EQ(guided_chunk_size(0, 4, 2.0, 1), 0u);         // empty pool
  EXPECT_EQ(guided_chunk_size(7, 64, 2.0, 1), 1u);        // tail degenerates to per-job
  EXPECT_EQ(guided_chunk_size(100, 4, 2.0, 0), 12u);      // min_chunk 0 treated as 1
}

TEST(GuidedChunkSize, RejectsBadArguments) {
  EXPECT_THROW(guided_chunk_size(10, 0, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(guided_chunk_size(10, 4, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(guided_chunk_size(10, 4, -1.0, 1), std::invalid_argument);
}

// ---- correctness against the baseline --------------------------------------

TEST_F(SchedulerTest, BatchMatchesSequential) {
  const auto report = sched::run_paths(workload_, 4, batch_opts());
  expect_matches_baseline(report);
  EXPECT_EQ(report.converged + report.diverged + report.failed, starts_.size());
  // Master does not track.
  EXPECT_EQ(report.rank_busy_seconds[0], 0.0);
  // Batching must beat per-job dispatch on message count: 120 paths on 3
  // slaves with factor 2 takes far fewer than 120 hand-outs.
  EXPECT_LT(report.dispatches, starts_.size() / 2);
}

TEST_F(SchedulerTest, BatchManyWorkers) {
  const auto report = sched::run_paths(workload_, 9, batch_opts());
  expect_matches_baseline(report);
}

TEST_F(SchedulerTest, BatchSingleSlaveDegeneratesToSequential) {
  const auto report = sched::run_paths(workload_, 2, batch_opts());
  expect_matches_baseline(report);
  EXPECT_EQ(report.steals, 0u);  // nobody to steal from
}

TEST_F(SchedulerTest, BatchProducesIdenticalResultsToStaticAndDynamic) {
  // The scheduler-independence invariant extended to the batch policy.
  const auto st = sched::run_paths(workload_, 4, sched::SessionOptions().with_policy(sched::Policy::kStatic));
  const auto dy = sched::run_paths(workload_, 4);
  const auto ba = sched::run_paths(workload_, 4, batch_opts());
  expect_identical_results(st, ba);
  expect_identical_results(dy, ba);
}

// ---- work stealing ----------------------------------------------------------

TEST_F(SchedulerTest, SkewedSeedForcesSteals) {
  // factor << 1 makes the first hand-out grab (nearly) the whole pool, so
  // the remaining slaves can only refill by stealing.
  const auto opts = batch_opts().with_batch(/*shrink_factor=*/0.1);
  const auto report = sched::run_paths(workload_, 4, opts);
  expect_matches_baseline(report);
  EXPECT_GE(report.steals, 1u);
}

TEST_F(SchedulerTest, StealsRebalanceAcrossWorkers) {
  const auto opts = batch_opts().with_batch(/*shrink_factor=*/0.1);
  const auto report = sched::run_paths(workload_, 4, opts);
  // With stealing, no single slave tracks everything.
  std::set<int> workers;
  for (const auto& tp : report.paths) workers.insert(tp.worker);
  EXPECT_GE(workers.size(), 2u);
}

// ---- failure injection -------------------------------------------------------

TEST_F(SchedulerTest, BatchSurvivesWorkerDeath) {
  // Rank 2 dies on its 4th path.
  const auto opts = batch_opts().with_fault_plan(pph::mp::FaultPlan().kill_announced(2, 3));
  const auto report = sched::run_paths(workload_, 4, opts);
  // All paths still tracked, by the surviving workers; the master
  // re-queues the dead slave's batch (including unreported results).
  expect_matches_baseline(report);
  std::set<int> workers;
  for (const auto& tp : report.paths) workers.insert(tp.worker);
  EXPECT_TRUE(workers.count(1) == 1 && workers.count(3) == 1);
  EXPECT_EQ(report.rank_busy_seconds[2], 0.0);  // died before reporting
}

TEST_F(SchedulerTest, BatchDeathUnderStealPressure) {
  // Death and stealing interact: the skewed seed concentrates the pool on
  // one slave, the kill hook removes another mid-run.
  const auto opts = batch_opts()
                        .with_batch(/*shrink_factor=*/0.1)
                        .with_fault_plan(pph::mp::FaultPlan().kill_announced(1, 2));
  const auto report = sched::run_paths(workload_, 4, opts);
  expect_matches_baseline(report);
}

// ---- latency robustness ------------------------------------------------------

TEST_F(SchedulerTest, BatchWithInjectedLatencyStillMatches) {
  const auto opts = batch_opts().with_latency(0.002);
  const auto report = sched::run_paths(workload_, 4, opts);
  expect_matches_baseline(report);
}

}  // namespace
