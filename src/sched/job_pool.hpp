#pragma once
// Shared definitions for the parallel path-tracking schedulers: the
// workload (a homotopy plus its start solutions, replicated read-only on
// every rank exactly as each MPI process holds the system), message tags,
// serialization of path results, and the run report.  The protocols built
// on these definitions are described in DESIGN.md section 2.

#include <iterator>

#include "homotopy/tracker.hpp"
#include "mp/comm.hpp"

namespace pph::sched {

using homotopy::PathResult;
using homotopy::PathStatus;
using linalg::CVector;

/// Message tags of the scheduler protocols: one scoped enum so every tag
/// any policy, source, or store control message uses is defined (and
/// collision-checked) in a single place.  `mp::Comm` traffics in plain int
/// tags, so call sites use the `kTag*` constants below; new protocol
/// messages add an enumerator here and a constant beside the others.
enum class MessageTag : int {
  kJob = 1,          // master -> slave: one framed job (FCFS) / implicit (static)
  kResult = 2,       // slave -> master: tracked path result
  kStop = 3,         // master -> slave: terminate the busy-wait loop
  kBusy = 4,         // slave -> master: per-rank busy-seconds report
  kDead = 5,         // slave -> master: failure injection (tests): rank dies
  // Batch-steal protocol (DESIGN.md section 2, "Batched work stealing").
  kBatch = 6,        // master -> slave: batch of framed jobs
  kBatchDone = 7,    // slave -> master: batched results + implicit refill request
  kStealOrder = 8,   // master -> victim: donate half your queue to `thief`
  kStealReply = 9,   // victim -> thief: stolen framed jobs (possibly empty)
  kStealNotify = 10, // thief -> master: ownership transfer bookkeeping
  // Session checkpoint control (DESIGN.md section 7, "Resume protocol"):
  // used when a session with a result store is asked to stop early so the
  // run can be resumed from the store.
  kAbort = 11,       // master -> slave: checkpoint: drop unstarted work, flush
  kAbortFlush = 12,  // slave -> master: completed-but-unreported results
  // Supervision protocol (DESIGN.md section 11).
  kHeartbeat = 13,   // slave -> master: periodic liveness beacon (empty payload)
  // Request reliability (DESIGN.md section 13).
  kCancel = 14,      // master -> slave: stop tracking job id (uint64 payload)
  // Sentinel: keep last.  detail::kAllTags must list every enumerator
  // above; the static_asserts below force the list (and therefore the
  // collision check) to stay complete.
  kSentinelCount_,
};

constexpr int tag(MessageTag t) { return static_cast<int>(t); }

namespace detail {
constexpr int kAllTags[] = {
    tag(MessageTag::kJob),        tag(MessageTag::kResult),
    tag(MessageTag::kStop),       tag(MessageTag::kBusy),
    tag(MessageTag::kDead),       tag(MessageTag::kBatch),
    tag(MessageTag::kBatchDone),  tag(MessageTag::kStealOrder),
    tag(MessageTag::kStealReply), tag(MessageTag::kStealNotify),
    tag(MessageTag::kAbort),      tag(MessageTag::kAbortFlush),
    tag(MessageTag::kHeartbeat),  tag(MessageTag::kCancel),
};
constexpr bool tags_unique() {
  for (std::size_t i = 0; i < std::size(kAllTags); ++i) {
    for (std::size_t j = i + 1; j < std::size(kAllTags); ++j) {
      if (kAllTags[i] == kAllTags[j]) return false;
    }
  }
  return true;
}
constexpr bool tags_positive() {
  for (const int t : kAllTags) {
    if (t <= 0) return false;  // mp::kAnyTag is -1; 0 is reserved
  }
  return true;
}
}  // namespace detail
static_assert(std::size(detail::kAllTags) + 1 ==
                  static_cast<std::size_t>(MessageTag::kSentinelCount_),
              "a MessageTag enumerator is missing from detail::kAllTags "
              "(the collision check would silently skip it)");
static_assert(detail::tags_unique(), "MessageTag values collide");
static_assert(detail::tags_positive(), "MessageTag values must be positive");

// Legacy-style spellings used throughout the protocol code.
inline constexpr int kTagJob = tag(MessageTag::kJob);
inline constexpr int kTagResult = tag(MessageTag::kResult);
inline constexpr int kTagStop = tag(MessageTag::kStop);
inline constexpr int kTagBusy = tag(MessageTag::kBusy);
inline constexpr int kTagDead = tag(MessageTag::kDead);
inline constexpr int kTagBatch = tag(MessageTag::kBatch);
inline constexpr int kTagBatchDone = tag(MessageTag::kBatchDone);
inline constexpr int kTagStealOrder = tag(MessageTag::kStealOrder);
inline constexpr int kTagStealReply = tag(MessageTag::kStealReply);
inline constexpr int kTagStealNotify = tag(MessageTag::kStealNotify);
inline constexpr int kTagAbort = tag(MessageTag::kAbort);
inline constexpr int kTagAbortFlush = tag(MessageTag::kAbortFlush);
inline constexpr int kTagHeartbeat = tag(MessageTag::kHeartbeat);
inline constexpr int kTagCancel = tag(MessageTag::kCancel);

/// A path-tracking workload shared by all ranks.
struct PathWorkload {
  const homotopy::Homotopy* homotopy = nullptr;
  const std::vector<CVector>* starts = nullptr;
  homotopy::TrackerOptions tracker;

  std::size_t size() const { return starts->size(); }
};

/// One tracked path with provenance.
struct TrackedPath {
  std::size_t index = 0;
  int worker = 0;
  double seconds = 0.0;
  /// Tree level of the job (Pieri sources stamp it master-side in
  /// consume(), before the sink sees the record -- slaves never know it,
  /// so it is NOT part of the result wire format).  0 for flat path pools.
  std::uint32_t level = 0;
  PathResult result;
};

/// Outcome of a parallel run, assembled on rank 0.
struct ParallelRunReport {
  std::vector<TrackedPath> paths;          // sorted by path index
  double wall_seconds = 0.0;
  std::vector<double> rank_busy_seconds;   // tracking time per rank
  std::size_t converged = 0;
  std::size_t diverged = 0;
  std::size_t failed = 0;
  std::size_t expired = 0;                 // kDeadlineExpired (synthesized)
  std::size_t cancelled = 0;               // kCancelled (cooperative stop)
  std::size_t dispatches = 0;              // master job/batch hand-outs
  std::size_t steals = 0;                  // successful slave-to-slave steals

  void tally();
};

/// Pack / unpack a path result message (index + worker + timing + result).
std::vector<std::byte> pack_tracked_path(const TrackedPath& tp);
TrackedPath unpack_tracked_path(const std::vector<std::byte>& payload);

/// Scheduler-independence invariant (DESIGN.md section 2): two reports over
/// the same workload must hold bit-identical PathResult sets -- status,
/// counters, t_reached, residual, and endpoint coordinates.  Shared by the
/// tests and the ablation bench's CI guard so the checks cannot drift.
bool identical_path_results(const ParallelRunReport& a, const ParallelRunReport& b);

/// Pack / unpack a batch of path results (the batch scheduler reports a
/// whole exhausted batch in one message to amortize per-message latency).
std::vector<std::byte> pack_tracked_path_batch(const std::vector<TrackedPath>& tps);
std::vector<TrackedPath> unpack_tracked_path_batch(const std::vector<std::byte>& payload);

/// Guided chunk size (OpenMP schedule(guided) style): a share of the
/// remaining jobs that shrinks as the pool drains, so early hand-outs are
/// big (few messages) and the tail stays balanced.  Shared by the batch
/// scheduler and the cluster simulator's guided/batch policies.
std::size_t guided_chunk_size(std::size_t remaining, std::size_t workers, double factor,
                              std::size_t min_chunk);

/// Sleep the calling rank for `seconds` (0 is a no-op): the schedulers'
/// simulated per-message cost, charged on the sender before each send.
void inject_latency(double seconds);

}  // namespace pph::sched
