#include "sched/session.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "mp/fault.hpp"
#include "sched/reliability.hpp"
#include "sched/stream_source.hpp"
#include "util/timer.hpp"

namespace pph::sched {

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kFCFS: return "fcfs";
    case Policy::kStatic: return "static";
    case Policy::kBatchSteal: return "batch-steal";
  }
  return "?";
}

ParallelRunReport InMemoryReportSink::report(const SessionStats& stats) {
  ParallelRunReport r;
  r.paths = std::move(paths_);
  paths_.clear();
  r.wall_seconds = stats.wall_seconds;
  r.rank_busy_seconds = stats.rank_busy_seconds;
  r.dispatches = stats.dispatches;
  r.steals = stats.steals;
  r.tally();
  return r;
}

// ---------------------------------------------------------------------------
// VectorJobSource
// ---------------------------------------------------------------------------

VectorJobSource::VectorJobSource(const PathWorkload& workload) : workload_(&workload) {
  for (std::size_t i = 0; i < workload.size(); ++i) ready_.push_back(i);
}

std::size_t VectorJobSource::skip_completed(const std::unordered_set<JobId>& done) {
  const std::size_t before = ready_.size();
  std::erase_if(ready_, [&](JobId id) { return done.count(id) != 0; });
  return before - ready_.size();
}

JobId VectorJobSource::pop() {
  const JobId id = ready_.front();
  ready_.pop_front();
  return id;
}

std::vector<std::byte> VectorJobSource::job_payload(JobId id) const {
  mp::Packer p;
  p.write(id);
  return p.take();
}

homotopy::TrackerWorkspace VectorJobSource::make_workspace() const {
  return homotopy::TrackerWorkspace(*workload_->homotopy);
}

PathResult VectorJobSource::execute(const std::vector<std::byte>& payload,
                                    homotopy::TrackerWorkspace& ws) const {
  mp::Unpacker u(payload);
  const auto index = static_cast<std::size_t>(u.read<std::uint64_t>());
  return homotopy::track_path(*workload_->homotopy, (*workload_->starts)[index],
                              workload_->tracker, ws);
}

PathResult VectorJobSource::execute(const std::vector<std::byte>& payload,
                                    homotopy::TrackerWorkspace& ws,
                                    const ExecContext& exec) const {
  // A default context takes the exact 2-arg path: no options copy, no poll,
  // bit-identical numerics (the reliability-disabled invariant).
  if (!exec.cancelled && !exec.degraded) return execute(payload, ws);
  mp::Unpacker u(payload);
  const auto index = static_cast<std::size_t>(u.read<std::uint64_t>());
  homotopy::TrackerOptions topts = workload_->tracker;
  topts.cancel_poll = exec.cancelled;
  if (exec.degraded) {
    // Brownout level >= kNoEndgame: shed the expensive final stretch --
    // endgame geometry off, compensated (double-double) refinement off
    // everywhere.  Converged endpoints are still certified by the end
    // corrector, just without the extra-precision passes.
    topts.endgame.enabled = false;
    topts.endgame.dd_refine = false;
    topts.corrector.dd_refine = false;
    topts.end_corrector.dd_refine = false;
  }
  return homotopy::track_path(*workload_->homotopy, (*workload_->starts)[index], topts, ws);
}

namespace {

// ---------------------------------------------------------------------------
// Shared master loop.  One ownership map, one duplicate-suppression set, one
// death-requeue and one checkpoint/abort implementation; policies only decide
// how jobs reach slaves.
// ---------------------------------------------------------------------------

/// Master-side supervision state (DESIGN.md section 11), live only when
/// SupervisorOptions::enabled.  Liveness is inferred from traffic: every
/// message (result, steal bookkeeping, explicit kTagHeartbeat) refreshes
/// the sender's last-seen stamp.
struct SupervisionState {
  util::WallTimer clock;
  std::vector<double> last_seen;                    // per rank, clock seconds
  std::vector<bool> suspect;
  std::unordered_map<JobId, double> dispatched_at;  // primary dispatch stamp
  std::unordered_map<JobId, int> spec_owner;        // live speculative copy
  std::unordered_map<JobId, std::size_t> attempts;  // death-coincidence ledger
  double ewma = 0.0;                                // per-job service time
  std::size_t ewma_samples = 0;
  double last_sweep = 0.0;
};

struct MasterContext {
  mp::Comm& comm;
  JobSource& source;
  ResultSink& sink;
  const SessionOptions& opts;
  SessionStats& stats;
  const int ranks;

  std::unordered_map<JobId, int> owner;   // in-flight job -> owning slave
  std::vector<std::size_t> owned_count;   // per-rank in-flight job count
  std::vector<bool> dead;
  std::vector<bool> busy_reported;        // kTagBusy already folded into stats
  bool aborting = false;
  SupervisionState sup;

  // The arrival gate of a serve() (nullptr in a drain) and the reliability
  // layer (DESIGN.md section 13), serve() only; rel/overload are nullptr
  // too when ReliabilityOptions::enabled is false.
  StreamJobSource* stream = nullptr;
  ReliabilityState* rel = nullptr;
  OverloadController* overload = nullptr;

  explicit MasterContext(mp::Comm& c, JobSource& src, ResultSink& snk,
                         const SessionOptions& o, SessionStats& st, int r)
      : comm(c), source(src), sink(snk), opts(o), stats(st), ranks(r),
        owned_count(static_cast<std::size_t>(r), 0),
        dead(static_cast<std::size_t>(r), false),
        busy_reported(static_cast<std::size_t>(r), false) {
    sup.last_seen.assign(static_cast<std::size_t>(r), 0.0);
    sup.suspect.assign(static_cast<std::size_t>(r), false);
  }

  bool sup_on() const { return opts.supervisor.enabled; }

  std::size_t alive_slaves() const {
    std::size_t n = 0;
    for (int s = 1; s < ranks; ++s) {
      if (!dead[static_cast<std::size_t>(s)]) ++n;
    }
    return n;
  }

  bool work_remains() const {
    return !owner.empty() || source.ready() > 0 ||
           (rel != nullptr && rel->pending_retries() > 0);
  }

  /// Scheduler bits stamped into every dispatched frame.
  std::uint32_t frame_flags() const {
    std::uint32_t flags = 0;
    if (rel != nullptr) flags |= kFrameCancellable;
    if (overload != nullptr && overload->at_least(BrownoutLevel::kNoEndgame)) {
      flags |= kFrameDegraded;
    }
    return flags;
  }

  /// Any message from a slave proves it alive.
  void note_message(int src) {
    if (!sup_on() || src <= 0 || src >= ranks) return;
    const auto su = static_cast<std::size_t>(src);
    sup.last_seen[su] = sup.clock.seconds();
    if (!dead[su]) sup.suspect[su] = false;  // dead is terminal
  }

  /// Stamp a (re-)dispatched job for EWMA sampling and straggler aging.
  void note_dispatch(JobId id) {
    if (sup_on()) sup.dispatched_at[id] = sup.clock.seconds();
  }

  /// How long a slave may stay silent before suspicion: the idle heartbeat
  /// window, or -- for a busy slave -- a multiple of the per-job EWMA
  /// (whichever is larger, so long jobs on slow builds are not misread as
  /// hangs).
  double silence_allowance(int s) const {
    const auto& so = opts.supervisor;
    const double idle_window = static_cast<double>(so.miss_budget) * so.heartbeat_seconds;
    const double busy_grace =
        owned_count[static_cast<std::size_t>(s)] > 0 ? so.hang_factor * sup.ewma : 0.0;
    return std::max(idle_window, busy_grace);
  }

  /// A result landed on the master: retire it from the ownership map,
  /// let the source consume it (possibly creating new jobs), and forward
  /// counted results to the sink.  Results for jobs no longer in flight
  /// (duplicates after a death re-queue) are dropped.  With a speculative
  /// copy in flight, whichever worker reported first wins -- the loser's
  /// later duplicate falls into the same drop path, so the sink sees each
  /// job exactly once and the bits never depend on who won.
  void accept_result(TrackedPath tp) {
    const auto it = owner.find(tp.index);
    if (it == owner.end()) return;
    --owned_count[static_cast<std::size_t>(it->second)];
    owner.erase(it);
    if (sup_on()) {
      if (const auto sp = sup.spec_owner.find(tp.index); sp != sup.spec_owner.end()) {
        --owned_count[static_cast<std::size_t>(sp->second)];
        if (tp.worker == sp->second) ++stats.supervision.speculation_wins;
        sup.spec_owner.erase(sp);
      }
      if (const auto d = sup.dispatched_at.find(tp.index); d != sup.dispatched_at.end()) {
        const double sample = sup.clock.seconds() - d->second;
        sup.dispatched_at.erase(d);
        sup.ewma = sup.ewma_samples == 0
                       ? sample
                       : opts.supervisor.ewma_alpha * sample +
                             (1.0 - opts.supervisor.ewma_alpha) * sup.ewma;
        ++sup.ewma_samples;
      }
    }
    // Retry-with-backoff (DESIGN.md section 13): a genuinely failed attempt
    // with budget left is withheld from the sink and re-admitted after its
    // backoff.  The attempt ledger is the SAME one the supervisor's
    // quarantine charges on worker death, so deaths and failures count
    // against one budget.  The exhausted (or past-deadline) attempt falls
    // through and delivers its real kFailed result.
    if (rel != nullptr && tp.worker >= 0 &&
        tp.result.status == PathStatus::kFailed) {
      const RequestBudget& budget = rel->options().budget;
      const std::size_t used = ++sup.attempts[tp.index];
      const auto deadline = rel->deadline_of(tp.index);
      const double now = stream->now();
      if (used < budget.max_attempts && (!deadline.has_value() || now < *deadline)) {
        const double wait = backoff_seconds(budget, rel->options().jitter_seed, tp.index, used);
        rel->schedule_retry(tp.index, now + wait);
        ++stats.reliability.retried;
        stats.reliability.backoff_wait.add(wait);
        return;
      }
    }
    sup.attempts.erase(tp.index);
    if (rel != nullptr) rel->on_terminal(tp.index);
    if (source.consume(tp)) {
      sink.accept(tp);
      ++stats.accepted;
    }
  }

  /// Quarantine: report the job as a failed PathResult so the service keeps
  /// its zero-loss accounting without re-queueing a killer input forever.
  void quarantine(JobId id) {
    TrackedPath tp;
    tp.index = id;
    tp.worker = -1;  // synthesized on the master, no worker tracked it
    tp.result.status = PathStatus::kFailed;
    // In serve mode the stream accounts the request in its own quarantined
    // bucket (NOT completed); drains go through plain consume().
    const bool fresh = stream != nullptr
                           ? stream->consume_synthetic(
                                 tp, StreamJobSource::SyntheticKind::kQuarantined)
                           : source.consume(tp);
    if (fresh) {
      sink.accept(tp);
      ++stats.accepted;
    }
    ++stats.supervision.quarantined;
    sup.attempts.erase(id);
    sup.dispatched_at.erase(id);
    if (rel != nullptr) rel->on_terminal(id);
  }

  /// Death re-queue shared by every policy: everything the dead slave still
  /// owned goes back to the front of the ready queue.  Under supervision a
  /// job inherits its live speculative copy instead of re-queueing, the
  /// attempt ledger is charged, and repeat offenders are quarantined.
  void requeue_dead(int s) {
    const auto su = static_cast<std::size_t>(s);
    if (dead[su]) return;  // silence-declared, then announced: count once
    dead[su] = true;
    owned_count[su] = 0;
    if (sup_on()) {
      // Speculative copies the dead slave held die with it; the primaries
      // are still owned elsewhere and need no re-queue.
      for (auto it = sup.spec_owner.begin(); it != sup.spec_owner.end();) {
        if (it->second == s) {
          it = sup.spec_owner.erase(it);
        } else {
          ++it;
        }
      }
    }
    std::vector<JobId> held;
    for (const auto& [id, own] : owner) {
      if (own == s) held.push_back(id);
    }
    // Descending + push_front puts the re-queued jobs at the front in
    // ascending id order.
    std::sort(held.begin(), held.end(), std::greater<>());
    for (const JobId id : held) {
      owner.erase(id);
      if (sup_on()) {
        if (const auto sp = sup.spec_owner.find(id); sp != sup.spec_owner.end()) {
          // A live speculative copy inherits the job: no re-queue, and the
          // copy's owned_count slot already carries it.
          owner.emplace(id, sp->second);
          sup.spec_owner.erase(sp);
          continue;
        }
        if (++sup.attempts[id] >= opts.supervisor.max_attempts) {
          quarantine(id);
          continue;
        }
        ++stats.supervision.requeued_jobs;
      }
      source.requeue(id);
    }
  }

  bool should_abort() const {
    return opts.stop_after_results.has_value() && stats.accepted >= *opts.stop_after_results;
  }
};

class MasterPolicy {
 public:
  virtual ~MasterPolicy() = default;
  /// Initial hand-outs before the receive loop starts.
  virtual void seed(MasterContext& ctx) = 0;
  /// Slave `s` delivered its results (or a steal refusal) and wants work.
  virtual void refill(MasterContext& ctx, int s) = 0;
  /// The ready queue may have grown (tree expansion or death re-queue):
  /// hand work to parked slaves.
  virtual void wake_parked(MasterContext& ctx) = 0;
  /// Policy-specific message (steal bookkeeping); true when handled.
  virtual bool handle(MasterContext&, const mp::Message&) { return false; }
  virtual void on_death(MasterContext&, int) {}
  /// Supervision hooks (DESIGN.md section 11): hand back a parked/idle
  /// slave to run a speculative copy (-1 when none; `exclude` is the job's
  /// current owner) ...
  virtual int claim_idle(MasterContext&, int) { return -1; }
  /// ... and deliver one framed job copy to it in this policy's transport.
  virtual void dispatch_copy(MasterContext&, int, const mp::JobFrame&) {}
};

// ---- FCFS: per-job dispatch with an idle queue (the paper's dynamic
// protocol, plus the Pieri scheduler's parking of jobless slaves) ----------

class FcfsPolicy final : public MasterPolicy {
 public:
  void seed(MasterContext& ctx) override {
    for (int s = 1; s < ctx.ranks; ++s) {
      bool got_one = false;
      for (std::size_t k = 0; k < ctx.opts.initial_jobs_per_slave; ++k) {
        if (!dispatch_one(ctx, s)) break;
        got_one = true;
      }
      // A slave seeded with nothing parks until results create jobs (tree
      // sources) or a death re-queue frees some.
      if (!got_one) idle_.push_back(s);
    }
  }

  void refill(MasterContext& ctx, int s) override {
    if (ctx.dead[static_cast<std::size_t>(s)] || ctx.aborting) return;
    idle_.push_back(s);
    wake_parked(ctx);
  }

  void wake_parked(MasterContext& ctx) override {
    if (ctx.aborting) return;
    while (!idle_.empty() && ctx.source.ready() > 0) {
      const int s = idle_.front();
      idle_.pop_front();
      if (ctx.dead[static_cast<std::size_t>(s)]) continue;
      dispatch_one(ctx, s);
    }
  }

  int claim_idle(MasterContext& ctx, int exclude) override {
    for (auto it = idle_.begin(); it != idle_.end(); ++it) {
      if (*it == exclude || ctx.dead[static_cast<std::size_t>(*it)]) continue;
      const int s = *it;
      idle_.erase(it);
      return s;
    }
    return -1;
  }

  void dispatch_copy(MasterContext& ctx, int s, const mp::JobFrame& frame) override {
    inject_latency(ctx.opts.injected_latency);
    ctx.comm.send(s, kTagJob, mp::pack_job_frame(frame));
  }

 private:
  bool dispatch_one(MasterContext& ctx, int s) {
    if (ctx.source.ready() == 0) return false;
    const JobId id = ctx.source.pop();
    mp::JobFrame frame{id, ctx.frame_flags(), ctx.source.job_payload(id)};
    inject_latency(ctx.opts.injected_latency);
    ctx.comm.send(s, kTagJob, mp::pack_job_frame(frame));
    ctx.owner.emplace(id, s);
    ctx.note_dispatch(id);
    ++ctx.owned_count[static_cast<std::size_t>(s)];
    ++ctx.stats.dispatches;
    return true;
  }

  std::deque<int> idle_;  // the paper's queue of parked slaves
};

// ---- BatchSteal: guided batches + master-brokered stealing ----------------

class BatchStealPolicy final : public MasterPolicy {
 public:
  explicit BatchStealPolicy(int ranks)
      : parked_(static_cast<std::size_t>(ranks), false),
        refused_(static_cast<std::size_t>(ranks)) {}

  void seed(MasterContext& ctx) override {
    for (int s = 1; s < ctx.ranks; ++s) refill(ctx, s);
  }

  void refill(MasterContext& ctx, int s) override {
    const auto su = static_cast<std::size_t>(s);
    if (ctx.dead[su] || ctx.aborting) return;
    if (dispatch_batch(ctx, s)) return;
    // Pool drained: broker a steal from the most loaded slave.  A load of
    // one is not worth moving (it is the victim's in-flight job).
    int victim = -1;
    std::size_t best = 1;
    for (int v = 1; v < ctx.ranks; ++v) {
      const auto vu = static_cast<std::size_t>(v);
      if (v == s || ctx.dead[vu] || refused_[su].count(v) != 0) continue;
      if (ctx.owned_count[vu] > best) {
        best = ctx.owned_count[vu];
        victim = v;
      }
    }
    if (victim >= 0) {
      inject_latency(ctx.opts.injected_latency);
      ctx.comm.send(victim, kTagStealOrder, mp::pack_steal_request({s}));
      awaiting_[victim].push_back(s);
    } else {
      parked_[su] = true;  // released by new jobs or the stop broadcast
    }
  }

  void wake_parked(MasterContext& ctx) override {
    if (ctx.aborting) return;
    for (int s = 1; s < ctx.ranks && ctx.source.ready() > 0; ++s) {
      const auto su = static_cast<std::size_t>(s);
      if (!ctx.dead[su] && parked_[su]) refill(ctx, s);
    }
  }

  bool handle(MasterContext& ctx, const mp::Message& m) override {
    if (m.tag != kTagStealNotify) return false;
    const auto src = static_cast<std::size_t>(m.source);
    mp::Unpacker u(m.payload);
    const int victim = u.read<int>();
    const auto ids = u.read_vector<std::uint64_t>();
    auto& waiting = awaiting_[victim];
    std::erase(waiting, m.source);
    if (ids.empty()) {
      refused_[src].insert(victim);
      refill(ctx, m.source);
    } else {
      for (const auto id : ids) {
        const auto it = ctx.owner.find(id);
        if (it == ctx.owner.end()) continue;  // raced with completion/death
        --ctx.owned_count[static_cast<std::size_t>(it->second)];
        it->second = m.source;
        ++ctx.owned_count[src];
      }
      ++ctx.stats.steals;
      refused_[src].clear();
    }
    return true;
  }

  void on_death(MasterContext& ctx, int s) override {
    parked_[static_cast<std::size_t>(s)] = false;
    // Unblock thieves that were waiting on the dead victim.
    std::vector<int> thieves;
    thieves.swap(awaiting_[s]);
    for (const int t : thieves) {
      if (!ctx.dead[static_cast<std::size_t>(t)]) refill(ctx, t);
    }
  }

  int claim_idle(MasterContext& ctx, int exclude) override {
    // A slave awaiting a steal reply is busy negotiating, not parked, so
    // only genuinely parked slaves are eligible.
    for (int s = 1; s < ctx.ranks; ++s) {
      const auto su = static_cast<std::size_t>(s);
      if (s == exclude || ctx.dead[su] || !parked_[su]) continue;
      parked_[su] = false;
      return s;
    }
    return -1;
  }

  void dispatch_copy(MasterContext& ctx, int s, const mp::JobFrame& frame) override {
    inject_latency(ctx.opts.injected_latency);
    ctx.comm.send(s, kTagBatch, mp::pack_job_frame_batch({frame}));
  }

 private:
  bool dispatch_batch(MasterContext& ctx, int s) {
    if (ctx.source.ready() == 0) return false;
    const auto su = static_cast<std::size_t>(s);
    const std::size_t chunk = guided_chunk_size(ctx.source.ready(), ctx.alive_slaves(),
                                                ctx.opts.factor, ctx.opts.min_batch);
    std::vector<mp::JobFrame> frames;
    frames.reserve(chunk);
    while (frames.size() < chunk && ctx.source.ready() > 0) {
      const JobId id = ctx.source.pop();
      frames.push_back({id, ctx.frame_flags(), ctx.source.job_payload(id)});
      ctx.owner.emplace(id, s);
      ctx.note_dispatch(id);
      ++ctx.owned_count[su];
    }
    inject_latency(ctx.opts.injected_latency);
    ctx.comm.send(s, kTagBatch, mp::pack_job_frame_batch(frames));
    ++ctx.stats.dispatches;
    refused_[su].clear();
    parked_[su] = false;
    return true;
  }

  std::vector<bool> parked_;
  std::vector<std::set<int>> refused_;   // victims that refused since last refill
  std::map<int, std::vector<int>> awaiting_;  // thieves awaiting a reply, per victim
};

// ---- supervision (DESIGN.md section 11) -----------------------------------

/// One death, however detected: re-queue (or quarantine) the slave's jobs,
/// let the policy clean up its bookkeeping, and hand freed work out.
void declare_dead(MasterContext& ctx, MasterPolicy& policy, int s, bool announced) {
  if (ctx.dead[static_cast<std::size_t>(s)]) return;
  if (announced) {
    ++ctx.stats.supervision.deaths_announced;
  } else {
    ++ctx.stats.supervision.deaths_detected;
  }
  ctx.requeue_dead(s);
  policy.on_death(ctx, s);
  policy.wake_parked(ctx);
}

/// The supervision sweep, run on every master tick: walk the slaves'
/// last-seen stamps through the suspect -> dead state machine, speculate
/// on over-age in-flight jobs, and fail what no surviving worker can run.
void supervise(MasterContext& ctx, MasterPolicy& policy) {
  if (!ctx.sup_on()) return;
  const auto& so = ctx.opts.supervisor;
  auto& sup = ctx.sup;
  const double now = sup.clock.seconds();
  if (now - sup.last_sweep < 0.5 * so.heartbeat_seconds) return;
  sup.last_sweep = now;

  for (int s = 1; s < ctx.ranks; ++s) {
    const auto su = static_cast<std::size_t>(s);
    if (ctx.dead[su]) continue;
    const double silent = now - sup.last_seen[su];
    const double allowance = ctx.silence_allowance(s);
    if (silent <= allowance) continue;
    if (!sup.suspect[su]) {
      sup.suspect[su] = true;
      ++ctx.stats.supervision.suspects;
    }
    if (silent > allowance * so.death_multiplier) declare_dead(ctx, policy, s, false);
  }

  // Straggler mitigation: when the pool is empty and the EWMA is seeded,
  // hand copies of the oldest over-age in-flight jobs to idle slaves.
  // First result wins in accept_result; bits cannot depend on the winner.
  // Brownout level 1 (kNoSpeculation) suppresses the copies: under
  // overload they burn capacity the queue needs (DESIGN.md section 13).
  if (so.speculate && sup.ewma_samples >= so.speculation_min_samples &&
      ctx.source.ready() == 0 && !ctx.owner.empty() &&
      !(ctx.overload != nullptr && ctx.overload->at_least(BrownoutLevel::kNoSpeculation))) {
    const double age_limit = so.speculation_factor * sup.ewma;
    std::vector<std::pair<double, JobId>> overdue;
    for (const auto& [id, at] : sup.dispatched_at) {
      if (ctx.owner.count(id) == 0 || sup.spec_owner.count(id) != 0) continue;
      if (now - at > age_limit) overdue.emplace_back(at, id);
    }
    std::sort(overdue.begin(), overdue.end());
    for (const auto& [at, id] : overdue) {
      const int s = policy.claim_idle(ctx, ctx.owner.at(id));
      if (s < 0) break;
      policy.dispatch_copy(ctx, s, {id, ctx.frame_flags(), ctx.source.job_payload(id)});
      sup.spec_owner.emplace(id, s);
      ++ctx.owned_count[static_cast<std::size_t>(s)];
      ++ctx.stats.supervision.speculative_dispatches;
    }
  }

  // Failsafe: every worker is gone but jobs remain (a poison job can
  // outlive the whole pool before its ledger fills).  Fail them through
  // the quarantine path rather than spinning forever.
  if (ctx.alive_slaves() == 0) {
    while (ctx.source.ready() > 0) ctx.quarantine(ctx.source.pop());
  }
}

// ---- the loop itself ------------------------------------------------------

/// Checkpoint shutdown (DESIGN.md section 7, "Resume protocol"): broadcast
/// kTagAbort, then drain until every alive slave has flushed.  In-flight and
/// flushed results are real completed work and still reach the sink (so a
/// resumed session re-tracks as little as possible); unstarted jobs are
/// simply dropped -- the store, not master state, is the source of truth on
/// resume.
void abort_session(MasterContext& ctx) {
  ctx.aborting = true;
  ctx.stats.stopped_early = true;
  for (int s = 1; s < ctx.ranks; ++s) {
    if (!ctx.dead[static_cast<std::size_t>(s)]) {
      inject_latency(ctx.opts.injected_latency);
      ctx.comm.send(s, kTagAbort, std::vector<std::byte>{});
    } else if (ctx.sup_on()) {
      // A dead-marked slave may be hung, not exited: the abort is what
      // releases its thread (a genuinely dead rank just absorbs it).
      ctx.comm.send(s, kTagAbort, std::vector<std::byte>{});
    }
  }
  std::size_t pending = ctx.alive_slaves();
  std::vector<bool> flushed(static_cast<std::size_t>(ctx.ranks), false);
  while (pending > 0) {
    std::optional<mp::Message> maybe;
    if (ctx.sup_on()) {
      // A slave can die uncooperatively between the broadcast and its
      // flush; a blocking recv would stall the checkpoint forever, so tick
      // and give up on anyone silent past the death window.
      maybe = ctx.comm.recv_for(ctx.opts.supervisor.heartbeat_seconds);
      if (!maybe.has_value()) {
        const double now = ctx.sup.clock.seconds();
        for (int s = 1; s < ctx.ranks; ++s) {
          const auto su = static_cast<std::size_t>(s);
          if (ctx.dead[su] || flushed[su]) continue;
          if (now - ctx.sup.last_seen[su] >
              ctx.silence_allowance(s) * ctx.opts.supervisor.death_multiplier) {
            ++ctx.stats.supervision.deaths_detected;
            ctx.requeue_dead(s);
            --pending;
          }
        }
        continue;
      }
    } else {
      maybe = ctx.comm.recv();
    }
    const mp::Message& m = *maybe;
    ctx.note_message(m.source);
    if (m.tag == kTagResult) {
      ctx.accept_result(unpack_tracked_path(m.payload));
    } else if (m.tag == kTagBatchDone || m.tag == kTagAbortFlush) {
      for (const auto& tp : unpack_tracked_path_batch(m.payload)) ctx.accept_result(tp);
      if (m.tag == kTagAbortFlush) {
        flushed[static_cast<std::size_t>(m.source)] = true;
        --pending;
      }
    } else if (m.tag == kTagDead) {
      ++ctx.stats.supervision.deaths_announced;
      ctx.requeue_dead(m.source);
      --pending;
    } else if (m.tag == kTagBusy) {
      // A fast slave's busy report can overtake the drain; fold it in here
      // so the final collection does not wait for a consumed message.
      mp::Unpacker u(m.payload);
      ctx.stats.rank_busy_seconds[static_cast<std::size_t>(m.source)] = u.read<double>();
      ctx.busy_reported[static_cast<std::size_t>(m.source)] = true;
    }
    // Steal notifies, heartbeats and the like are bookkeeping for work that
    // will never be dispatched again; ignore them.
  }
}

/// One master-side message: the master loop's only dispatch point, for
/// drains and serves alike.
void handle_master_message(MasterContext& ctx, MasterPolicy& policy, const mp::Message& m) {
  ctx.note_message(m.source);
  if (m.tag == kTagHeartbeat) {
    ++ctx.stats.supervision.heartbeats;  // liveness noted above; nothing else
  } else if (m.tag == kTagResult) {
    ctx.accept_result(unpack_tracked_path(m.payload));
    policy.refill(ctx, m.source);
    policy.wake_parked(ctx);  // tree growth may feed more than one slave
  } else if (m.tag == kTagBatchDone) {
    for (const auto& tp : unpack_tracked_path_batch(m.payload)) ctx.accept_result(tp);
    policy.refill(ctx, m.source);
    policy.wake_parked(ctx);
  } else if (m.tag == kTagDead) {
    declare_dead(ctx, policy, m.source, /*announced=*/true);
  } else {
    policy.handle(ctx, m);
  }
}

/// Shared master epilogue: release the slaves (unless an abort already
/// did), then collect busy-time reports (filtered receives skip stray
/// in-flight messages; dead slaves never report, and the abort drain may
/// have folded some reports in already).
void finish_master(MasterContext& ctx) {
  if (ctx.sup_on()) ctx.stats.supervision.ewma_job_seconds = ctx.sup.ewma;
  if (!ctx.aborting) {
    for (int s = 1; s < ctx.ranks; ++s) {
      // Under supervision the stop is broadcast to dead-marked slaves too:
      // a hung (not exited) thread wakes on it, so the join completes.
      if (!ctx.dead[static_cast<std::size_t>(s)] || ctx.sup_on()) {
        ctx.comm.send(s, kTagStop, std::vector<std::byte>{});
      }
    }
  }
  if (!ctx.sup_on()) {
    for (int s = 1; s < ctx.ranks; ++s) {
      const auto su = static_cast<std::size_t>(s);
      if (ctx.dead[su] || ctx.busy_reported[su]) continue;
      const mp::Message m = ctx.comm.recv(s, kTagBusy);
      mp::Unpacker u(m.payload);
      ctx.stats.rank_busy_seconds[su] = u.read<double>();
    }
    return;
  }
  // Under supervision a rank can have died uncooperatively without ever
  // being declared dead: a speculative copy may have completed its last job
  // before the silence sweep fired, so the loop above exited with the rank
  // still marked alive.  A blocking recv on its busy report would deadlock;
  // tick instead, and give up on anyone silent past the death window.
  const auto missing = [&] {
    for (int s = 1; s < ctx.ranks; ++s) {
      const auto su = static_cast<std::size_t>(s);
      if (!ctx.dead[su] && !ctx.busy_reported[su]) return true;
    }
    return false;
  };
  while (missing()) {
    if (auto m = ctx.comm.recv_for(ctx.opts.supervisor.heartbeat_seconds)) {
      ctx.note_message(m->source);
      const auto su = static_cast<std::size_t>(m->source);
      if (m->tag == kTagBusy) {
        mp::Unpacker u(m->payload);
        ctx.stats.rank_busy_seconds[su] = u.read<double>();
        ctx.busy_reported[su] = true;
      } else if (m->tag == kTagDead) {
        // An announced death whose jobs were all finished by speculative
        // copies: the main loop exited before this message was processed.
        ++ctx.stats.supervision.deaths_announced;
        ctx.requeue_dead(m->source);
      }
      // Heartbeats, duplicate results from speculation losers, and steal
      // bookkeeping carry no busy time; note_message above was all we owed.
      continue;
    }
    const double now = ctx.sup.clock.seconds();
    for (int s = 1; s < ctx.ranks; ++s) {
      const auto su = static_cast<std::size_t>(s);
      if (ctx.dead[su] || ctx.busy_reported[su]) continue;
      if (now - ctx.sup.last_seen[su] >
          ctx.silence_allowance(s) * ctx.opts.supervisor.death_multiplier) {
        ++ctx.stats.supervision.deaths_detected;
        ctx.requeue_dead(s);  // no jobs left to re-queue; marks the rank dead
      }
    }
  }
}

/// The reliability sweep (DESIGN.md section 13), run on every serve tick:
/// re-admit retries whose backoff elapsed, then expire requests whose
/// deadline passed.  An expired request is removed from wherever it lives
/// -- the in-flight owner map (the owner gets a kTagCancel), the ready
/// queue, or the retry heap -- and a kDeadlineExpired result is synthesized
/// so the sink sees exactly one terminal record per request.  Returns true
/// when anything changed (parked slaves should be woken / the loop should
/// re-evaluate before sleeping).  A no-op without the layer (always so in
/// a drain, which has no stream).
bool reliability_sweep(MasterContext& ctx) {
  if (ctx.rel == nullptr) return false;
  StreamJobSource& stream = *ctx.stream;
  bool changed = false;
  const double now = stream.now();
  while (const auto due = ctx.rel->pop_due_retry(now)) {
    stream.readmit(*due);
    changed = true;
  }
  const auto send_cancel = [&](int s, JobId id) {
    if (ctx.dead[static_cast<std::size_t>(s)]) return;  // absorbed anyway
    mp::Packer p;
    p.write(static_cast<std::uint64_t>(id));
    ctx.comm.send(s, kTagCancel, p.take());
  };
  while (const auto due = ctx.rel->pop_due_deadline(now)) {
    const JobId id = *due;
    if (const auto it = ctx.owner.find(id); it != ctx.owner.end()) {
      // In flight: stop waiting.  The owner (and any speculative copy) is
      // told to stop tracking; its eventual reply -- the cancelled stub or
      // even a completed result that raced the cancel -- finds no owner in
      // accept_result and is dropped, so the synthesized record below is
      // the request's one and only terminal result.
      --ctx.owned_count[static_cast<std::size_t>(it->second)];
      send_cancel(it->second, id);
      ctx.owner.erase(it);
      if (const auto sp = ctx.sup.spec_owner.find(id); sp != ctx.sup.spec_owner.end()) {
        --ctx.owned_count[static_cast<std::size_t>(sp->second)];
        send_cancel(sp->second, id);
        ctx.sup.spec_owner.erase(sp);
      }
      ctx.sup.dispatched_at.erase(id);
      ++ctx.stats.reliability.cancelled;
    } else if (stream.remove_ready(id)) {
      // Expired while still queued: shed before any worker saw it.
    } else if (!ctx.rel->cancel_retry(id)) {
      // Not in flight, not queued, not awaiting a retry: the request went
      // terminal between the heap push and this pop; nothing to synthesize.
      continue;
    }
    TrackedPath tp;
    tp.index = id;
    tp.worker = -1;  // synthesized on the master
    tp.result.status = PathStatus::kDeadlineExpired;
    if (stream.consume_synthetic(tp, StreamJobSource::SyntheticKind::kExpired)) {
      ctx.sink.accept(tp);
      ++ctx.stats.accepted;
    }
    ctx.sup.attempts.erase(id);
    ctx.rel->on_terminal(id);
    changed = true;
  }
  return changed;
}

/// The master loop (DESIGN.md sections 7 and 10), one for every drain and
/// every serve: admit arrivals as they come due, dispatch under the policy,
/// sleep until the next timed event (arrival, per-request deadline, retry
/// eligibility, serve deadline) or until a message lands, and once the
/// arrival gate is closed drain everything admitted or in flight before
/// releasing the slaves.  The gate is ctx.stream; a drain has none, so
/// every job is ready at t=0, nothing is timed, the gate is closed from the
/// start, and the loop blocks in recv() (recv_for(heartbeat) under
/// supervision) between messages.
void run_master(MasterContext& ctx, MasterPolicy& policy) {
  StreamJobSource* const stream = ctx.stream;
  if (stream != nullptr) stream->begin();
  util::WallTimer wall;
  if (stream != nullptr) {
    stream->poll();           // a trace can start at t=0 (burst workloads)
    reliability_sweep(ctx);   // deadline-0 requests expire AT admission
  }
  constexpr double kNever = std::numeric_limits<double>::infinity();
  // Serve deadline in wall seconds; a drain (or a serve without one) never closes by time.
  const double deadline =
      stream != nullptr ? ctx.opts.serve_deadline_seconds.value_or(kNever) : kNever;
  policy.seed(ctx);  // slaves with nothing to do park until work arrives
  for (;;) {
    const std::size_t admitted = stream != nullptr ? stream->poll() : 0;
    const bool swept = reliability_sweep(ctx);
    if (admitted > 0 || swept) policy.wake_parked(ctx);
    bool handled = false;
    while (auto m = ctx.comm.try_recv()) {
      handle_master_message(ctx, policy, *m);
      handled = true;
      if (ctx.should_abort()) break;
    }
    if (ctx.should_abort()) {
      abort_session(ctx);
      break;
    }
    supervise(ctx, policy);  // may free or fail work: run before the exit check
    if (wall.seconds() >= deadline) stream->close();
    if ((stream == nullptr || stream->closed()) && !ctx.work_remains()) break;
    if (handled || admitted > 0 || swept) continue;  // state changed: re-evaluate first
    // Nothing due and nothing queued: sleep until the next timed event or
    // the next message, whichever comes first; under supervision the wait
    // is additionally bounded by the heartbeat tick.
    double wait = stream != nullptr ? stream->seconds_until_next_arrival() : kNever;
    if (ctx.rel != nullptr) {
      wait = std::min(wait, ctx.rel->seconds_until_next_event(stream->now()));
    }
    wait = std::min(wait, std::max(deadline - wall.seconds(), 0.0));
    if (ctx.sup_on()) wait = std::min(wait, ctx.opts.supervisor.heartbeat_seconds);
    if (std::isinf(wait)) {
      // No timed event left: only in-flight work remains, so the next
      // state change is by message.
      handle_master_message(ctx, policy, ctx.comm.recv());
    } else if (wait > 0.0) {
      if (auto m = ctx.comm.recv_for(wait)) handle_master_message(ctx, policy, *m);
    }
    // wait == 0: an arrival or expiry is due; the sweep at the top takes it.
  }
  finish_master(ctx);
}

// ---------------------------------------------------------------------------
// Slave loops.  Fault injection is consulted at job boundaries: the
// session's FaultPlan is the single fault source.
// ---------------------------------------------------------------------------

/// A hung rank does no work and sends nothing -- not even heartbeats -- but
/// its thread stays parked on the mailbox so the world remains joinable;
/// only the master's shutdown/abort broadcast releases it.
void hang_until_released(mp::Comm& comm) {
  for (;;) {
    const mp::Message m = comm.recv();
    if (m.tag == kTagStop || m.tag == kTagAbort) return;
  }
}

/// Consult the injector at a job boundary: arms straggler sleep (and takes
/// it) as a side effect, and returns the terminal fault due now, if any --
/// the caller acts on it and returns without a busy report.
std::optional<mp::FaultKind> fault_at_job_boundary(mp::Comm& comm, mp::FaultInjector* fault,
                                                   std::size_t completed,
                                                   std::uint64_t job_id) {
  if (fault == nullptr) return std::nullopt;
  const auto terminal = fault->on_job_start(comm.rank(), completed, job_id);
  if (!terminal.has_value()) {
    mp::FaultInjector::sleep_for(fault->straggle_seconds(comm.rank()));
  }
  return terminal;
}

/// Drain every queued kTagCancel from the master into the slave's cancelled
/// set.  Cheap enough to call from the tracker's per-step poll: one mutex
/// probe of the mailbox per step.
void drain_cancels(mp::Comm& comm, std::unordered_set<std::uint64_t>& cancelled) {
  while (auto c = comm.try_recv(0, kTagCancel)) {
    mp::Unpacker u(c->payload);
    cancelled.insert(u.read<std::uint64_t>());
  }
}

/// The ExecContext for one dispatched frame: cancellable frames poll the
/// mailbox for kTagCancel once per tracker step; stale cancels for jobs this
/// slave no longer owns (stolen away, already finished) just sit in the set
/// harmlessly.
ExecContext make_exec_context(mp::Comm& comm, const mp::JobFrame& frame,
                              std::unordered_set<std::uint64_t>& cancelled) {
  ExecContext exec;
  exec.degraded = (frame.flags & kFrameDegraded) != 0;
  if ((frame.flags & kFrameCancellable) != 0) {
    exec.cancelled = [&comm, &cancelled, id = frame.id] {
      drain_cancels(comm, cancelled);
      return cancelled.count(id) != 0;
    };
  }
  return exec;
}

void run_fcfs_slave(mp::Comm& comm, const JobSource& source, const SessionOptions& opts,
                    mp::FaultInjector* fault) {
  double tracking_seconds = 0.0;
  std::size_t completed = 0;
  homotopy::TrackerWorkspace ws = source.make_workspace();
  const bool beacon = opts.supervisor.enabled;
  std::unordered_set<std::uint64_t> cancelled_ids;
  bool aborted = false;
  for (;;) {
    mp::Message m;
    if (beacon) {
      // Idle heartbeat loop: while no work is queued, tell the master once
      // per interval that this rank is alive (results themselves refresh
      // liveness, so a busy slave need not beacon).
      for (;;) {
        if (auto got = comm.recv_for(opts.supervisor.heartbeat_seconds, 0)) {
          m = std::move(*got);
          break;
        }
        comm.send(0, kTagHeartbeat, std::vector<std::byte>{});
      }
    } else {
      m = comm.recv(0);
    }
    if (m.tag == kTagStop) break;
    if (m.tag == kTagAbort) {
      aborted = true;
      break;
    }
    if (m.tag == kTagCancel) {
      // A cancel that lands between jobs: the job is gone from this slave
      // (finished, or never arrived); remember the id and move on.
      mp::Unpacker u(m.payload);
      cancelled_ids.insert(u.read<std::uint64_t>());
      continue;
    }
    const mp::JobFrame frame = mp::unpack_job_frame(m.payload);
    if (const auto f = fault_at_job_boundary(comm, fault, completed, frame.id)) {
      if (*f == mp::FaultKind::kDieAnnounced) {
        inject_latency(opts.injected_latency);
        comm.send(0, kTagDead, std::vector<std::byte>{});
      } else if (*f == mp::FaultKind::kHang) {
        hang_until_released(comm);
      }
      return;  // dies without reporting busy time (kDieSilently: no message)
    }
    util::WallTimer job_timer;
    TrackedPath tp;
    tp.index = frame.id;
    tp.worker = comm.rank();
    tp.result = source.execute(frame.payload, ws, make_exec_context(comm, frame, cancelled_ids));
    tp.seconds = job_timer.seconds();
    tracking_seconds += tp.seconds;
    cancelled_ids.erase(frame.id);
    inject_latency(opts.injected_latency);
    // A cancelled stub is still sent: the master dropped the job from its
    // owner map when it cancelled, so this reply is what re-enters the
    // slave into the idle queue (and is otherwise ignored).
    comm.send(0, kTagResult, pack_tracked_path(tp));
    ++completed;
  }
  if (aborted) {
    // FCFS slaves hold no unreported results; the flush is the ack the
    // master counts alive slaves by.
    inject_latency(opts.injected_latency);
    comm.send(0, kTagAbortFlush, pack_tracked_path_batch({}));
  }
  mp::Packer p;
  p.write(tracking_seconds);
  comm.send(0, kTagBusy, p);
}

void run_batch_slave(mp::Comm& comm, const JobSource& source, const SessionOptions& opts,
                     mp::FaultInjector* fault) {
  std::deque<mp::JobFrame> mine;
  std::vector<TrackedPath> pending;
  double tracking_seconds = 0.0;
  std::size_t completed = 0;
  homotopy::TrackerWorkspace ws = source.make_workspace();
  const bool beacon = opts.supervisor.enabled;
  std::unordered_set<std::uint64_t> cancelled_ids;
  util::WallTimer since_beacon;
  bool stopped = false;
  bool aborted = false;

  auto handle = [&](const mp::Message& m) {
    if (m.tag == kTagCancel) {
      mp::Unpacker u(m.payload);
      cancelled_ids.insert(u.read<std::uint64_t>());
    } else if (m.tag == kTagBatch) {
      for (auto& frame : mp::unpack_job_frame_batch(m.payload)) {
        mine.push_back(std::move(frame));
      }
    } else if (m.tag == kTagStealOrder) {
      // Donate the back half of the local queue straight to the thief
      // (an empty reply is a refusal; the thief reports it either way).
      const auto req = mp::unpack_steal_request(m.payload);
      std::vector<mp::JobFrame> donated;
      for (std::size_t k = mine.size() / 2; k > 0; --k) {
        donated.push_back(std::move(mine.back()));
        mine.pop_back();
      }
      inject_latency(opts.injected_latency);
      comm.send(req.thief, kTagStealReply, mp::pack_job_frame_batch(donated));
    } else if (m.tag == kTagStealReply) {
      auto frames = mp::unpack_job_frame_batch(m.payload);
      std::vector<std::uint64_t> ids;
      ids.reserve(frames.size());
      for (const auto& frame : frames) ids.push_back(frame.id);
      for (auto& frame : frames) mine.push_back(std::move(frame));
      // One-way ownership notification so the master's map stays exact.
      mp::Packer p;
      p.write(m.source);
      p.write_vector(ids);
      inject_latency(opts.injected_latency);
      comm.isend(0, kTagStealNotify, p.take());
    } else if (m.tag == kTagStop) {
      stopped = true;
    } else if (m.tag == kTagAbort) {
      stopped = true;
      aborted = true;
    }
  };

  while (!stopped) {
    if (mine.empty()) {
      if (beacon) {
        // Idle heartbeat loop (any source: steal replies land here too).
        if (auto m = comm.recv_for(opts.supervisor.heartbeat_seconds)) {
          handle(*m);
        } else {
          comm.send(0, kTagHeartbeat, std::vector<std::byte>{});
          since_beacon.reset();
        }
      } else {
        handle(comm.recv());
      }
      continue;
    }
    // Drain control traffic (steal orders, late batches) between jobs.
    while (auto m = comm.try_recv()) {
      handle(*m);
      if (stopped) break;
    }
    if (stopped || mine.empty()) continue;
    if (const auto f = fault_at_job_boundary(comm, fault, completed, mine.front().id)) {
      if (*f == mp::FaultKind::kDieAnnounced) {
        // A cooperative death still serves queued steal orders with
        // refusals so no thief hangs on a reply that will never come;
        // uncooperative kinds leave the thieves for the supervisor.
        while (auto so = comm.try_recv(mp::kAnySource, kTagStealOrder)) {
          const auto req = mp::unpack_steal_request(so->payload);
          inject_latency(opts.injected_latency);
          comm.send(req.thief, kTagStealReply, mp::pack_job_frame_batch({}));
        }
        inject_latency(opts.injected_latency);
        comm.send(0, kTagDead, std::vector<std::byte>{});
      } else if (*f == mp::FaultKind::kHang) {
        hang_until_released(comm);
      }
      return;
    }
    // Mid-batch liveness: a long batch sends no results until exhausted, so
    // beacon between jobs at the heartbeat cadence.
    if (beacon && since_beacon.seconds() >= opts.supervisor.heartbeat_seconds) {
      comm.send(0, kTagHeartbeat, std::vector<std::byte>{});
      since_beacon.reset();
    }
    mp::JobFrame frame = std::move(mine.front());
    mine.pop_front();
    util::WallTimer job_timer;
    TrackedPath tp;
    tp.index = frame.id;
    tp.worker = comm.rank();
    tp.result = source.execute(frame.payload, ws, make_exec_context(comm, frame, cancelled_ids));
    tp.seconds = job_timer.seconds();
    tracking_seconds += tp.seconds;
    cancelled_ids.erase(frame.id);
    pending.push_back(std::move(tp));
    ++completed;
    if (mine.empty()) {
      // Batch exhausted: one message carries every result plus the
      // implicit request for the next batch.
      inject_latency(opts.injected_latency);
      comm.send(0, kTagBatchDone, pack_tracked_path_batch(pending));
      pending.clear();
    }
  }
  if (aborted) {
    // Flush completed-but-unreported results; unstarted queued jobs are
    // dropped (the resumed session re-tracks them).
    inject_latency(opts.injected_latency);
    comm.send(0, kTagAbortFlush, pack_tracked_path_batch(pending));
    pending.clear();
  }
  mp::Packer p;
  p.write(tracking_seconds);
  comm.send(0, kTagBusy, p);
}

// ---------------------------------------------------------------------------
// Static sessions: pre-assigned shares, every rank (including 0) tracks.
// ---------------------------------------------------------------------------

SessionStats run_static_session(JobSource& source, ResultSink& sink, int ranks,
                                const SessionOptions& opts) {
  SessionStats stats;
  stats.rank_busy_seconds.assign(static_cast<std::size_t>(ranks), 0.0);
  // Pre-assignment happens on the calling thread before any rank exists:
  // every rank then derives its share from the same snapshot, exactly as
  // each MPI process would from the replicated workload.
  std::vector<JobId> jobs;
  while (source.ready() > 0) jobs.push_back(source.pop());
  const std::size_t total = jobs.size();
  util::WallTimer wall;

  mp::World::run(ranks, [&](mp::Comm& comm) {
    const auto p = static_cast<std::size_t>(comm.size());
    const auto r = static_cast<std::size_t>(comm.rank());

    // Positions in the snapshot assigned to this rank.
    std::vector<std::size_t> mine;
    if (opts.assignment == StaticAssignment::kCyclic) {
      for (std::size_t i = r; i < total; i += p) mine.push_back(i);
    } else {
      const std::size_t base = total / p;
      const std::size_t extra = total % p;
      const std::size_t begin = r * base + std::min(r, extra);
      const std::size_t count = base + (r < extra ? 1 : 0);
      for (std::size_t i = begin; i < begin + count; ++i) mine.push_back(i);
    }

    double tracking_seconds = 0.0;
    homotopy::TrackerWorkspace ws = source.make_workspace();
    for (const std::size_t pos : mine) {
      const JobId id = jobs[pos];
      util::WallTimer job_timer;
      TrackedPath tp;
      tp.index = id;
      tp.worker = comm.rank();
      tp.result = source.execute(source.job_payload(id), ws);
      tp.seconds = job_timer.seconds();
      tracking_seconds += tp.seconds;
      inject_latency(opts.injected_latency);
      comm.send(0, kTagResult, pack_tracked_path(tp));
    }
    mp::Packer p_busy;
    p_busy.write(tracking_seconds);
    comm.send(0, kTagBusy, p_busy);

    if (comm.rank() == 0) {
      std::size_t results = 0, busy_reports = 0;
      while (results < total || busy_reports < p) {
        const mp::Message m = comm.recv();
        if (m.tag == kTagResult) {
          TrackedPath tp = unpack_tracked_path(m.payload);
          if (source.consume(tp)) {
            sink.accept(tp);
            ++stats.accepted;
          }
          ++results;
        } else if (m.tag == kTagBusy) {
          mp::Unpacker u(m.payload);
          stats.rank_busy_seconds[static_cast<std::size_t>(m.source)] = u.read<double>();
          ++busy_reports;
        }
      }
    }
  });

  stats.wall_seconds = wall.seconds();
  return stats;
}

// ---------------------------------------------------------------------------
// The master/slave path run() and serve() share: validation, then fault
// injection, World::run and the policy pick.
// ---------------------------------------------------------------------------

void validate_supervisor(const SupervisorOptions& so, const std::string& who) {
  if (!so.enabled) return;
  if (so.heartbeat_seconds <= 0.0) {
    throw std::invalid_argument(who + ": heartbeat_seconds must be positive");
  }
  if (so.miss_budget == 0) throw std::invalid_argument(who + ": miss_budget must be positive");
  if (so.death_multiplier < 1.0) {
    throw std::invalid_argument(who + ": death_multiplier must be at least 1");
  }
  if (so.ewma_alpha <= 0.0 || so.ewma_alpha > 1.0) {
    throw std::invalid_argument(who + ": ewma_alpha must be in (0, 1]");
  }
  if (so.max_attempts == 0) throw std::invalid_argument(who + ": max_attempts must be positive");
}

void validate_fault_plan(const SessionOptions& opts, int ranks, const std::string& who) {
  std::set<int> terminal_ranks;
  for (const auto& a : opts.fault_plan.actions()) {
    if (a.rank == mp::kAnyFaultRank) {
      if (!a.on_job.has_value()) {
        throw std::invalid_argument(who + ": an any-rank fault needs an on_job trigger");
      }
    } else if (a.rank <= 0 || a.rank >= ranks) {
      throw std::invalid_argument(who + ": a fault plan can only target slave ranks "
                                        "(1 <= rank < ranks)");
    }
    if (mp::fault_is_uncooperative(a.kind) && !opts.supervisor.enabled) {
      throw std::invalid_argument(who + ": uncooperative faults (silent death, hang) need "
                                        "supervision enabled -- nobody else would notice");
    }
    if (mp::fault_is_terminal(a.kind) && a.rank != mp::kAnyFaultRank) {
      terminal_ranks.insert(a.rank);
    }
  }
  if (!terminal_ranks.empty() && static_cast<int>(terminal_ranks.size()) >= ranks - 1) {
    throw std::invalid_argument(who + ": the fault plan must leave at least one slave alive");
  }
}

/// Every check a master/slave session makes before any rank starts.  Called
/// ahead of run_master_slave so serve() attaches its reliability hooks only
/// to a session that will run.
void validate_master_slave(const SessionOptions& opts, int ranks) {
  const std::string who(opts.who);
  if (ranks < 2) throw std::invalid_argument(who + ": need a master and at least one slave");
  if (opts.policy == Policy::kBatchSteal && opts.factor <= 0.0) {
    throw std::invalid_argument(who + ": factor must be positive");
  }
  validate_supervisor(opts.supervisor, who);
  validate_fault_plan(opts, ranks, who);
}

/// Run a validated FCFS/BatchSteal session.  `stream` is serve()'s arrival
/// gate and `rel`/`overload` its reliability state; a drain passes nullptr
/// for all three (DESIGN.md section 7).
SessionStats run_master_slave(JobSource& source, ResultSink& sink, const SessionOptions& opts,
                              int ranks, StreamJobSource* stream = nullptr,
                              ReliabilityState* rel = nullptr,
                              OverloadController* overload = nullptr) {
  mp::FaultInjector injector(opts.fault_plan, ranks);
  mp::FaultInjector* fault = opts.fault_plan.empty() ? nullptr : &injector;

  SessionStats stats;
  stats.rank_busy_seconds.assign(static_cast<std::size_t>(ranks), 0.0);
  util::WallTimer wall;

  mp::World::run(
      ranks,
      [&](mp::Comm& comm) {
        if (comm.rank() == 0) {
          MasterContext ctx(comm, source, sink, opts, stats, ranks);
          ctx.stream = stream;
          ctx.rel = rel;
          ctx.overload = overload;
          if (opts.policy == Policy::kFCFS) {
            FcfsPolicy policy;
            run_master(ctx, policy);
          } else {
            BatchStealPolicy policy(ranks);
            run_master(ctx, policy);
          }
        } else if (opts.policy == Policy::kFCFS) {
          run_fcfs_slave(comm, source, opts, fault);
        } else {
          run_batch_slave(comm, source, opts, fault);
        }
      },
      fault);

  stats.wall_seconds = wall.seconds();
  sink.finish();
  return stats;
}

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(JobSource& source, ResultSink& sink, SessionOptions opts)
    : source_(source), sink_(sink), opts_(std::move(opts)) {}

SessionStats Session::run(int ranks) {
  const std::string who(opts_.who);
  if (opts_.reliability.enabled) {
    throw std::invalid_argument(who + ": the reliability layer is serve() only -- "
                                      "budgets attach at the stream's admission gate");
  }
  if (opts_.policy == Policy::kStatic) {
    if (ranks <= 0) throw std::invalid_argument(who + ": need at least one rank");
    if (!source_.fixed_total().has_value()) {
      throw std::invalid_argument(who + ": static pre-assignment needs a fixed job pool");
    }
    if (!opts_.fault_plan.empty()) {
      throw std::invalid_argument(who + ": the static policy has no master to re-queue "
                                        "a dead slave's jobs");
    }
    if (opts_.supervisor.enabled) {
      throw std::invalid_argument(who + ": the static policy has no master to supervise");
    }
    if (opts_.stop_after_results.has_value()) {
      throw std::invalid_argument(who + ": the static policy cannot stop early");
    }
    SessionStats stats = run_static_session(source_, sink_, ranks, opts_);
    sink_.finish();
    return stats;
  }
  validate_master_slave(opts_, ranks);
  return run_master_slave(source_, sink_, opts_, ranks);
}

SessionStats Session::serve(int ranks) {
  const std::string who(opts_.who);
  auto* stream = dynamic_cast<StreamJobSource*>(&source_);
  if (stream == nullptr) {
    throw std::invalid_argument(who + ": serve() needs a StreamJobSource "
                                      "(wrap the job source in one, with an arrival trace)");
  }
  if (opts_.policy == Policy::kStatic) {
    throw std::invalid_argument(who + ": the static policy cannot serve a stream "
                                      "(jobs that have not arrived cannot be pre-assigned)");
  }
  validate_master_slave(opts_, ranks);
  validate_reliability(opts_.reliability, who);

  // Reliability layer (DESIGN.md section 13): deadlines stamp through the
  // stream's admission hook, the brownout controller rides every depth
  // change, and the master context carries pointers to both.
  std::optional<ReliabilityState> rel;
  std::optional<OverloadController> controller;
  if (opts_.reliability.enabled) {
    rel.emplace(opts_.reliability);
    stream->set_admit_hook([&rel](JobId id, double now) { rel->on_admit(id, now); });
    if (opts_.reliability.overload.enabled) {
      controller.emplace(opts_.reliability.overload);
      stream->set_overload(&*controller);
    }
  }

  SessionStats stats = run_master_slave(source_, sink_, opts_, ranks, stream,
                                        rel.has_value() ? &*rel : nullptr,
                                        controller.has_value() ? &*controller : nullptr);
  stats.service = stream->take_service();
  if (controller.has_value()) {
    stats.reliability.brownout_transitions = controller->transitions().size();
    stats.reliability.max_brownout_level = controller->max_level_reached();
    stats.reliability.brownout_shed = stream->brownout_shed();
  }
  // Detach the hooks: the state above dies with this frame, the stream may
  // outlive it.
  stream->set_admit_hook({});
  stream->set_overload(nullptr);
  return stats;
}

ParallelRunReport run_paths(const PathWorkload& workload, int ranks,
                            const SessionOptions& opts) {
  VectorJobSource source(workload);
  InMemoryReportSink sink;
  Session session(source, sink, opts);
  const SessionStats stats = session.run(ranks);
  return sink.report(stats);
}

}  // namespace pph::sched
