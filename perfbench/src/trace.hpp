#pragma once
// Tracing from the benchmark's side of the public API.  TracedSource and
// TracedSink wrap a workload's JobSource and ResultSink, forward every call
// unchanged, and record one span per call (name, job id, thread, start,
// end, thread CPU time).  Spans are kept in per-thread buffers in memory
// and reduced after the run into per-job phases:
//
//   dispatch --to_slave--> execute --exec--> --to_master--> consume --consume-->
//
// where dispatch is the master's pop() (or, behind a StreamJobSource whose
// pop() is its own, the job_payload() call the master makes right after
// it).  Each phase runs between adjacent events, so the four tile the
// job's master-observed span from dispatch to the end of consume; what the
// reducer checks is that every job has exactly one of each event, in causal
// order, so that no phase is negative.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "sched/session.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t { kPop, kPayload, kExecute, kConsume, kAccept, kStoreAppend };

const char* span_name(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kPop;
  int thread = 0;            // trace-local thread ordinal (0 = first thread seen)
  int rank = -1;             // TrackedPath::worker where the call carries one
  std::uint64_t job = 0;
  double t0 = 0.0;           // now_s() at entry
  double t1 = 0.0;           // now_s() at exit
  double cpu = 0.0;          // thread CPU seconds spent inside the call
  std::uint64_t bytes = 0;   // payload bytes (kPayload only)
  std::uint64_t created = 0; // jobs a consume() made ready (kConsume only)
};

/// Span store: one buffer per recording thread, merged after the run.
class TraceLog {
 public:
  TraceLog();
  void record(const Span& span);
  /// Every span recorded so far, in no particular order.
  std::vector<Span> collect() const;
  void clear();

 private:
  struct Buffer {
    int ordinal = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  mutable std::mutex mutex_;  // guards buffers_ and generation_
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::uint64_t generation_;
};

/// JobSource decorator recording pop / job_payload / execute / consume.
class TracedSource final : public pph::sched::JobSource {
 public:
  TracedSource(pph::sched::JobSource& inner, TraceLog& log) : inner_(inner), log_(log) {}

  std::size_t ready() const override { return inner_.ready(); }
  pph::sched::JobId pop() override;
  void requeue(pph::sched::JobId id) override { inner_.requeue(id); }
  std::vector<std::byte> job_payload(pph::sched::JobId id) const override;
  bool consume(pph::sched::TrackedPath& tp) override;
  std::optional<std::size_t> fixed_total() const override { return inner_.fixed_total(); }

  pph::homotopy::TrackerWorkspace make_workspace() const override {
    return inner_.make_workspace();
  }
  pph::sched::PathResult execute(const std::vector<std::byte>& payload,
                                 pph::homotopy::TrackerWorkspace& ws) const override;
  pph::sched::PathResult execute(const std::vector<std::byte>& payload,
                                 pph::homotopy::TrackerWorkspace& ws,
                                 const pph::sched::ExecContext& exec) const override;

 private:
  std::uint64_t job_of(const std::vector<std::byte>& payload) const;

  pph::sched::JobSource& inner_;
  TraceLog& log_;
  // Slaves see payloads, not ids: job_payload() files each payload under
  // its id so execute() can name the job it runs.
  mutable std::mutex ids_mutex_;
  mutable std::unordered_map<std::string, std::vector<std::uint64_t>> ids_;
};

/// ResultSink decorator recording accept() as `kind` (kAccept, or
/// kStoreAppend around a JsonlStoreSink).
class TracedSink final : public pph::sched::ResultSink {
 public:
  TracedSink(pph::sched::ResultSink& inner, TraceLog& log, SpanKind kind = SpanKind::kAccept)
      : inner_(inner), log_(log), kind_(kind) {}
  void accept(const pph::sched::TrackedPath& tp) override;
  void finish() override { inner_.finish(); }

 private:
  pph::sched::ResultSink& inner_;
  TraceLog& log_;
  SpanKind kind_;
};

/// Per-job phases of one traced run, in seconds.
struct Phases {
  std::vector<double> to_slave, exec, exec_cpu, to_master, consume, accept, store_append;
  std::vector<double> queue_wait;  // due time -> dispatch
  std::vector<double> slave_idle;  // gap between two execute() on one slave
  std::vector<double> payload_bytes;
  double exec_total = 0.0;         // sum of execute() wall time
  std::size_t jobs = 0;            // jobs with every phase recorded
  std::size_t incomplete = 0;      // jobs missing an event (should be 0)
  std::size_t duplicated = 0;      // jobs with an event twice (should be 0)
  std::size_t disordered = 0;      // jobs with a negative phase (should be 0)
  double first_master_call = 0.0;  // earliest dispatch, seconds after origin
};

/// How dispatch and due times are read from the spans.
struct ReduceOptions {
  /// Dispatch = job_payload() instead of pop() (a source behind a
  /// StreamJobSource, whose pop() is the stream's own).
  bool dispatch_is_payload = false;
  /// Per-job due times (absolute now_s()); empty = due times derive from
  /// the spans: every job ready at `origin`, plus the jobs each consume()
  /// created (sequential ids, as PieriTreeJobSource and VectorJobSource
  /// hand out) due when that consume() returned.
  std::vector<double> due;
  /// Jobs ready when the run started (ids 0 .. initial-1).
  std::uint64_t initial = 0;
  double origin = 0.0;
};

Phases reduce_spans(const std::vector<Span>& spans, const ReduceOptions& opts);

/// Write spans as one CSV line each (kind,thread,rank,job,t0,t1,cpu,bytes).
void write_spans(const std::string& path, const std::vector<Span>& spans, double origin);

}  // namespace perfbench
