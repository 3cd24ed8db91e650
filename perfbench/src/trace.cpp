#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>

namespace perfbench {

namespace {

// Every TraceLog generation gets a process-unique number, so a thread's
// cached buffer pointer can never outlive a clear() or a destroyed log.
std::atomic<std::uint64_t> next_generation{1};

struct ThreadSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot slot;

constexpr std::uint64_t kUnknownJob = std::numeric_limits<std::uint64_t>::max();

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPop: return "pop";
    case SpanKind::kPayload: return "job_payload";
    case SpanKind::kExecute: return "execute";
    case SpanKind::kConsume: return "consume";
    case SpanKind::kAccept: return "accept";
    case SpanKind::kStoreAppend: return "store_append";
  }
  return "?";
}

TraceLog::TraceLog() : generation_(next_generation.fetch_add(1)) {}

TraceLog::Buffer& TraceLog::local() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slot.generation != generation_ || slot.buffer == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    buffer->ordinal = static_cast<int>(buffers_.size());
    buffer->spans.reserve(4096);
    slot.generation = generation_;
    slot.buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(slot.buffer);
}

void TraceLog::record(const Span& span) {
  Buffer& buffer = local();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.ordinal;
}

std::vector<Span> TraceLog::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

void TraceLog::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  generation_ = next_generation.fetch_add(1);
}

pph::sched::JobId TracedSource::pop() {
  Span s;
  s.kind = SpanKind::kPop;
  s.t0 = now_s();
  const auto id = inner_.pop();
  s.t1 = now_s();
  s.job = id;
  log_.record(s);
  return id;
}

std::vector<std::byte> TracedSource::job_payload(pph::sched::JobId id) const {
  Span s;
  s.kind = SpanKind::kPayload;
  s.t0 = now_s();
  auto payload = inner_.job_payload(id);
  s.t1 = now_s();
  s.job = id;
  s.bytes = payload.size();
  {
    std::lock_guard<std::mutex> lock(ids_mutex_);
    ids_[std::string(reinterpret_cast<const char*>(payload.data()), payload.size())]
        .push_back(id);
  }
  log_.record(s);
  return payload;
}

std::uint64_t TracedSource::job_of(const std::vector<std::byte>& payload) const {
  std::lock_guard<std::mutex> lock(ids_mutex_);
  const auto it =
      ids_.find(std::string(reinterpret_cast<const char*>(payload.data()), payload.size()));
  if (it == ids_.end() || it->second.empty()) return kUnknownJob;
  const auto id = it->second.back();
  it->second.pop_back();
  if (it->second.empty()) ids_.erase(it);
  return id;
}

bool TracedSource::consume(pph::sched::TrackedPath& tp) {
  Span s;
  s.kind = SpanKind::kConsume;
  s.job = tp.index;
  s.rank = tp.worker;
  const auto before = inner_.ready();
  s.t0 = now_s();
  const bool keep = inner_.consume(tp);
  s.t1 = now_s();
  const auto after = inner_.ready();
  s.created = after > before ? after - before : 0;
  log_.record(s);
  return keep;
}

pph::sched::PathResult TracedSource::execute(const std::vector<std::byte>& payload,
                                             pph::homotopy::TrackerWorkspace& ws) const {
  Span s;
  s.kind = SpanKind::kExecute;
  s.job = job_of(payload);
  const double c0 = thread_cpu_s();
  s.t0 = now_s();
  auto r = inner_.execute(payload, ws);
  s.t1 = now_s();
  s.cpu = thread_cpu_s() - c0;
  log_.record(s);
  return r;
}

pph::sched::PathResult TracedSource::execute(const std::vector<std::byte>& payload,
                                             pph::homotopy::TrackerWorkspace& ws,
                                             const pph::sched::ExecContext& exec) const {
  Span s;
  s.kind = SpanKind::kExecute;
  s.job = job_of(payload);
  const double c0 = thread_cpu_s();
  s.t0 = now_s();
  auto r = inner_.execute(payload, ws, exec);
  s.t1 = now_s();
  s.cpu = thread_cpu_s() - c0;
  log_.record(s);
  return r;
}

void TracedSink::accept(const pph::sched::TrackedPath& tp) {
  Span s;
  s.kind = kind_;
  s.job = tp.index;
  s.rank = tp.worker;
  s.t0 = now_s();
  inner_.accept(tp);
  s.t1 = now_s();
  log_.record(s);
}

Phases reduce_spans(const std::vector<Span>& spans, const ReduceOptions& opts) {
  // Every job is dispatched, executed and consumed once: the workloads run
  // without supervision, so nothing is re-dispatched or copied.  A second
  // event of a kind, or one out of causal order, means a span was filed
  // under the wrong job.
  struct Events {
    const Span* dispatch = nullptr;
    const Span* exec = nullptr;
    const Span* consume = nullptr;
    bool duplicated = false;
  };
  std::unordered_map<std::uint64_t, Events> jobs;
  std::vector<const Span*> consumes;
  std::unordered_map<int, std::vector<const Span*>> exec_by_thread;
  const SpanKind dispatch_kind = opts.dispatch_is_payload ? SpanKind::kPayload : SpanKind::kPop;
  Phases ph;
  ph.first_master_call = std::numeric_limits<double>::infinity();

  const auto file = [&jobs](const Span*& slot_ref, const Span& s) {
    if (slot_ref != nullptr) jobs[s.job].duplicated = true;
    slot_ref = &s;
  };
  for (const Span& s : spans) {
    switch (s.kind) {
      case SpanKind::kPop:
      case SpanKind::kPayload:
        if (s.kind == SpanKind::kPayload) ph.payload_bytes.push_back(static_cast<double>(s.bytes));
        if (s.kind == dispatch_kind) {
          file(jobs[s.job].dispatch, s);
          ph.first_master_call = std::min(ph.first_master_call, s.t0 - opts.origin);
        }
        break;
      case SpanKind::kExecute:
        file(jobs[s.job].exec, s);
        exec_by_thread[s.thread].push_back(&s);
        ph.exec_total += s.t1 - s.t0;
        break;
      case SpanKind::kConsume:
        file(jobs[s.job].consume, s);
        consumes.push_back(&s);
        break;
      case SpanKind::kAccept:
        ph.accept.push_back(s.t1 - s.t0);
        break;
      case SpanKind::kStoreAppend:
        ph.store_append.push_back(s.t1 - s.t0);
        break;
    }
  }

  // Due times: given, or derived from the ready counts the consumes left.
  std::unordered_map<std::uint64_t, double> due;
  if (!opts.due.empty()) {
    for (std::size_t i = 0; i < opts.due.size(); ++i) due[i] = opts.due[i];
  } else {
    for (std::uint64_t id = 0; id < opts.initial; ++id) due[id] = opts.origin;
    std::sort(consumes.begin(), consumes.end(),
              [](const Span* a, const Span* b) { return a->t1 < b->t1; });
    std::uint64_t next = opts.initial;
    for (const Span* c : consumes) {
      for (std::uint64_t k = 0; k < c->created; ++k) due[next++] = c->t1;
    }
  }

  for (const auto& [id, ev] : jobs) {
    if (ev.dispatch == nullptr || ev.exec == nullptr || ev.consume == nullptr) {
      ++ph.incomplete;
      continue;
    }
    if (ev.duplicated) {
      ++ph.duplicated;
      continue;
    }
    const double to_slave = ev.exec->t0 - ev.dispatch->t0;
    const double exec = ev.exec->t1 - ev.exec->t0;
    const double to_master = ev.consume->t0 - ev.exec->t1;
    const double consume = ev.consume->t1 - ev.consume->t0;
    if (to_slave < 0.0 || exec < 0.0 || to_master < 0.0 || consume < 0.0) {
      ++ph.disordered;
      continue;
    }
    ph.to_slave.push_back(to_slave);
    ph.exec.push_back(exec);
    ph.exec_cpu.push_back(ev.exec->cpu);
    ph.to_master.push_back(to_master);
    ph.consume.push_back(consume);
    if (const auto it = due.find(id); it != due.end()) {
      ph.queue_wait.push_back(ev.dispatch->t0 - it->second);
    }
    ++ph.jobs;
  }

  for (auto& [thread, execs] : exec_by_thread) {
    std::sort(execs.begin(), execs.end(),
              [](const Span* a, const Span* b) { return a->t0 < b->t0; });
    for (std::size_t i = 1; i < execs.size(); ++i) {
      ph.slave_idle.push_back(execs[i]->t0 - execs[i - 1]->t1);
    }
  }
  return ph;
}

void write_spans(const std::string& path, const std::vector<Span>& spans, double origin) {
  std::ofstream out(path);
  out << "kind,thread,rank,job,t0_s,t1_s,cpu_s,bytes\n";
  out.precision(9);
  for (const Span& s : spans) {
    out << span_name(s.kind) << ',' << s.thread << ',' << s.rank << ',';
    if (s.job == kUnknownJob) {
      out << "-1";
    } else {
      out << s.job;
    }
    out << ',' << std::fixed << s.t0 - origin << ',' << s.t1 - origin << ',' << s.cpu << ','
        << s.bytes << '\n';
  }
}

}  // namespace perfbench
