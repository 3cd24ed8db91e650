#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "linalg/lu.hpp"
#include "mp/comm.hpp"
#include "sched/pieri_scheduler.hpp"
#include "sched/result_store.hpp"
#include "schubert/pieri_homotopy.hpp"
#include "schubert/poset.hpp"
#include "store/analytics.hpp"
#include "store/store_reader.hpp"

namespace perfbench {

namespace {

using pph::homotopy::Homotopy;
using pph::homotopy::HomotopyWorkspace;
using pph::linalg::CMatrix;
using pph::linalg::CVector;

/// Forwards every call to `inner` (at t, or at 1 - t when reversed) and
/// records the points at which the tracker asks for a Jacobian.
class RecordingHomotopy final : public Homotopy {
 public:
  RecordingHomotopy(const Homotopy& inner, bool reverse, std::vector<PathPoint>& out)
      : inner_(inner), reverse_(reverse), out_(out) {}

  std::size_t dimension() const override { return inner_.dimension(); }
  CVector evaluate(const CVector& x, double t) const override {
    return inner_.evaluate(x, map(t));
  }
  CMatrix jacobian_x(const CVector& x, double t) const override {
    note(x, t);
    return inner_.jacobian_x(x, map(t));
  }
  CVector derivative_t(const CVector& x, double t) const override {
    CVector d = inner_.derivative_t(x, map(t));
    if (reverse_) {
      for (auto& v : d) v = -v;
    }
    return d;
  }
  std::pair<CVector, CMatrix> evaluate_with_jacobian(const CVector& x, double t) const override {
    note(x, t);
    return inner_.evaluate_with_jacobian(x, map(t));
  }
  std::unique_ptr<HomotopyWorkspace> make_workspace() const override {
    return inner_.make_workspace();
  }
  void evaluate_into(const CVector& x, double t, HomotopyWorkspace* ws,
                     CVector& h) const override {
    inner_.evaluate_into(x, map(t), ws, h);
  }
  void evaluate_with_jacobian_into(const CVector& x, double t, HomotopyWorkspace* ws, CVector& h,
                                   CMatrix& jx) const override {
    note(x, t);
    inner_.evaluate_with_jacobian_into(x, map(t), ws, h, jx);
  }
  void evaluate_fused(const CVector& x, double t, HomotopyWorkspace* ws, CVector& h, CMatrix& jx,
                      CVector& ht) const override {
    note(x, t);
    inner_.evaluate_fused(x, map(t), ws, h, jx, ht);
    if (reverse_) {
      for (auto& v : ht) v = -v;
    }
  }

 private:
  double map(double t) const { return reverse_ ? 1.0 - t : t; }
  void note(const CVector& x, double t) const { out_.push_back({x, map(t)}); }

  const Homotopy& inner_;
  bool reverse_;
  std::vector<PathPoint>& out_;
};

/// Per-call seconds of `reps` back-to-back calls of f, in wall and thread
/// CPU time.
template <typename F>
std::pair<double, double> time_per_call(int reps, F&& f) {
  const double c0 = thread_cpu_s();
  const double t0 = now_s();
  for (int r = 0; r < reps; ++r) f();
  const double t1 = now_s();
  const double c1 = thread_cpu_s();
  return {(t1 - t0) / reps, (c1 - c0) / reps};
}

/// Prints wall and CPU timings of a probe; adds the CPU median as `name`.
void report_probe(Metrics& metrics, const std::string& name, const std::vector<double>& wall,
                  const std::vector<double>& cpu, double scale, const char* unit) {
  print_timing(name + " (wall)", summarize(wall), scale, unit);
  const Timing t = summarize(cpu);
  print_timing(name + " (cpu)", t, scale, unit);
  metrics.add(name, t.median * scale, unit);
}

template <typename T>
std::vector<T> spread_sample(const std::vector<T>& xs, std::size_t max_count) {
  if (xs.size() <= max_count) return xs;
  std::vector<T> out;
  out.reserve(max_count);
  for (std::size_t i = 0; i < max_count; ++i) out.push_back(xs[i * xs.size() / max_count]);
  return out;
}

}  // namespace

std::vector<PathPoint> capture_points(const Homotopy& h, const std::vector<CVector>& starts,
                                      const pph::homotopy::TrackerOptions& opts, bool reverse,
                                      std::size_t max_points) {
  std::vector<PathPoint> all;
  const RecordingHomotopy rec(h, reverse, all);
  pph::homotopy::TrackerWorkspace ws(rec);
  for (const auto& x0 : starts) pph::homotopy::track_path(rec, x0, opts, ws);
  return spread_sample(all, max_points);
}

void probe_lu_and_eval(Metrics& metrics, const Homotopy& h, const std::vector<PathPoint>& points) {
  constexpr int kReps = 50;
  auto ws = h.make_workspace();
  CVector hv, ht, xs;
  CMatrix jac, scratch;
  pph::linalg::LU lu;
  std::vector<double> lu_wall, lu_cpu, ev_wall, ev_cpu;
  for (const auto& p : points) {
    h.evaluate_fused(p.x, p.t, ws.get(), hv, jac, ht);  // warm caches and buffers
    const auto [ew, ec] =
        time_per_call(kReps, [&] { h.evaluate_fused(p.x, p.t, ws.get(), hv, scratch, ht); });
    ev_wall.push_back(ew);
    ev_cpu.push_back(ec);
    scratch = jac;
    lu.factor(scratch);
    lu.solve_into(hv, xs);
    // The copy refills the matrix LU::factor takes over, as the tracker's
    // own Jacobian refill does.
    const auto [lw, lc] = time_per_call(kReps, [&] {
      scratch = jac;
      lu.factor(scratch);
      lu.solve_into(hv, xs);
    });
    lu_wall.push_back(lw);
    lu_cpu.push_back(lc);
  }
  std::printf("linalg / eval probes: %zu points along the paths, n = %zu\n", points.size(),
              h.dimension());
  report_probe(metrics, "linalg.lu_us", lu_wall, lu_cpu, 1e6, "us");
  report_probe(metrics, "eval.fused_us", ev_wall, ev_cpu, 1e6, "us");
}

void probe_pieri_build(Metrics& metrics, const pph::schubert::PieriInput& input,
                       const pph::schubert::PieriSolverOptions& solver) {
  using namespace pph::schubert;
  const PatternPoset poset(input.problem);
  pph::util::Prng rng(17);
  std::unique_ptr<HomotopyWorkspace> family;  // one per slave, reused across edges
  CVector hv, ht;
  CMatrix jac;
  std::vector<double> wall, cpu;
  for (std::size_t level = 1; level < poset.levels(); ++level) {
    const std::vector<PlaneCondition> fixed(input.conditions.begin(),
                                            input.conditions.begin() + (level - 1));
    const PlaneCondition& target = input.conditions[level - 1];
    for (const Pattern& pattern : poset.patterns_at_level(level)) {
      const CVector x = [&] {
        CVector v(level);
        for (auto& c : v) c = rng.normal_complex();
        return v;
      }();
      const auto def = pph::sched::instance_deformation(solver.gamma_seed, pattern.pivots(), 0);
      // One build per tree edge into this instance, as the slaves pay it.
      const std::uint64_t edges = poset.chain_count(pattern);
      for (std::uint64_t e = 0; e < edges; ++e) {
        const double c0 = thread_cpu_s();
        const double t0 = now_s();
        PieriEdgeHomotopy h(PatternChart(pattern), fixed, target, def.gamma, def.detour_s,
                            def.detour_u);
        if (!family) family = h.make_workspace();
        h.evaluate_fused(x, 0.5, family.get(), hv, jac, ht);
        wall.push_back(now_s() - t0);
        cpu.push_back(thread_cpu_s() - c0);
      }
    }
  }
  std::printf("pieri edge build probe: %zu edges of the (%zu,%zu,%zu) tree\n", wall.size(),
              input.problem.m, input.problem.p, input.problem.q);
  report_probe(metrics, "eval.pieri_build_us", wall, cpu, 1e6, "us");
}

void probe_mp(Metrics& metrics, double block_seconds,
              const std::vector<pph::sched::TrackedPath>& records,
              const std::vector<double>& payload_bytes) {
  const double payload = payload_bytes.empty() ? 8.0 : pph::util::mean(payload_bytes);
  const std::size_t frame_overhead = pph::mp::pack_job_frame(pph::mp::JobFrame{}).size();
  double result_bytes = 0.0;
  for (const auto& tp : records) {
    result_bytes += static_cast<double>(pph::sched::pack_tracked_path(tp).size());
  }
  if (!records.empty()) result_bytes /= static_cast<double>(records.size());
  const std::size_t frame = static_cast<std::size_t>(payload) + frame_overhead;

  // Hot hop: both ranks spin on try_recv, so neither ever blocks.
  constexpr int kHot = 5000, kWarm = 200;
  std::vector<double> hot;
  pph::mp::World::run(2, [&](pph::mp::Comm& comm) {
    std::vector<std::byte> buf(frame);
    if (comm.rank() == 0) {
      for (int i = 0; i < kHot + kWarm; ++i) {
        const double t0 = now_s();
        comm.send(1, 1, buf);
        std::optional<pph::mp::Message> m;
        while (!(m = comm.try_recv(1, 1))) {
        }
        if (i >= kWarm) hot.push_back((now_s() - t0) / 2.0);
      }
    } else {
      for (int i = 0; i < kHot + kWarm; ++i) {
        std::optional<pph::mp::Message> m;
        while (!(m = comm.try_recv(0, 1))) {
        }
        comm.send(0, 1, std::move(m->payload));
      }
    }
  });

  // Wake-up hop: the receiver has sat blocked in recv() for one median job
  // time when the message is sent.
  constexpr int kWake = 1000;
  std::vector<double> wake;
  pph::mp::World::run(2, [&](pph::mp::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> buf(std::max<std::size_t>(frame, sizeof(double)));
      for (int i = 0; i < kWake; ++i) {
        std::this_thread::sleep_for(std::chrono::duration<double>(block_seconds));
        const double sent = now_s();
        std::memcpy(buf.data(), &sent, sizeof sent);
        comm.send(1, 1, buf);
        comm.recv(1, 2);
      }
    } else {
      for (int i = 0; i < kWake; ++i) {
        const auto m = comm.recv(0, 1);
        const double arrived = now_s();
        double sent = 0.0;
        std::memcpy(&sent, m.payload.data(), sizeof sent);
        wake.push_back(arrived - sent);
        comm.send(0, 2, std::vector<std::byte>{});
      }
    }
  });

  // Pack + unpack of the run's own result records.
  std::vector<double> pack_wall, pack_cpu;
  for (const auto& tp : spread_sample(records, 256)) {
    const auto [w, c] = time_per_call(20, [&] {
      const auto bytes = pph::sched::pack_tracked_path(tp);
      const auto back = pph::sched::unpack_tracked_path(bytes);
      if (back.index != tp.index) std::abort();
    });
    pack_wall.push_back(w);
    pack_cpu.push_back(c);
  }

  std::printf("mp probes: frame %zu bytes, result %.1f bytes, receiver blocked %.3f ms\n", frame,
              result_bytes, block_seconds * 1e3);
  const Timing h = summarize(hot);
  const Timing wk = summarize(wake);
  print_timing("mp.hop_us", h, 1e6, "us");
  print_timing("mp.wake_hop_us", wk, 1e6, "us");
  metrics.add("mp.hop_us", h.median * 1e6, "us");
  metrics.add("mp.wake_hop_p50_us", wk.median * 1e6, "us");
  metrics.add("mp.wake_hop_p99_us", pph::util::percentile(wake, 99.0) * 1e6, "us");
  metrics.add("mp.bytes_per_job", static_cast<double>(frame) + result_bytes, "bytes");
  report_probe(metrics, "mp.pack_us", pack_wall, pack_cpu, 1e6, "us");
}

void probe_path_counts(Metrics& metrics, const std::vector<pph::sched::TrackedPath>& records) {
  double steps = 0.0, rejections = 0.0, newton = 0.0;
  for (const auto& tp : records) {
    steps += static_cast<double>(tp.result.steps);
    rejections += static_cast<double>(tp.result.rejections);
    newton += static_cast<double>(tp.result.newton_iterations);
  }
  const double n = std::max<double>(1.0, static_cast<double>(records.size()));
  std::printf("path counts over %zu jobs: %.3f steps, %.3f rejections, %.3f Newton iterations\n",
              records.size(), steps / n, rejections / n, newton / n);
  metrics.add("homotopy.steps_per_path", steps / n, "count");
  metrics.add("homotopy.rejections_per_path", rejections / n, "count");
  metrics.add("homotopy.newton_per_path", newton / n, "count");
}

void probe_store(Metrics& metrics, const std::string& path,
                 const std::vector<pph::sched::TrackedPath>& records,
                 std::vector<double> append_seconds) {
  if (append_seconds.empty()) {
    pph::sched::JsonlStoreSink sink(path);
    for (const auto& tp : records) {
      const double t0 = now_s();
      sink.accept(tp);
      append_seconds.push_back(now_s() - t0);
    }
    sink.finish();
  }
  const double bytes = static_cast<double>(std::filesystem::file_size(path));
  constexpr int kThreads = 2;  // explicit scan width, within any host's nproc here
  std::vector<double> open_s, summary_s, dedup_s;
  std::size_t summarized = 0, distinct = 0;
  for (int r = 0; r < 20; ++r) {
    const double t0 = now_s();
    const pph::store::StoreReader reader(path);
    open_s.push_back(now_s() - t0);
    if (r < 10) {
      const double t1 = now_s();
      summarized = pph::store::analytics::summarize(reader, kThreads).records;
      summary_s.push_back(now_s() - t1);
    }
    if (r < 5) {
      const double t2 = now_s();
      distinct = pph::store::analytics::dedup(reader, 1e-6, kThreads).distinct_solutions;
      dedup_s.push_back(now_s() - t2);
    }
  }
  std::printf("store probes: %zu records, %.0f bytes, %zu summarized, %zu distinct roots\n",
              records.size(), bytes, summarized, distinct);
  const Timing append = summarize(append_seconds);
  print_timing("store.append_us", append, 1e6, "us");
  print_timing("store.open_ms", summarize(open_s), 1e3, "ms");
  print_timing("store.summary_ms", summarize(summary_s), 1e3, "ms");
  print_timing("store.dedup_ms", summarize(dedup_s), 1e3, "ms");
  metrics.add("store.append_us", append.median * 1e6, "us");
  metrics.add("store.bytes_per_record",
              bytes / std::max<double>(1.0, static_cast<double>(records.size())), "bytes");
  metrics.add("store.open_ms", pph::util::median(open_s) * 1e3, "ms");
  metrics.add("store.summary_ms", pph::util::median(summary_s) * 1e3, "ms");
  metrics.add("store.dedup_ms", pph::util::median(dedup_s) * 1e3, "ms");
}

}  // namespace perfbench
