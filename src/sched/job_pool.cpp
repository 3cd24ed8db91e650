#include "sched/job_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace pph::sched {

void ParallelRunReport::tally() {
  std::sort(paths.begin(), paths.end(),
            [](const TrackedPath& a, const TrackedPath& b) { return a.index < b.index; });
  converged = diverged = failed = expired = cancelled = 0;
  for (const auto& tp : paths) {
    switch (tp.result.status) {
      case PathStatus::kConverged: ++converged; break;
      case PathStatus::kDiverged: ++diverged; break;
      case PathStatus::kFailed: ++failed; break;
      case PathStatus::kDeadlineExpired: ++expired; break;
      case PathStatus::kCancelled: ++cancelled; break;
    }
  }
}

namespace {

// Bit equality, not operator== -- a diverged path can legitimately carry
// NaN in its endpoint or residual, and NaN != NaN would make the predicate
// non-reflexive.  "Identical" means identical bits.
bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool bits_equal(const linalg::Complex& a, const linalg::Complex& b) {
  return bits_equal(a.real(), b.real()) && bits_equal(a.imag(), b.imag());
}

}  // namespace

bool identical_path_results(const ParallelRunReport& a, const ParallelRunReport& b) {
  if (a.paths.size() != b.paths.size()) return false;
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    if (a.paths[i].index != b.paths[i].index) return false;
    const PathResult& ra = a.paths[i].result;
    const PathResult& rb = b.paths[i].result;
    if (ra.status != rb.status || ra.steps != rb.steps || ra.rejections != rb.rejections ||
        ra.newton_iterations != rb.newton_iterations ||
        ra.rescue_attempts != rb.rescue_attempts || ra.rescued != rb.rescued) {
      return false;
    }
    if (!bits_equal(ra.t_reached, rb.t_reached) || !bits_equal(ra.residual, rb.residual) ||
        !bits_equal(ra.last_step, rb.last_step)) {
      return false;
    }
    if (ra.x.size() != rb.x.size()) return false;
    for (std::size_t k = 0; k < ra.x.size(); ++k) {
      if (!bits_equal(ra.x[k], rb.x[k])) return false;
    }
  }
  return true;
}

std::vector<std::byte> pack_tracked_path(const TrackedPath& tp) {
  mp::Packer p;
  p.write(static_cast<std::uint64_t>(tp.index));
  p.write(tp.worker);
  p.write(tp.seconds);
  p.write(static_cast<int>(tp.result.status));
  p.write(tp.result.t_reached);
  p.write(tp.result.residual);
  p.write(static_cast<std::uint64_t>(tp.result.steps));
  p.write(static_cast<std::uint64_t>(tp.result.rejections));
  p.write(static_cast<std::uint64_t>(tp.result.newton_iterations));
  p.write(tp.result.last_step);
  p.write(tp.result.rescue_attempts);
  p.write(static_cast<std::uint8_t>(tp.result.rescued ? 1 : 0));
  p.write_vector(tp.result.x);
  return p.take();
}

TrackedPath unpack_tracked_path(const std::vector<std::byte>& payload) {
  mp::Unpacker u(payload);
  TrackedPath tp;
  tp.index = static_cast<std::size_t>(u.read<std::uint64_t>());
  tp.worker = u.read<int>();
  tp.seconds = u.read<double>();
  tp.result.status = static_cast<PathStatus>(u.read<int>());
  tp.result.t_reached = u.read<double>();
  tp.result.residual = u.read<double>();
  tp.result.steps = static_cast<std::size_t>(u.read<std::uint64_t>());
  tp.result.rejections = static_cast<std::size_t>(u.read<std::uint64_t>());
  tp.result.newton_iterations = static_cast<std::size_t>(u.read<std::uint64_t>());
  tp.result.last_step = u.read<double>();
  tp.result.rescue_attempts = u.read<std::uint32_t>();
  tp.result.rescued = u.read<std::uint8_t>() != 0;
  tp.result.x = u.read_vector<linalg::Complex>();
  return tp;
}

std::vector<std::byte> pack_tracked_path_batch(const std::vector<TrackedPath>& tps) {
  mp::Packer p;
  p.write(static_cast<std::uint64_t>(tps.size()));
  for (const auto& tp : tps) p.write_vector(pack_tracked_path(tp));
  return p.take();
}

std::vector<TrackedPath> unpack_tracked_path_batch(const std::vector<std::byte>& payload) {
  mp::Unpacker u(payload);
  const auto count = static_cast<std::size_t>(u.read<std::uint64_t>());
  std::vector<TrackedPath> tps;
  tps.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tps.push_back(unpack_tracked_path(u.read_vector<std::byte>()));
  }
  return tps;
}

std::size_t guided_chunk_size(std::size_t remaining, std::size_t workers, double factor,
                              std::size_t min_chunk) {
  if (workers == 0) throw std::invalid_argument("guided_chunk_size: need workers > 0");
  if (factor <= 0.0) throw std::invalid_argument("guided_chunk_size: factor must be positive");
  if (min_chunk == 0) min_chunk = 1;
  auto chunk = static_cast<std::size_t>(static_cast<double>(remaining) /
                                        (factor * static_cast<double>(workers)));
  chunk = std::max(chunk, min_chunk);
  return std::min(chunk, remaining);
}

void inject_latency(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

}  // namespace pph::sched
