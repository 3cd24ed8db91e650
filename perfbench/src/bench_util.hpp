#pragma once
// Clocks, timing summaries and the metric record shared by the benchmark's
// files.  Nothing here touches the library under test.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

/// Monotonic wall clock in seconds (steady_clock; shared by all threads, so
/// spans recorded on different ranks are directly comparable).
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double timespec_s(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return timespec_s(ts);
}

/// User + system CPU time of the whole process (all threads).
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set size of this process in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Host CPU ticks from /proc/stat: total and the hypervisor's steal column.
/// Both read 0 where the file is unreadable.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

inline HostTicks host_ticks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  std::uint64_t v = 0;
  for (int col = 0; fields >> v; ++col) {
    if (col < 8) t.total += v;  // user..steal; guest columns are inside user
    if (col == 7) t.steal = v;
  }
  return t;
}

/// Share of the host's CPU ticks the hypervisor stole between two reads.
inline double steal_share(const HostTicks& a, const HostTicks& b) {
  const auto total = b.total - a.total;
  return total == 0 ? 0.0 : static_cast<double>(b.steal - a.steal) / static_cast<double>(total);
}

/// A timing as the benchmark reports it: the median, the highest percentile
/// of {50, 75, 90, 95, 99, 99.9} with at least ten samples beyond it, and
/// the sample count.  Fewer than forty samples report the median alone.
struct Timing {
  double median = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
  std::size_t n = 0;
};

inline Timing summarize(const std::vector<double>& xs) {
  Timing t;
  t.n = xs.size();
  if (xs.empty()) return t;
  t.median = pph::util::percentile(xs, 50.0);
  t.tail = t.median;
  if (xs.size() >= 40) {
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
      if ((1.0 - pct / 100.0) * static_cast<double>(xs.size()) >= 10.0) {
        t.tail_pct = pct;
        t.tail = pph::util::percentile(xs, pct);
        break;
      }
    }
  }
  return t;
}

/// Human-readable line for one timing, scaled into `unit` by `scale`.
inline void print_timing(const std::string& name, const Timing& t, double scale,
                         const char* unit) {
  if (t.tail_pct > 50.0) {
    std::printf("  %-26s median %12.4f %-5s p%-5g %12.4f %-5s n=%zu\n", name.c_str(),
                t.median * scale, unit, t.tail_pct, t.tail * scale, unit, t.n);
  } else {
    std::printf("  %-26s median %12.4f %-5s (median only)      n=%zu\n", name.c_str(),
                t.median * scale, unit, t.n);
  }
}

/// Ordered metric record: the `metrics` object of the result line.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }
  bool all_finite() const {
    for (const auto& e : entries_) {
      if (!std::isfinite(e.value)) return false;
    }
    return true;
  }
  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& e = entries_[i];
      std::snprintf(buf, sizeof buf, "%.10g", e.value);
      out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
