// pph_store: query a JSONL result store (or a sharded set of them) from
// the command line.  A thin shell over store::StoreReader + the
// store::analytics library -- the CLI parses arguments and formats; every
// number comes from the library so tests and CI pin the same code path.
//
//   pph_store summary   STORE...   status/effort totals + per-shard state
//   pph_store dedup     STORE...   global solution identity across shards
//   pph_store failures  STORE...   per-tree-level failure / rescue rates
//   pph_store residuals STORE...   decade histograms: residuals, |x|_inf
//
// STORE arguments may contain '*' in the filename (expanded internally,
// sorted), so a sharded run reads as one logical store:
//   pph_store dedup '/tmp/run/store-*.jsonl'
//
// Options:
//   --json               machine-readable output (one JSON object)
//   --threads N          scan worker threads (default: hardware)
//   --tol X              dedup geometric tolerance (default 1e-8)
//   --expect-records N   fail (exit 1) unless exactly N unique records
//   --expect-distinct N  fail (exit 1) unless exactly N distinct solutions
//
// Exit codes: 0 ok; 1 an --expect-* check failed; 2 usage error;
// 3 no readable store behind the arguments.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "store/analytics.hpp"
#include "store/store_reader.hpp"
#include "util/table.hpp"

namespace {

using namespace pph;

struct Options {
  std::string command;
  std::vector<std::string> stores;
  bool json = false;
  int threads = 0;
  double tol = 1e-8;
  long long expect_records = -1;
  long long expect_distinct = -1;
};

int usage() {
  std::fprintf(stderr,
               "usage: pph_store <summary|dedup|failures|residuals> STORE...\n"
               "       [--json] [--threads N] [--tol X]\n"
               "       [--expect-records N] [--expect-distinct N]\n"
               "STORE may contain '*' in the filename (sharded stores).\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  if (argc < 3) return false;
  opt.command = argv[1];
  if (opt.command != "summary" && opt.command != "dedup" &&
      opt.command != "failures" && opt.command != "residuals") {
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--threads") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.threads = std::atoi(v);
    } else if (arg == "--tol") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.tol = std::atof(v);
    } else if (arg == "--expect-records") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.expect_records = std::atoll(v);
    } else if (arg == "--expect-distinct") {
      const char* v = value();
      if (v == nullptr) return false;
      opt.expect_distinct = std::atoll(v);
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else {
      opt.stores.push_back(arg);
    }
  }
  return !opt.stores.empty();
}

/// Shard state table shared by the text modes.
void print_shards(const store::MultiStoreReader& multi) {
  util::Table table("shards");
  table.set_header({"path", "v", "records", "indexed", "truncated", "dupes"});
  for (std::size_t k = 0; k < multi.shard_count(); ++k) {
    const store::StoreReader& s = multi.shard(k);
    table.add_row({s.path(), std::to_string(s.version()), util::Table::cell(s.size()),
                   s.indexed() ? "yes" : "no", s.truncated() ? "yes" : "no",
                   util::Table::cell(s.duplicates_dropped())});
  }
  table.print(std::cout);
}

void append_shards_json(std::string& out, const store::MultiStoreReader& multi) {
  out += "\"shards\":[";
  for (std::size_t k = 0; k < multi.shard_count(); ++k) {
    const store::StoreReader& s = multi.shard(k);
    if (k != 0) out += ',';
    out += "{\"path\":\"" + s.path() + "\",\"version\":" + std::to_string(s.version()) +
           ",\"records\":" + std::to_string(s.size()) +
           ",\"indexed\":" + (s.indexed() ? "true" : "false") +
           ",\"truncated\":" + (s.truncated() ? "true" : "false") + "}";
  }
  out += ']';
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

int run_summary(const store::MultiStoreReader& multi, const Options& opt) {
  const auto s = store::analytics::summarize(multi, opt.threads);
  if (opt.json) {
    std::string out = "{";
    append_shards_json(out, multi);
    out += ",\"records\":" + std::to_string(s.records) +
           ",\"converged\":" + std::to_string(s.converged) +
           ",\"diverged\":" + std::to_string(s.diverged) +
           ",\"failed\":" + std::to_string(s.failed) +
           ",\"rescued\":" + std::to_string(s.rescued) +
           ",\"rescue_attempts\":" + std::to_string(s.rescue_attempts) +
           ",\"steps\":" + std::to_string(s.steps) +
           ",\"rejections\":" + std::to_string(s.rejections) +
           ",\"newton_iterations\":" + std::to_string(s.newton_iterations) +
           ",\"track_seconds\":" + fmt_double(s.track_seconds) +
           ",\"max_converged_residual\":" + fmt_double(s.max_converged_residual) + "}";
    std::cout << out << "\n";
  } else {
    print_shards(multi);
    util::Table table("summary");
    table.set_header({"records", "converged", "diverged", "failed", "rescued",
                      "steps", "newton", "track s", "max res"});
    table.add_row({util::Table::cell(s.records), util::Table::cell(s.converged),
                   util::Table::cell(s.diverged), util::Table::cell(s.failed),
                   util::Table::cell(s.rescued), util::Table::cell(std::size_t(s.steps)),
                   util::Table::cell(std::size_t(s.newton_iterations)),
                   fmt_double(s.track_seconds), fmt_double(s.max_converged_residual)});
    table.print(std::cout);
  }
  if (opt.expect_records >= 0 &&
      s.records != static_cast<std::size_t>(opt.expect_records)) {
    std::fprintf(stderr, "pph_store: expected %lld records, found %zu\n",
                 opt.expect_records, s.records);
    return 1;
  }
  return 0;
}

int run_dedup(const store::MultiStoreReader& multi, const Options& opt) {
  const auto d = store::analytics::dedup(multi, opt.tol, opt.threads);
  if (opt.json) {
    // The "counts" object is the CI comparison key: a killed-and-resumed
    // sharded run must produce counts bit-identical to an uninterrupted one.
    std::string out = "{";
    append_shards_json(out, multi);
    out += ",\"tol\":" + fmt_double(d.tol) +
           ",\"counts\":{\"records\":" + std::to_string(d.records) +
           ",\"unique_ids\":" + std::to_string(d.unique_ids) +
           ",\"duplicate_ids\":" + std::to_string(d.duplicate_ids) +
           ",\"converged\":" + std::to_string(d.converged) +
           ",\"distinct_solutions\":" + std::to_string(d.distinct_solutions) + "}}";
    std::cout << out << "\n";
  } else {
    print_shards(multi);
    util::Table table("global dedup (tol " + fmt_double(d.tol) + ")");
    table.set_header(
        {"records", "unique ids", "dup ids", "converged", "distinct"});
    table.add_row({util::Table::cell(d.records), util::Table::cell(d.unique_ids),
                   util::Table::cell(d.duplicate_ids), util::Table::cell(d.converged),
                   util::Table::cell(d.distinct_solutions)});
    table.print(std::cout);
  }
  if (opt.expect_records >= 0 &&
      d.unique_ids != static_cast<std::size_t>(opt.expect_records)) {
    std::fprintf(stderr, "pph_store: expected %lld unique records, found %zu\n",
                 opt.expect_records, d.unique_ids);
    return 1;
  }
  if (opt.expect_distinct >= 0 &&
      d.distinct_solutions != static_cast<std::size_t>(opt.expect_distinct)) {
    std::fprintf(stderr, "pph_store: expected %lld distinct solutions, found %zu\n",
                 opt.expect_distinct, d.distinct_solutions);
    return 1;
  }
  return 0;
}

int run_failures(const store::MultiStoreReader& multi, const Options& opt) {
  const auto t = store::analytics::level_table(multi, opt.threads);
  if (opt.json) {
    std::string out = "{";
    append_shards_json(out, multi);
    out += ",\"levels\":[";
    bool first = true;
    for (const auto& [level, row] : t.rows) {
      if (!first) out += ',';
      first = false;
      out += "{\"level\":" + std::to_string(level) +
             ",\"records\":" + std::to_string(row.records) +
             ",\"converged\":" + std::to_string(row.converged) +
             ",\"diverged\":" + std::to_string(row.diverged) +
             ",\"failed\":" + std::to_string(row.failed) +
             ",\"rescued\":" + std::to_string(row.rescued) +
             ",\"failure_rate\":" + fmt_double(row.failure_rate()) +
             ",\"rescue_rate\":" + fmt_double(row.rescue_rate()) + "}";
    }
    out += "]}";
    std::cout << out << "\n";
  } else {
    print_shards(multi);
    util::Table table("per-level failure / rescue rates");
    table.set_header({"level", "records", "converged", "diverged", "failed",
                      "rescued", "fail rate", "rescue rate"});
    for (const auto& [level, row] : t.rows) {
      table.add_row({std::to_string(level), util::Table::cell(row.records),
                     util::Table::cell(row.converged), util::Table::cell(row.diverged),
                     util::Table::cell(row.failed), util::Table::cell(row.rescued),
                     util::Table::cell_ratio(row.failure_rate(), 4),
                     util::Table::cell_ratio(row.rescue_rate(), 4)});
    }
    table.print(std::cout);
  }
  return 0;
}

void append_histogram_json(std::string& out, const char* name,
                           const store::analytics::DecadeHistogram& h) {
  out += '"';
  out += name;
  out += "\":{\"total\":";
  out += std::to_string(h.total);
  out += ",\"zeros\":";
  out += std::to_string(h.zeros);
  out += ",\"nonfinite\":";
  out += std::to_string(h.nonfinite);
  out += ",\"decades\":[";
  bool first = true;
  for (int e = store::analytics::DecadeHistogram::kMinExp;
       e <= store::analytics::DecadeHistogram::kMaxExp; ++e) {
    if (h.bucket(e) == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[';
    out += std::to_string(e);
    out += ',';
    out += std::to_string(h.bucket(e));
    out += ']';
  }
  out += "]}";
}

void print_histogram(const char* title, const store::analytics::DecadeHistogram& h) {
  util::Table table(title);
  table.set_header({"decade", "count"});
  if (h.zeros > 0) table.add_row({"0", util::Table::cell(std::size_t(h.zeros))});
  for (int e = store::analytics::DecadeHistogram::kMinExp;
       e <= store::analytics::DecadeHistogram::kMaxExp; ++e) {
    if (h.bucket(e) == 0) continue;
    table.add_row({"1e" + std::to_string(e), util::Table::cell(std::size_t(h.bucket(e)))});
  }
  if (h.nonfinite > 0) {
    table.add_row({"nan/inf", util::Table::cell(std::size_t(h.nonfinite))});
  }
  table.print(std::cout);
}

int run_residuals(const store::MultiStoreReader& multi, const Options& opt) {
  const auto h = store::analytics::histograms(multi, opt.threads);
  if (opt.json) {
    std::string out = "{";
    append_shards_json(out, multi);
    out += ',';
    append_histogram_json(out, "residual", h.residual);
    out += ',';
    append_histogram_json(out, "endpoint_norm", h.endpoint_norm);
    out += '}';
    std::cout << out << "\n";
  } else {
    print_shards(multi);
    print_histogram("converged residuals (decades)", h.residual);
    print_histogram("endpoint |x|_inf (decades)", h.endpoint_norm);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();

  const std::vector<std::string> paths = store::expand_store_paths(opt.stores);
  if (paths.empty()) {
    std::fprintf(stderr, "pph_store: no store matches the given arguments\n");
    return 3;
  }
  try {
    const store::MultiStoreReader multi(paths, {});
    bool any = false;
    for (std::size_t k = 0; k < multi.shard_count(); ++k) {
      any = any || multi.shard(k).exists();
    }
    if (!any) {
      std::fprintf(stderr, "pph_store: no readable store behind the arguments\n");
      return 3;
    }
    if (opt.command == "summary") return run_summary(multi, opt);
    if (opt.command == "dedup") return run_dedup(multi, opt);
    if (opt.command == "failures") return run_failures(multi, opt);
    return run_residuals(multi, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pph_store: %s\n", e.what());
    return 3;
  }
}
