#include "sched/pieri_scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace pph::sched {

namespace {

/// Edge payload: target pattern, attempt, rescue round, start coordinates.
std::vector<std::byte> pack_edge(const schubert::PieriEdge& edge) {
  mp::Packer p;
  p.write(static_cast<std::uint32_t>(edge.pivots.size()));
  for (const std::size_t piv : edge.pivots) p.write(static_cast<std::uint32_t>(piv));
  p.write(edge.attempt);
  p.write(edge.rescue);
  p.write_vector(edge.start);
  return p.take();
}

schubert::PieriEdge unpack_edge(const std::vector<std::byte>& payload) {
  mp::Unpacker u(payload);
  schubert::PieriEdge edge;
  const auto np = u.read<std::uint32_t>();
  edge.pivots.reserve(np);
  for (std::uint32_t i = 0; i < np; ++i) edge.pivots.push_back(u.read<std::uint32_t>());
  edge.attempt = u.read<std::uint32_t>();
  edge.rescue = u.read<std::uint32_t>();
  edge.start = u.read_vector<linalg::Complex>();
  return edge;
}

}  // namespace

// ---------------------------------------------------------------------------
// PieriTreeJobSource
// ---------------------------------------------------------------------------

std::vector<std::byte> PieriTreeJobSource::job_payload(JobId id) const {
  const schubert::PieriEdge* edge = walk_.find(id);
  if (edge == nullptr) throw std::out_of_range("PieriTreeJobSource: unknown job id");
  return pack_edge(*edge);
}

bool PieriTreeJobSource::consume(TrackedPath& tp) {
  const schubert::PieriEdge* edge = walk_.find(tp.index);
  if (edge == nullptr) return false;  // unknown id: corrupt session state
  // Master-side provenance: slaves never know the tree level, so it is
  // stamped here, before any sink (e.g. a result store) sees the record.
  tp.level = static_cast<std::uint32_t>(walk_.level(*edge));
  return walk_.consume(tp.index, tp.result, tp.seconds);
}

PathResult PieriTreeJobSource::execute(const std::vector<std::byte>& payload,
                                       homotopy::TrackerWorkspace& ws) const {
  return walk_.execute(unpack_edge(payload), ws);
}

std::vector<std::vector<linalg::Complex>> canonical_solution_set(
    const std::vector<schubert::PieriMap>& solutions) {
  std::vector<std::vector<linalg::Complex>> out;
  out.reserve(solutions.size());
  for (const auto& sol : solutions) out.push_back(sol.coords());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k].real() != b[k].real()) return a[k].real() < b[k].real();
      if (a[k].imag() != b[k].imag()) return a[k].imag() < b[k].imag();
    }
    return false;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------------

ParallelPieriReport run_pieri(const schubert::PieriInput& input, int ranks,
                              SessionOptions session,
                              const schubert::PieriSolverOptions& solver) {
  if (session.policy == Policy::kStatic) {
    throw std::invalid_argument(
        "run_pieri: tree jobs are created by results; no static pre-assignment "
        "exists");
  }
  PieriTreeJobSource source(input, solver);
  // The walk accumulates everything the report needs in consume();
  // buffering per-edge records here would break the section III-C memory
  // bound that peak_active_instances measures.
  DiscardSink sink;
  session.who = "run_pieri";
  ParallelPieriReport report;
  report.session = Session(source, sink, session).run(ranks);
  source.assemble(report);
  report.seconds = report.session.wall_seconds;
  return report;
}

}  // namespace pph::sched
