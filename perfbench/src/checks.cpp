#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

namespace perfbench {

namespace {

using LComplex = std::complex<long double>;

/// Determinant of a dense n x n long-double matrix (row-major, consumed)
/// by Gaussian elimination with partial pivoting.
LComplex determinant(std::vector<LComplex> a, std::size_t n) {
  LComplex det = 1.0L;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t r = k + 1; r < n; ++r) {
      if (std::abs(a[r * n + k]) > std::abs(a[piv * n + k])) piv = r;
    }
    if (a[piv * n + k] == LComplex{}) return LComplex{};
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[k * n + c], a[piv * n + c]);
      det = -det;
    }
    det *= a[k * n + k];
    for (std::size_t r = k + 1; r < n; ++r) {
      const LComplex f = a[r * n + k] / a[k * n + k];
      for (std::size_t c = k; c < n; ++c) a[r * n + c] -= f * a[k * n + c];
    }
  }
  return det;
}

long double inf_norm(const pph::linalg::CVector& x) {
  long double m = 0.0L;
  for (const auto& v : x) m = std::max(m, static_cast<long double>(std::abs(v)));
  return m;
}

/// Greedy clustering: representatives at relative inf-distance > tol.
std::size_t count_distinct(const std::vector<const pph::linalg::CVector*>& points, double tol,
                           double* min_distance) {
  std::vector<const pph::linalg::CVector*> reps;
  double closest = INFINITY;
  for (const auto* p : points) {
    bool fresh = true;
    for (const auto* r : reps) {
      double d = 0.0;
      for (std::size_t k = 0; k < p->size(); ++k) d = std::max(d, std::abs((*p)[k] - (*r)[k]));
      const double scale = std::max(1.0, static_cast<double>(std::max(inf_norm(*p), inf_norm(*r))));
      closest = std::min(closest, d / scale);
      if (d <= tol * scale) {
        fresh = false;
        break;
      }
    }
    if (fresh) reps.push_back(p);
  }
  if (min_distance != nullptr) *min_distance = closest;
  return reps.size();
}

}  // namespace

long double pieri_condition_residual(const pph::schubert::PieriMap& map,
                                     const pph::schubert::PlaneCondition& condition) {
  const std::size_t rows = map.problem().space_dim();  // m + p
  const std::size_t p = map.problem().p;
  const std::size_t m = map.problem().m;
  const LComplex s(condition.point.real(), condition.point.imag());
  std::vector<LComplex> a(rows * rows);
  // Map columns: X(s) = sum_d C_d s^d, Horner from the top degree.
  for (std::size_t d = map.degree() + 1; d-- > 0;) {
    const auto coeff = map.coefficient(d);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < p; ++c) {
        const auto& v = coeff(r, c);
        a[r * rows + c] = a[r * rows + c] * s + LComplex(v.real(), v.imag());
      }
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      const auto& v = condition.plane(r, c);
      a[r * rows + p + c] = LComplex(v.real(), v.imag());
    }
  }
  long double scale = 1.0L;
  for (std::size_t c = 0; c < rows; ++c) {
    long double norm2 = 0.0L;
    for (std::size_t r = 0; r < rows; ++r) norm2 += std::norm(a[r * rows + c]);
    scale *= std::sqrt(norm2);
  }
  const long double det = std::abs(determinant(std::move(a), rows));
  return scale > 0.0L ? det / scale : det;
}

PieriCheck check_pieri(const pph::schubert::PieriInput& input,
                       const std::vector<pph::schubert::PieriMap>& solutions,
                       std::size_t expected, long double tol) {
  PieriCheck out;
  if (solutions.size() != expected) {
    out.error = "pieri: " + std::to_string(solutions.size()) + " solutions, expected " +
                std::to_string(expected);
    return out;
  }
  for (const auto& sol : solutions) {
    for (const auto& cond : input.conditions) {
      out.max_residual = std::max(out.max_residual, pieri_condition_residual(sol, cond));
    }
  }
  if (!(out.max_residual <= tol)) {
    out.error = "pieri: a solution misses a condition (relative det residual " +
                std::to_string(static_cast<double>(out.max_residual)) + ")";
    return out;
  }
  std::vector<const pph::linalg::CVector*> points;
  for (const auto& sol : solutions) points.push_back(&sol.coords());
  const std::size_t distinct = count_distinct(points, 1e-6, &out.min_distance);
  if (distinct != solutions.size()) {
    out.error = "pieri: only " + std::to_string(distinct) + " of " +
                std::to_string(solutions.size()) + " solutions are pairwise distinct";
  }
  return out;
}

long double cyclic_residual(const pph::linalg::CVector& xd) {
  const std::size_t n = xd.size();
  std::vector<LComplex> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = LComplex(xd[i].real(), xd[i].imag());
  long double worst = 0.0L;
  // f_k = sum_i prod_{j=i}^{i+k-1} x_{j mod n}, k = 1..n-1.
  for (std::size_t k = 1; k < n; ++k) {
    LComplex sum = 0.0L;
    long double mag = 0.0L;
    for (std::size_t i = 0; i < n; ++i) {
      LComplex term = 1.0L;
      for (std::size_t j = i; j < i + k; ++j) term *= x[j % n];
      sum += term;
      mag += std::abs(term);
    }
    worst = std::max(worst, std::abs(sum) / std::max(mag, 1.0L));
  }
  // f_n = prod x - 1.
  LComplex prod = 1.0L;
  for (const auto& v : x) prod *= v;
  worst = std::max(worst, std::abs(prod - 1.0L) / (std::abs(prod) + 1.0L));
  return worst;
}

CyclicCheck check_cyclic(const pph::sched::ParallelRunReport& report,
                         const std::vector<std::size_t>& origin, std::size_t min_roots,
                         std::size_t max_roots, std::span<const std::size_t> failed_starts,
                         long double tol) {
  CyclicCheck out;
  const std::size_t jobs = origin.size();
  std::vector<char> seen(jobs, 0);
  std::vector<const pph::linalg::CVector*> endpoints;
  std::vector<std::size_t> failed;
  for (const auto& tp : report.paths) {
    if (tp.index >= jobs || seen[tp.index]) {
      out.error = "cyclic: job " + std::to_string(tp.index) + " reported twice or unknown";
      return out;
    }
    seen[tp.index] = 1;
    switch (tp.result.status) {
      case pph::homotopy::PathStatus::kConverged:
        ++out.converged;
        out.max_residual = std::max(out.max_residual, cyclic_residual(tp.result.x));
        endpoints.push_back(&tp.result.x);
        break;
      case pph::homotopy::PathStatus::kDiverged:
        ++out.diverged;
        break;
      default:
        ++out.failed;
        failed.push_back(origin[tp.index]);
        break;
    }
  }
  if (report.paths.size() != jobs) {
    out.error = "cyclic: " + std::to_string(report.paths.size()) + " of " +
                std::to_string(jobs) + " jobs accounted for";
    return out;
  }
  if (!(out.max_residual <= tol)) {
    out.error = "cyclic: a converged endpoint misses the equations (scaled residual " +
                std::to_string(static_cast<double>(out.max_residual)) + ")";
    return out;
  }
  std::sort(failed.begin(), failed.end());
  std::vector<std::size_t> known(failed_starts.begin(), failed_starts.end());
  std::sort(known.begin(), known.end());
  if (failed != known) {
    out.error = "cyclic: the failed paths, by start index, are {";
    for (std::size_t i = 0; i < failed.size(); ++i) {
      out.error += (i == 0 ? "" : ", ") + std::to_string(failed[i]);
    }
    out.error += "}, not the " + std::to_string(known.size()) + " known ones";
    return out;
  }
  out.distinct = count_distinct(endpoints, 1e-6, nullptr);
  if (out.distinct > max_roots) {
    out.error = "cyclic: " + std::to_string(out.distinct) + " distinct endpoints, more than " +
                std::to_string(max_roots) + " roots exist";
  } else if (out.distinct < min_roots) {
    out.error = "cyclic: only " + std::to_string(out.distinct) + " distinct roots, fewer than " +
                std::to_string(min_roots);
  }
  return out;
}

}  // namespace perfbench
