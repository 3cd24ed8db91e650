// Tests for the compiled Pieri edge tape (eval::CompiledPieriHomotopy and
// its PieriEdgeHomotopy fast path): golden equivalence against the
// interpreted bordered-determinant walk on H, dH/dx, and dH/dt across
// random charts, levels, and detours; finite differences for dH/dt
// (including the t(1-t) detour terms); the degenerate corners (t = 0,
// t = 1, zero coordinates, level-1 charts); bit-exact workspace reuse
// across instances of different sizes; an allocation-free steady-state
// predictor/corrector loop; and solution-set identity — compiled vs
// interpreted within tracking tolerance, and bit-identical across the
// FCFS and BatchSteal scheduler policies with the engine on.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "homotopy/corrector.hpp"
#include "homotopy/predictor.hpp"
#include "sched/pieri_scheduler.hpp"
#include "schubert/pieri_homotopy.hpp"
#include "schubert/pieri_solver.hpp"
#include "schubert/pieri_walk.hpp"
#include "schubert/poset.hpp"
#include "util/prng.hpp"

// ---- global allocation counter --------------------------------------------
//
// Same scheme as test_eval: malloc-backed replacements so the no-allocation
// test observes every operator-new in the process and composes with ASan.

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using pph::linalg::CMatrix;
using pph::linalg::Complex;
using pph::linalg::CVector;
using pph::schubert::Pattern;
using pph::schubert::PatternChart;
using pph::schubert::PieriEdgeHomotopy;
using pph::schubert::PieriEvalWorkspace;
using pph::schubert::PieriProblem;
using pph::schubert::PlaneCondition;
using pph::util::Prng;

double rel_err(Complex got, Complex want) {
  return std::abs(got - want) / (1.0 + std::abs(want));
}

CVector random_point(Prng& rng, std::size_t n) {
  CVector x(n);
  for (auto& v : x) v = rng.normal_complex();
  return x;
}

/// An edge homotopy into a pattern at `level` of `pb` (first pattern of the
/// level), with random gamma and point-path detours.
PieriEdgeHomotopy make_edge_homotopy(const PieriProblem& pb, std::size_t level, Prng& rng,
                                     const pph::schubert::PieriInput& input) {
  pph::schubert::PatternPoset poset(pb);
  const auto& patterns = poset.patterns_at_level(level);
  const Pattern& pattern = patterns[rng.uniform_index(patterns.size())];
  PatternChart chart(pattern);
  const std::vector<PlaneCondition> fixed(input.conditions.begin(),
                                          input.conditions.begin() + (level - 1));
  return PieriEdgeHomotopy(chart, fixed, input.conditions[level - 1], rng.unit_complex(),
                           0.7 * rng.unit_complex(), 0.7 * rng.unit_complex());
}

// ---- golden equivalence vs the interpreted path ---------------------------

TEST(CompiledPieri, MatchesInterpretedAcrossChartsLevelsAndDetours) {
  Prng rng(301);
  const PieriProblem problems[] = {{2, 2, 1}, {3, 2, 1}, {2, 3, 0}, {3, 3, 0}};
  for (const auto& pb : problems) {
    const auto input = pph::schubert::random_pieri_input(pb, rng);
    const std::size_t n = pb.condition_count();
    for (const std::size_t level : {std::size_t{1}, (n + 1) / 2, n}) {
      const auto h = make_edge_homotopy(pb, level, rng, input);
      auto ws = h.make_workspace();
      ASSERT_NE(ws, nullptr);
      CVector hv, ht;
      CMatrix jac;
      for (const double t : {0.0, 0.31, 0.77, 1.0}) {
        const CVector x = random_point(rng, h.dimension());
        h.evaluate_fused(x, t, ws.get(), hv, jac, ht);
        const CVector want_h = h.evaluate(x, t);          // interpreted reference
        const CMatrix want_j = h.jacobian_x(x, t);
        const CVector want_t = h.derivative_t(x, t);
        for (std::size_t i = 0; i < h.dimension(); ++i) {
          EXPECT_LT(rel_err(hv[i], want_h[i]), 1e-12)
              << "H, (m,p,q)=(" << pb.m << "," << pb.p << "," << pb.q << ") level " << level
              << " t=" << t << " row " << i;
          EXPECT_LT(rel_err(ht[i], want_t[i]), 1e-12) << "dH/dt row " << i << " t=" << t;
          for (std::size_t c = 0; c < h.dimension(); ++c) {
            EXPECT_LT(rel_err(jac(i, c), want_j(i, c)), 1e-12)
                << "dH/dx(" << i << "," << c << ") t=" << t;
          }
        }
      }
    }
  }
}

TEST(CompiledPieri, FastPathVirtualsMatchGoldenReference) {
  // The Homotopy-level entry points the tracker actually calls, with the
  // homotopy's own workspace and with nullptr (interpreted fallback).
  Prng rng(302);
  const PieriProblem pb{3, 2, 1};
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto h = make_edge_homotopy(pb, pb.condition_count(), rng, input);
  const CVector x = random_point(rng, h.dimension());
  const double t = 0.43;
  const CVector want_h = h.evaluate(x, t);
  const CMatrix want_j = h.jacobian_x(x, t);

  auto ws = h.make_workspace();
  ASSERT_NE(dynamic_cast<PieriEvalWorkspace*>(ws.get()), nullptr);
  CVector hv;
  CMatrix jac;
  for (pph::homotopy::HomotopyWorkspace* w :
       {ws.get(), static_cast<pph::homotopy::HomotopyWorkspace*>(nullptr)}) {
    h.evaluate_with_jacobian_into(x, t, w, hv, jac);
    for (std::size_t i = 0; i < h.dimension(); ++i) {
      EXPECT_LT(rel_err(hv[i], want_h[i]), 1e-12);
      for (std::size_t c = 0; c < h.dimension(); ++c) {
        EXPECT_LT(rel_err(jac(i, c), want_j(i, c)), 1e-12);
      }
    }
    h.evaluate_into(x, t, w, hv);
    for (std::size_t i = 0; i < h.dimension(); ++i) {
      EXPECT_LT(rel_err(hv[i], want_h[i]), 1e-12);
    }
  }

  // With the engine disabled the homotopy advertises no fast path.
  auto h2 = make_edge_homotopy(pb, pb.condition_count(), rng, input);
  h2.set_compiled(false);
  EXPECT_EQ(h2.make_workspace(), nullptr);
}

// ---- finite differences ----------------------------------------------------

TEST(CompiledPieri, DerivativeTMatchesFiniteDifferencesWithDetours) {
  // Nonzero detour constants: dH/dt must carry the t(1-t) bump terms, which
  // vanish at t = 1/2 in value but not in slope — probe away from 1/2 too.
  Prng rng(303);
  const PieriProblem pb{2, 2, 1};
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto h = make_edge_homotopy(pb, pb.condition_count(), rng, input);
  auto ws = h.make_workspace();
  CVector hv, ht, hp, hm;
  CMatrix jac;
  const CVector x = random_point(rng, h.dimension());
  const double eps = 1e-7;
  for (const double t : {0.2, 0.5, 0.9}) {
    h.evaluate_fused(x, t, ws.get(), hv, jac, ht);
    h.evaluate_into(x, t + eps, ws.get(), hp);
    h.evaluate_into(x, t - eps, ws.get(), hm);
    for (std::size_t i = 0; i < h.dimension(); ++i) {
      const Complex fd = (hp[i] - hm[i]) / (2.0 * eps);
      EXPECT_NEAR(std::abs(ht[i] - fd), 0.0, 1e-5 * (1.0 + std::abs(fd)))
          << "row " << i << " t=" << t;
    }
  }
}

TEST(CompiledPieri, JacobianMatchesFiniteDifferences) {
  Prng rng(304);
  const PieriProblem pb{2, 3, 0};
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto h = make_edge_homotopy(pb, pb.condition_count(), rng, input);
  auto ws = h.make_workspace();
  CVector hv, vp, vm;
  CMatrix jac;
  const CVector x = random_point(rng, h.dimension());
  const double t = 0.6, eps = 1e-6;
  h.evaluate_with_jacobian_into(x, t, ws.get(), hv, jac);
  for (std::size_t v = 0; v < x.size(); ++v) {
    CVector xp = x, xm = x;
    xp[v] += eps;
    xm[v] -= eps;
    h.evaluate_into(xp, t, ws.get(), vp);
    h.evaluate_into(xm, t, ws.get(), vm);
    for (std::size_t i = 0; i < hv.size(); ++i) {
      const Complex fd = (vp[i] - vm[i]) / (2.0 * eps);
      EXPECT_NEAR(std::abs(jac(i, v) - fd), 0.0, 1e-5 * (1.0 + std::abs(fd)))
          << "row " << i << " var " << v;
    }
  }
}

// ---- degenerate corners ----------------------------------------------------

TEST(CompiledPieri, StartResidualZeroAtTZeroForChildSolution) {
  // At t = 0 the homotopy vanishes on the embedded child solution (the
  // tracker's start point); the compiled tape must reproduce that exactly
  // enough for the start residual check, including u(0) = 0 powers.
  Prng rng(305);
  const PieriProblem pb{2, 2, 1};
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const Pattern minimal = Pattern::minimal(pb);
  const auto parents = minimal.parents();
  ASSERT_FALSE(parents.empty());
  PatternChart chart(parents[0]);
  const CVector start = chart.embed_child(PatternChart(minimal), CVector{});
  PieriEdgeHomotopy h(chart, {}, input.conditions[0], rng.unit_complex(),
                      0.7 * rng.unit_complex(), 0.7 * rng.unit_complex());
  auto ws = h.make_workspace();
  CVector hv;
  h.evaluate_into(start, 0.0, ws.get(), hv);
  EXPECT_LT(pph::linalg::norm2(hv), 1e-12);
}

TEST(CompiledPieri, ZeroCoordinatesAndLevelOne) {
  Prng rng(306);
  const PieriProblem pb{3, 2, 1};
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  // Level 1: a single equation, no fixed conditions.
  {
    const auto h = make_edge_homotopy(pb, 1, rng, input);
    ASSERT_EQ(h.dimension(), 1u);
    auto ws = h.make_workspace();
    CVector hv, ht;
    CMatrix jac;
    for (const double t : {0.0, 0.5, 1.0}) {
      const CVector x = random_point(rng, 1);
      h.evaluate_fused(x, t, ws.get(), hv, jac, ht);
      EXPECT_LT(rel_err(hv[0], h.evaluate(x, t)[0]), 1e-12);
      EXPECT_LT(rel_err(jac(0, 0), h.jacobian_x(x, t)(0, 0)), 1e-12);
      EXPECT_LT(rel_err(ht[0], h.derivative_t(x, t)[0]), 1e-12);
    }
  }
  // All-zero coordinates at the full level (the freshly opened star cells
  // of every embedded start are zero, so this is the common case).
  {
    const auto h = make_edge_homotopy(pb, pb.condition_count(), rng, input);
    auto ws = h.make_workspace();
    const CVector x(h.dimension(), Complex{});
    CVector hv, ht;
    CMatrix jac;
    for (const double t : {0.0, 0.37, 1.0}) {
      h.evaluate_fused(x, t, ws.get(), hv, jac, ht);
      const CVector want_h = h.evaluate(x, t);
      const CMatrix want_j = h.jacobian_x(x, t);
      const CVector want_t = h.derivative_t(x, t);
      for (std::size_t i = 0; i < h.dimension(); ++i) {
        EXPECT_LT(rel_err(hv[i], want_h[i]), 1e-12);
        EXPECT_LT(rel_err(ht[i], want_t[i]), 1e-12);
        for (std::size_t c = 0; c < h.dimension(); ++c) {
          EXPECT_LT(rel_err(jac(i, c), want_j(i, c)), 1e-12);
        }
      }
    }
  }
}

// ---- workspace reuse across instances -------------------------------------

TEST(CompiledPieri, WorkspaceReusedAcrossInstancesIsBitExact) {
  // A slave's family workspace serves edges of different patterns, levels,
  // and deformations in sequence.  Results must not depend on what the
  // workspace evaluated before (the owner-id cache key): compare against a
  // fresh workspace bit for bit.
  Prng rng(307);
  const PieriProblem pb{3, 2, 1};
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto ha = make_edge_homotopy(pb, 3, rng, input);
  const auto hb = make_edge_homotopy(pb, pb.condition_count(), rng, input);

  PieriEvalWorkspace shared;  // family workspace, reused A -> B
  PieriEvalWorkspace fresh;   // B only
  CVector h_shared, t_shared, h_fresh, t_fresh, scratch_h, scratch_t;
  CMatrix j_shared, j_fresh, scratch_j;

  const CVector xa = random_point(rng, ha.dimension());
  const CVector xb = random_point(rng, hb.dimension());
  ha.evaluate_fused(xa, 0.63, &shared, scratch_h, scratch_j, scratch_t);  // warm A
  hb.evaluate_fused(xb, 0.29, &shared, h_shared, j_shared, t_shared);
  hb.evaluate_fused(xb, 0.29, &fresh, h_fresh, j_fresh, t_fresh);
  ASSERT_EQ(h_shared.size(), h_fresh.size());
  for (std::size_t i = 0; i < h_fresh.size(); ++i) {
    EXPECT_EQ(h_shared[i], h_fresh[i]);
    EXPECT_EQ(t_shared[i], t_fresh[i]);
    for (std::size_t c = 0; c < h_fresh.size(); ++c) {
      EXPECT_EQ(j_shared(i, c), j_fresh(i, c));
    }
  }
}

// ---- allocation-free steady state ------------------------------------------

TEST(PieriAllocation, SteadyStateTrackLoopAllocatesNothing) {
  // The Pieri track loop the scheduler slaves run: tangent prediction plus
  // Newton correction through the compiled tape, with the workspace made
  // once per slave.  After warm-up, zero heap allocations.
  Prng rng(308);
  const PieriProblem pb{3, 2, 1};
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  const auto h = make_edge_homotopy(pb, pb.condition_count(), rng, input);
  pph::homotopy::TrackerWorkspace ws(h);
  ASSERT_NE(dynamic_cast<PieriEvalWorkspace*>(ws.hws.get()), nullptr);

  pph::homotopy::CorrectorOptions opts;
  opts.max_iterations = 4;
  opts.residual_tolerance = 1e-300;  // force full Newton iterations incl. LU
  const CVector x0 = random_point(rng, h.dimension());
  CVector x = x0;
  CVector predicted(h.dimension());

  // Warm-up sizes every buffer (powers, minors, coefficients, LU pair).
  for (int i = 0; i < 3; ++i) {
    x = x0;
    pph::homotopy::predict_tangent(h, x, 0.02 * (i + 1), 0.01, ws, predicted);
    pph::homotopy::correct(h, x, 0.02 * (i + 1), opts, ws);
  }

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) {
    x = x0;  // same-size copy-assign, no allocation
    const double t = 0.01 * (i % 40);  // t moves: per-t refresh must not allocate
    pph::homotopy::predict_tangent(h, x, t, 0.01, ws, predicted);
    pph::homotopy::correct(h, x, t, opts, ws);
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state Pieri track loop allocated " << (after - before)
                           << " times";
}

// ---- solution-set identity -------------------------------------------------

TEST(CompiledPieri, SolveMatchesInterpretedSolutionSet) {
  const PieriProblem pb{2, 2, 1};
  pph::schubert::PieriSolverOptions interp;
  interp.compiled_eval = false;
  pph::schubert::PieriSolverOptions comp;
  comp.compiled_eval = true;
  const auto a = pph::schubert::solve_random_pieri(pb, /*seed=*/21, interp);
  const auto b = pph::schubert::solve_random_pieri(pb, /*seed=*/21, comp);
  ASSERT_TRUE(a.complete());
  ASSERT_TRUE(b.complete());
  ASSERT_EQ(a.solutions.size(), b.solutions.size());
  // Same deformations, same start points: the endpoints pair up within the
  // tracking tolerance after canonical ordering.
  const auto ka = pph::sched::canonical_solution_set(a.solutions);
  const auto kb = pph::sched::canonical_solution_set(b.solutions);
  for (std::size_t i = 0; i < ka.size(); ++i) {
    double dist = 0.0;
    for (std::size_t c = 0; c < ka[i].size(); ++c) {
      dist = std::max(dist, std::abs(ka[i][c] - kb[i][c]));
    }
    EXPECT_LT(dist, 1e-6) << "solution " << i;
  }
}

TEST(CompiledPieri, PoliciesBitIdenticalWithEngineOn) {
  // The cross-policy invariant with the compiled engine on: FCFS and
  // BatchSteal sessions over the same tree produce EQUAL canonical keys
  // (same kernel on every rank, deterministic per-edge math).
  const PieriProblem pb{2, 2, 1};
  Prng rng(309);
  const auto input = pph::schubert::random_pieri_input(pb, rng);
  using pph::sched::Policy;
  using pph::sched::SessionOptions;
  const auto ra = pph::sched::run_pieri(input, 3, SessionOptions().with_policy(Policy::kFCFS));
  const auto rb =
      pph::sched::run_pieri(input, 3, SessionOptions().with_policy(Policy::kBatchSteal));
  ASSERT_TRUE(ra.complete());
  ASSERT_TRUE(rb.complete());
  EXPECT_EQ(pph::sched::canonical_solution_set(ra.solutions),
            pph::sched::canonical_solution_set(rb.solutions));
}

TEST(CompiledPieri, EdgeReuseSlotSharesOneHomotopyPerInstanceRunWithFreshBits) {
  // A worker tracks the sibling edges of one instance attempt through one
  // homotopy (the walk's edge-reuse slot), and a reused homotopy gives the
  // bits a freshly built one gives.
  Prng rng(311);
  const auto input = pph::schubert::random_pieri_input(PieriProblem{2, 2, 1}, rng);
  pph::schubert::PieriTreeWalk walk(input, {});
  pph::homotopy::TrackerWorkspace ws = walk.make_workspace();
  const auto* slot = dynamic_cast<PieriEvalWorkspace*>(ws.hws.get());
  ASSERT_NE(slot, nullptr);
  std::size_t edges = 0, builds = 0;
  const PieriEdgeHomotopy* last = nullptr;
  while (walk.ready() > 0) {
    const auto id = walk.pop();
    const pph::schubert::PieriEdge edge = *walk.find(id);
    const auto reused = walk.execute(edge, ws);
    if (slot->edge.get() != last) ++builds;
    last = slot->edge.get();
    pph::homotopy::TrackerWorkspace cold = walk.make_workspace();
    const auto fresh = walk.execute(edge, cold);
    ASSERT_EQ(reused.status, fresh.status);
    ASSERT_EQ(reused.x, fresh.x);
    ASSERT_EQ(reused.newton_iterations, fresh.newton_iterations);
    walk.consume(id, reused, 0.0);
    ++edges;
  }
  pph::schubert::PieriSolveSummary summary;
  walk.assemble(summary);
  EXPECT_TRUE(summary.complete());
  // Every pattern above the minimal one is an instance and needs at least
  // one build; the FIFO walk keeps runs of sibling edges together, so far
  // fewer builds than edges.
  const pph::schubert::PatternPoset poset(input.problem);
  EXPECT_GE(builds, poset.pattern_count() - 1);
  EXPECT_LT(builds, edges);
}

}  // namespace
