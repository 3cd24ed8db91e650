#pragma once
// The Pieri homotopy on one edge of the Pieri tree (paper eq. (3)).
//
// Fix a pattern P at level ell.  A child solution (pattern with one bottom
// pivot decremented, meeting conditions 1..ell-1) is deformed into a
// solution fitting P and meeting conditions 1..ell by moving
//   - the m-plane K from gamma * K_F(P) (the special plane whose bordered
//     determinant is the product of P's bottom-pivot entries) to K_ell, and
//   - the interpolation point (s, u) from infinity (1, 0) to (s_ell, 1),
// while conditions 1..ell-1 stay enforced.  The continuation parameter t
// moves both; the paper notes the "double use of t" as homogenizing
// variable and continuation parameter -- here the homogenizing coordinate
// is named u and u(t) = t.
//
// Two evaluation paths coexist.  The allocating virtuals walk the bordered
// determinants through schubert::evaluate_condition (full cofactor matrix
// per call) -- the golden reference.  The buffer-filling fast path lowers
// the homotopy onto an eval::CompiledPieriHomotopy tape, lazily on the
// first workspace request, and evaluates through the shared blend kernels
// with per-t cached coefficients: the route the tracker hot loop takes.

#include <memory>
#include <mutex>

#include "eval/compiled_pieri.hpp"
#include "homotopy/homotopy.hpp"
#include "schubert/conditions.hpp"

namespace pph::schubert {

/// Square homotopy in the chart coordinates of the parent pattern.
class PieriEdgeHomotopy final : public homotopy::Homotopy {
 public:
  /// `fixed` are conditions 1..ell-1 (already satisfied by the start
  /// solution); `target` is condition ell; `gamma` randomizes the start
  /// plane (gamma trick).  The detour constants bend the interpolation-point
  /// path (s(t), u(t)) into the complex plane away from the straight
  /// segment: with structured (for example real) input data the straight
  /// path can be non-generic for every gamma, so the solver draws random
  /// detours per instance.
  PieriEdgeHomotopy(PatternChart chart, std::vector<PlaneCondition> fixed,
                    PlaneCondition target, Complex gamma, Complex detour_s = Complex{},
                    Complex detour_u = Complex{});
  ~PieriEdgeHomotopy() override;

  std::size_t dimension() const override { return chart_.dimension(); }

  // Interpreted path (re-expands the bordered determinants per call); kept
  // as fallback and as the golden reference the compiled tape is validated
  // against in test_pieri_compiled.
  CVector evaluate(const CVector& x, double t) const override;
  CMatrix jacobian_x(const CVector& x, double t) const override;
  CVector derivative_t(const CVector& x, double t) const override;
  std::pair<CVector, CMatrix> evaluate_with_jacobian(const CVector& x, double t) const override;

  // Compiled fast path: the tape is built lazily on the first workspace
  // request (or first fast-path call) and rides the shared blend kernels.
  // A foreign or null workspace falls back to the interpreted virtuals.
  std::unique_ptr<homotopy::HomotopyWorkspace> make_workspace() const override;
  void evaluate_into(const CVector& x, double t, homotopy::HomotopyWorkspace* ws,
                     CVector& h) const override;
  void evaluate_with_jacobian_into(const CVector& x, double t, homotopy::HomotopyWorkspace* ws,
                                   CVector& h, CMatrix& jx) const override;
  void evaluate_fused(const CVector& x, double t, homotopy::HomotopyWorkspace* ws, CVector& h,
                      CMatrix& jx, CVector& ht) const override;

  /// Toggle the compiled fast path (default on).  With it off,
  /// make_workspace returns nullptr and every entry point takes the
  /// interpreted route -- the A/B switch of the benches and the CI guard.
  void set_compiled(bool enabled) { compiled_enabled_ = enabled; }
  bool compiled_enabled() const { return compiled_enabled_; }

  /// The lazily built tape (compiles on first call; tests/diagnostics).
  const eval::CompiledPieriHomotopy& compiled() const { return *ensure_compiled(); }

  const PatternChart& chart() const { return chart_; }

  /// Moving plane K(t) = (1-t) gamma K_F + t K_target.
  CMatrix moving_plane(double t) const;
  /// Moving interpolation point from (1, 0) at t=0 to (s_target, 1) at t=1:
  ///   s(t) = 1 + t (s_target - 1) + t(1-t) detour_s,
  ///   u(t) = t + t(1-t) detour_u.
  std::pair<Complex, Complex> moving_point(double t) const;
  /// Derivatives (ds/dt, du/dt).
  std::pair<Complex, Complex> moving_point_dt(double t) const;

 private:
  const eval::CompiledPieriHomotopy* ensure_compiled() const;

  PatternChart chart_;
  std::vector<PlaneCondition> fixed_;
  PlaneCondition target_;
  Complex gamma_;
  Complex detour_s_;
  Complex detour_u_;
  CMatrix special_;       // K_F of the chart's pattern
  CMatrix plane_dot_;     // dK/dt = K_target - gamma K_F (constant)
  bool compiled_enabled_ = true;
  mutable std::once_flag compile_once_;
  mutable std::unique_ptr<eval::CompiledPieriHomotopy> compiled_;
};

/// Family-level workspace of the compiled fast path: any PieriEdgeHomotopy
/// evaluates through any instance of this type (the caches are keyed on
/// the owning tape's construction id), so a Pieri tree worker allocates ONE
/// of these and reuses it across every tree edge it tracks.
struct PieriEvalWorkspace final : homotopy::HomotopyWorkspace {
  eval::CompiledPieriHomotopy::Workspace w;
  /// The edge-reuse slot (PieriTreeWalk::execute): the homotopy of the last
  /// edge this worker tracked, keyed by its instance's (pivots, attempt).
  /// Sibling edges share the deformation, so a run of them builds and
  /// compiles one homotopy instead of one per edge.
  std::vector<std::size_t> edge_pivots;
  std::uint32_t edge_attempt = 0;
  std::unique_ptr<PieriEdgeHomotopy> edge;
};

}  // namespace pph::schubert
