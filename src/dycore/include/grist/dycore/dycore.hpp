// The GRIST-style layer-averaged nonhydrostatic solver (paper section
// 3.1.2): horizontally explicit (3-stage Wicker-Skamarock Runge-Kutta on
// the vector-invariant equations), vertically implicit (per-column
// tridiagonal acoustic solve for w and phi). Mixed precision is selected at
// runtime via DycoreConfig::ns and dispatched to the templated kernels.
//
// One Dycore steps M member States (default 1) through the same step: the
// members share one set of transient scratch fields and are stepped in
// index order, then the vertical implicit solve runs member-batched with
// the member index as the SIMD lane (ensemble_kernels.hpp). Every member
// is BITWISE identical to the same State stepped with M = 1 (ctest label
// ENSEMBLE), in both NS precisions.
#pragma once

#include <functional>
#include <vector>

#include "grist/dycore/config.hpp"
#include "grist/dycore/state.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/parallel/field.hpp"

namespace grist::dycore {

class Dycore {
 public:
  /// The mesh and TRSK weights must outlive the Dycore; scratch is
  /// allocated once here, so warm steps are heap-free. `bounds` restricts
  /// compute to a rank's owned/diagnostic entities; the default covers the
  /// whole mesh (single-domain run).
  Dycore(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
         DycoreConfig config, int nmembers = 1);
  Dycore(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
         DycoreConfig config, Bounds bounds);

  /// Called after every internal stage update so decomposed runs can
  /// refresh halos of the five prognostic fields; single-domain runs pass
  /// nothing.
  using ExchangeFn = std::function<void(State&)>;

  /// Split-exchange hooks for communication-computation overlap. Each of
  /// the four exchange rounds of a step (3 RK stages + vertical solve)
  /// becomes: update boundary band -> post() -> update interior band ->
  /// wait(). post() packs and publishes this rank's outgoing halo data;
  /// wait() blocks until the incoming halo data is unpacked.
  struct OverlapHooks {
    std::function<void()> post;
    std::function<void()> wait;
  };

  /// Advance one dynamics step of config().dt seconds (three RK stages +
  /// one vertical implicit solve). `exchange`, when provided, is invoked
  /// after each stage and after the vertical solve. Requires members() == 1.
  void step(State& state, const ExchangeFn& exchange = {});

  /// Overlapped step: requires setBands() and members() == 1; bitwise
  /// identical to the lockstep step (band order only permutes independent
  /// per-entity loops).
  void step(State& state, const OverlapHooks& hooks);

  /// Advance every member one dt; `states` holds members() pointers.
  void step(State* const* states);

  /// Install the boundary/interior split of the prognostic entities
  /// (derived from the decomposition's exchange patterns). Throws if the
  /// lists do not exactly partition [0, cells_prog) / [0, edges_prog).
  void setBands(Bands bands);
  bool hasBands() const { return has_bands_; }

  int members() const { return nmembers_; }

  /// Accumulated horizontal dry-mass flux (edges x nlev) of member `m`
  /// since the last resetAccumulatedFlux(); always double precision (paper
  /// section 3.4.2: the mass flux delta-pi*V feeding tracer transport must
  /// stay double).
  const parallel::Field& accumulatedMassFlux(int m) const {
    return acc_flux_[static_cast<std::size_t>(m)];
  }
  const parallel::Field& accumulatedMassFlux() const {
    return accumulatedMassFlux(0);
  }
  /// Number of dynamics steps accumulated (to average the flux); members
  /// advance in lockstep, so one count serves all.
  int accumulatedSteps() const { return acc_steps_; }
  void resetAccumulatedFlux();
  /// Window-mean mass flux of member `m` (accumulator / accumulatedSteps())
  /// into `out` (edges x nlev); the tracer-transport input of every driver.
  void meanMassFlux(int m, double* out) const;
  /// Overwrite the flux accumulator window (checkpoint restore: a snapshot
  /// taken mid-tracer-window resumes bitwise). `flux` must be edges x nlev.
  /// Requires members() == 1.
  void restoreAccumulatedFlux(const parallel::Field& flux, int steps);

  const DycoreConfig& config() const { return config_; }
  const Bounds& bounds() const { return bounds_; }

  /// Relative vorticity diagnostic at dual vertices for the current u
  /// (the paper's second mixed-precision observation point, "vor").
  std::vector<double> relativeVorticity(const State& state) const;

 private:
  Dycore(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
         DycoreConfig config, Bounds bounds, int nmembers);

  void requireSolo(const char* what) const;
  void dispatch(State* const* states, const ExchangeFn& exchange,
                const OverlapHooks* hooks);

  template <typename NS>
  void stepImpl(State* const* states, const ExchangeFn& exchange,
                const OverlapHooks* hooks);

  template <typename NS>
  void computeTendencies(const State& state);

  const grid::HexMesh& mesh_;
  const grid::TrskWeights& trsk_;
  DycoreConfig config_;
  Bounds bounds_;
  int nmembers_ = 1;
  Bands bands_;
  bool has_bands_ = false;

  // Transient scratch shared across members (each member's iteration fully
  // rewrites what it reads), grouped by mesh entity; the constructor
  // asserts every field's size against its entity count.
  // Cell fields:
  parallel::Field div_flux_, ke_, alpha_, p_, div_u_;
  parallel::Field thetam_tend_, delp_tend_;
  parallel::Field delp0_, thetam0_;  // step-start copies for RK
  // Edge fields:
  parallel::Field flux_, uflux_, u_tend_;
  parallel::Field u0_;  // step-start copy for RK
  // Vertex fields:
  parallel::Field vor_, qv_;

  // Per-member fields: the mass-flux accumulator (edges, persists across
  // steps) and the pre-solver pressure (cells) feeding the member-batched
  // implicit solve.
  std::vector<parallel::Field> acc_flux_;
  std::vector<parallel::Field> p_solve_;
  int acc_steps_ = 0;

  // Per-member pointer tables for the lane-batched solver (sized once).
  std::vector<const double*> solve_p_;
  std::vector<double*> solve_w_, solve_phi_;
  std::vector<const double*> solve_delp_, solve_theta_;
};

} // namespace grist::dycore
