#include "grist/dycore/dycore.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "grist/backend/simd.hpp"
#include "grist/common/timer.hpp"
#include "grist/common/workspace.hpp"
#include "grist/dycore/ensemble_kernels.hpp"
#include "grist/dycore/kernels.hpp"

namespace grist::dycore {

using parallel::Field;
namespace ek = ensemble_kernels;

namespace {

Bounds fullBounds(const grid::HexMesh& mesh) {
  return Bounds{mesh.ncells, mesh.ncells, mesh.nedges, mesh.nvertices};
}

} // namespace

Dycore::Dycore(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
               DycoreConfig config, int nmembers)
    : Dycore(mesh, trsk, config, fullBounds(mesh), nmembers) {}

Dycore::Dycore(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
               DycoreConfig config, Bounds bounds)
    : Dycore(mesh, trsk, config, bounds, 1) {}

Dycore::Dycore(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
               DycoreConfig config, Bounds bounds, int nmembers)
    : mesh_(mesh), trsk_(trsk), config_(config), bounds_(bounds),
      nmembers_(nmembers) {
  if (config_.nlev < 2) throw std::invalid_argument("Dycore: nlev < 2");
  if (config_.dt <= 0) throw std::invalid_argument("Dycore: dt <= 0");
  if (nmembers_ < 1) throw std::invalid_argument("Dycore: nmembers < 1");
  const int nlev = config_.nlev;

  // Scratch fields, grouped BY MESH ENTITY. Keep additions inside the
  // matching block: every field is size-checked against its entity count
  // below, so a field allocated under the wrong group fails construction
  // instead of silently aliasing out-of-range rows.
  // -- cell fields (ncells x nlev) --
  div_flux_ = Field(mesh.ncells, nlev);
  ke_ = Field(mesh.ncells, nlev);
  alpha_ = Field(mesh.ncells, nlev);
  p_ = Field(mesh.ncells, nlev);
  div_u_ = Field(mesh.ncells, nlev);
  thetam_tend_ = Field(mesh.ncells, nlev);
  delp_tend_ = Field(mesh.ncells, nlev);
  delp0_ = Field(mesh.ncells, nlev);
  thetam0_ = Field(mesh.ncells, nlev);
  // -- edge fields (nedges x nlev) --
  flux_ = Field(mesh.nedges, nlev);
  uflux_ = Field(mesh.nedges, nlev);
  u_tend_ = Field(mesh.nedges, nlev);
  u0_ = Field(mesh.nedges, nlev);
  // -- vertex fields (nvertices x nlev) --
  vor_ = Field(mesh.nvertices, nlev);
  qv_ = Field(mesh.nvertices, nlev);
  // -- per-member fields --
  const std::size_t mm = static_cast<std::size_t>(nmembers_);
  acc_flux_.reserve(mm);
  p_solve_.reserve(mm);
  for (int m = 0; m < nmembers_; ++m) {
    acc_flux_.emplace_back(mesh.nedges, nlev);
    p_solve_.emplace_back(mesh.ncells, nlev);
  }
  solve_p_.resize(mm);
  solve_w_.resize(mm);
  solve_phi_.resize(mm);
  solve_delp_.resize(mm);
  solve_theta_.resize(mm);

  const auto expect = [nlev](const Field& f, Index nentity, const char* name) {
    if (f.entities() != nentity || f.components() != nlev) {
      throw std::logic_error(std::string("Dycore: mis-sized scratch field ") +
                             name);
    }
  };
  expect(div_flux_, mesh.ncells, "div_flux");
  expect(ke_, mesh.ncells, "ke");
  expect(alpha_, mesh.ncells, "alpha");
  expect(p_, mesh.ncells, "p");
  expect(div_u_, mesh.ncells, "div_u");
  expect(thetam_tend_, mesh.ncells, "thetam_tend");
  expect(delp_tend_, mesh.ncells, "delp_tend");
  expect(delp0_, mesh.ncells, "delp0");
  expect(thetam0_, mesh.ncells, "thetam0");
  expect(flux_, mesh.nedges, "flux");
  expect(uflux_, mesh.nedges, "uflux");
  expect(u_tend_, mesh.nedges, "u_tend");
  expect(u0_, mesh.nedges, "u0");
  expect(vor_, mesh.nvertices, "vor");
  expect(qv_, mesh.nvertices, "qv");
  for (int m = 0; m < nmembers_; ++m) {
    expect(acc_flux_[static_cast<std::size_t>(m)], mesh.nedges, "acc_flux");
    expect(p_solve_[static_cast<std::size_t>(m)], mesh.ncells, "p_solve");
  }
}

void Dycore::requireSolo(const char* what) const {
  if (nmembers_ != 1) {
    throw std::logic_error(std::string("Dycore::") + what +
                           ": requires members() == 1");
  }
}

void Dycore::resetAccumulatedFlux() {
  for (Field& f : acc_flux_) f.fill(0.0);
  acc_steps_ = 0;
}

void Dycore::meanMassFlux(int m, double* out) const {
  const Field& acc = accumulatedMassFlux(m);
  const double nsub = static_cast<double>(acc_steps_);
  for (std::size_t i = 0; i < acc.size(); ++i) out[i] = acc.data()[i] / nsub;
}

void Dycore::restoreAccumulatedFlux(const parallel::Field& flux, int steps) {
  requireSolo("restoreAccumulatedFlux");
  Field& acc = acc_flux_[0];
  if (flux.entities() != acc.entities() ||
      flux.components() != acc.components()) {
    throw std::invalid_argument("Dycore::restoreAccumulatedFlux: shape mismatch");
  }
  if (steps < 0) {
    throw std::invalid_argument("Dycore::restoreAccumulatedFlux: negative steps");
  }
  std::copy(flux.data(), flux.data() + flux.size(), acc.data());
  acc_steps_ = steps;
}

void Dycore::setBands(Bands bands) {
  const auto validate = [](const std::vector<Index>& boundary,
                           const std::vector<Index>& interior, Index n,
                           const char* what) {
    if (static_cast<Index>(boundary.size() + interior.size()) != n) {
      throw std::invalid_argument(std::string("Dycore::setBands: ") + what +
                                  " bands do not cover the prognostic range");
    }
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    for (const std::vector<Index>* band : {&boundary, &interior}) {
      for (const Index i : *band) {
        if (i < 0 || i >= n || seen[static_cast<std::size_t>(i)]) {
          throw std::invalid_argument(std::string("Dycore::setBands: ") + what +
                                      " bands are not a partition");
        }
        seen[static_cast<std::size_t>(i)] = 1;
      }
    }
  };
  validate(bands.boundary_cells, bands.interior_cells, bounds_.cells_prog,
           "cell");
  validate(bands.boundary_edges, bands.interior_edges, bounds_.edges_prog,
           "edge");
  bands_ = std::move(bands);
  has_bands_ = true;
}

void Dycore::step(State& state, const ExchangeFn& exchange) {
  requireSolo("step");
  State* states[1] = {&state};
  dispatch(states, exchange, nullptr);
}

void Dycore::step(State& state, const OverlapHooks& hooks) {
  requireSolo("step(overlap)");
  if (!has_bands_) {
    throw std::logic_error("Dycore::step(overlap): setBands() first");
  }
  if (!hooks.post || !hooks.wait) {
    throw std::invalid_argument("Dycore::step(overlap): both hooks required");
  }
  State* states[1] = {&state};
  dispatch(states, {}, &hooks);
}

void Dycore::step(State* const* states) { dispatch(states, {}, nullptr); }

void Dycore::dispatch(State* const* states, const ExchangeFn& exchange,
                      const OverlapHooks* hooks) {
  const ScopedTimer timer("dycore");
  if (config_.ns == precision::NsMode::kDouble) {
    stepImpl<double>(states, exchange, hooks);
  } else {
    stepImpl<float>(states, exchange, hooks);
  }
}

// The tendency step is organized as FIVE fused single-sweep kernels (one
// per entity class + tendencies) instead of the former ~12 field sweeps.
// Each fused kernel reproduces the unfused sequence's arithmetic order
// element-for-element, so this restructuring is bit-exact (see
// tests/dycore/test_fused_kernels.cpp); the win is memory traffic --
// connectivity/geometry streamed once, outputs written once.
template <typename NS>
void Dycore::computeTendencies(const State& state) {
  const int nlev = config_.nlev;
  namespace k = kernels;
  namespace simd = backend::simd;

  // Thermodynamic diagnostics on the diagnostic cell band: compute_rrr's
  // alpha and p only (its Exner/pi_mid outputs are dead in the step).
  ek::rrrLite(bounds_.cells_diag, nlev, state.delp.data(), state.theta.data(),
              state.phi.data(), alpha_.data(), p_.data(), config_.ns);

  // Runtime Host-vs-Simd routing: every SIMD tier is bitwise-identical to
  // the Host instantiation (tests/backend/test_simd.cpp), so the choice is
  // purely about speed -- GRIST_SIMD=0 pins the Host path process-wide, and
  // the table itself picks the best tier cpuid allows.
  const bool use_table = simd::enabled();
  const simd::KernelTable& tb = simd::table();
  constexpr int si = simd::kNsIndex<NS>;
  const auto edge_fluxes =
      use_table ? tb.fused_edge_fluxes[si] : &k::fusedEdgeFluxes<NS>;
  const auto cell_diagnostics =
      use_table ? tb.fused_cell_diagnostics[si] : &k::fusedCellDiagnostics<NS>;
  const auto vertex_diagnostics = use_table ? tb.fused_vertex_diagnostics[si]
                                            : &k::fusedVertexDiagnostics<NS>;
  const auto scalar_tendencies = use_table ? tb.fused_scalar_tendencies[si]
                                           : &k::fusedScalarTendencies<NS>;
  const auto momentum_tendency = use_table ? tb.fused_momentum_tendency[si]
                                           : &k::fusedMomentumTendency<NS>;

  // Edge sweep: mass flux + plain velocity flux from one pass over ALL
  // local edges (both cells of a local edge are always local).
  edge_fluxes(mesh_, mesh_.nedges, nlev, state.delp.data(), state.u.data(),
              flux_.data(), uflux_.data());
  // Cell-neighbor sweep: div(flux), div(uflux), kinetic energy.
  cell_diagnostics(mesh_, bounds_.cells_diag, nlev, flux_.data(),
                   uflux_.data(), state.u.data(), div_flux_.data(),
                   div_u_.data(), ke_.data());
  // Vertex sweep: vorticity + mass-weighted potential vorticity.
  vertex_diagnostics(mesh_, bounds_.vertices_diag, nlev, state.u.data(),
                     state.delp.data(), constants::kOmega, vor_.data(),
                     qv_.data());
  // Cell-tendency sweep: delp_tend = -div(flux) and the mass-weighted theta
  // tendency (advection + delp * nu * del2 diffusion).
  scalar_tendencies(mesh_, bounds_.cells_prog, nlev, flux_.data(),
                    state.theta.data(), state.delp.data(), div_flux_.data(),
                    config_.diff_coef / config_.dt, delp_tend_.data(),
                    thetam_tend_.data());
  // Edge-tendency sweep: -grad(ke) + Coriolis + pressure gradient (hard
  // double inside) + del2 damping; u_tend_ written exactly once.
  momentum_tendency(mesh_, trsk_, bounds_.edges_prog, nlev, ke_.data(),
                    qv_.data(), flux_.data(), state.phi.data(), alpha_.data(),
                    p_.data(), div_u_.data(), vor_.data(),
                    config_.div_damp / config_.dt,
                    config_.diff_coef / config_.dt, u_tend_.data());
}

template <typename NS>
void Dycore::stepImpl(State* const* states, const ExchangeFn& exchange,
                      const OverlapHooks* hooks) {
  const int nlev = config_.nlev;
  const auto band = [](const std::vector<Index>& list) {
    return static_cast<Index>(list.size());
  };

  // Phase 1, member-sequential over the shared scratch: the RK3 explicit
  // update, the mass-flux accumulation and the pre-solver pressure into the
  // member's p_solve_. (flux_ is live only within the member's iteration;
  // accumulating before the solve is state-invisible because the implicit
  // solve does not touch the mass flux.)
  // Wicker-Skamarock RK3: dt/3, dt/2, dt, each stage restarting from S^n.
  const double stage_dt[3] = {config_.dt / 3.0, config_.dt / 2.0, config_.dt};
  for (int m = 0; m < nmembers_; ++m) {
    State& state = *states[m];
    ek::saveCellStart(mesh_.ncells, nlev, state.delp.data(),
                      state.theta.data(), delp0_.data(), thetam0_.data());
    ek::saveEdgeStart(mesh_.nedges, nlev, state.u.data(), u0_.data());

    // Prognostic updates on a cell/edge list (nullptr = the contiguous
    // prognostic range). Per-entity arithmetic is identical either way, and
    // entities are independent, so both schedules are bitwise identical.
    const auto update = [&](const Index* cells, Index nc, const Index* edges,
                            Index ne, double dts) {
      ek::updateCells(cells, nc, nlev, dts, delp0_.data(), thetam0_.data(),
                      delp_tend_.data(), thetam_tend_.data(),
                      state.delp.data(), state.theta.data());
      ek::updateEdges(edges, ne, nlev, dts, u0_.data(), u_tend_.data(),
                      state.u.data());
    };
    for (int stage = 0; stage < 3; ++stage) {
      computeTendencies<NS>(state);
      const double dts = stage_dt[stage];
      if (hooks) {
        // Overlapped: boundary band first, post the halo messages, compute
        // the interior while they are in flight, then consume the halos
        // (the next stage's tendencies read them).
        update(bands_.boundary_cells.data(), band(bands_.boundary_cells),
               bands_.boundary_edges.data(), band(bands_.boundary_edges), dts);
        hooks->post();
        update(bands_.interior_cells.data(), band(bands_.interior_cells),
               bands_.interior_edges.data(), band(bands_.interior_edges), dts);
        hooks->wait();
      } else {
        update(nullptr, bounds_.cells_prog, nullptr, bounds_.edges_prog, dts);
        if (exchange) exchange(state);
      }
    }
    ek::accumulateFlux(mesh_.nedges, nlev, flux_.data(),
                       acc_flux_[static_cast<std::size_t>(m)].data());
  }

  // Phase 2, member-batched: the vertically implicit acoustic adjustment of
  // (w, phi) with members as SIMD lanes; pressure is recomputed for the
  // updated delp/theta in full double precision.
  for (int m = 0; m < nmembers_; ++m) {
    const std::size_t mi = static_cast<std::size_t>(m);
    State& state = *states[m];
    solve_delp_[mi] = state.delp.data();
    solve_theta_[mi] = state.theta.data();
    solve_p_[mi] = p_solve_[mi].data();
    solve_w_[mi] = state.w.data();
    solve_phi_[mi] = state.phi.data();
  }
  const auto solve = [&](const Index* cells, Index nc) {
    for (int m = 0; m < nmembers_; ++m) {
      const State& state = *states[m];
      ek::rrrPOnly(cells, nc, nlev, state.delp.data(), state.theta.data(),
                   state.phi.data(), p_solve_[static_cast<std::size_t>(m)].data());
    }
    ek::vertSolveMemberLanes(nmembers_, cells, nc, nlev, config_.dt,
                             config_.ptop, solve_delp_.data(),
                             solve_theta_.data(), solve_p_.data(),
                             solve_w_.data(), solve_phi_.data(),
                             config_.w_damp_tau);
  };
  if (hooks) {
    // The column solve reads no halos: post the boundary columns' results
    // and solve the interior columns while the messages are in flight.
    solve(bands_.boundary_cells.data(), band(bands_.boundary_cells));
    hooks->post();
    solve(bands_.interior_cells.data(), band(bands_.interior_cells));
    hooks->wait();
  } else {
    solve(nullptr, bounds_.cells_prog);
    if (exchange) exchange(*states[0]);
  }
  ++acc_steps_;
}

std::vector<double> Dycore::relativeVorticity(const State& state) const {
  std::vector<double> vor(static_cast<std::size_t>(bounds_.vertices_diag) *
                          config_.nlev);
  kernels::vorticityAtVertex<double>(mesh_, bounds_.vertices_diag, config_.nlev,
                                     state.u.data(), vor.data());
  return vor;
}

// ---------------------------------------------------------------------------
// Non-template (always double) kernels.
// ---------------------------------------------------------------------------
namespace kernels {

void calcPressureGradient(const HexMesh& m, Index nedges, int nlev,
                          const double* phi, const double* alpha, const double* p,
                          const double* pi_mid, double* tend_u) {
  (void)pi_mid;  // retained in the signature for the coupler-facing kernel set
  // Full sigma/mass-coordinate PGF along model levels:
  //   -grad(phi_mid) - alpha * grad(p).
  // Over terrain-following levels these are two large canceling terms
  // (the classic PGF-error source); the residual is measured by
  // TopographyTest.PgfErrorFlowStaysSmall. (Subtracting pi from p here
  // would drop the alpha*grad(pi) piece that balances grad(phi) over
  // orography.)
  const auto mv = makeHostMeshView(m);
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < nedges; ++e) {
    HostCtx ctx;
    bk::calcPressureGradient(ctx, e, mv, nlev, hostView(phi), hostView(alpha),
                             hostView(p), hostMut(tend_u));
  }
}

// Fully implicit column solve for the (w, phi) acoustic coupling:
//   phi^{+}(k) = phi^{n}(k) + dt g w^{+}(k)               (interfaces)
//   w^{+}(k)   = w^{n}(k) + dt g [ (p^{+}_k - p^{+}_{k-1}) / dpi_k - 1 ]
// with p linearized about the current state,
//   p^{+}_j = p_j - (gamma p_j / dphi_j)(dphi^{+}_j - dphi_j),
// which yields a symmetric-positive tridiagonal system in w^{+} at interior
// interfaces (w = 0 at the top and the surface). delta-pi at interface k is
// the mean of the adjacent layer masses. This kernel carries the gravity
// and acoustic terms the paper pins to double precision.
void vertImplicitSolver(Index ncells, int nlev, double dt, double ptop,
                        const double* delp, const double* theta, const double* p,
                        double* w, double* phi, double w_damp_tau) {
  using common::Workspace;
#pragma omp parallel
  {
    // All per-column temporaries come from the thread's persistent arena:
    // after the first call has warmed it up, the parallel region performs
    // zero heap allocations (asserted by test_fused_kernels.cpp).
    Workspace& ws = Workspace::threadLocal();
    ws.reserve(Workspace::bytesFor<double>(nlev) * 5 +
               Workspace::bytesFor<double>(nlev + 1));
#pragma omp for schedule(static)
    for (Index c = 0; c < ncells; ++c) {
      const Workspace::Frame frame(ws);
      const int n = nlev - 1;
      grist::backend::kernels::VertSolveScratch scratch;
      scratch.comp = ws.get<double>(nlev);
      scratch.lower = ws.get<double>(n);
      scratch.diag = ws.get<double>(n);
      scratch.upper = ws.get<double>(n);
      scratch.rhs = ws.get<double>(n);
      scratch.wnew = ws.get<double>(nlev + 1);
      HostCtx ctx;
      bk::vertImplicitColumn<grist::backend::HostBackend>(
          ctx, c, nlev, dt, ptop, hostView(delp), hostView(theta), hostView(p),
          hostMut(w), hostMut(phi), w_damp_tau, scratch);
    }
  } // omp parallel
}

} // namespace kernels

} // namespace grist::dycore
