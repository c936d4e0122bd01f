#include "kernels.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "grist/backend/simd.hpp"
#include "grist/common/math.hpp"
#include "grist/parallel/field.hpp"

namespace perfbench {

using namespace grist;
using parallel::Field;

namespace {

constexpr double kMinSeconds = 0.2;  // per kernel, after one untimed call
constexpr int kMinCalls = 5;

/// Median per-call time (ms) of call(); reset() restores in/out operands
/// outside the timed interval.
template <typename Call, typename Reset>
double timeCall(Call&& call, Reset&& reset) {
  reset();
  call();
  std::vector<double> t;
  double total = 0.0;
  while (static_cast<int>(t.size()) < kMinCalls || total < kMinSeconds) {
    reset();
    const double t0 = now();
    call();
    const double dt = now() - t0;
    t.push_back(dt);
    total += dt;
  }
  return median(std::move(t)) * 1e3;
}

}  // namespace

std::vector<KernelTiming> timeKernels(const grid::HexMesh& mesh,
                                      const grid::TrskWeights& trsk,
                                      const dycore::DycoreConfig& cfg,
                                      const dycore::State& state,
                                      double tracer_dt) {
  const backend::simd::KernelTable& tb = backend::simd::table();
  const int si = backend::simd::nsIndex(cfg.ns);
  const int nlev = cfg.nlev;
  const Index nc = mesh.ncells, ne = mesh.nedges, nv = mesh.nvertices;

  // Inputs are copies of the workload's state; intermediates come from one
  // pass of the tendency pipeline in dycore order.
  const Field delp = state.delp, u = state.u, theta = state.theta;
  const Field phi0 = state.phi, w0 = state.w, q0 = state.tracers.at(0);
  Field phi = phi0, w = w0, q = q0;
  Field alpha(nc, nlev), p(nc, nlev), exner(nc, nlev), pi_mid(nc, nlev);
  Field flux(ne, nlev), uflux(ne, nlev), tend_u(ne, nlev);
  Field div_flux(nc, nlev), div_u(nc, nlev), ke(nc, nlev);
  Field delp_tend(nc, nlev), thetam_tend(nc, nlev);
  Field vor(nv, nlev), qv(nv, nlev);
  Field flux_low(ne, nlev), flux_anti(ne, nlev);
  Field q_td(nc, nlev), rp(nc, nlev), rm(nc, nlev);
  const double nu = cfg.diff_coef / cfg.dt, nu_div = cfg.div_damp / cfg.dt;

  // Computed operand traffic: every input read once, every output written
  // once, in/out operands and limiter scratch counted both ways. Mesh
  // connectivity and geometry are not counted.
  const double C = 8.0 * static_cast<double>(nc) * nlev;
  const double C1 = 8.0 * static_cast<double>(nc) * (nlev + 1);
  const double E = 8.0 * static_cast<double>(ne) * nlev;
  const double V = 8.0 * static_cast<double>(nv) * nlev;

  const auto rrr = [&] {
    tb.compute_rrr[si](nc, nlev, cfg.ptop, delp.data(), theta.data(), phi.data(),
                       alpha.data(), p.data(), exner.data(), pi_mid.data());
  };
  const auto edge = [&] {
    tb.fused_edge_fluxes[si](mesh, ne, nlev, delp.data(), u.data(), flux.data(),
                             uflux.data());
  };
  const auto cell = [&] {
    tb.fused_cell_diagnostics[si](mesh, nc, nlev, flux.data(), uflux.data(),
                                  u.data(), div_flux.data(), div_u.data(),
                                  ke.data());
  };
  const auto vertex = [&] {
    tb.fused_vertex_diagnostics[si](mesh, nv, nlev, u.data(), delp.data(),
                                    constants::kOmega, vor.data(), qv.data());
  };
  const auto scalar = [&] {
    tb.fused_scalar_tendencies[si](mesh, nc, nlev, flux.data(), theta.data(),
                                   delp.data(), div_flux.data(), nu,
                                   delp_tend.data(), thetam_tend.data());
  };
  const auto momentum = [&] {
    tb.fused_momentum_tendency[si](mesh, trsk, ne, nlev, ke.data(), qv.data(),
                                   flux.data(), phi.data(), alpha.data(),
                                   p.data(), div_u.data(), vor.data(), nu_div,
                                   nu, tend_u.data());
  };
  const auto solver = [&] {
    tb.vert_implicit_solver[0](nc, nlev, cfg.dt, cfg.ptop, delp.data(),
                               theta.data(), p.data(), w.data(), phi.data(),
                               cfg.w_damp_tau);
  };
  const auto limiter = [&] {
    tb.tracer_hori_flux_limiter[si](mesh, nc, nlev, tracer_dt, flux.data(),
                                    delp.data(), delp.data(), q.data(),
                                    flux_low.data(), flux_anti.data(),
                                    q_td.data(), rp.data(), rm.data());
  };
  const auto none = [] {};
  const auto resetSolver = [&] {
    w = w0;
    phi = phi0;
  };
  const auto resetTracer = [&] { q = q0; };

  rrr();
  edge();
  cell();
  vertex();
  scalar();
  momentum();

  std::vector<KernelTiming> out;
  out.push_back({"fused_edge_fluxes", timeCall(edge, none), C + 3 * E});
  out.push_back({"fused_cell_diagnostics", timeCall(cell, none), 3 * E + 3 * C});
  out.push_back({"fused_vertex_diagnostics", timeCall(vertex, none), E + C + 2 * V});
  out.push_back({"fused_scalar_tendencies", timeCall(scalar, none), E + 5 * C});
  out.push_back({"fused_momentum_tendency", timeCall(momentum, none),
                 4 * C + C1 + 2 * V + 2 * E});
  out.push_back({"compute_rrr", timeCall(rrr, none), 6 * C + C1});
  out.push_back({"vert_implicit_solver", timeCall(solver, resetSolver), 3 * C + 4 * C1});
  out.push_back({"tracer_hori_flux_limiter", timeCall(limiter, resetTracer),
                 5 * E + 10 * C});
  return out;
}

TriadResult runTriad() {
  TriadResult r{};
  r.llc_bytes = lastLevelCacheBytes();
  if (r.llc_bytes == 0) throw std::runtime_error("triad: no cache size in sysfs");
  const std::size_t n = static_cast<std::size_t>((4 * r.llc_bytes + 7) / 8);
  r.array_bytes = n * 8;
  const std::uint64_t need = 3 * r.array_bytes + (std::uint64_t{1} << 30);
  if (memAvailableBytes() < need) {
    throw std::runtime_error("triad: needs " + std::to_string(need >> 20) +
                             " MiB available for three arrays of " +
                             std::to_string(r.array_bytes >> 20) + " MiB");
  }
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
  // First touch on the threads that stream the arrays.
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  const double s = 3.0;
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    best = std::min(best, now() - t0);
  }
  if (pa[n / 2] != 7.0) throw std::runtime_error("triad: wrong result");
  r.gbps = 3.0 * static_cast<double>(r.array_bytes) / best / 1e9;
  return r;
}

}  // namespace perfbench
