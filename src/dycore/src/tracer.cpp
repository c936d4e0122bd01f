#include "grist/dycore/tracer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "grist/backend/kernels.hpp"
#include "grist/backend/simd.hpp"
#include "grist/common/workspace.hpp"

namespace grist::dycore {

namespace bk = grist::backend::kernels;
using grist::backend::hostMut;
using grist::backend::hostView;
using grist::backend::makeHostMeshView;
using HostCtx = grist::backend::HostBackend::Context;

template <precision::NsReal NS>
void tracerTransportHoriFluxLimiter(const TracerTransportArgs& a, double* q) {
  if (a.mesh == nullptr || a.mean_flux == nullptr || a.delp_old == nullptr ||
      a.delp_new == nullptr) {
    throw std::invalid_argument("tracerTransport: null argument");
  }
  const grid::HexMesh& m = *a.mesh;
  const int nlev = a.nlev;
  const double dt = a.dt;

  // Work arrays from the calling thread's arena: first call per tracer
  // size grows it once, every later call (one per tracer per transport
  // step) is allocation-free.
  using common::Workspace;
  Workspace& ws = Workspace::threadLocal();
  const std::size_t en = static_cast<std::size_t>(m.nedges) * nlev;
  const std::size_t cn = static_cast<std::size_t>(m.ncells) * nlev;
  // The + 4 rows are headroom for the SIMD phases below: this thread's
  // arena doubles as their per-cell scratch source, and without the slack a
  // fully-consumed arena would make those per-iteration acquires overflow.
  ws.reserve(2 * Workspace::bytesFor<double>(en) +
             3 * Workspace::bytesFor<double>(cn) +
             4 * Workspace::bytesFor<double>(nlev));
  const Workspace::Frame frame(ws);
  double* flux_low = ws.get<double>(en);
  double* flux_anti = ws.get<double>(en);
  double* q_td = ws.get<double>(cn);
  double* rp = ws.get<double>(cn);
  double* rm = ws.get<double>(cn);

  // SIMD routing: identical arithmetic, vectorized k loops (all four
  // phases live behind one table entry).
  namespace simd = grist::backend::simd;
  if (simd::enabled()) {
    simd::table().tracer_hori_flux_limiter[simd::kNsIndex<NS>](
        m, a.ncells_prog, nlev, dt, a.mean_flux, a.delp_old, a.delp_new, q,
        flux_low, flux_anti, q_td, rp, rm);
    return;
  }

  const auto mv = makeHostMeshView(m);

  // 1) Low-order (upwind) and antidiffusive (centered - upwind) fluxes on
  //    all local edges.
#pragma omp parallel for schedule(static)
  for (Index e = 0; e < m.nedges; ++e) {
    HostCtx ctx;
    bk::tracerEdgeFluxes<NS>(ctx, e, mv, nlev, hostView(a.mean_flux),
                             hostView(q), hostMut(flux_low),
                             hostMut(flux_anti));
  }

  // 2) Transported-diffused solution from low-order fluxes (monotone).
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < a.ncells_prog; ++c) {
    HostCtx ctx;
    bk::tracerTransportedDiffused(ctx, c, mv, nlev, dt, hostView(flux_low),
                                  hostView(q), hostView(a.delp_old),
                                  hostView(a.delp_new), hostMut(q_td));
  }

  // 3) Zalesak limiter: per-cell allowed extrema from the old and
  //    transported-diffused values of the cell and its neighbors.
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < a.ncells_prog; ++c) {
    HostCtx ctx;
    bk::tracerLimiterFactors(ctx, c, mv, nlev, dt, hostView(q), hostView(q_td),
                             hostView(flux_anti), hostView(a.delp_new),
                             hostMut(rp), hostMut(rm));
  }

  // 4) Apply limited antidiffusive fluxes. Edges on the rank boundary may
  //    touch halo cells whose R factors were not computed; the caller's
  //    halo exchange of rp/rm is folded in by computing R on the full
  //    diagnostic band (ncells_prog covers it in single-domain runs; rank
  //    runs pass owned+ring1 as ncells_prog for limiter symmetry).
#pragma omp parallel for schedule(static)
  for (Index c = 0; c < a.ncells_prog; ++c) {
    HostCtx ctx;
    bk::tracerApplyLimited(ctx, c, mv, nlev, dt, hostView(q_td), hostView(rp),
                           hostView(rm), hostView(flux_anti),
                           hostView(a.delp_new), hostMut(q));
  }
}

template void tracerTransportHoriFluxLimiter<double>(const TracerTransportArgs&,
                                                     double*);
template void tracerTransportHoriFluxLimiter<float>(const TracerTransportArgs&,
                                                    double*);

void tracerTransport(const TracerTransportArgs& args, precision::NsMode ns,
                     double* q) {
  if (ns == precision::NsMode::kDouble) {
    tracerTransportHoriFluxLimiter<double>(args, q);
  } else {
    tracerTransportHoriFluxLimiter<float>(args, q);
  }
}

} // namespace grist::dycore
