// Runtime dispatch of the dycore step sweeps: every call runs the AVX-512
// copy when that is the tier the SIMD backend has active
// (grist/backend/simd.hpp -- cpuid-checked, clamped down by
// GRIST_SIMD_TIER), and the portable copy otherwise, including under
// GRIST_SIMD=0. Both copies give bitwise the same values.
#include "grist/dycore/ensemble_kernels.hpp"

#include "grist/backend/simd.hpp"
#include "ensemble_kernels_tiers.hpp"

namespace grist::dycore::ensemble_kernels {
namespace {

const Table& active() {
#if GRIST_EK_HAVE_AVX512
  namespace simd = backend::simd;
  if (simd::enabled() && simd::activeTier() == simd::Tier::kAvx512) {
    return tierTableAvx512();
  }
#endif
  return tierTableScalar();
}

} // namespace

void rrrLite(Index ncells, int nlev, const double* delp, const double* theta,
             const double* phi, double* alpha, double* p,
             precision::NsMode ns) {
  active().rrr_lite(ncells, nlev, delp, theta, phi, alpha, p, ns);
}

void rrrPOnly(const Index* cells, Index ncells, int nlev, const double* delp,
              const double* theta, const double* phi, double* p) {
  active().rrr_p_only(cells, ncells, nlev, delp, theta, phi, p);
}

void saveCellStart(Index ncells, int nlev, const double* delp,
                   const double* theta, double* delp0, double* thetam0) {
  active().save_cell_start(ncells, nlev, delp, theta, delp0, thetam0);
}

void saveEdgeStart(Index nedges, int nlev, const double* u, double* u0) {
  active().save_edge_start(nedges, nlev, u, u0);
}

void updateCells(const Index* cells, Index ncells, int nlev, double dts,
                 const double* delp0, const double* thetam0,
                 const double* delp_tend, const double* thetam_tend,
                 double* delp, double* theta) {
  active().update_cells(cells, ncells, nlev, dts, delp0, thetam0, delp_tend,
                        thetam_tend, delp, theta);
}

void updateEdges(const Index* edges, Index nedges, int nlev, double dts,
                 const double* u0, const double* u_tend, double* u) {
  active().update_edges(edges, nedges, nlev, dts, u0, u_tend, u);
}

void accumulateFlux(Index nedges, int nlev, const double* flux, double* acc) {
  active().accumulate_flux(nedges, nlev, flux, acc);
}

void vertSolveMemberLanes(int nmembers, const Index* cells, Index ncells,
                          int nlev, double dt, double ptop,
                          const double* const* delp,
                          const double* const* theta, const double* const* p,
                          double* const* w, double* const* phi,
                          double w_damp_tau) {
  active().vert_solve_member_lanes(nmembers, cells, ncells, nlev, dt, ptop,
                                   delp, theta, p, w, phi, w_damp_tau);
}

} // namespace grist::dycore::ensemble_kernels
