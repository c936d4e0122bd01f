// The non-stencil sweeps of Dycore's step (dycore.hpp). Each one is a
// restructuring of the plain scalar loop it replaces that leaves every
// member's state BITWISE unchanged (pinned per kernel in
// tests/dycore/test_fused_kernels.cpp, and end to end by the ENSEMBLE and
// multi-rank gates):
//
//  - rrrLite / rrrPOnly: compute_rrr without the dead outputs. The Exner
//    function and pi_mid written by compute_rrr are never read by the step
//    (the physics coupler runs its own compute_rrr), so the tendency-phase
//    calls need only (alpha, p) and the pre-solver call only p. Skipping
//    the Exner pow -- one of the two libm calls per element -- is the
//    single largest saving, and is state-invisible by construction.
//  - k-vectorized save/update/accumulate sweeps: the RK save and update
//    loops with flat elementwise bodies (positivity branch as a blend) so
//    the vector TU can use wide IEEE div/min.
//  - vertSolveMemberLanes: the vertical implicit (w, phi) solve with the
//    ensemble member index as the vector lane. The Thomas recurrence is
//    sequential in k but independent across columns; batching M members'
//    copies of the SAME cell turns the divide chain into lane-parallel IEEE
//    divides. Per-lane operation order matches
//    backend::kernels::vertImplicitColumn exactly.
//
// Sweeps that take `const Index* list` run on the listed entities (the
// boundary or interior band of a decomposed rank) or, with nullptr, on the
// contiguous range [0, n). Entities are independent, so both forms give
// bitwise the same values.
//
// The bodies are compiled twice, portable and AVX-512 (both with
// -ffp-contract=off); each call runs the AVX-512 copy only when that is the
// backend's active tier (cpuid-checked, clamped by GRIST_SIMD_TIER) and
// the portable copy otherwise, including under GRIST_SIMD=0. Wider
// registers only, no FMA contraction: both give bitwise the same values.
#pragma once

#include "grist/common/types.hpp"
#include "grist/precision/ns.hpp"

namespace grist::dycore::ensemble_kernels {

/// compute_rrr restricted to the outputs the tendency phase reads: alpha
/// and p (Exner/pi_mid skipped), on cells [0, ncells). Bitwise identical to
/// computeRrr's alpha/p in both NS precisions.
void rrrLite(Index ncells, int nlev, const double* delp, const double* theta,
             const double* phi, double* alpha, double* p, precision::NsMode ns);

/// compute_rrr restricted to p alone (the only input the vertical implicit
/// solver reads), always in double precision like the pre-solver call.
void rrrPOnly(const Index* cells, Index ncells, int nlev, const double* delp,
              const double* theta, const double* phi, double* p);

/// RK step-start saves: delp0 = delp, thetam0 = delp * theta (cells) and
/// u0 = u (edges).
void saveCellStart(Index ncells, int nlev, const double* delp,
                   const double* theta, double* delp0, double* thetam0);
void saveEdgeStart(Index nedges, int nlev, const double* u, double* u0);

/// RK prognostic updates from the step-start values. A layer drained below
/// 10% of its step-start mass is clamped to that floor with theta carried
/// through unchanged (positivity backstop; never fires in healthy flow).
void updateCells(const Index* cells, Index ncells, int nlev, double dts,
                 const double* delp0, const double* thetam0,
                 const double* delp_tend, const double* thetam_tend,
                 double* delp, double* theta);
void updateEdges(const Index* edges, Index nedges, int nlev, double dts,
                 const double* u0, const double* u_tend, double* u);

/// acc += flux over an edge field (the tracer mass-flux accumulation).
void accumulateFlux(Index nedges, int nlev, const double* flux, double* acc);

/// Vertical implicit (w, phi) solve for `nmembers` members at once, member
/// index vectorized as the SIMD lane (blocks of up to 8 lanes). The arrays
/// are per-member pointers (member m's State fields and its pre-solver p);
/// per-lane arithmetic replicates backend::kernels::vertImplicitColumn
/// element-for-element.
void vertSolveMemberLanes(int nmembers, const Index* cells, Index ncells,
                          int nlev, double dt, double ptop,
                          const double* const* delp,
                          const double* const* theta, const double* const* p,
                          double* const* w, double* const* phi,
                          double w_damp_tau);

} // namespace grist::dycore::ensemble_kernels
