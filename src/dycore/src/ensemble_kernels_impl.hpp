// Tier-generic bodies of the dycore step sweeps (see ensemble_kernels.hpp
// for the bitwise contract). Each of ensemble_kernels_{scalar,avx512}.cpp
// defines GRIST_EK_TIER_FN -- the name of its table factory -- and includes
// this file under that tier's ISA flags, always with -ffp-contract=off:
// every floating-point expression below must evaluate per element exactly
// as the portable scalar code in backend/kernels.hpp does, so no FMA
// contraction and no value-changing reassociation are permitted, and all
// tiers agree bitwise. Only elementwise-independent dimensions (the
// vertical index k, the flat cell*k index, or the ensemble member lane)
// are vectorized; libm pow stays scalar per element. Everything except the
// factory has internal linkage, so the differently-compiled copies do not
// violate the ODR (same scheme as backend/simd_kernels_impl.hpp).
#pragma once

#if !defined(GRIST_EK_TIER_FN)
#error "ensemble_kernels_impl.hpp must be included from a tier TU"
#endif


#include <algorithm>
#include <cmath>

#include "grist/common/math.hpp"
#include "grist/common/workspace.hpp"
#include "ensemble_kernels_tiers.hpp"

namespace grist::dycore::ensemble_kernels {

using common::Workspace;
using constants::kCp;
using constants::kGravity;
using constants::kKappa;
using constants::kP0;
using constants::kRd;
using precision::NsMode;

namespace {

// Runs body(i) over the flat element index i = entity * nlev + k of every
// listed entity; `list == nullptr` is entities [0, n) as one flat sweep.
template <typename Body>
void sweep(const Index* list, Index n, int nlev, Body body) {
  if (list == nullptr) {
    const Index total = n * nlev;
#pragma omp parallel for simd schedule(static)
    for (Index i = 0; i < total; ++i) body(i);
    return;
  }
#pragma omp parallel for schedule(static)
  for (Index j = 0; j < n; ++j) {
    const Index base = list[j] * nlev;
#pragma omp simd
    for (int k = 0; k < nlev; ++k) body(base + k);
  }
}

// alpha = NS(dphi)/NS(dp); p = kP0*pow(dp/double(NS(dphi))*kRd*theta/kP0,
// cp/cv). Same expressions, same order, as computeRrrColumn (minus the
// pi_mid accumulation and the Exner pow, whose outputs are dead here).
// The pow argument is staged through the p row so the divides vectorize
// over k and the libm calls run in one scalar pass per row.
template <precision::NsReal NS, bool kAlpha>
void rrrImpl(const Index* cells, Index ncells, int nlev, const double* delp,
             const double* theta, const double* phi, double* alpha, double* p) {
  const double gamma = kCp / (kCp - kRd);  // cp/cv
#pragma omp parallel for schedule(static)
  for (Index i = 0; i < ncells; ++i) {
    const Index c = cells ? cells[i] : i;
    const double* dp_row = delp + c * nlev;
    const double* th_row = theta + c * nlev;
    const double* phi_row = phi + c * (nlev + 1);
    double* p_row = p + c * nlev;
#pragma omp simd
    for (int k = 0; k < nlev; ++k) {
      const double dp = dp_row[k];
      const NS dphi = static_cast<NS>(phi_row[k] - phi_row[k + 1]);
      if constexpr (kAlpha) {
        alpha[c * nlev + k] = static_cast<double>(dphi / static_cast<NS>(dp));
      }
      const double rho = dp / static_cast<double>(dphi);
      p_row[k] = rho * kRd * th_row[k] / kP0;
    }
    for (int k = 0; k < nlev; ++k) p_row[k] = kP0 * std::pow(p_row[k], gamma);
  }
}

void rrrLiteImpl(Index ncells, int nlev, const double* delp,
                 const double* theta, const double* phi, double* alpha,
                 double* p, NsMode ns) {
  if (ns == NsMode::kDouble) {
    rrrImpl<double, true>(nullptr, ncells, nlev, delp, theta, phi, alpha, p);
  } else {
    rrrImpl<float, true>(nullptr, ncells, nlev, delp, theta, phi, alpha, p);
  }
}

void rrrPOnlyImpl(const Index* cells, Index ncells, int nlev,
                  const double* delp, const double* theta, const double* phi,
                  double* p) {
  rrrImpl<double, false>(cells, ncells, nlev, delp, theta, phi, nullptr, p);
}

void saveCellStartImpl(Index ncells, int nlev, const double* delp,
                       const double* theta, double* delp0, double* thetam0) {
  sweep(nullptr, ncells, nlev, [=](Index i) {
    delp0[i] = delp[i];
    thetam0[i] = delp[i] * theta[i];
  });
}

void saveEdgeStartImpl(Index nedges, int nlev, const double* u, double* u0) {
  sweep(nullptr, nedges, nlev, [=](Index i) { u0[i] = u[i]; });
}

void updateCellsImpl(const Index* cells, Index ncells, int nlev, double dts,
                     const double* delp0, const double* thetam0,
                     const double* delp_tend, const double* thetam_tend,
                     double* delp, double* theta) {
  // Positivity branch as a blend: both divides are computed, the discarded
  // lane's value is thrown away. thetam0/delp0 is always well defined
  // (delp0 > 0); the speculative nt/nd on a floored lane cannot trap.
  sweep(cells, ncells, nlev, [=](Index i) {
    const double d0 = delp0[i];
    const double nd = d0 + dts * delp_tend[i];
    const double nt = thetam0[i] + dts * thetam_tend[i];
    const double floor_d = 0.1 * d0;
    const bool floored = nd < floor_d;
    delp[i] = floored ? floor_d : nd;
    theta[i] = floored ? thetam0[i] / d0 : nt / nd;
  });
}

void updateEdgesImpl(const Index* edges, Index nedges, int nlev, double dts,
                     const double* u0, const double* u_tend, double* u) {
  sweep(edges, nedges, nlev,
        [=](Index i) { u[i] = u0[i] + dts * u_tend[i]; });
}

void accumulateFluxImpl(Index nedges, int nlev, const double* flux,
                        double* acc) {
  sweep(nullptr, nedges, nlev, [=](Index i) { acc[i] += flux[i]; });
}

void vertSolveMemberLanesImpl(int nmembers, const Index* cells,
                              Index ncells, int nlev, double dt, double ptop,
                              const double* const* delp,
                              const double* const* theta,
                              const double* const* p, double* const* w,
                              double* const* phi, double w_damp_tau) {
  // Members in lane blocks of up to 8 (one zmm / two ymm of doubles). All
  // lane-major arrays are [k][lane]; expressions with k-offsets become flat
  // elementwise loops with stride-L offsets. Per-lane operation order is
  // exactly vertImplicitColumn's.
  constexpr int kMaxLanes = 8;
  const double gamma = kCp / (kCp - kRd);
  const double g = kGravity;
  const int n = nlev - 1;

  for (int m0 = 0; m0 < nmembers; m0 += kMaxLanes) {
    const int L = std::min(kMaxLanes, nmembers - m0);
    const double* const* dp_m = delp + m0;
    const double* const* th_m = theta + m0;
    const double* const* p_m = p + m0;
    double* const* w_m = w + m0;
    double* const* phi_m = phi + m0;

#pragma omp parallel
    {
      Workspace& ws = Workspace::threadLocal();
      const std::size_t row = Workspace::bytesFor<double>(nlev * kMaxLanes);
      const std::size_t irow = Workspace::bytesFor<double>((nlev + 1) * kMaxLanes);
      ws.reserve(3 * row + 3 * irow + 4 * row + irow +
                 Workspace::bytesFor<double>(kMaxLanes));
#pragma omp for schedule(static)
      for (Index j = 0; j < ncells; ++j) {
        const Index c = cells ? cells[j] : j;
        Workspace::Frame frame(ws);
        double* dp_ln = ws.acquire<double>(nlev * L);
        double* p_ln = ws.acquire<double>(nlev * L);
        double* comp = ws.acquire<double>(nlev * L);
        double* phi_ln = ws.acquire<double>((nlev + 1) * L);
        double* w_ln = ws.acquire<double>((nlev + 1) * L);
        double* wnew = ws.acquire<double>((nlev + 1) * L);
        double* lower = ws.acquire<double>(n * L);
        double* diag = ws.acquire<double>(n * L);
        double* upper = ws.acquire<double>(n * L);
        double* rhs = ws.acquire<double>(n * L);
        double* theta0 = ws.acquire<double>(L);

        const Index cc = c * nlev;
        const Index ci = c * (nlev + 1);
        // Gather member columns into lane-major scratch.
        for (int k = 0; k < nlev; ++k) {
          for (int l = 0; l < L; ++l) {
            dp_ln[k * L + l] = dp_m[l][cc + k];
            p_ln[k * L + l] = p_m[l][cc + k];
          }
        }
        for (int k = 0; k <= nlev; ++k) {
          for (int l = 0; l < L; ++l) {
            phi_ln[k * L + l] = phi_m[l][ci + k];
            w_ln[k * L + l] = w_m[l][ci + k];
          }
        }
        for (int l = 0; l < L; ++l) theta0[l] = th_m[l][cc + 0];

        // comp[j] = gamma p_j / (phi_j - phi_{j+1}); flat over [k][lane].
#pragma omp simd
        for (int i = 0; i < nlev * L; ++i) {
          comp[i] = gamma * p_ln[i] / (phi_ln[i] - phi_ln[i + L]);
        }
        // Tridiagonal rows for interior interfaces k = 1..n; flat index
        // i = (k-1)*L + lane, so "level k" reads sit at i + L.
#pragma omp simd
        for (int i = 0; i < n * L; ++i) {
          const double dpi = 0.5 * (dp_ln[i] + dp_ln[i + L]);
          const double ck = dt * g / dpi;
          const double a = ck * dt * g;
          lower[i] = -a * comp[i];
          diag[i] = 1.0 + a * (comp[i + L] + comp[i]);
          upper[i] = -a * comp[i + L];
          rhs[i] = w_ln[i + L] + ck * (p_ln[i + L] - p_ln[i]) - dt * g;
        }
        // Thomas forward elimination: sequential in k, lane-parallel.
        for (int i = 1; i < n; ++i) {
#pragma omp simd
          for (int l = 0; l < L; ++l) {
            const double mm = lower[i * L + l] / diag[(i - 1) * L + l];
            diag[i * L + l] -= mm * upper[(i - 1) * L + l];
            rhs[i * L + l] -= mm * rhs[(i - 1) * L + l];
          }
        }
        for (int i = 0; i < (nlev + 1) * L; ++i) wnew[i] = 0.0;
        if (n > 0) {
#pragma omp simd
          for (int l = 0; l < L; ++l) {
            wnew[n * L + l] = rhs[(n - 1) * L + l] / diag[(n - 1) * L + l];
          }
          for (int i = n - 2; i >= 0; --i) {
#pragma omp simd
            for (int l = 0; l < L; ++l) {
              wnew[(i + 1) * L + l] =
                  (rhs[i * L + l] - upper[i * L + l] * wnew[(i + 2) * L + l]) /
                  diag[i * L + l];
            }
          }
        }
        if (w_damp_tau > 0) {
          // Rows k = 1..n of wnew, i.e. flat indices [L, nlev*L).
#pragma omp simd
          for (int i = L; i < nlev * L; ++i) {
            wnew[i] /= 1.0 + dt / w_damp_tau;
          }
        }
        // Inversion limiter (reads pre-update phi); wnew row k sits at
        // i + L for flat i = (k-1)*L + lane.
#pragma omp simd
        for (int i = 0; i < n * L; ++i) {
          const double room =
              0.25 * std::min(phi_ln[i] - phi_ln[i + L],
                              phi_ln[i + L] - phi_ln[i + 2 * L]);
          const double bound = room / (dt * g);
          double wk = wnew[i + L];
          wk = wk > bound ? bound : wk;
          wk = wk < -bound ? -bound : wk;
          wnew[i + L] = wk;
        }
        // Scatter w, update interior phi, re-attach the top interface.
        for (int k = 0; k <= nlev; ++k) {
          for (int l = 0; l < L; ++l) w_m[l][ci + k] = wnew[k * L + l];
        }
        for (int k = 1; k <= n; ++k) {
          for (int l = 0; l < L; ++l) {
            phi_m[l][ci + k] += dt * g * wnew[k * L + l];
          }
        }
        for (int l = 0; l < L; ++l) {
          const double pi_top_mid = ptop + 0.5 * dp_ln[l];
          const double alpha_top = kRd * theta0[l] *
                                   std::pow(pi_top_mid / kP0, kKappa) /
                                   pi_top_mid;
          phi_m[l][ci + 0] = phi_m[l][ci + 1] + alpha_top * dp_ln[l];
        }
      }
    }
  }
}

} // namespace

const Table& GRIST_EK_TIER_FN() {
  static const Table table{&rrrLiteImpl,        &rrrPOnlyImpl,
                           &saveCellStartImpl,  &saveEdgeStartImpl,
                           &updateCellsImpl,    &updateEdgesImpl,
                           &accumulateFluxImpl, &vertSolveMemberLanesImpl};
  return table;
}

} // namespace grist::dycore::ensemble_kernels
