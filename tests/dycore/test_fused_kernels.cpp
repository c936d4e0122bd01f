// Correctness gate for the fused single-sweep tendency pipeline: every
// fused kernel must match the unfused kernel sequence it replaces to
// <= 1 ulp (NS = double) / <= 1e-6 relative (NS = float), the Dycore step
// sweeps (ensemble_kernels.hpp) must match the plain reference kernels
// BITWISE, and the Workspace-backed column solves must perform ZERO heap
// allocations once their per-thread arenas are warm.
//
// This binary overrides the global allocation operators to count heap
// traffic, so it is its own test executable (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <new>
#include <vector>

#include "grist/backend/simd.hpp"
#include "grist/common/workspace.hpp"
#include "grist/dycore/ensemble_kernels.hpp"
#include "grist/dycore/kernels.hpp"
#include "grist/dycore/state.hpp"
#include "grist/dycore/tracer.hpp"
#include "grist/dycore/vertical_remap.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. malloc-backed so the override itself is free of
// recursion; every flavor of operator new/delete funnels through here.
// ---------------------------------------------------------------------------
namespace {
std::atomic<long> g_heap_allocs{0};
} // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  ++g_heap_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace grist::dycore {
namespace {

using grid::HexMesh;
using grid::TrskWeights;

// Lexicographic key: maps doubles to an integer space where adjacent
// representable values differ by 1 (the standard ulp-distance trick).
std::uint64_t lexKey(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return (u & 0x8000000000000000ULL) ? ~u : (u | 0x8000000000000000ULL);
}

std::uint64_t ulpDiff(double a, double b) {
  const std::uint64_t ka = lexKey(a), kb = lexKey(b);
  return ka > kb ? ka - kb : kb - ka;
}

// Tolerance gate per the issue: <= 1 ulp for NS=double, <= 1e-6 relative
// for NS=float (all kernels emit double arrays regardless of NS).
template <typename NS>
void expectClose(const std::vector<double>& fused,
                 const std::vector<double>& ref, const char* what) {
  ASSERT_EQ(fused.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if constexpr (std::is_same_v<NS, double>) {
      ASSERT_LE(ulpDiff(fused[i], ref[i]), 1u)
          << what << " [" << i << "]: " << fused[i] << " vs " << ref[i];
    } else {
      const double denom = std::max(std::abs(ref[i]), 1e-30);
      ASSERT_LE(std::abs(fused[i] - ref[i]) / denom, 1e-6)
          << what << " [" << i << "]: " << fused[i] << " vs " << ref[i];
    }
  }
}

// Shared smooth-but-nontrivial model state on the issue's g4 grid.
struct Fixture {
  HexMesh mesh = grid::buildHexMesh(4);
  TrskWeights trsk = grid::buildTrskWeights(mesh);
  int nlev = 8;
  std::size_t cn, en, vn;
  std::vector<double> delp, theta, u, phi;
  std::vector<double> alpha, p, exner, pi_mid;  // from computeRrr
  double nu_theta = 0.005 / 300.0;
  double nu_div = 0.02 / 300.0;
  double nu_vor = 0.005 / 300.0;

  Fixture() {
    cn = static_cast<std::size_t>(mesh.ncells) * nlev;
    en = static_cast<std::size_t>(mesh.nedges) * nlev;
    vn = static_cast<std::size_t>(mesh.nvertices) * nlev;
    delp.resize(cn);
    theta.resize(cn);
    phi.resize(static_cast<std::size_t>(mesh.ncells) * (nlev + 1));
    u.resize(en);
    for (Index c = 0; c < mesh.ncells; ++c) {
      for (int k = 0; k < nlev; ++k) {
        delp[c * nlev + k] = 500.0 + 40.0 * std::sin(0.37 * c + 0.9 * k);
        theta[c * nlev + k] = 300.0 + 15.0 * std::cos(0.11 * c - 0.5 * k);
      }
      phi[c * (nlev + 1) + nlev] = 100.0 * std::sin(0.05 * c);
      for (int k = nlev - 1; k >= 0; --k) {
        phi[c * (nlev + 1) + k] =
            phi[c * (nlev + 1) + k + 1] + 2000.0 + 100.0 * std::cos(0.2 * c + k);
      }
    }
    for (Index e = 0; e < mesh.nedges; ++e) {
      for (int k = 0; k < nlev; ++k) {
        u[e * nlev + k] = 12.0 * std::sin(0.23 * e + 0.4 * k) - 3.0;
      }
    }
    alpha.resize(cn);
    p.resize(cn);
    exner.resize(cn);
    pi_mid.resize(cn);
    kernels::computeRrr<double>(mesh.ncells, nlev, 225.0, delp.data(),
                                theta.data(), phi.data(), alpha.data(), p.data(),
                                exner.data(), pi_mid.data());
  }
};

Fixture& fx() {
  static Fixture f;
  return f;
}

template <typename NS>
class FusedKernels : public ::testing::Test {};
using Precisions = ::testing::Types<double, float>;
TYPED_TEST_SUITE(FusedKernels, Precisions);

TYPED_TEST(FusedKernels, EdgeFluxesMatchUnfused) {
  using NS = TypeParam;
  Fixture& f = fx();
  std::vector<double> flux_ref(f.en), uflux_ref(f.en);
  kernels::primalNormalFluxEdge<NS>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                                    f.u.data(), flux_ref.data());
  for (Index e = 0; e < f.mesh.nedges; ++e) {
    for (int k = 0; k < f.nlev; ++k) {
      uflux_ref[e * f.nlev + k] = f.mesh.edge_le[e] * f.u[e * f.nlev + k];
    }
  }
  std::vector<double> flux(f.en), uflux(f.en);
  kernels::fusedEdgeFluxes<NS>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                               f.u.data(), flux.data(), uflux.data());
  expectClose<NS>(flux, flux_ref, "flux");
  expectClose<NS>(uflux, uflux_ref, "uflux");
}

TYPED_TEST(FusedKernels, CellDiagnosticsMatchUnfused) {
  using NS = TypeParam;
  Fixture& f = fx();
  std::vector<double> flux(f.en), uflux(f.en);
  kernels::fusedEdgeFluxes<NS>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                               f.u.data(), flux.data(), uflux.data());
  std::vector<double> div_ref(f.cn), divu_ref(f.cn), ke_ref(f.cn);
  kernels::divAtCell<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(), div_ref.data());
  kernels::divAtCell<NS>(f.mesh, f.mesh.ncells, f.nlev, uflux.data(), divu_ref.data());
  kernels::kineticEnergy<NS>(f.mesh, f.mesh.ncells, f.nlev, f.u.data(), ke_ref.data());
  std::vector<double> div(f.cn), divu(f.cn), ke(f.cn);
  kernels::fusedCellDiagnostics<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(),
                                    uflux.data(), f.u.data(), div.data(),
                                    divu.data(), ke.data());
  expectClose<NS>(div, div_ref, "div_flux");
  expectClose<NS>(divu, divu_ref, "div_u");
  expectClose<NS>(ke, ke_ref, "ke");
}

TYPED_TEST(FusedKernels, VertexDiagnosticsMatchUnfused) {
  using NS = TypeParam;
  Fixture& f = fx();
  std::vector<double> vor_ref(f.vn), qv_ref(f.vn);
  kernels::vorticityAtVertex<NS>(f.mesh, f.mesh.nvertices, f.nlev, f.u.data(),
                                 vor_ref.data());
  kernels::potentialVorticityAtVertex<NS>(f.mesh, f.mesh.nvertices, f.nlev,
                                          vor_ref.data(), f.delp.data(),
                                          constants::kOmega, qv_ref.data());
  std::vector<double> vor(f.vn), qv(f.vn);
  kernels::fusedVertexDiagnostics<NS>(f.mesh, f.mesh.nvertices, f.nlev, f.u.data(),
                                      f.delp.data(), constants::kOmega,
                                      vor.data(), qv.data());
  expectClose<NS>(vor, vor_ref, "vor");
  expectClose<NS>(qv, qv_ref, "qv");
}

TYPED_TEST(FusedKernels, ScalarTendenciesMatchUnfused) {
  using NS = TypeParam;
  Fixture& f = fx();
  std::vector<double> flux(f.en), uflux(f.en);
  kernels::fusedEdgeFluxes<NS>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                               f.u.data(), flux.data(), uflux.data());
  std::vector<double> div(f.cn);
  kernels::divAtCell<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(), div.data());
  // Unfused reference: delp_tend = -div; thetam_tend = advection + diffusion.
  std::vector<double> dt_ref(f.cn), tt_ref(f.cn), s2(f.cn, 0.0);
  for (std::size_t i = 0; i < f.cn; ++i) dt_ref[i] = -div[i];
  kernels::scalarFluxTendency<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(),
                                  f.theta.data(), tt_ref.data());
  kernels::del2Scalar<NS>(f.mesh, f.mesh.ncells, f.nlev, f.theta.data(),
                          f.nu_theta, s2.data());
  for (std::size_t i = 0; i < f.cn; ++i) tt_ref[i] += f.delp[i] * s2[i];
  std::vector<double> dt(f.cn), tt(f.cn);
  kernels::fusedScalarTendencies<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(),
                                     f.theta.data(), f.delp.data(), div.data(),
                                     f.nu_theta, dt.data(), tt.data());
  expectClose<NS>(dt, dt_ref, "delp_tend");
  expectClose<NS>(tt, tt_ref, "thetam_tend");
}

TYPED_TEST(FusedKernels, MomentumTendencyMatchesUnfusedSequence) {
  using NS = TypeParam;
  Fixture& f = fx();
  std::vector<double> flux(f.en), uflux(f.en);
  kernels::fusedEdgeFluxes<NS>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                               f.u.data(), flux.data(), uflux.data());
  std::vector<double> div_u(f.cn), ke(f.cn), dummy_div(f.cn);
  kernels::fusedCellDiagnostics<NS>(f.mesh, f.mesh.ncells, f.nlev, flux.data(),
                                    uflux.data(), f.u.data(), dummy_div.data(),
                                    div_u.data(), ke.data());
  std::vector<double> vor(f.vn), qv(f.vn);
  kernels::fusedVertexDiagnostics<NS>(f.mesh, f.mesh.nvertices, f.nlev, f.u.data(),
                                      f.delp.data(), constants::kOmega,
                                      vor.data(), qv.data());
  // Unfused reference: zero-fill then four accumulation passes, exactly as
  // the pre-fusion Dycore::computeTendencies did.
  std::vector<double> ut_ref(f.en, 0.0);
  kernels::tendGradKeAtEdge<NS>(f.mesh, f.mesh.nedges, f.nlev, ke.data(),
                                ut_ref.data());
  kernels::calcCoriolisTerm<NS>(f.mesh, f.trsk, f.mesh.nedges, f.nlev, flux.data(),
                                qv.data(), ut_ref.data());
  kernels::calcPressureGradient(f.mesh, f.mesh.nedges, f.nlev, f.phi.data(),
                                f.alpha.data(), f.p.data(), f.pi_mid.data(),
                                ut_ref.data());
  kernels::del2Momentum<NS>(f.mesh, f.mesh.nedges, f.nlev, div_u.data(),
                            vor.data(), f.nu_div, f.nu_vor, ut_ref.data());
  std::vector<double> ut(f.en);
  kernels::fusedMomentumTendency<NS>(f.mesh, f.trsk, f.mesh.nedges, f.nlev,
                                     ke.data(), qv.data(), flux.data(),
                                     f.phi.data(), f.alpha.data(), f.p.data(),
                                     div_u.data(), vor.data(), f.nu_div,
                                     f.nu_vor, ut.data());
  expectClose<NS>(ut, ut_ref, "u_tend");
}

// ---------------------------------------------------------------------------
// Dycore step sweeps: bitwise against the plain kernels they stand in for.
// ---------------------------------------------------------------------------

namespace ek = ensemble_kernels;
namespace simd = backend::simd;

void expectBitwise(const std::vector<double>& got,
                   const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " [" << i << "]: " << got[i] << " vs " << want[i];
  }
}

// Runs `body` once per SIMD tier the build and the CPU carry, with that
// tier forced: the sweeps dispatch on the backend's active tier, so every
// compiled copy is held to the same bitwise reference.
void forEachTier(const std::function<void()>& body) {
  for (const simd::Tier t : simd::availableTiers()) {
    simd::forceTier(t);
    SCOPED_TRACE(simd::tierName(t));
    body();
  }
  simd::clearForcedTier();
}

// A band-like cell/edge list: every third entity, in descending order.
std::vector<Index> everyThird(Index n) {
  std::vector<Index> list;
  for (Index i = n - 1; i >= 0; i -= 3) list.push_back(i);
  return list;
}

TYPED_TEST(FusedKernels, RrrLiteMatchesComputeRrrBitwise) {
  forEachTier([&] {
    using NS = TypeParam;
    Fixture& f = fx();
    std::vector<double> alpha_ref(f.cn), p_ref(f.cn), exner(f.cn), pi_mid(f.cn);
    kernels::computeRrr<NS>(f.mesh.ncells, f.nlev, 225.0, f.delp.data(),
                            f.theta.data(), f.phi.data(), alpha_ref.data(),
                            p_ref.data(), exner.data(), pi_mid.data());
    std::vector<double> alpha(f.cn), p(f.cn);
    ek::rrrLite(f.mesh.ncells, f.nlev, f.delp.data(), f.theta.data(),
                f.phi.data(), alpha.data(), p.data(),
                std::is_same_v<NS, double> ? precision::NsMode::kDouble
                                           : precision::NsMode::kSingle);
    expectBitwise(alpha, alpha_ref, "alpha");
    expectBitwise(p, p_ref, "p");
  });
}

TEST(StepSweeps, RrrPOnlyMatchesComputeRrrBitwise) {
  forEachTier([&] {
    Fixture& f = fx();  // f.p is computeRrr<double>'s p
    std::vector<double> p(f.cn);
    ek::rrrPOnly(nullptr, f.mesh.ncells, f.nlev, f.delp.data(), f.theta.data(),
                 f.phi.data(), p.data());
    expectBitwise(p, f.p, "p");
    // On a list: listed columns get the same p, the others stay untouched.
    const std::vector<Index> cells = everyThird(f.mesh.ncells);
    std::vector<double> pb(f.cn, -1.0), want(f.cn, -1.0);
    for (const Index c : cells) {
      for (int k = 0; k < f.nlev; ++k) {
        want[c * f.nlev + k] = f.p[c * f.nlev + k];
      }
    }
    ek::rrrPOnly(cells.data(), static_cast<Index>(cells.size()), f.nlev,
                 f.delp.data(), f.theta.data(), f.phi.data(), pb.data());
    expectBitwise(pb, want, "p (list)");
  });
}

TEST(StepSweeps, SaveUpdateAccumulateMatchScalarLoopsBitwise) {
  forEachTier([&] {
    Fixture& f = fx();
    const Index nc = f.mesh.ncells, ne = f.mesh.nedges;
    const int nlev = f.nlev;
    const double dts = 150.0;
    std::vector<double> delp_tend(f.cn), thetam_tend(f.cn), u_tend(f.en);
    for (std::size_t i = 0; i < f.cn; ++i) {
      delp_tend[i] = 0.05 * std::sin(0.7 * i);
      thetam_tend[i] = 20.0 * std::cos(0.3 * i);
    }
    // Force the positivity floor on every seventh element: drain the layer to
    // below 10% of its step-start mass.
    for (std::size_t i = 0; i < f.cn; i += 7) {
      delp_tend[i] = -0.95 * f.delp[i] / dts;
    }
    for (std::size_t i = 0; i < f.en; ++i) u_tend[i] = 1e-3 * std::sin(0.9 * i);

    // Scalar reference loops (the plain RK save/update/accumulate bodies).
    std::vector<double> delp0_ref(f.cn), thetam0_ref(f.cn), u0_ref(f.en);
    for (std::size_t i = 0; i < f.cn; ++i) {
      delp0_ref[i] = f.delp[i];
      thetam0_ref[i] = f.delp[i] * f.theta[i];
    }
    for (std::size_t i = 0; i < f.en; ++i) u0_ref[i] = f.u[i];
    std::size_t floored = 0;  // floor branches taken by the reference
    const auto refCells = [&](const std::vector<Index>& cells,
                              std::vector<double>& delp,
                              std::vector<double>& theta) {
      for (const Index c : cells) {
        for (int k = 0; k < nlev; ++k) {
          const std::size_t i = static_cast<std::size_t>(c * nlev + k);
          double new_delp = delp0_ref[i] + dts * delp_tend[i];
          const double new_thetam = thetam0_ref[i] + dts * thetam_tend[i];
          const double floor = 0.1 * delp0_ref[i];
          if (new_delp < floor) {
            ++floored;
            delp[i] = floor;
            theta[i] = thetam0_ref[i] / delp0_ref[i];
            continue;
          }
          delp[i] = new_delp;
          theta[i] = new_thetam / new_delp;
        }
      }
    };
    std::vector<Index> all_cells(static_cast<std::size_t>(nc));
    for (Index c = 0; c < nc; ++c) all_cells[static_cast<std::size_t>(c)] = c;

    std::vector<double> delp0(f.cn), thetam0(f.cn), u0(f.en);
    ek::saveCellStart(nc, nlev, f.delp.data(), f.theta.data(), delp0.data(),
                      thetam0.data());
    ek::saveEdgeStart(ne, nlev, f.u.data(), u0.data());
    expectBitwise(delp0, delp0_ref, "delp0");
    expectBitwise(thetam0, thetam0_ref, "thetam0");
    expectBitwise(u0, u0_ref, "u0");

    const std::vector<Index> band_cells = everyThird(nc);
    const std::vector<Index> band_edges = everyThird(ne);
    for (const bool listed : {false, true}) {
      const char* mode = listed ? "list" : "contiguous";
      const std::vector<Index>& cells = listed ? band_cells : all_cells;
      std::vector<double> delp(f.cn, -1.0), theta(f.cn, -1.0);
      std::vector<double> delp_ref(f.cn, -1.0), theta_ref(f.cn, -1.0);
      refCells(cells, delp_ref, theta_ref);
      ek::updateCells(listed ? band_cells.data() : nullptr,
                      static_cast<Index>(cells.size()), nlev, dts, delp0.data(),
                      thetam0.data(), delp_tend.data(), thetam_tend.data(),
                      delp.data(), theta.data());
      SCOPED_TRACE(mode);
      expectBitwise(delp, delp_ref, "delp");
      expectBitwise(theta, theta_ref, "theta");

      std::vector<double> u(f.en, -1.0), u_ref(f.en, -1.0);
      const Index nedges = listed ? static_cast<Index>(band_edges.size()) : ne;
      for (Index j = 0; j < nedges; ++j) {
        const Index e = listed ? band_edges[static_cast<std::size_t>(j)] : j;
        for (int k = 0; k < nlev; ++k) {
          const std::size_t i = static_cast<std::size_t>(e * nlev + k);
          u_ref[i] = u0_ref[i] + dts * u_tend[i];
        }
      }
      ek::updateEdges(listed ? band_edges.data() : nullptr, nedges, nlev, dts,
                      u0.data(), u_tend.data(), u.data());
      expectBitwise(u, u_ref, "u");
    }
    EXPECT_GT(floored, 0u);

    std::vector<double> acc(f.en), acc_ref(f.en);
    for (std::size_t i = 0; i < f.en; ++i) acc[i] = acc_ref[i] = 0.5 * f.u[i];
    for (std::size_t i = 0; i < f.en; ++i) acc_ref[i] += u_tend[i];
    ek::accumulateFlux(ne, nlev, u_tend.data(), acc.data());
    expectBitwise(acc, acc_ref, "acc");
  });
}

TEST(StepSweeps, MemberLaneSolveMatchesColumnSolverBitwise) {
  forEachTier([&] {
    Fixture& f = fx();
    const Index nc = f.mesh.ncells;
    const int nlev = f.nlev;
    const std::size_t in = static_cast<std::size_t>(nc) * (nlev + 1);
    const double dt = 300.0, ptop = 225.0, tau = 600.0;
    const std::vector<Index> band = everyThird(nc);
    for (const int M : {1, 3, 8, 9}) {
      for (const bool listed : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "M=" << M << (listed ? " list" : " contiguous"));
        // Distinct member states: perturbed delp/theta/phi, nonzero w.
        std::vector<std::vector<double>> delp(M), theta(M), p(M), w(M), phi(M);
        std::vector<std::vector<double>> w_ref(M), phi_ref(M);
        for (int m = 0; m < M; ++m) {
          delp[m] = f.delp;
          theta[m] = f.theta;
          phi[m] = f.phi;
          w[m].resize(in);
          for (std::size_t i = 0; i < f.cn; ++i) {
            delp[m][i] *= 1.0 + 0.01 * m * std::sin(0.13 * i);
            theta[m][i] += 0.5 * m * std::cos(0.29 * i);
          }
          for (std::size_t i = 0; i < in; ++i) {
            phi[m][i] += 3.0 * m * std::sin(0.07 * i);
            w[m][i] = 0.2 * std::sin(0.41 * i + m);
          }
          std::vector<double> alpha(f.cn), exner(f.cn), pi_mid(f.cn);
          p[m].resize(f.cn);
          kernels::computeRrr<double>(nc, nlev, ptop, delp[m].data(),
                                      theta[m].data(), phi[m].data(),
                                      alpha.data(), p[m].data(), exner.data(),
                                      pi_mid.data());
          // Reference: the plain column solver over every column; unlisted
          // columns keep their input values.
          std::vector<double> wr = w[m], phir = phi[m];
          kernels::vertImplicitSolver(nc, nlev, dt, ptop, delp[m].data(),
                                      theta[m].data(), p[m].data(), wr.data(),
                                      phir.data(), tau);
          w_ref[m] = w[m];
          phi_ref[m] = phi[m];
          const Index nlisted = listed ? static_cast<Index>(band.size()) : nc;
          for (Index j = 0; j < nlisted; ++j) {
            const Index c = listed ? band[static_cast<std::size_t>(j)] : j;
            for (int k = 0; k <= nlev; ++k) {
              const std::size_t i =
                  static_cast<std::size_t>(c * (nlev + 1) + k);
              w_ref[m][i] = wr[i];
              phi_ref[m][i] = phir[i];
            }
          }
        }
        std::vector<const double*> dp_ptr(M), th_ptr(M), p_ptr(M);
        std::vector<double*> w_ptr(M), phi_ptr(M);
        for (int m = 0; m < M; ++m) {
          dp_ptr[m] = delp[m].data();
          th_ptr[m] = theta[m].data();
          p_ptr[m] = p[m].data();
          w_ptr[m] = w[m].data();
          phi_ptr[m] = phi[m].data();
        }
        ek::vertSolveMemberLanes(
            M, listed ? band.data() : nullptr,
            listed ? static_cast<Index>(band.size()) : nc, nlev, dt, ptop,
            dp_ptr.data(), th_ptr.data(), p_ptr.data(), w_ptr.data(),
            phi_ptr.data(), tau);
        for (int m = 0; m < M; ++m) {
          expectBitwise(w[m], w_ref[m], "w");
          expectBitwise(phi[m], phi_ref[m], "phi");
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Zero-allocation guards: once the per-thread Workspace arenas are warm, the
// column solves must not touch the heap at all.
// ---------------------------------------------------------------------------

long allocsDuring(const std::function<void()>& fn) {
  const long before = g_heap_allocs.load();
  fn();
  return g_heap_allocs.load() - before;
}

TEST(AllocationGuard, VertImplicitSolverIsHeapFreeWhenWarm) {
  Fixture& f = fx();
  std::vector<double> w(static_cast<std::size_t>(f.mesh.ncells) * (f.nlev + 1), 0.1);
  std::vector<double> phi = f.phi;
  const auto solve = [&] {
    kernels::vertImplicitSolver(f.mesh.ncells, f.nlev, 300.0, 225.0,
                                f.delp.data(), f.theta.data(), f.p.data(),
                                w.data(), phi.data(), 0.0);
  };
  solve();  // warm-up: arenas grow here (at most once per thread)
  EXPECT_EQ(allocsDuring(solve), 0);
}

TEST(AllocationGuard, TracerTransportIsHeapFreeWhenWarm) {
  Fixture& f = fx();
  std::vector<double> q(f.cn, 1.0e-3);
  for (std::size_t i = 0; i < f.cn; ++i) q[i] += 1e-4 * std::sin(0.3 * i);
  std::vector<double> flux(f.en), uflux(f.en);
  kernels::fusedEdgeFluxes<double>(f.mesh, f.mesh.nedges, f.nlev, f.delp.data(),
                                   f.u.data(), flux.data(), uflux.data());
  TracerTransportArgs args;
  args.mesh = &f.mesh;
  args.ncells_prog = f.mesh.ncells;
  args.nlev = f.nlev;
  args.dt = 300.0;
  args.mean_flux = flux.data();
  args.delp_old = f.delp.data();
  args.delp_new = f.delp.data();
  const auto transport = [&] { tracerTransportHoriFluxLimiter<double>(args, q.data()); };
  transport();
  EXPECT_EQ(allocsDuring(transport), 0);
}

TEST(AllocationGuard, VerticalRemapIsHeapFreeWhenWarm) {
  Fixture& f = fx();
  State state(f.mesh, f.nlev, 1);
  for (Index c = 0; c < f.mesh.ncells; ++c) {
    for (int k = 0; k < f.nlev; ++k) {
      state.delp(c, k) = f.delp[c * f.nlev + k];
      state.theta(c, k) = f.theta[c * f.nlev + k];
      state.tracers[0](c, k) = 1e-3;
    }
    for (int k = 0; k <= f.nlev; ++k) {
      state.phi(c, k) = f.phi[c * (f.nlev + 1) + k];
      state.w(c, k) = 0.01;
    }
  }
  State scratch = state;  // remap mutates; keep a pristine copy to re-run
  verticalRemap(f.mesh.ncells, f.nlev, 225.0, scratch);  // warm-up
  State scratch2 = state;
  EXPECT_EQ(allocsDuring([&] {
              verticalRemap(f.mesh.ncells, f.nlev, 225.0, scratch2);
            }),
            0);
}

} // namespace
} // namespace grist::dycore
