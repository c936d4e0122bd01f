// Bitwise reference tests for the conventional column physics. The
// reference implementations below are the straightforward forms of the
// radiation, convection and PBL schemes: radiation evaluates T^4 and each
// band's emissivity in both longwave sweeps, convection runs its damped
// fixed point level by level, and the PBL solve keeps its column scratch in
// std::vector. The library versions hoist the band-invariant longwave terms,
// interleave the per-level fixed points and keep their scratch on the
// stack; each must still produce the same bits, under OpenMP teams of one
// thread and of every CPU, alone and inside a multi-call ConventionalSuite
// sequence that reuses and then refreshes the radiation cache.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "grist/common/math.hpp"
#include "grist/ml/traindata.hpp"
#include "grist/physics/convection.hpp"
#include "grist/physics/pbl.hpp"
#include "grist/physics/radiation.hpp"
#include "grist/physics/saturation.hpp"
#include "grist/physics/suite.hpp"

namespace grist::physics {
namespace {

using constants::kCp;
using constants::kGravity;
using constants::kLv;

constexpr double kSigmaSB = 5.670374e-8;

// ---------------------------------------------------------------------------
// Reference schemes.
// ---------------------------------------------------------------------------

class ReferenceRadiation {
 public:
  explicit ReferenceRadiation(RadiationConfig config = {}) : config_(config) {
    const auto fill = [](std::vector<double>& v, int n, double lo, double hi) {
      v.resize(n);
      for (int b = 0; b < n; ++b) {
        const double frac = n == 1 ? 0.0 : static_cast<double>(b) / (n - 1);
        v[b] = lo * std::pow(hi / lo, frac);
      }
    };
    fill(sw_k_gas_, config_.sw_bands, 3e-7, 3e-6);
    fill(sw_k_vap_, config_.sw_bands, 2e-4, 1.5e-3);
    fill(sw_k_cld_, config_.sw_bands, 0.1, 0.5);
    fill(lw_k_gas_, config_.lw_bands, 1e-6, 4e-5);
    fill(lw_k_vap_, config_.lw_bands, 1e-4, 1e-2);
    fill(lw_k_cld_, config_.lw_bands, 0.5, 2.0);
    sw_weight_.assign(config_.sw_bands, 1.0 / config_.sw_bands);
    lw_weight_.assign(config_.lw_bands, 1.0 / config_.lw_bands);
  }

  void run(const PhysicsInput& in, PhysicsOutput& out) const {
    const int nlev = in.nlev;
    for (Index c = 0; c < in.ncolumns; ++c) {
      std::vector<double> heating(nlev + 1, 0.0);
      double gsw = 0.0;
      const double mu = in.coszr[c];
      if (mu > 1e-4) {
        for (int b = 0; b < config_.sw_bands; ++b) {
          double beam = config_.solar_constant * mu * sw_weight_[b];
          for (int k = 0; k < nlev; ++k) {
            const double dp = in.delp(c, k);
            const double tau = (sw_k_gas_[b] * dp + sw_k_vap_[b] * in.qv(c, k) * dp +
                                sw_k_cld_[b] * in.qc(c, k) * dp);
            const double trans = std::exp(-tau / mu);
            const double absorbed = beam * (1.0 - trans);
            heating[k] += kGravity * absorbed / (kCp * dp);
            beam -= absorbed;
            if (beam < 1e-10) {
              beam = 0.0;
              break;
            }
          }
          gsw += beam * (1.0 - in.albedo[c]);
        }
      }
      out.gsw[c] = gsw;

      double glw = 0.0;
      for (int b = 0; b < config_.lw_bands; ++b) {
        std::vector<double> down(nlev + 1), up(nlev + 1);
        down[0] = 0.0;
        for (int k = 0; k < nlev; ++k) {
          const double dp = in.delp(c, k);
          const double tau = lw_k_gas_[b] * dp + lw_k_vap_[b] * in.qv(c, k) * dp +
                             lw_k_cld_[b] * in.qc(c, k) * dp;
          const double eps = 1.0 - std::exp(-tau);
          const double t4 = std::pow(in.t(c, k), 4.0);
          down[k + 1] = down[k] * (1.0 - eps) + eps * kSigmaSB * t4;
        }
        glw += lw_weight_[b] * down[nlev];
        up[nlev] = kSigmaSB * std::pow(in.tskin[c], 4.0);
        for (int k = nlev - 1; k >= 0; --k) {
          const double dp = in.delp(c, k);
          const double tau = lw_k_gas_[b] * dp + lw_k_vap_[b] * in.qv(c, k) * dp +
                             lw_k_cld_[b] * in.qc(c, k) * dp;
          const double eps = 1.0 - std::exp(-tau);
          const double t4 = std::pow(in.t(c, k), 4.0);
          up[k] = up[k + 1] * (1.0 - eps) + eps * kSigmaSB * t4;
        }
        for (int k = 0; k < nlev; ++k) {
          const double net_top = up[k] - down[k];
          const double net_bot = up[k + 1] - down[k + 1];
          heating[k] +=
              lw_weight_[b] * kGravity * (net_bot - net_top) / (kCp * in.delp(c, k));
        }
      }
      out.glw[c] = glw;

      const double cap = config_.heating_cap_kday / 86400.0;
      for (int k = 0; k < nlev; ++k) {
        double h = std::min(cap, std::max(-cap, heating[k]));
        if (in.pmid(c, k) < config_.strat_pressure) {
          h += (config_.strat_t - in.t(c, k)) / config_.strat_tau;
        }
        out.dtdt(c, k) += h;
      }
    }
  }

 private:
  RadiationConfig config_;
  std::vector<double> sw_k_gas_, sw_k_vap_, sw_k_cld_, sw_weight_;
  std::vector<double> lw_k_gas_, lw_k_vap_, lw_k_cld_, lw_weight_;
};

void referenceConvection(const ConvectionConfig& config, const PhysicsInput& in,
                         double grid_dx, PhysicsOutput& out) {
  if (grid_dx < config.switch_off_dx) return;
  const int nlev = in.nlev;
  for (Index c = 0; c < in.ncolumns; ++c) {
    const int kb = nlev - 1;
    const double theta_b = in.t(c, kb) / in.exner(c, kb);
    const int ktest = std::max(0, kb - 3);
    const double theta_test = in.t(c, ktest) / in.exner(c, ktest);
    const double qsat_b = saturationMixingRatio(in.t(c, kb), in.pmid(c, kb));
    const double rh_b = in.qv(c, kb) / std::max(qsat_b, 1e-10);
    const double theta_e_b = theta_b * std::exp(kLv * in.qv(c, kb) / (kCp * in.t(c, kb)));
    if (theta_e_b <= theta_test * 1.01 || rh_b < 0.5) continue;

    double precip_col = 0.0;
    std::vector<double> stage_dtdt(nlev, 0.0), stage_dqdt(nlev, 0.0);
    for (int k = 0; k < nlev; ++k) {
      const double pk = in.pmid(c, k);
      if (pk < 3.0e4) continue;
      const double exn = in.exner(c, k);
      double t_ref = in.t(c, k);
      for (int it = 0; it < 8; ++it) {
        const double qs = saturationMixingRatio(t_ref, pk);
        const double target =
            theta_e_b * exn / std::exp(kLv * config.rh_reference * qs / (kCp * t_ref));
        t_ref = 0.5 * (t_ref + clamp(target, 150.0, 330.0));
      }
      const double q_ref = config.rh_reference * saturationMixingRatio(in.t(c, k), pk);
      const double cap = 30.0 / 86400.0;
      stage_dtdt[k] = clamp((t_ref - in.t(c, k)) / config.tau, -cap, cap);
      stage_dqdt[k] = (q_ref - in.qv(c, k)) / config.tau;
      precip_col -= stage_dqdt[k] * in.delp(c, k) / kGravity;
    }
    if (precip_col <= 0) continue;
    for (int k = 0; k < nlev; ++k) {
      out.dtdt(c, k) += stage_dtdt[k];
      out.dqvdt(c, k) += stage_dqdt[k];
    }
    out.precip[c] += precip_col * 86400.0;
  }
}

void referenceDiffuseColumn(int nlev, double dt, const double* k_int, const double* zmid,
                            const double* s, double surf_flux_term, double* tend) {
  std::vector<double> lower(nlev), diag(nlev), upper(nlev), rhs(nlev);
  for (int k = 0; k < nlev; ++k) {
    double a = 0.0, c = 0.0;
    if (k > 0) {
      const double dz = zmid[k - 1] - zmid[k];
      a = dt * k_int[k] / (dz * dz);
    }
    if (k < nlev - 1) {
      const double dz = zmid[k] - zmid[k + 1];
      c = dt * k_int[k + 1] / (dz * dz);
    }
    lower[k] = -a;
    upper[k] = -c;
    diag[k] = 1.0 + a + c;
    rhs[k] = s[k];
  }
  rhs[nlev - 1] += dt * surf_flux_term;
  for (int k = 1; k < nlev; ++k) {
    const double m = lower[k] / diag[k - 1];
    diag[k] -= m * upper[k - 1];
    rhs[k] -= m * rhs[k - 1];
  }
  std::vector<double> snew(nlev);
  snew[nlev - 1] = rhs[nlev - 1] / diag[nlev - 1];
  for (int k = nlev - 2; k >= 0; --k) {
    snew[k] = (rhs[k] - upper[k] * snew[k + 1]) / diag[k];
  }
  for (int k = 0; k < nlev; ++k) tend[k] += (snew[k] - s[k]) / dt;
}

void referencePbl(const PblConfig& config, const PhysicsInput& in, double dt,
                  const std::vector<double>& shflx, const std::vector<double>& lhflx,
                  PhysicsOutput& out) {
  const int nlev = in.nlev;
  for (Index c = 0; c < in.ncolumns; ++c) {
    std::vector<double> k_int(nlev + 1, config.k_free);
    const double unstable = in.tskin[c] > in.t(c, nlev - 1) ? 1.0 : 0.3;
    for (int k = 1; k < nlev; ++k) {
      const double z = in.zint(c, k);
      if (z < config.pbl_depth) {
        const double zeta = z / config.pbl_depth;
        k_int[k] += config.k_max * unstable * zeta * (1.0 - zeta) * 4.0;
      }
    }
    const double mass_bot = in.delp(c, nlev - 1) / kGravity;
    std::vector<double> column(nlev), tend(nlev);
    const auto run_scalar = [&](auto getter, double surf_term, Field& out_tend,
                                auto putter) {
      for (int k = 0; k < nlev; ++k) {
        column[k] = getter(k);
        tend[k] = 0.0;
      }
      referenceDiffuseColumn(nlev, dt, k_int.data(), &in.zmid(c, 0), column.data(),
                             surf_term, tend.data());
      for (int k = 0; k < nlev; ++k) out_tend(c, k) += putter(k, tend[k]);
    };
    run_scalar([&](int k) { return in.t(c, k) / in.exner(c, k); },
               shflx[c] / (kCp * mass_bot * in.exner(c, nlev - 1)), out.dtdt,
               [&](int k, double dtheta) { return dtheta * in.exner(c, k); });
    run_scalar([&](int k) { return in.qv(c, k); }, lhflx[c] / (kLv * mass_bot),
               out.dqvdt, [](int, double d) { return d; });
    run_scalar([&](int k) { return in.u(c, k); }, 0.0, out.dudt,
               [](int, double d) { return d; });
    run_scalar([&](int k) { return in.v(c, k); }, 0.0, out.dvdt,
               [](int, double d) { return d; });
  }
}

/// The conventional suite's call sequence over the reference schemes; the
/// surface layer, microphysics and land model are the library's.
class ReferenceSuite {
 public:
  ReferenceSuite(Index ncolumns, int nlev, ConventionalSuiteConfig config)
      : config_(config),
        radiation_(config.radiation),
        microphysics_(config.microphysics),
        surface_(config.surface),
        land_(ncolumns, config.land),
        steps_since_radiation_(config.radiation_interval),
        cached_rad_heating_(ncolumns, nlev, 0.0),
        cached_gsw_(ncolumns, 0.0),
        cached_glw_(ncolumns, 0.0) {}

  void run(const PhysicsInput& in, double dt, PhysicsOutput& out) {
    out.zero();
    if (++steps_since_radiation_ >= config_.radiation_interval) {
      steps_since_radiation_ = 0;
      PhysicsOutput rad_only(in.ncolumns, in.nlev);
      radiation_.run(in, rad_only);
      cached_rad_heating_ = rad_only.dtdt;
      cached_gsw_ = rad_only.gsw;
      cached_glw_ = rad_only.glw;
    }
    for (Index c = 0; c < in.ncolumns; ++c) {
      for (int k = 0; k < in.nlev; ++k) out.dtdt(c, k) += cached_rad_heating_(c, k);
    }
    out.gsw = cached_gsw_;
    out.glw = cached_glw_;
    surface_.run(in, out);
    referencePbl(config_.pbl, in, dt, out.shflx, out.lhflx, out);
    referenceConvection(config_.convection, in, config_.grid_dx, out);
    microphysics_.run(in, dt, out);
    land_.run(in, dt, out);
    for (Index c = 0; c < in.ncolumns; ++c) {
      for (int k = 0; k < in.nlev; ++k) {
        out.dtdt(c, k) = clamp(out.dtdt(c, k), -config_.dtdt_limit, config_.dtdt_limit);
        out.dqvdt(c, k) = clamp(out.dqvdt(c, k), -config_.dqdt_limit, config_.dqdt_limit);
        out.dqcdt(c, k) = clamp(out.dqcdt(c, k), -config_.dqdt_limit, config_.dqdt_limit);
        out.dqrdt(c, k) = clamp(out.dqrdt(c, k), -config_.dqdt_limit, config_.dqdt_limit);
      }
    }
  }

 private:
  ConventionalSuiteConfig config_;
  ReferenceRadiation radiation_;
  Microphysics microphysics_;
  SurfaceLayer surface_;
  LandModel land_;
  int steps_since_radiation_;
  Field cached_rad_heating_;
  std::vector<double> cached_gsw_, cached_glw_;
};

// ---------------------------------------------------------------------------
// Inputs and comparison.
// ---------------------------------------------------------------------------

/// Synthesized columns with every third column at night and the boundary
/// layer of every other column made hot and near-saturated, so both
/// convection branches (triggered and not) and both shortwave branches (sun
/// up and down) are exercised.
PhysicsInput mixedColumns(Index n, int nlev) {
  PhysicsInput in = ml::synthesizeColumns(ml::table1Scenarios()[0], n, nlev);
  for (Index c = 0; c < n; ++c) {
    if (c % 3 == 0) in.coszr[c] = 0.0;
    if (c % 2 == 0) {
      for (int k = nlev - 4; k < nlev; ++k) {
        in.t(c, k) += 4.0;
        in.qv(c, k) = 0.95 * saturationMixingRatio(in.t(c, k), in.pmid(c, k));
      }
    }
  }
  return in;
}

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}
bool sameBits(const Field& a, const Field& b) {
  return a.entities() == b.entities() && a.components() == b.components() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.entities()) * a.components() *
                         sizeof(double)) == 0;
}

void expectSameBits(const PhysicsOutput& got, const PhysicsOutput& want,
                    const std::string& where) {
  EXPECT_TRUE(sameBits(got.dtdt, want.dtdt)) << where << ": dtdt";
  EXPECT_TRUE(sameBits(got.dqvdt, want.dqvdt)) << where << ": dqvdt";
  EXPECT_TRUE(sameBits(got.dqcdt, want.dqcdt)) << where << ": dqcdt";
  EXPECT_TRUE(sameBits(got.dqrdt, want.dqrdt)) << where << ": dqrdt";
  EXPECT_TRUE(sameBits(got.dudt, want.dudt)) << where << ": dudt";
  EXPECT_TRUE(sameBits(got.dvdt, want.dvdt)) << where << ": dvdt";
  EXPECT_TRUE(sameBits(got.precip, want.precip)) << where << ": precip";
  EXPECT_TRUE(sameBits(got.gsw, want.gsw)) << where << ": gsw";
  EXPECT_TRUE(sameBits(got.glw, want.glw)) << where << ": glw";
  EXPECT_TRUE(sameBits(got.shflx, want.shflx)) << where << ": shflx";
  EXPECT_TRUE(sameBits(got.lhflx, want.lhflx)) << where << ": lhflx";
  EXPECT_TRUE(sameBits(got.tskin_new, want.tskin_new)) << where << ": tskin_new";
}

/// Runs fn once per OpenMP team size (1 and every CPU), restoring the
/// default team size afterwards.
template <typename Fn>
void forEachTeamSize(Fn fn) {
  const int saved = omp_get_max_threads();
  for (const int threads : {1, omp_get_num_procs()}) {
    omp_set_num_threads(threads);
    fn("threads=" + std::to_string(threads));
  }
  omp_set_num_threads(saved);
}

/// Output pre-filled with nonzero tendencies, so a scheme that overwrites
/// where it should add shows up.
PhysicsOutput seededOutput(const PhysicsInput& in) {
  PhysicsOutput out(in.ncolumns, in.nlev);
  for (Index c = 0; c < in.ncolumns; ++c) {
    for (int k = 0; k < in.nlev; ++k) {
      out.dtdt(c, k) = 1e-5 * std::sin(0.7 * c + 0.3 * k);
      out.dqvdt(c, k) = 1e-8 * std::cos(0.5 * c + 0.2 * k);
      out.dudt(c, k) = 1e-4 * std::sin(0.2 * c - 0.4 * k);
      out.dvdt(c, k) = 1e-4 * std::cos(0.3 * c - 0.1 * k);
    }
    out.precip[c] = 0.1 * (c % 5);
  }
  return out;
}

class PhysicsReference : public ::testing::TestWithParam<int> {};

TEST_P(PhysicsReference, RadiationMatchesBitwise) {
  const PhysicsInput in = mixedColumns(24, GetParam());
  PhysicsOutput want = seededOutput(in);
  ReferenceRadiation{}.run(in, want);
  int day = 0;
  for (Index c = 0; c < in.ncolumns; ++c) day += want.gsw[c] > 0.0;
  ASSERT_GT(day, 0);
  ASSERT_LT(day, in.ncolumns);
  forEachTeamSize([&](const std::string& team) {
    PhysicsOutput got = seededOutput(in);
    Radiation{}.run(in, got);
    expectSameBits(got, want, "Radiation " + team);
  });
}

TEST_P(PhysicsReference, ConvectionMatchesBitwise) {
  const PhysicsInput in = mixedColumns(24, GetParam());
  const ConvectionConfig cfg;
  PhysicsOutput want = seededOutput(in);
  const PhysicsOutput before = want;
  referenceConvection(cfg, in, 100e3, want);
  int triggered = 0;
  for (Index c = 0; c < in.ncolumns; ++c) triggered += want.precip[c] != before.precip[c];
  ASSERT_GT(triggered, 0);
  ASSERT_LT(triggered, in.ncolumns);
  forEachTeamSize([&](const std::string& team) {
    PhysicsOutput got = seededOutput(in);
    Convection{cfg}.run(in, 600.0, 100e3, got);
    expectSameBits(got, want, "Convection " + team);
  });
}

TEST_P(PhysicsReference, PblMatchesBitwise) {
  const PhysicsInput in = mixedColumns(24, GetParam());
  const PblConfig cfg;
  std::vector<double> shflx(in.ncolumns), lhflx(in.ncolumns);
  for (Index c = 0; c < in.ncolumns; ++c) {
    shflx[c] = 5.0 + 3.0 * (c % 7);
    lhflx[c] = 40.0 + 11.0 * (c % 5);
  }
  PhysicsOutput want = seededOutput(in);
  referencePbl(cfg, in, 600.0, shflx, lhflx, want);
  forEachTeamSize([&](const std::string& team) {
    PhysicsOutput got = seededOutput(in);
    Pbl{cfg}.run(in, 600.0, shflx, lhflx, got);
    expectSameBits(got, want, "Pbl " + team);
  });
}

TEST_P(PhysicsReference, SuiteSequenceMatchesBitwise) {
  // radiation_interval 3: the first call runs radiation, the next two reuse
  // its cache, and the fourth runs it again. The input drifts between calls,
  // so a stale or a missed refresh changes the bits.
  const int nlev = GetParam();
  PhysicsInput in = mixedColumns(24, nlev);
  ConventionalSuiteConfig cfg;
  ASSERT_EQ(cfg.radiation_interval, 3);
  forEachTeamSize([&](const std::string& team) {
    PhysicsInput drifting = in;
    ConventionalSuite suite(in.ncolumns, nlev, cfg);
    ReferenceSuite reference(in.ncolumns, nlev, cfg);
    for (int call = 0; call < 4; ++call) {
      PhysicsOutput got(in.ncolumns, nlev), want(in.ncolumns, nlev);
      suite.run(drifting, 600.0, got);
      reference.run(drifting, 600.0, want);
      expectSameBits(got, want, "suite call " + std::to_string(call) + " " + team);
      for (Index c = 0; c < in.ncolumns; ++c) {
        drifting.tskin[c] = want.tskin_new[c];
        for (int k = 0; k < nlev; ++k) {
          drifting.t(c, k) += 600.0 * want.dtdt(c, k);
          drifting.qv(c, k) += 600.0 * want.dqvdt(c, k);
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Levels, PhysicsReference, ::testing::Values(20, kMaxLevels),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "nlev" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Level bound: every entry point rejects columns deeper than its stack
// scratch.
// ---------------------------------------------------------------------------

TEST(PhysicsLevelBound, EveryEntryPointRejectsTooManyLevels) {
  const int nlev = kMaxLevels + 1;
  const PhysicsInput in = ml::synthesizeColumns(ml::table1Scenarios()[0], 2, nlev);
  PhysicsOutput out(in.ncolumns, nlev);
  const auto expectThrowNaming = [&](const char* scheme, const auto& call) {
    try {
      call();
      ADD_FAILURE() << scheme << " accepted nlev " << nlev;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(scheme), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(nlev)), std::string::npos) << what;
    }
  };
  expectThrowNaming("Radiation", [&] { Radiation{}.run(in, out); });
  expectThrowNaming("Radiation", [&] { Radiation{}.run(in, out.dtdt, out.gsw, out.glw); });
  expectThrowNaming("Convection", [&] { Convection{}.run(in, 600.0, 100e3, out); });
  // Also when the scale-aware switch has the scheme off.
  expectThrowNaming("Convection", [&] { Convection{}.run(in, 600.0, 2e3, out); });
  expectThrowNaming("Pbl", [&] { Pbl{}.run(in, 600.0, out.shflx, out.lhflx, out); });
  expectThrowNaming("ConventionalSuite", [&] {
    ConventionalSuite suite(in.ncolumns, nlev);
    suite.run(in, 600.0, out);
  });
}

TEST(PhysicsLevelBound, SuiteRejectsInputOfAnotherShape) {
  const PhysicsInput in = ml::synthesizeColumns(ml::table1Scenarios()[0], 4, 20);
  PhysicsOutput out(in.ncolumns, in.nlev);
  ConventionalSuite wider(in.ncolumns + 1, in.nlev);
  EXPECT_THROW(wider.run(in, 600.0, out), std::invalid_argument);
  ConventionalSuite deeper(in.ncolumns, in.nlev + 1);
  EXPECT_THROW(deeper.run(in, 600.0, out), std::invalid_argument);
}

} // namespace
} // namespace grist::physics
