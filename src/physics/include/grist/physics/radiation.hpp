// RRTMG-style banded radiation (the conventional radiative transfer the
// paper replaces with an ML diagnostic module). Structure mirrors the real
// scheme: 14 shortwave + 16 longwave spectral bands, per-band gas/cloud
// optical depths, a two-stream sweep per band, heating rates from flux
// divergence. Deliberately scalar and branch-heavy -- the paper measures
// RRTMG at ~6% of peak FLOPS, and the Fig. 10 discussion depends on that
// contrast with the ML module's dense matrix arithmetic.
#pragma once

#include "grist/physics/types.hpp"

namespace grist::physics {

struct RadiationConfig {
  int sw_bands = 14;
  int lw_bands = 16;
  double solar_constant = 1361.0;  ///< W/m^2

  /// Cap on the net radiative heating per layer (K/day): crude band models
  /// overcool optically thin layers; real RRTMG columns stay within this.
  double heating_cap_kday = 30.0;
  /// Stratospheric relaxation standing in for ozone shortwave absorption:
  /// above `strat_pressure` Pa, relax T toward `strat_t` on `strat_tau` s.
  double strat_pressure = 1.2e4;
  double strat_t = 205.0;
  double strat_tau = 5.0 * 86400.0;
};

class Radiation {
 public:
  explicit Radiation(RadiationConfig config = {});

  /// Computes dtdt (radiative heating) and the surface gsw/glw diagnostics
  /// the land model consumes. Adds into out.dtdt; overwrites gsw/glw.
  void run(const PhysicsInput& in, PhysicsOutput& out) const;
  /// The same into bare fields: adds into dtdt; overwrites gsw/glw. Lets a
  /// caller keep radiation's results in its own storage without a scratch
  /// PhysicsOutput.
  void run(const PhysicsInput& in, Field& dtdt, std::vector<double>& gsw,
           std::vector<double>& glw) const;

  /// FLOP estimate per column (for the efficiency accounting in the
  /// weak-scaling analysis).
  double flopsPerColumn(int nlev) const;

 private:
  RadiationConfig config_;
  // Per-band absorption coefficients (gas, vapor, cloud), synthetic but
  // spectrally varied so band loops cannot be collapsed.
  std::vector<double> sw_k_gas_, sw_k_vap_, sw_k_cld_, sw_weight_;
  std::vector<double> lw_k_gas_, lw_k_vap_, lw_k_cld_, lw_weight_;
};

} // namespace grist::physics
