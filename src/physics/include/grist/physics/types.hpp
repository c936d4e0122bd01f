// Shared data structures of the physics suite: column-oriented inputs from
// the physics-dynamics coupling interface (paper section 3.2.4 lists them:
// U, V, T, Q, P, tskin, coszr) and the tendencies/diagnostics returned.
#pragma once

#include <vector>

#include "grist/parallel/field.hpp"

namespace grist::physics {

using parallel::Field;

/// Deepest column the schemes accept: they keep per-column level scratch in
/// fixed-size stack arrays. Every scheme entry point checks nlev against it.
inline constexpr int kMaxLevels = 128;

/// Throws std::invalid_argument naming `scheme` and nlev when
/// nlev > kMaxLevels.
void checkLevels(const char* scheme, int nlev);

/// Per-column atmospheric inputs, cells x nlev (level 0 = model top).
struct PhysicsInput {
  int nlev = 0;
  Index ncolumns = 0;

  Field u, v;        ///< cell-center winds, m/s
  Field t;           ///< temperature, K
  Field qv, qc, qr;  ///< vapor / cloud / rain mixing ratios, kg/kg
  Field pmid;        ///< mid-level pressure, Pa
  Field pint;        ///< interface pressure, Pa (nlev+1)
  Field zmid;        ///< mid-level height above surface, m
  Field zint;        ///< interface height, m (nlev+1)
  Field delp;        ///< layer thickness, Pa
  Field exner;       ///< (pmid/p0)^kappa

  std::vector<double> tskin;   ///< surface skin temperature, K
  std::vector<double> coszr;   ///< cosine of the solar zenith angle
  std::vector<double> albedo;  ///< surface shortwave albedo
  std::vector<double> lat;     ///< latitude, radians (scale-aware schemes)

  PhysicsInput() = default;
  PhysicsInput(Index ncolumns_, int nlev_)
      : nlev(nlev_),
        ncolumns(ncolumns_),
        u(ncolumns_, nlev_),
        v(ncolumns_, nlev_),
        t(ncolumns_, nlev_),
        qv(ncolumns_, nlev_),
        qc(ncolumns_, nlev_),
        qr(ncolumns_, nlev_),
        pmid(ncolumns_, nlev_),
        pint(ncolumns_, nlev_ + 1),
        zmid(ncolumns_, nlev_),
        zint(ncolumns_, nlev_ + 1),
        delp(ncolumns_, nlev_),
        exner(ncolumns_, nlev_),
        tskin(ncolumns_, 288.0),
        coszr(ncolumns_, 0.5),
        albedo(ncolumns_, 0.2),
        lat(ncolumns_, 0.0) {}
};

/// Physics tendencies and surface diagnostics.
struct PhysicsOutput {
  Field dtdt;          ///< K/s
  Field dqvdt, dqcdt, dqrdt;  ///< 1/s
  Field dudt, dvdt;    ///< m/s^2

  std::vector<double> precip;     ///< surface rain rate, mm/day
  std::vector<double> gsw;        ///< surface downward shortwave, W/m^2
  std::vector<double> glw;        ///< surface downward longwave, W/m^2
  std::vector<double> shflx;      ///< sensible heat flux, W/m^2
  std::vector<double> lhflx;      ///< latent heat flux, W/m^2
  std::vector<double> tskin_new;  ///< updated land skin temperature, K

  PhysicsOutput() = default;
  PhysicsOutput(Index ncolumns, int nlev)
      : dtdt(ncolumns, nlev),
        dqvdt(ncolumns, nlev),
        dqcdt(ncolumns, nlev),
        dqrdt(ncolumns, nlev),
        dudt(ncolumns, nlev),
        dvdt(ncolumns, nlev),
        precip(ncolumns, 0.0),
        gsw(ncolumns, 0.0),
        glw(ncolumns, 0.0),
        shflx(ncolumns, 0.0),
        lhflx(ncolumns, 0.0),
        tskin_new(ncolumns, 288.0) {}

  void zero() {
    dtdt.fill(0);
    dqvdt.fill(0);
    dqcdt.fill(0);
    dqrdt.fill(0);
    dudt.fill(0);
    dvdt.fill(0);
    precip.assign(precip.size(), 0.0);
    gsw.assign(gsw.size(), 0.0);
    glw.assign(glw.size(), 0.0);
    shflx.assign(shflx.size(), 0.0);
    lhflx.assign(lhflx.size(), 0.0);
  }
};

} // namespace grist::physics
