#include "grist/core/ensemble_runner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "grist/common/math.hpp"
#include "grist/core/checkpoint.hpp"
#include "grist/dycore/tracer.hpp"
#include "grist/dycore/vertical_remap.hpp"
#include "grist/physics/held_suarez.hpp"

namespace grist::core {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

} // namespace

std::vector<double> initialSkinTemperature(const grid::HexMesh& mesh) {
  // Zonally symmetric SST-like profile: warm tropics, cold poles. Every
  // member starts from the same land state (a parity precondition for the
  // ENSEMBLE bitwise gate).
  std::vector<double> tskin(mesh.ncells);
  for (Index c = 0; c < mesh.ncells; ++c) {
    const double lat = mesh.cell_ll[c].lat;
    tskin[c] = 302.0 - 32.0 * std::pow(std::sin(lat), 2.0);
  }
  return tskin;
}

std::uint64_t EnsembleRunner::memberSeed(std::uint64_t base, int member) {
  return splitmix64(base ^ (0x9E3779B97F4A7C15ull *
                            static_cast<std::uint64_t>(member + 1)));
}

void EnsembleRunner::perturbState(dycore::State& state, std::uint64_t seed,
                                  double amplitude) {
  const std::size_t n = state.theta.size();
  double* theta = state.theta.data();
  for (std::size_t i = 0; i < n; ++i) {
    // Hash of (seed, element index) -> u in [0, 1) with 53 random bits;
    // order-independent, so any traversal produces the same field.
    const std::uint64_t h = splitmix64(seed + static_cast<std::uint64_t>(i));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    theta[i] += amplitude * (2.0 * u - 1.0);
  }
}

EnsembleRunner::EnsembleRunner(const grid::HexMesh& mesh,
                               const grid::TrskWeights& trsk,
                               EnsembleConfig config,
                               dycore::State initial)
    : mesh_(mesh),
      config_(std::move(config)),
      edy_(mesh, trsk, config_.model.dyn, config_.members),
      coupler_(mesh, config_.model.dyn.nlev),
      mean_flux_scratch_(mesh.nedges, config_.model.dyn.nlev) {
  ModelConfig& mc = config_.model;
  if (config_.members < 1) {
    throw std::invalid_argument("EnsembleRunner: members < 1");
  }
  if (initial.tracers.size() < 3) {
    throw std::invalid_argument(
        "EnsembleRunner: state needs >= 3 tracers (qv, qc, qr)");
  }
  if (mc.trac_interval < 1 || mc.phy_interval < 1) {
    throw std::invalid_argument("EnsembleRunner: bad timestep hierarchy");
  }
  if (mc.scheme == PhysicsScheme::kMl && (!mc.q1q2 || !mc.rad_mlp)) {
    throw std::invalid_argument(
        "EnsembleRunner: ML scheme requires trained networks");
  }

  const int M = config_.members;
  const int nlev = mc.dyn.nlev;
  const std::size_t mm = static_cast<std::size_t>(M);

  states_.reserve(mm);
  state_ptrs_.reserve(mm);
  delp_at_tracer_start_.reserve(mm);
  tskin_.reserve(mm);
  precip_accum_.reserve(mm);
  for (int m = 0; m < M; ++m) {
    if (m + 1 < M) {
      states_.push_back(initial);
    } else {
      states_.push_back(std::move(initial));
    }
    if (config_.perturb_seed != 0) {
      perturbState(states_.back(), memberSeed(config_.perturb_seed, m),
                   config_.perturb_amplitude);
    }
    delp_at_tracer_start_.push_back(states_.back().delp);
    tskin_.push_back(initialSkinTemperature(mesh));
    precip_accum_.emplace_back(static_cast<std::size_t>(mesh.ncells), 0.0);
  }
  for (dycore::State& s : states_) state_ptrs_.push_back(&s);

  // Physics: one fused suite over M*ncells columns when the ML scheme can
  // batch GEMMs across members, otherwise M per-member suites (the other
  // half of the benchmark pair, and the only mode for the column schemes).
  const auto makeSuite = [&](Index ncolumns) -> std::unique_ptr<physics::PhysicsSuite> {
    if (mc.scheme == PhysicsScheme::kHeldSuarez) {
      return std::make_unique<physics::HeldSuarezSuite>();
    }
    if (mc.scheme == PhysicsScheme::kMl) {
      return std::make_unique<ml::MlPhysicsSuite>(ncolumns, nlev, mc.q1q2,
                                                  mc.rad_mlp, mc.ml);
    }
    mc.conventional.grid_dx = mesh.meanSpacing();
    return std::make_unique<physics::ConventionalSuite>(ncolumns, nlev,
                                                        mc.conventional);
  };
  const int nsuites =
      config_.cross_member_gemm && mc.scheme == PhysicsScheme::kMl ? 1 : M;
  const Index ncol = mesh.ncells * (M / nsuites);
  for (int g = 0; g < nsuites; ++g) {
    suites_.push_back(makeSuite(ncol));
    phys_in_.emplace_back(ncol, nlev);
    phys_out_.emplace_back(ncol, nlev);
  }
  edy_.resetAccumulatedFlux();
}

void EnsembleRunner::step() {
  edy_.step(state_ptrs_.data());
  ++dyn_steps_;
  sim_seconds_ += config_.model.dyn.dt;
  if (dyn_steps_ % config_.model.trac_interval == 0) tracerStep();
  if (dyn_steps_ % config_.model.phy_interval == 0) physicsStep();
}

void EnsembleRunner::run(int ndyn_steps) {
  for (int i = 0; i < ndyn_steps; ++i) step();
}

void EnsembleRunner::tracerStep() {
  const int nsub = edy_.accumulatedSteps();
  if (nsub == 0) return;
  const ModelConfig& mc = config_.model;
  for (int m = 0; m < config_.members; ++m) {
    const std::size_t mi = static_cast<std::size_t>(m);
    dycore::State& state = states_[mi];
    edy_.meanMassFlux(m, mean_flux_scratch_.data());
    dycore::TracerTransportArgs args;
    args.mesh = &mesh_;
    args.ncells_prog = mesh_.ncells;
    args.nlev = mc.dyn.nlev;
    args.dt = nsub * mc.dyn.dt;
    args.mean_flux = mean_flux_scratch_.data();
    args.delp_old = delp_at_tracer_start_[mi].data();
    args.delp_new = state.delp.data();
    for (auto& tracer : state.tracers) {
      dycore::tracerTransport(args, mc.dyn.ns, tracer.data());
    }
    dycore::verticalRemap(mesh_.ncells, mc.dyn.nlev, mc.dyn.ptop, state);
    std::copy(state.delp.data(), state.delp.data() + state.delp.size(),
              delp_at_tracer_start_[mi].data());
  }
  edy_.resetAccumulatedFlux();
}

void EnsembleRunner::physicsStep() {
  const ModelConfig& mc = config_.model;
  const double dt_phy = mc.phy_interval * mc.dyn.dt;
  const Index ncells = mesh_.ncells;
  // Suite g batches `per_suite` consecutive members; member m's columns sit
  // at [j*ncells, (j+1)*ncells) of its batch, j = m - g*per_suite.
  // Per-column physics is independent and predictBatch is block-
  // composition-invariant, so each member's columns get bitwise the same
  // treatment they would get in a batch of their own.
  const int per_suite = config_.members / static_cast<int>(suites_.size());
  for (std::size_t g = 0; g < suites_.size(); ++g) {
    const int m0 = static_cast<int>(g) * per_suite;
    for (int j = 0; j < per_suite; ++j) {
      const std::size_t mi = static_cast<std::size_t>(m0 + j);
      coupler_.stateToPhysics(states_[mi], tskin_[mi], sim_seconds_,
                              phys_in_[g], ncells * j);
    }
    suites_[g]->run(phys_in_[g], dt_phy, phys_out_[g]);
    const physics::PhysicsOutput& out = phys_out_[g];
    for (int j = 0; j < per_suite; ++j) {
      const std::size_t mi = static_cast<std::size_t>(m0 + j);
      const Index col0 = ncells * j;
      coupler_.applyTendencies(out, col0, dt_phy, states_[mi]);
      std::copy(out.tskin_new.begin() + col0,
                out.tskin_new.begin() + col0 + ncells, tskin_[mi].begin());
      for (Index c = 0; c < ncells; ++c) {
        precip_accum_[mi][static_cast<std::size_t>(c)] +=
            out.precip[static_cast<std::size_t>(col0 + c)] * dt_phy / 86400.0;
      }
    }
  }
}

void EnsembleRunner::setTskin(int m, std::vector<double> tskin) {
  if (static_cast<Index>(tskin.size()) != mesh_.ncells) {
    throw std::invalid_argument("EnsembleRunner::setTskin: size mismatch");
  }
  tskin_[static_cast<std::size_t>(m)] = std::move(tskin);
}

std::vector<double> EnsembleRunner::meanPrecipRate(int m) const {
  std::vector<double> rate = accumulatedPrecip(m);
  const double days = simDays();
  for (double& r : rate) r = days > 0 ? r / days : 0.0;
  return rate;
}

void EnsembleRunner::resetWindows() {
  edy_.resetAccumulatedFlux();
  for (std::size_t m = 0; m < states_.size(); ++m) {
    delp_at_tracer_start_[m] = states_[m].delp;
  }
}

void EnsembleRunner::resyncAfterRestart() {
  resetWindows();
  dyn_steps_ = 0;
}

io::Snapshot EnsembleRunner::snapshot() const {
  const ModelConfig& mc = config_.model;
  const auto diag = [&](int m) {
    const std::size_t mi = static_cast<std::size_t>(m);
    io::DiagSection d;
    d.ncells = mesh_.ncells;
    d.nedges = mesh_.nedges;
    d.nlev = mc.dyn.nlev;
    d.acc_steps = edy_.accumulatedSteps();
    const parallel::Field& af = edy_.accumulatedMassFlux(m);
    d.acc_flux.assign(af.data(), af.data() + af.size());
    const parallel::Field& dp = delp_at_tracer_start_[mi];
    d.delp_at_tracer_start.assign(dp.data(), dp.data() + dp.size());
    d.precip_accum = precip_accum_[mi];
    return d;
  };
  io::Snapshot snap;
  snap.state = io::StateSection::capture(states_[0]);
  snap.land = tskin_[0];
  snap.clock = io::ClockSection{sim_seconds_, dyn_steps_};
  snap.diag = diag(0);
  for (int m = 1; m < config_.members; ++m) {
    const std::size_t mi = static_cast<std::size_t>(m);
    snap.members.push_back(
        {io::StateSection::capture(states_[mi]), tskin_[mi], diag(m)});
  }
  snap.config = dynConfigSection(
      mc.dyn, mesh_.level, static_cast<int>(states_[0].tracers.size()), 1, 0);
  snap.config->trac_interval = mc.trac_interval;
  snap.config->phy_interval = mc.phy_interval;
  if (mc.scheme == PhysicsScheme::kMl) {
    io::MlWeightsSection ml;
    ml.q1q2_fingerprint = mc.q1q2->weightFingerprint();
    ml.rad_fingerprint = mc.rad_mlp->weightFingerprint();
    ml.q1q2_bf16_version = mc.q1q2->quantizedVersion(ml::Precision::kBf16);
    ml.q1q2_int8_version = mc.q1q2->quantizedVersion(ml::Precision::kInt8);
    ml.rad_bf16_version = mc.rad_mlp->quantizedVersion(ml::Precision::kBf16);
    ml.rad_int8_version = mc.rad_mlp->quantizedVersion(ml::Precision::kInt8);
    snap.ml = ml;
  }
  return snap;
}

void EnsembleRunner::restore(const io::Snapshot& snap) {
  const ModelConfig& mc = config_.model;
  validateDynSnapshot(snap, mc.dyn, mesh_.level, mesh_.ncells, mesh_.nedges,
                      static_cast<int>(states_[0].tracers.size()));
  if (snap.config) {
    if (snap.config->trac_interval != mc.trac_interval) {
      configMismatch("trac_interval", snap.config->trac_interval, mc.trac_interval);
    }
    if (snap.config->phy_interval != mc.phy_interval) {
      configMismatch("phy_interval", snap.config->phy_interval, mc.phy_interval);
    }
  }
  if (snap.ml && mc.scheme == PhysicsScheme::kMl) {
    const auto check = [](std::uint64_t have, std::uint64_t want, const char* net) {
      if (have != want) {
        throw std::runtime_error(std::string("restart: MLWT mismatch: ") + net +
                                 " weight fingerprint differs from the "
                                 "checkpointed net");
      }
    };
    check(snap.ml->q1q2_fingerprint, mc.q1q2->weightFingerprint(), "q1q2");
    check(snap.ml->rad_fingerprint, mc.rad_mlp->weightFingerprint(), "rad_mlp");
  }
  const std::size_t stored = 1 + snap.members.size();
  if (stored != states_.size()) {
    throw std::runtime_error("restart: snapshot holds " + std::to_string(stored) +
                             " members, this run has " +
                             std::to_string(states_.size()));
  }

  if (snap.clock) {
    sim_seconds_ = snap.clock->sim_seconds;
    // Legacy files do not record the step count (-1): start a fresh cadence.
    dyn_steps_ = snap.clock->dyn_steps >= 0 ? snap.clock->dyn_steps : 0;
  }
  // Member 0 lives in STATE/LAND/DIAG (LAND and DIAG are absent from
  // legacy files), members 1..M-1 in their MEMBER records.
  for (std::size_t mi = 0; mi < states_.size(); ++mi) {
    const io::MemberSection* rec = mi == 0 ? nullptr : &snap.members[mi - 1];
    const std::vector<double>* land =
        rec ? &rec->land : snap.land ? &*snap.land : nullptr;
    const io::DiagSection* d = rec ? &rec->diag : snap.diag ? &*snap.diag : nullptr;
    (rec ? rec->state : *snap.state).restoreTo(states_[mi]);
    if (land) setTskin(static_cast<int>(mi), *land);
    if (!d) continue;
    if (d->ncells != mesh_.ncells || d->nedges != mesh_.nedges ||
        d->nlev != mc.dyn.nlev) {
      throw std::runtime_error("restart: DIAG shape mismatch");
    }
    edy_.restoreAccumulatedFlux(static_cast<int>(mi), d->acc_flux, d->acc_steps);
    std::copy(d->delp_at_tracer_start.begin(), d->delp_at_tracer_start.end(),
              delp_at_tracer_start_[mi].data());
    precip_accum_[mi] = d->precip_accum;
  }
  // No accumulator windows (legacy / dynamics-only snapshot): restart them
  // from the restored state, exact only at tracer-step boundaries.
  if (!snap.diag) resetWindows();
}

std::vector<double> EnsembleRunner::meanSurfacePressure() const {
  const double inv = 1.0 / config_.members;
  std::vector<double> mean(static_cast<std::size_t>(mesh_.ncells), 0.0);
  const int nlev = config_.model.dyn.nlev;
  for (const dycore::State& s : states_) {
    for (Index c = 0; c < mesh_.ncells; ++c) {
      double ps = config_.model.dyn.ptop;
      for (int k = 0; k < nlev; ++k) ps += s.delp(c, k);
      mean[static_cast<std::size_t>(c)] += ps * inv;
    }
  }
  return mean;
}

std::vector<double> EnsembleRunner::spreadSurfacePressure() const {
  // Population std-dev across members, per cell (two-pass: mean first).
  const std::vector<double> mean = meanSurfacePressure();
  std::vector<double> var(static_cast<std::size_t>(mesh_.ncells), 0.0);
  const int nlev = config_.model.dyn.nlev;
  const double inv = 1.0 / config_.members;
  for (const dycore::State& s : states_) {
    for (Index c = 0; c < mesh_.ncells; ++c) {
      double ps = config_.model.dyn.ptop;
      for (int k = 0; k < nlev; ++k) ps += s.delp(c, k);
      const double d = ps - mean[static_cast<std::size_t>(c)];
      var[static_cast<std::size_t>(c)] += d * d * inv;
    }
  }
  for (double& v : var) v = std::sqrt(std::max(0.0, v));
  return var;
}

double EnsembleRunner::globalSpread() const {
  const std::vector<double> spread = spreadSurfacePressure();
  double num = 0.0, den = 0.0;
  for (Index c = 0; c < mesh_.ncells; ++c) {
    num += spread[static_cast<std::size_t>(c)] * mesh_.cell_area[c];
    den += mesh_.cell_area[c];
  }
  return den > 0 ? num / den : 0.0;
}

} // namespace grist::core
