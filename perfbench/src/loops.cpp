#include "loops.hpp"

#include <algorithm>
#include <stdexcept>

#include "grist/dycore/tracer.hpp"
#include "grist/dycore/vertical_remap.hpp"

namespace perfbench {

using namespace grist;

// ---------------------------------------------------------------------------
// SoloLoop: core::Model::step, call for call.

namespace {

core::ModelConfig conventionalConfig(core::ModelConfig config,
                                     const grid::HexMesh& mesh) {
  if (config.scheme != core::PhysicsScheme::kConventional) {
    throw std::invalid_argument("SoloLoop shadows the conventional-physics Model only");
  }
  config.conventional.grid_dx = mesh.meanSpacing();  // as Model's constructor
  return config;
}

}  // namespace

SoloLoop::SoloLoop(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
                   core::ModelConfig config, dycore::State initial, Tracer& tracer)
    : mesh_(mesh),
      config_(conventionalConfig(std::move(config), mesh)),
      tr_(tracer),
      dycore_(mesh, trsk, config_.dyn),
      coupler_(mesh, config_.dyn.nlev),
      suite_(mesh.ncells, config_.dyn.nlev, config_.conventional),
      state_(std::move(initial)),
      delp_at_tracer_start_(state_.delp),
      tskin_(core::initialSkinTemperature(mesh)),
      precip_accum_(static_cast<std::size_t>(mesh.ncells), 0.0),
      phys_in_(mesh.ncells, config_.dyn.nlev),
      phys_out_(mesh.ncells, config_.dyn.nlev) {
  dycore_.resetAccumulatedFlux();
}

void SoloLoop::step() {
  tr_.span("dycore", [&] { dycore_.step(state_); });
  ++dyn_steps_;
  sim_seconds_ += config_.dyn.dt;
  if (dyn_steps_ % config_.trac_interval == 0) tracerStep();
  if (dyn_steps_ % config_.phy_interval == 0) physicsStep();
}

void SoloLoop::tracerStep() {
  const int nsub = dycore_.accumulatedSteps();
  if (nsub == 0) return;
  parallel::Field mean_flux;
  tr_.span("core.glue", [&] {
    mean_flux = dycore_.accumulatedMassFlux();
    for (std::size_t i = 0; i < mean_flux.size(); ++i) {
      mean_flux.data()[i] /= static_cast<double>(nsub);
    }
  });
  dycore::TracerTransportArgs args;
  args.mesh = &mesh_;
  args.ncells_prog = mesh_.ncells;
  args.nlev = config_.dyn.nlev;
  args.dt = nsub * config_.dyn.dt;
  args.mean_flux = mean_flux.data();
  args.delp_old = delp_at_tracer_start_.data();
  args.delp_new = state_.delp.data();
  for (auto& tracer : state_.tracers) {
    tr_.span("tracer.transport",
             [&] { dycore::tracerTransport(args, config_.dyn.ns, tracer.data()); });
  }
  tr_.span("core.glue", [&] { dycore_.resetAccumulatedFlux(); });
  tr_.span("tracer.remap", [&] {
    dycore::verticalRemap(mesh_.ncells, config_.dyn.nlev, config_.dyn.ptop, state_);
  });
  tr_.span("core.glue", [&] { delp_at_tracer_start_ = state_.delp; });
}

void SoloLoop::physicsStep() {
  const double dt_phy = config_.phy_interval * config_.dyn.dt;
  tr_.span("coupler.to_physics", [&] {
    coupler_.stateToPhysics(state_, tskin_, sim_seconds_, phys_in_);
  });
  tr_.span("physics.suite", [&] { suite_.run(phys_in_, dt_phy, phys_out_); });
  tr_.span("coupler.apply",
           [&] { coupler_.applyTendencies(phys_out_, dt_phy, state_); });
  tr_.span("core.glue", [&] {
    tskin_ = phys_out_.tskin_new;
    for (Index c = 0; c < mesh_.ncells; ++c) {
      precip_accum_[static_cast<std::size_t>(c)] +=
          phys_out_.precip[static_cast<std::size_t>(c)] * dt_phy / 86400.0;
    }
  });
}

io::Snapshot SoloLoop::snapshot() const {
  io::Snapshot snap;
  snap.state = io::StateSection::capture(state_);
  snap.land = tskin_;

  io::ClockSection clock;
  clock.sim_seconds = sim_seconds_;
  clock.dyn_steps = dyn_steps_;
  snap.clock = clock;

  io::DiagSection diag;
  diag.ncells = mesh_.ncells;
  diag.nedges = mesh_.nedges;
  diag.nlev = config_.dyn.nlev;
  diag.acc_steps = dycore_.accumulatedSteps();
  const parallel::Field& af = dycore_.accumulatedMassFlux();
  diag.acc_flux.assign(af.data(), af.data() + af.size());
  diag.delp_at_tracer_start.assign(
      delp_at_tracer_start_.data(),
      delp_at_tracer_start_.data() + delp_at_tracer_start_.size());
  diag.precip_accum = precip_accum_;
  snap.diag = diag;

  io::ConfigSection cs;
  cs.grid_level = mesh_.level;
  cs.writer_nranks = 1;
  cs.nlev = config_.dyn.nlev;
  cs.ntracers = static_cast<std::int32_t>(state_.tracers.size());
  cs.trac_interval = config_.trac_interval;
  cs.phy_interval = config_.phy_interval;
  cs.dt = config_.dyn.dt;
  cs.ns_single = config_.dyn.ns == precision::NsMode::kSingle ? 1 : 0;
  snap.config = cs;
  return snap;
}

// ---------------------------------------------------------------------------
// EnsembleLoop: core::EnsembleRunner::step with the fused cross-member suite.

EnsembleLoop::EnsembleLoop(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
                           const core::EnsembleConfig& config,
                           std::vector<dycore::State> members, Tracer& tracer)
    : mesh_(mesh),
      config_(config.model),
      tr_(tracer),
      edy_(mesh, trsk, config_.dyn, static_cast<int>(members.size())),
      coupler_(mesh, config_.dyn.nlev),
      states_(std::move(members)),
      phys_in_(mesh.ncells * static_cast<Index>(states_.size()), config_.dyn.nlev),
      phys_out_(mesh.ncells * static_cast<Index>(states_.size()), config_.dyn.nlev),
      mean_flux_scratch_(mesh.nedges, config_.dyn.nlev) {
  if (config_.scheme != core::PhysicsScheme::kMl || !config.cross_member_gemm) {
    throw std::invalid_argument(
        "EnsembleLoop shadows the cross-member fused ML-physics runner only");
  }
  const Index ncol = mesh.ncells * static_cast<Index>(states_.size());
  suite_ = std::make_unique<ml::MlPhysicsSuite>(ncol, config_.dyn.nlev, config_.q1q2,
                                                config_.rad_mlp, config_.ml);
  for (dycore::State& s : states_) {
    state_ptrs_.push_back(&s);
    delp_at_tracer_start_.push_back(s.delp);
    tskin_.push_back(core::initialSkinTemperature(mesh));
    precip_accum_.emplace_back(static_cast<std::size_t>(mesh.ncells), 0.0);
  }
  edy_.resetAccumulatedFlux();
}

void EnsembleLoop::step() {
  tr_.span("dycore", [&] { edy_.step(state_ptrs_.data()); });
  ++dyn_steps_;
  sim_seconds_ += config_.dyn.dt;
  if (dyn_steps_ % config_.trac_interval == 0) tracerStep();
  if (dyn_steps_ % config_.phy_interval == 0) physicsStep();
}

void EnsembleLoop::tracerStep() {
  const int nsub = edy_.accumulatedSteps();
  if (nsub == 0) return;
  for (int m = 0; m < members(); ++m) {
    const std::size_t mi = static_cast<std::size_t>(m);
    dycore::State& state = states_[mi];
    tr_.span("core.glue", [&] {
      const parallel::Field& acc = edy_.accumulatedMassFlux(m);
      std::copy(acc.data(), acc.data() + acc.size(), mean_flux_scratch_.data());
      for (std::size_t i = 0; i < mean_flux_scratch_.size(); ++i) {
        mean_flux_scratch_.data()[i] /= static_cast<double>(nsub);
      }
    });
    dycore::TracerTransportArgs args;
    args.mesh = &mesh_;
    args.ncells_prog = mesh_.ncells;
    args.nlev = config_.dyn.nlev;
    args.dt = nsub * config_.dyn.dt;
    args.mean_flux = mean_flux_scratch_.data();
    args.delp_old = delp_at_tracer_start_[mi].data();
    args.delp_new = state.delp.data();
    for (auto& tracer : state.tracers) {
      tr_.span("tracer.transport", [&] {
        dycore::tracerTransport(args, config_.dyn.ns, tracer.data());
      });
    }
    tr_.span("tracer.remap", [&] {
      dycore::verticalRemap(mesh_.ncells, config_.dyn.nlev, config_.dyn.ptop, state);
    });
    tr_.span("core.glue", [&] {
      std::copy(state.delp.data(), state.delp.data() + state.delp.size(),
                delp_at_tracer_start_[mi].data());
    });
  }
  tr_.span("core.glue", [&] { edy_.resetAccumulatedFlux(); });
}

void EnsembleLoop::physicsStep() {
  const double dt_phy = config_.phy_interval * config_.dyn.dt;
  const Index ncells = mesh_.ncells;
  for (int m = 0; m < members(); ++m) {
    tr_.span("coupler.to_physics", [&] {
      coupler_.stateToPhysics(states_[static_cast<std::size_t>(m)],
                              tskin_[static_cast<std::size_t>(m)], sim_seconds_,
                              phys_in_, ncells * m);
    });
  }
  tr_.span("physics.suite", [&] { suite_->run(phys_in_, dt_phy, phys_out_); });
  for (int m = 0; m < members(); ++m) {
    const std::size_t mi = static_cast<std::size_t>(m);
    const Index col0 = ncells * m;
    tr_.span("coupler.apply", [&] {
      coupler_.applyTendencies(phys_out_, col0, dt_phy, states_[mi]);
    });
    tr_.span("core.glue", [&] {
      std::copy(phys_out_.tskin_new.begin() + col0,
                phys_out_.tskin_new.begin() + col0 + ncells, tskin_[mi].begin());
      for (Index c = 0; c < ncells; ++c) {
        precip_accum_[mi][static_cast<std::size_t>(c)] +=
            phys_out_.precip[static_cast<std::size_t>(col0 + c)] * dt_phy / 86400.0;
      }
    });
  }
}

}  // namespace perfbench
