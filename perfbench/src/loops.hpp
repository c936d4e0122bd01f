// Benchmark-owned step loops for the traced runs. Each makes the same public
// calls, in the same order, as the production driver it shadows
// (core::Model::step and core::EnsembleRunner::step), with one span per call,
// so its spans attribute the step's wall time to layers. A traced run counts
// only when its loop ends bitwise equal to the production driver over the
// same steps and inputs; a loop that drifts from the driver it shadows is
// caught by that comparison, not trusted.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "grist/core/ensemble_runner.hpp"
#include "grist/core/model.hpp"
#include "grist/dycore/ensemble_dycore.hpp"

namespace perfbench {

/// Shadows core::Model for the conventional-physics schemes.
class SoloLoop {
 public:
  SoloLoop(const grist::grid::HexMesh& mesh, const grist::grid::TrskWeights& trsk,
           grist::core::ModelConfig config, grist::dycore::State initial,
           Tracer& tracer);

  void step();
  /// Same sections, in the same layout, as core::Model::snapshot().
  grist::io::Snapshot snapshot() const;

  const grist::dycore::State& state() const { return state_; }
  const std::vector<double>& tskin() const { return tskin_; }
  const std::vector<double>& accumulatedPrecip() const { return precip_accum_; }
  long dynSteps() const { return dyn_steps_; }

 private:
  void tracerStep();
  void physicsStep();

  const grist::grid::HexMesh& mesh_;
  grist::core::ModelConfig config_;
  Tracer& tr_;
  grist::dycore::Dycore dycore_;
  grist::coupler::Coupler coupler_;
  grist::physics::ConventionalSuite suite_;
  grist::dycore::State state_;
  grist::parallel::Field delp_at_tracer_start_;
  std::vector<double> tskin_;
  std::vector<double> precip_accum_;
  grist::physics::PhysicsInput phys_in_;
  grist::physics::PhysicsOutput phys_out_;
  double sim_seconds_ = 0.0;
  long dyn_steps_ = 0;
};

/// Shadows core::EnsembleRunner with cross-member fused ML physics.
class EnsembleLoop {
 public:
  /// `members` are the runner's initial (already perturbed) member states.
  EnsembleLoop(const grist::grid::HexMesh& mesh, const grist::grid::TrskWeights& trsk,
               const grist::core::EnsembleConfig& config,
               std::vector<grist::dycore::State> members, Tracer& tracer);

  void step();

  int members() const { return static_cast<int>(states_.size()); }
  const grist::dycore::State& state(int m) const { return states_[static_cast<std::size_t>(m)]; }
  const std::vector<double>& tskin(int m) const { return tskin_[static_cast<std::size_t>(m)]; }
  const std::vector<double>& accumulatedPrecip(int m) const {
    return precip_accum_[static_cast<std::size_t>(m)];
  }

 private:
  void tracerStep();
  void physicsStep();

  const grist::grid::HexMesh& mesh_;
  grist::core::ModelConfig config_;
  Tracer& tr_;
  grist::dycore::EnsembleDycore edy_;
  grist::coupler::Coupler coupler_;
  std::vector<grist::dycore::State> states_;
  std::vector<grist::dycore::State*> state_ptrs_;
  std::unique_ptr<grist::ml::MlPhysicsSuite> suite_;
  grist::physics::PhysicsInput phys_in_;
  grist::physics::PhysicsOutput phys_out_;
  std::vector<grist::parallel::Field> delp_at_tracer_start_;
  grist::parallel::Field mean_flux_scratch_;
  std::vector<std::vector<double>> tskin_;
  std::vector<std::vector<double>> precip_accum_;
  double sim_seconds_ = 0.0;
  long dyn_steps_ = 0;
};

}  // namespace perfbench
