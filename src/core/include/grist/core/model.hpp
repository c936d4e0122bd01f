// The AI-enhanced GRIST model driver: one member of the step engine
// (ensemble_runner.hpp), which composes the dynamical core, tracer
// transport, the physics suite (conventional or ML) and the coupling
// interface under the paper's timestep hierarchy (Table 2: Dyn/Trac/Phy/Rad)
// and scheme matrix (Table 3: DP/MIX x PHY/ML). Model holds no state of its
// own; every call forwards to a one-member EnsembleRunner.
#pragma once

#include <utility>
#include <vector>

#include "grist/core/ensemble_runner.hpp"

namespace grist::core {

class Model {
 public:
  /// Takes ownership of the initial state. The mesh/weights must outlive
  /// the model. State must carry >= 3 tracers (qv, qc, qr).
  Model(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
        ModelConfig config, dycore::State initial)
      : runner_(mesh, trsk, EnsembleConfig{std::move(config), 1},
                std::move(initial)) {}

  /// Advance by one dynamics step; fires tracer transport and physics on
  /// their configured cadences.
  void step() { runner_.step(); }
  void run(int ndyn_steps) { runner_.run(ndyn_steps); }

  const dycore::State& state() const { return runner_.state(0); }
  dycore::State& state() { return runner_.state(0); }
  double simSeconds() const { return runner_.simSeconds(); }
  double simDays() const { return runner_.simDays(); }

  /// Accumulated precipitation since construction, mm, per cell.
  const std::vector<double>& accumulatedPrecip() const { return runner_.accumulatedPrecip(0); }
  /// Mean precipitation RATE over the simulated period so far, mm/day.
  std::vector<double> meanPrecipRate() const { return runner_.meanPrecipRate(0); }

  const std::vector<double>& tskin() const { return runner_.tskin(0); }
  /// Restore land/clock state from a restart file (see io/restart.hpp).
  void setTskin(std::vector<double> tskin) { runner_.setTskin(0, std::move(tskin)); }
  void setSimSeconds(double seconds) { runner_.setSimSeconds(seconds); }
  /// See EnsembleRunner::resyncAfterRestart.
  void resyncAfterRestart() { runner_.resyncAfterRestart(); }

  /// See EnsembleRunner::snapshot/restore; a multi-member file throws.
  io::Snapshot snapshot() const { return runner_.snapshot(); }
  void restore(const io::Snapshot& snap) { runner_.restore(snap); }

  long dynSteps() const { return runner_.dynSteps(); }
  const ModelConfig& config() const { return runner_.config().model; }
  const char* schemeName() const { return schemeLabel(config().dyn.ns, config().scheme); }
  dycore::Dycore& dycore() { return runner_.dycore(); }

 private:
  EnsembleRunner runner_;
};

} // namespace grist::core
