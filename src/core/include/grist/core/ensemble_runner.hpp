// The step engine: M model members stepped as ONE fused workload. Every
// physics-coupled run goes through it -- a solo Model is its one-member
// facade (model.hpp), and grist_run drives solo and --ensemble M runs
// through the same loop and checkpoint/restart path.
//
// What is shared, held exactly once:
//   - mesh + TRSK weights (borrowed),
//   - the trained Q1Q2Net/RadMlp via shared_ptr -- including their quant
//     caches, so bf16/int8 weight packing happens once for all members,
//   - one M-member Dycore: a single set of transient dycore scratch fields
//     reused across members, with the vertical implicit solve batched
//     member-per-SIMD-lane (see dycore/dycore.hpp),
//   - under the ML scheme, one fused MlPhysicsSuite over M*ncells columns:
//     every physics step concatenates all members' columns into one
//     PhysicsInput, so the Q1Q2/RadMlp GEMM batches (fp32 and quantized)
//     scale with M and the packed weight panels are streamed once per step
//     instead of M times (`cross_member_gemm` toggles this against M
//     per-member suites for the recorded benchmark pair).
//
// What is per member: the prognostic State, tskin/precip land bookkeeping,
// the tracer-window accumulators, and the perturbation seed.
//
// The contract: every member's full trajectory is BITWISE identical to the
// same (seed-matched) initial state run solo, in DP and MIX, fp32 and
// quantized ML physics (ctest -L ENSEMBLE), and a checkpoint taken at any
// step resumes every member bitwise. Warm steps are heap-free (alloc-guard
// test).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "grist/coupler/coupler.hpp"
#include "grist/dycore/dycore.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/io/snapshot.hpp"
#include "grist/ml/ml_suite.hpp"
#include "grist/physics/suite.hpp"

namespace grist::core {

enum class PhysicsScheme { kConventional, kMl, kHeldSuarez };

/// Table 3 scheme labels.
inline const char* schemeLabel(precision::NsMode ns, PhysicsScheme physics) {
  if (physics == PhysicsScheme::kHeldSuarez) {
    return ns == precision::NsMode::kDouble ? "DP-HS" : "MIX-HS";
  }
  if (ns == precision::NsMode::kDouble) {
    return physics == PhysicsScheme::kConventional ? "DP-PHY" : "DP-ML";
  }
  return physics == PhysicsScheme::kConventional ? "MIX-PHY" : "MIX-ML";
}

/// Default land initialization (zonally symmetric SST-like profile) of
/// every member.
std::vector<double> initialSkinTemperature(const grid::HexMesh& mesh);

/// One member's configuration: the paper's timestep hierarchy (Table 2:
/// Dyn/Trac/Phy/Rad) and scheme matrix (Table 3: DP/MIX x PHY/ML).
struct ModelConfig {
  dycore::DycoreConfig dyn;      ///< includes ns (DP vs MIX) and dt
  int trac_interval = 8;         ///< dynamics steps per tracer step
  int phy_interval = 15;         ///< dynamics steps per physics step
  PhysicsScheme scheme = PhysicsScheme::kConventional;
  physics::ConventionalSuiteConfig conventional;  ///< incl. Phy:Rad cadence
  ml::MlSuiteConfig ml;
  /// Trained networks; required when scheme == kMl.
  std::shared_ptr<const ml::Q1Q2Net> q1q2;
  std::shared_ptr<const ml::RadMlp> rad_mlp;
};

struct EnsembleConfig {
  ModelConfig model;             ///< shared per-member configuration
  int members = 2;               ///< M
  std::uint64_t perturb_seed = 0;///< 0 = identical members (no perturbation)
  double perturb_amplitude = 1e-3;  ///< K, applied to theta at init
  /// Fuse ML-physics batches across members (one predictBatch of M*ncells
  /// columns). Off = M per-member suites: same results bitwise, smaller
  /// GEMMs -- the benchmark comparison pair.
  bool cross_member_gemm = true;
};

class EnsembleRunner {
 public:
  /// Every member starts from `initial` (moved into the last member, so a
  /// one-member runner holds one copy); when perturb_seed != 0, member m's
  /// theta field is perturbed with memberSeed(perturb_seed, m) before the
  /// first step. State must carry >= 3 tracers (qv, qc, qr). Mesh/weights
  /// must outlive the runner.
  EnsembleRunner(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
                 EnsembleConfig config, dycore::State initial);

  /// Advance all members one dynamics step (tracer transport and physics
  /// fire on their cadences, batched across members).
  void step();
  void run(int ndyn_steps);

  int members() const { return config_.members; }
  const dycore::State& state(int m) const {
    return states_[static_cast<std::size_t>(m)];
  }
  dycore::State& state(int m) { return states_[static_cast<std::size_t>(m)]; }
  const std::vector<double>& tskin(int m) const {
    return tskin_[static_cast<std::size_t>(m)];
  }
  /// Replace member m's land state (size must be ncells).
  void setTskin(int m, std::vector<double> tskin);
  /// Member m's accumulated precipitation since the run started, mm, per cell.
  const std::vector<double>& accumulatedPrecip(int m) const {
    return precip_accum_[static_cast<std::size_t>(m)];
  }
  /// Member m's mean precipitation RATE over the simulated period, mm/day.
  std::vector<double> meanPrecipRate(int m) const;
  double simSeconds() const { return sim_seconds_; }
  double simDays() const { return sim_seconds_ / 86400.0; }
  void setSimSeconds(double seconds) { sim_seconds_ = seconds; }
  long dynSteps() const { return dyn_steps_; }
  const EnsembleConfig& config() const { return config_; }
  dycore::Dycore& dycore() { return edy_; }

  /// Re-synchronize the accumulators after the states were replaced from
  /// outside (resets the mass-flux window and the step count). Exact when
  /// the replacement happened at a tracer-step boundary.
  void resyncAfterRestart();

  /// Capture everything a bitwise resume of every member needs. Member 0
  /// fills STATE + LAND + DIAG (accumulator windows, so mid-tracer-window
  /// checkpoints are exact), members 1..M-1 one MEMBER section each; CLOCK
  /// + CONFIG, and MLWT weight provenance under the ML scheme, are shared.
  io::Snapshot snapshot() const;
  /// Restore from a snapshot (including legacy GRISTSW1 conversions).
  /// Validates CONFIG (validateDynSnapshot + the two cadences), MLWT
  /// fingerprints and the member count, throwing std::runtime_error naming
  /// the mismatch. With DIAG the resume is bitwise anywhere in the cadence;
  /// without it (legacy files) the windows restart from the restored state.
  void restore(const io::Snapshot& snap);

  /// Deterministic per-member seed derivation (splitmix64 over the base
  /// seed), shared with solo reruns of a single member.
  static std::uint64_t memberSeed(std::uint64_t base, int member);
  /// Deterministic theta perturbation: theta(c,k) += amplitude * u where
  /// u in [-1, 1) is hashed from (seed, flat index) -- independent of
  /// traversal order, so a solo Model fed the same seed starts bitwise
  /// identical to the ensemble member.
  static void perturbState(dycore::State& state, std::uint64_t seed,
                           double amplitude);

  /// Ensemble-mean surface pressure per cell (ptop + column delp sum).
  std::vector<double> meanSurfacePressure() const;
  /// Ensemble spread (population standard deviation across members) of
  /// surface pressure per cell.
  std::vector<double> spreadSurfacePressure() const;
  /// Area-weighted global mean of spreadSurfacePressure() -- the scalar a
  /// forecast run reports.
  double globalSpread() const;

 private:
  void tracerStep();
  void physicsStep();
  void resetWindows();

  const grid::HexMesh& mesh_;
  EnsembleConfig config_;
  dycore::Dycore edy_;
  coupler::Coupler coupler_;
  std::vector<dycore::State> states_;
  std::vector<dycore::State*> state_ptrs_;

  // One suite + one M*ncells-column batch (cross-member GEMMs), or M
  // suites + M ncells-column batches.
  std::vector<std::unique_ptr<physics::PhysicsSuite>> suites_;
  std::vector<physics::PhysicsInput> phys_in_;
  std::vector<physics::PhysicsOutput> phys_out_;

  std::vector<parallel::Field> delp_at_tracer_start_;
  parallel::Field mean_flux_scratch_;
  std::vector<std::vector<double>> tskin_;
  std::vector<std::vector<double>> precip_accum_;
  double sim_seconds_ = 0.0;
  long dyn_steps_ = 0;
};

} // namespace grist::core
