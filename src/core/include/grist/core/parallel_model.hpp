// Multi-rank (in-process) dynamical-core runs: each rank owns a LocalDomain,
// steps its own Dycore, and halo-exchanges the five prognostic fields after
// every Runge-Kutta stage through the batched exchange layer. Used for the
// decomposition correctness gate (rank runs must match the single-domain
// run bitwise in double precision) and for the measured end of the scaling
// benchmarks (Figs. 10-11).
//
// Ranks run on a PERSISTENT worker pool (one thread per rank, created once)
// released per step through reusable barriers -- a warm step() performs no
// thread creation and no heap allocation (tests/core/test_parallel_model_
// alloc.cpp). Each rank thread sizes its OpenMP team to the rank's CPU
// share (parallel::cpuShare, the same rule the shm fleet uses), so the
// pool never runs nranks full-width teams on the same CPUs. Three
// schedules share the pool:
//   kOverlap (default)  boundary-band compute -> post() -> interior-band
//                       compute -> wait(); communication is hidden behind
//                       the interior sweep. Bitwise identical to lockstep.
//   kLockstep           every exchange round is a full-stop stage barrier
//                       whose completion step runs the packed collective
//                       exchange.
//   kSpawnUnpacked      the seed schedule (per-step std::thread spawn +
//                       element-wise unpacked exchange), kept as the
//                       baseline for bench_ablation_exchange.
#pragma once

#include <barrier>
#include <memory>
#include <thread>
#include <vector>

#include "grist/dycore/dycore.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/parallel/decompose.hpp"
#include "grist/parallel/exchange.hpp"

namespace grist::core {

/// Remap the global TRSK table onto a rank's local edge ids. Only owned
/// edges compute tendencies, and their neighbor edges are always local with
/// halo depth 2. Shared by the in-process pool and the one-process-per-rank
/// model (mp_runner.hpp).
grid::TrskWeights localTrskWeights(const grid::TrskWeights& global,
                                   const parallel::LocalDomain& dom);

/// Scatter the global state into a rank-local state (all local entities).
dycore::State scatterLocalState(const dycore::State& global,
                                const parallel::LocalDomain& dom, int nlev,
                                int ntracers);

/// In-place variant: overwrite an existing rank-local state (all local
/// entities, owned + halo) from the global state. Shapes must already
/// match. Used by checkpoint restore, where replacing the State object
/// would dangle the exchange lists' field pointers.
void scatterIntoLocalState(const dycore::State& global,
                           const parallel::LocalDomain& dom,
                           dycore::State& local);

class ParallelModel {
 public:
  enum class Schedule {
    kOverlap,        ///< split post/wait exchange overlapped with interior compute
    kLockstep,       ///< packed collective exchange at stage barriers
    kSpawnUnpacked,  ///< seed reference: per-step threads, element-wise exchange
  };

  /// Decomposes `mesh` into `nranks` domains and scatters `global_initial`.
  /// The mesh and TRSK weights must outlive the model.
  ParallelModel(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
                dycore::DycoreConfig config, Index nranks,
                const dycore::State& global_initial);
  ~ParallelModel();

  ParallelModel(const ParallelModel&) = delete;
  ParallelModel& operator=(const ParallelModel&) = delete;

  /// One dynamics step across all ranks under the current schedule. All
  /// schedules produce bitwise-identical states (exchanged values are exact
  /// copies and band splitting only permutes independent per-entity loops).
  void step();
  void run(int nsteps);

  /// Select the step schedule (between steps only; not thread-safe against
  /// a concurrent step()).
  void setSchedule(Schedule s) { schedule_ = s; }
  Schedule schedule() const { return schedule_; }

  /// Reassemble the global prognostic state from rank-owned entities.
  dycore::State gatherState() const;

  /// Overwrite every rank's local state (owned + halo) from a global state
  /// -- checkpoint restore. In-place: exchange plans, bands and buffers
  /// survive untouched, so warm stepping stays allocation-free afterwards.
  /// Throws std::runtime_error on shape mismatch (nlev/ntracers/entities).
  void restoreGlobalState(const dycore::State& global);

  const dycore::DycoreConfig& config() const { return config_; }

  Index nranks() const { return decomp_.nranks; }
  parallel::CommStats commStats() const { return comm_.stats(); }
  const parallel::Decomposition& decomposition() const { return decomp_; }

  /// Emulate an interconnect with `seconds` of delivery latency per
  /// exchange round (see Communicator::setWireLatency). Set between steps
  /// only. Default 0 -- instant in-process delivery.
  void setWireLatency(double seconds) { comm_.setWireLatency(seconds); }

 private:
  // Completion step of the lockstep stage barrier: the last rank to arrive
  // runs the packed collective exchange for everyone.
  struct StageExchange {
    ParallelModel* model;
    void operator()() const noexcept;
  };

  void workerLoop(Index rank);

  const grid::HexMesh& mesh_;
  dycore::DycoreConfig config_;
  parallel::Decomposition decomp_;
  parallel::Communicator comm_;
  std::vector<grid::TrskWeights> local_trsk_;
  std::vector<std::unique_ptr<dycore::Dycore>> dycores_;
  std::vector<dycore::State> states_;
  std::vector<parallel::ExchangeList> lists_;

  // Per-rank exchange callbacks, built once in the constructor so the warm
  // step path never constructs a std::function.
  std::vector<dycore::Dycore::ExchangeFn> lockstep_fns_;
  std::vector<dycore::Dycore::OverlapHooks> overlap_hooks_;

  // Persistent pool: workers park at start_barrier_, run one step under
  // schedule_, then park at done_barrier_. Both barriers count the nranks
  // workers plus the caller of step(). schedule_/stopping_ are written by
  // the main thread before it arrives at start_barrier_ and read by the
  // workers after -- the barrier provides the happens-before edge.
  Schedule schedule_ = Schedule::kOverlap;
  bool stopping_ = false;
  int rank_threads_ = 1;  // OpenMP team per rank thread (cpuShare().threads)
  std::barrier<> start_barrier_;
  std::barrier<> done_barrier_;
  std::barrier<StageExchange> stage_barrier_;
  std::vector<std::thread> workers_;
};

} // namespace grist::core
