// One-OS-process-per-rank runs over the shm transport.
//
// The in-process ParallelModel keeps every rank's arrays in one heap; this
// runner gives each rank its own process instead. Nothing but halos crosses
// the process boundary: every rank worker REBUILDS mesh, TRSK weights,
// decomposition and initial state deterministically from the RunSpec
// parameters (the builders are pure functions of them), so the only
// communication is the packed halo exchange through the shared-memory
// transport -- which is why a cross-process run is bitwise identical to the
// threaded pool: same local domains, same kernels, same exchanged bytes,
// only the address spaces differ.
//
// Three pieces:
//   RankProcessModel   one rank of the multi-rank step in THIS process:
//                      ParallelModel's per-rank construction (local TRSK,
//                      bounds, bands, scatter) over a local-rank
//                      Communicator; warm step()s are heap-allocation-free.
//   MpSession          parent-side handle: fork+execs one worker per rank
//                      (this binary, re-entered via maybeRunWorker), then
//                      drives them through a shared control block --
//                      run(n), gather() (owned state + per-rank hashes,
//                      OpenMP team sizes, stepping and halo-wait seconds +
//                      CommStats through a shared result segment), and
//                      teardown with
//                      exit-code propagation and segment unlink. A rank
//                      that dies mid-run fails the whole session instead
//                      of wedging it. Each rank's OpenMP team is sized to
//                      its CPU share (parallel::cpuShare), so N ranks never
//                      start more threads than the parent's allowed CPUs.
//   maybeRunWorker     argv dispatch; call FIRST in main() of any binary
//                      that constructs an MpSession.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "grist/core/parallel_model.hpp"
#include "grist/parallel/shm_region.hpp"

namespace grist::core::mp {

/// Parameters every rank worker rebuilds the run from. Default values match
/// the decomposition gate tests (G3, 8 levels, dt 450).
struct RunSpec {
  int grid_level = 3;
  int nlev = 8;
  double dt = 450.0;
  int ntracers = 1;
  precision::NsMode ns = precision::NsMode::kDouble;
  Index nranks = 2;
  bool pin = false;        ///< bind rank r to its CpuShare::block(r)
  double wire_latency = 0; ///< seconds, forwarded per step command
  std::string segment;     ///< transport segment name; generated if empty
  /// Snapshot file (io/snapshot.hpp) to restore the initial state from
  /// instead of initBaroclinicWave. Every worker reads + validates it and
  /// scatters its own rank slice -- the checkpoint's writer rank count is
  /// irrelevant (repartition-on-restart). Empty = cold start.
  std::string restart;
};

/// FNV-1a, used for the per-rank owned-state hashes in the result segment.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 14695981039346656037ull);

/// One rank of the multi-rank step, running in this process over an
/// explicit transport (normally ShmTransport; the in-process transport with
/// nranks == 1 also works, which the unit tests use).
class RankProcessModel {
 public:
  RankProcessModel(const grid::HexMesh& mesh, const grid::TrskWeights& trsk,
                   dycore::DycoreConfig config, Index nranks, Index rank,
                   const dycore::State& global_initial,
                   std::shared_ptr<parallel::Transport> transport);

  RankProcessModel(const RankProcessModel&) = delete;
  RankProcessModel& operator=(const RankProcessModel&) = delete;

  /// One overlapped dynamics step (boundary -> post -> interior -> wait),
  /// collectively with every peer rank process. Warm steps allocate
  /// nothing on this path.
  void step();
  void run(int nsteps);

  void setWireLatency(double seconds) { comm_.setWireLatency(seconds); }
  parallel::CommStats commStats() const { return comm_.stats(); }
  /// Seconds spent blocked in the step's halo wait() so far.
  double waitSeconds() const { return wait_seconds_; }
  Index rank() const { return rank_; }
  const dycore::State& localState() const { return state_; }
  const parallel::LocalDomain& domain() const;

  /// FNV-1a over this rank's owned entities (deterministic order: owned
  /// cells' delp/theta/w/phi rows, then owned edges' u rows, then tracers).
  std::uint64_t ownedHash() const;

  /// Write this rank's owned entities at their global indices into flat
  /// [entity][lev] arrays (the result-segment layout). Ranks own disjoint
  /// entities, so concurrent writers never overlap.
  void writeOwnedState(double* delp, double* theta, double* w, double* phi,
                       double* u, double* tracers) const;

 private:
  dycore::DycoreConfig config_;
  parallel::Decomposition decomp_;
  parallel::Communicator comm_;
  Index rank_;
  grid::TrskWeights local_trsk_;
  Index ncells_global_ = 0;  ///< tracer block stride in the result layout
  std::unique_ptr<dycore::Dycore> dycore_;
  dycore::State state_;
  parallel::ExchangeList list_;
  dycore::Dycore::OverlapHooks hooks_;
  double wait_seconds_ = 0.0;
};

/// Offsets into the shared control/result segment, computed identically by
/// the parent and every worker from the run parameters.
struct ResultLayout {
  Index nranks = 0, ncells = 0, nedges = 0;
  int nlev = 0, ntracers = 0;
  std::size_t hashes_off = 0;
  std::size_t threads_off = 0, step_s_off = 0, wait_s_off = 0;  ///< per-rank int64 / double / double
  std::size_t delp_off = 0, theta_off = 0, w_off = 0, phi_off = 0, u_off = 0;
  std::size_t tracers_off = 0;
  std::size_t total = 0;

  static ResultLayout compute(Index nranks, Index ncells, Index nedges,
                              int nlev, int ntracers);
};

class MpSession {
 public:
  /// Builds the (parent-side) mesh, creates the control/result segment and
  /// spawns one pinned/unpinned worker process per rank. The workers build
  /// their models and rendezvous on the transport's startup barrier; the
  /// first command's ack confirms the whole fleet came up.
  explicit MpSession(RunSpec spec);
  ~MpSession();

  MpSession(const MpSession&) = delete;
  MpSession& operator=(const MpSession&) = delete;

  /// Step all rank processes `nsteps` times (blocks until every rank acked).
  void run(int nsteps);

  /// Applied from the next run() command on.
  void setWireLatency(double seconds) { spec_.wire_latency = seconds; }

  /// Reassemble the global owned state from the result segment (also
  /// refreshes rankHash()/rankThreads()/rankStepSeconds()/commStats()).
  dycore::State gather();

  parallel::CommStats commStats();
  std::uint64_t rankHash(Index rank) const { return hashes_.at(static_cast<std::size_t>(rank)); }
  /// Rank r's OpenMP team size, as the worker reported it at the last gather.
  int rankThreads(Index rank) const { return threads_.at(static_cast<std::size_t>(rank)); }
  /// Seconds rank r spent in run() commands up to the last gather: its
  /// compute seconds plus its halo-wait seconds.
  double rankStepSeconds(Index rank) const { return step_s_.at(static_cast<std::size_t>(rank)); }
  /// The part of rankStepSeconds(r) spent blocked in the halo wait().
  double rankWaitSeconds(Index rank) const { return wait_s_.at(static_cast<std::size_t>(rank)); }
  /// rankStepSeconds(r) minus rankWaitSeconds(r): the rank's own work.
  double rankComputeSeconds(Index rank) const { return rankStepSeconds(rank) - rankWaitSeconds(rank); }
  /// Rank r's process id (valid until the session is destroyed).
  pid_t rankPid(Index rank) const { return pids_.at(static_cast<std::size_t>(rank)); }

  Index nranks() const { return spec_.nranks; }
  const grid::HexMesh& mesh() const { return mesh_; }
  const std::string& segmentName() const { return spec_.segment; }

 private:
  void command(std::uint32_t cmd, int nsteps);
  void probeChildren();
  [[noreturn]] void failSession(const std::string& why);
  void refreshResults();

  RunSpec spec_;
  grid::HexMesh mesh_;
  ResultLayout layout_;
  parallel::ShmRegion ctl_;
  std::vector<pid_t> pids_;
  std::vector<int> exit_codes_;  // -1 = still running
  std::uint32_t seq_ = 0;
  bool failed_ = false;
  std::vector<std::uint64_t> hashes_;
  std::vector<int> threads_;
  std::vector<double> step_s_;
  std::vector<double> wait_s_;
  parallel::CommStats stats_{};
};

/// Worker-mode dispatch. Call this FIRST in main(); when this process was
/// exec'd as a rank worker it runs the worker loop and returns its exit
/// code, otherwise nullopt.
std::optional<int> maybeRunWorker(int argc, char** argv);

} // namespace grist::core::mp
