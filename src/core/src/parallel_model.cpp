#include "grist/core/parallel_model.hpp"

#include <omp.h>

#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "grist/parallel/mp_launch.hpp"

namespace grist::core {

using dycore::State;
using grid::TrskWeights;
using parallel::LocalDomain;

TrskWeights localTrskWeights(const TrskWeights& global, const LocalDomain& dom) {
  std::unordered_map<Index, Index> edge_l;
  edge_l.reserve(dom.edge_global.size());
  for (Index le = 0; le < static_cast<Index>(dom.edge_global.size()); ++le) {
    edge_l.emplace(dom.edge_global[le], le);
  }
  TrskWeights local;
  const Index nlocal = static_cast<Index>(dom.edge_global.size());
  local.offset.assign(nlocal + 1, 0);
  for (Index le = 0; le < nlocal; ++le) {
    local.offset[le + 1] = local.offset[le];
    if (le >= dom.nedges_owned) continue;  // halo edges never compute
    const Index ge = dom.edge_global[le];
    for (Index j = global.offset[ge]; j < global.offset[ge + 1]; ++j) {
      const auto it = edge_l.find(global.edge[j]);
      if (it == edge_l.end()) {
        throw std::logic_error("localTrsk: neighbor edge missing from halo");
      }
      local.edge.push_back(it->second);
      local.weight.push_back(global.weight[j]);
      ++local.offset[le + 1];
    }
  }
  return local;
}

State scatterLocalState(const State& global, const LocalDomain& dom, int nlev,
                        int ntracers) {
  State local(dom.mesh, nlev, ntracers);
  scatterIntoLocalState(global, dom, local);
  return local;
}

void scatterIntoLocalState(const State& global, const LocalDomain& dom,
                           State& local) {
  const int nlev = local.nlev;
  const int ntracers = static_cast<int>(local.tracers.size());
  for (Index lc = 0; lc < dom.mesh.ncells; ++lc) {
    const Index g = dom.cell_global[lc];
    for (int k = 0; k < nlev; ++k) {
      local.delp(lc, k) = global.delp(g, k);
      local.theta(lc, k) = global.theta(g, k);
      for (int t = 0; t < ntracers; ++t) {
        local.tracers[t](lc, k) = global.tracers[t](g, k);
      }
    }
    for (int k = 0; k <= nlev; ++k) {
      local.w(lc, k) = global.w(g, k);
      local.phi(lc, k) = global.phi(g, k);
    }
  }
  for (Index le = 0; le < dom.mesh.nedges; ++le) {
    const Index g = dom.edge_global[le];
    for (int k = 0; k < nlev; ++k) local.u(le, k) = global.u(g, k);
  }
}

void ParallelModel::StageExchange::operator()() const noexcept {
  model->comm_.exchange(model->lists_);
}

ParallelModel::ParallelModel(const grid::HexMesh& mesh, const TrskWeights& trsk,
                             dycore::DycoreConfig config, Index nranks,
                             const State& global_initial)
    : mesh_(mesh),
      config_(config),
      decomp_(parallel::decompose(mesh, nranks, /*halo_depth=*/2)),
      comm_(decomp_),
      start_barrier_(static_cast<std::ptrdiff_t>(nranks) + 1),
      done_barrier_(static_cast<std::ptrdiff_t>(nranks) + 1),
      stage_barrier_(static_cast<std::ptrdiff_t>(nranks), StageExchange{this}) {
  const int ntracers = static_cast<int>(global_initial.tracers.size());
  // Dycores hold references into local_trsk_; reserve so push_back never
  // reallocates under them.
  local_trsk_.reserve(decomp_.nranks);
  dycores_.reserve(decomp_.nranks);
  states_.reserve(decomp_.nranks);
  for (Index r = 0; r < decomp_.nranks; ++r) {
    const LocalDomain& dom = decomp_.domains[r];
    local_trsk_.push_back(localTrskWeights(trsk, dom));
    dycore::Bounds bounds;
    bounds.cells_prog = dom.ncells_owned;
    bounds.cells_diag = dom.ncells_inner1;
    bounds.edges_prog = dom.nedges_owned;
    bounds.vertices_diag = dom.nvtx_complete;
    dycores_.push_back(std::make_unique<dycore::Dycore>(dom.mesh, local_trsk_[r],
                                                        config_, bounds));
    // Boundary/interior bands from the decomposition's exchange patterns
    // drive the overlapped schedule.
    dycore::Bands bands;
    bands.boundary_cells = dom.boundary_cells;
    bands.interior_cells = dom.interior_cells;
    bands.boundary_edges = dom.boundary_edges;
    bands.interior_edges = dom.interior_edges;
    dycores_.back()->setBands(std::move(bands));
    states_.push_back(scatterLocalState(global_initial, dom, config_.nlev, ntracers));
  }
  // Exchange lists reference stable field storage inside states_.
  lists_.resize(decomp_.nranks);
  for (Index r = 0; r < decomp_.nranks; ++r) {
    State& s = states_[r];
    lists_[r].addCellField(s.delp);
    lists_[r].addCellField(s.theta);
    lists_[r].addCellField(s.w);
    lists_[r].addCellField(s.phi);
    lists_[r].addEdgeField(s.u);
  }
  // Plan the packed buffers once; the step loop never reallocates them.
  comm_.plan(lists_);
  // Per-rank exchange callbacks, built once (no std::function construction
  // in the warm step path).
  lockstep_fns_.reserve(decomp_.nranks);
  overlap_hooks_.reserve(decomp_.nranks);
  for (Index r = 0; r < decomp_.nranks; ++r) {
    lockstep_fns_.push_back(
        [this](State&) { stage_barrier_.arrive_and_wait(); });
    dycore::Dycore::OverlapHooks hooks;
    hooks.post = [this, r]() { comm_.post(r); };
    hooks.wait = [this, r]() { comm_.wait(r); };
    overlap_hooks_.push_back(std::move(hooks));
  }
  // Initial halo fill (scatterState already fills halos, but this exercises
  // the exchange path and guards against stale construction).
  comm_.exchange(lists_);
  // Read on this thread: a team size it set with omp_set_num_threads caps
  // the ranks' teams (new threads would only see the process default).
  rank_threads_ = parallel::cpuShare(decomp_.nranks).threads;
  // Persistent pool: one worker per rank, parked at start_barrier_.
  workers_.reserve(decomp_.nranks);
  for (Index r = 0; r < decomp_.nranks; ++r) {
    workers_.emplace_back([this, r]() { workerLoop(r); });
  }
}

ParallelModel::~ParallelModel() {
  stopping_ = true;
  start_barrier_.arrive_and_wait();  // release workers; they see stopping_
  for (auto& t : workers_) t.join();
}

void ParallelModel::workerLoop(Index rank) {
  omp_set_num_threads(rank_threads_);
  for (;;) {
    start_barrier_.arrive_and_wait();
    if (stopping_) return;
    if (schedule_ == Schedule::kOverlap) {
      dycores_[rank]->step(states_[rank], overlap_hooks_[rank]);
    } else {
      dycores_[rank]->step(states_[rank], lockstep_fns_[rank]);
    }
    done_barrier_.arrive_and_wait();
  }
}

void ParallelModel::step() {
  if (schedule_ == Schedule::kSpawnUnpacked) {
    // Seed schedule, kept as the ablation baseline: spawn a thread per rank
    // every step and run the element-wise exchange at full-stop barriers.
    const Index n = decomp_.nranks;
    std::barrier barrier(static_cast<std::ptrdiff_t>(n), [this]() noexcept {
      comm_.exchangeUnpacked(lists_);
    });
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (Index r = 0; r < n; ++r) {
      threads.emplace_back([this, r, &barrier]() {
        omp_set_num_threads(rank_threads_);
        dycores_[r]->step(states_[r],
                          [&barrier](State&) { barrier.arrive_and_wait(); });
      });
    }
    for (auto& t : threads) t.join();
    return;
  }
  start_barrier_.arrive_and_wait();  // workers run one step under schedule_
  done_barrier_.arrive_and_wait();
}

void ParallelModel::run(int nsteps) {
  for (int i = 0; i < nsteps; ++i) step();
}

void ParallelModel::restoreGlobalState(const State& global) {
  const int ntracers = static_cast<int>(states_[0].tracers.size());
  if (global.nlev != config_.nlev ||
      static_cast<int>(global.tracers.size()) != ntracers ||
      global.delp.entities() != mesh_.ncells ||
      global.u.entities() != mesh_.nedges) {
    throw std::runtime_error("ParallelModel::restoreGlobalState: shape mismatch");
  }
  // Scatter fills halos from the same global data the owners get, so the
  // ranks are exchange-consistent without an extra round (and CommStats
  // stay comparable between restored and unbroken runs).
  for (Index r = 0; r < decomp_.nranks; ++r) {
    scatterIntoLocalState(global, decomp_.domains[r], states_[r]);
  }
}

State ParallelModel::gatherState() const {
  const int ntracers = static_cast<int>(states_[0].tracers.size());
  State global(mesh_, config_.nlev, ntracers);
  for (Index r = 0; r < decomp_.nranks; ++r) {
    const LocalDomain& dom = decomp_.domains[r];
    const State& local = states_[r];
    for (Index lc = 0; lc < dom.ncells_owned; ++lc) {
      const Index g = dom.cell_global[lc];
      for (int k = 0; k < config_.nlev; ++k) {
        global.delp(g, k) = local.delp(lc, k);
        global.theta(g, k) = local.theta(lc, k);
        for (int t = 0; t < ntracers; ++t) {
          global.tracers[t](g, k) = local.tracers[t](lc, k);
        }
      }
      for (int k = 0; k <= config_.nlev; ++k) {
        global.w(g, k) = local.w(lc, k);
        global.phi(g, k) = local.phi(lc, k);
      }
    }
    for (Index le = 0; le < dom.nedges_owned; ++le) {
      const Index g = dom.edge_global[le];
      for (int k = 0; k < config_.nlev; ++k) global.u(g, k) = local.u(le, k);
    }
  }
  return global;
}

} // namespace grist::core
