#include "grist/core/mp_runner.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <omp.h>

#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <thread>

#include "grist/common/hash.hpp"
#include "grist/common/parse.hpp"
#include "grist/core/checkpoint.hpp"
#include "grist/dycore/init.hpp"
#include "grist/parallel/mp_launch.hpp"
#include "grist/parallel/shm_transport.hpp"

namespace grist::core::mp {

namespace {

constexpr const char* kWorkerFlag = "--grist-shm-worker";
constexpr std::uint32_t kCmdStep = 1;
constexpr std::uint32_t kCmdGather = 2;
constexpr std::uint32_t kCmdStop = 3;

constexpr std::size_t kAlign = 64;
std::size_t alignUp(std::size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

/// Command/ack mailbox at offset 0 of the control/result segment. The
/// parent writes the command fields, then release-stores cmd_seq and rings
/// the futex; each worker executes, then joins a counting ack barrier whose
/// last arriver release-stores ack_seq back. Stats are filled by rank 0 at
/// gather time (they are run-wide totals in the transport segment, so one
/// reporter suffices).
struct CtlBlock {
  std::atomic<std::uint32_t> cmd_seq;
  std::atomic<std::uint32_t> ack_seq;
  std::atomic<std::uint32_t> done_count;
  std::uint32_t cmd;
  std::int32_t nsteps;
  std::int32_t pad_;
  double wire_latency;
  std::int64_t messages;
  std::int64_t bytes;
  std::int64_t exchanges;
  char pad2_[128 - 56];
};
static_assert(sizeof(CtlBlock) == 128);

const char* nsName(precision::NsMode ns) {
  return ns == precision::NsMode::kSingle ? "mix" : "dp";
}

} // namespace

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  return common::fnv1a(data, bytes, h);
}

ResultLayout ResultLayout::compute(Index nranks, Index ncells, Index nedges,
                                   int nlev, int ntracers) {
  ResultLayout l;
  l.nranks = nranks;
  l.ncells = ncells;
  l.nedges = nedges;
  l.nlev = nlev;
  l.ntracers = ntracers;
  const std::size_t nc = static_cast<std::size_t>(ncells);
  const std::size_t ne = static_cast<std::size_t>(nedges);
  const std::size_t lev = static_cast<std::size_t>(nlev);
  std::size_t off = alignUp(sizeof(CtlBlock));
  l.hashes_off = off;
  off = alignUp(off + static_cast<std::size_t>(nranks) * sizeof(std::uint64_t));
  l.threads_off = off;
  off = alignUp(off + static_cast<std::size_t>(nranks) * sizeof(std::int64_t));
  l.step_s_off = off;
  off = alignUp(off + static_cast<std::size_t>(nranks) * sizeof(double));
  l.wait_s_off = off;
  off = alignUp(off + static_cast<std::size_t>(nranks) * sizeof(double));
  l.delp_off = off;
  off = alignUp(off + nc * lev * sizeof(double));
  l.theta_off = off;
  off = alignUp(off + nc * lev * sizeof(double));
  l.w_off = off;
  off = alignUp(off + nc * (lev + 1) * sizeof(double));
  l.phi_off = off;
  off = alignUp(off + nc * (lev + 1) * sizeof(double));
  l.u_off = off;
  off = alignUp(off + ne * lev * sizeof(double));
  l.tracers_off = off;
  off = alignUp(off + static_cast<std::size_t>(ntracers) * nc * lev * sizeof(double));
  l.total = off;
  return l;
}

// ---------------------------------------------------------------------------
// RankProcessModel

RankProcessModel::RankProcessModel(const grid::HexMesh& mesh,
                                   const grid::TrskWeights& trsk,
                                   dycore::DycoreConfig config, Index nranks,
                                   Index rank,
                                   const dycore::State& global_initial,
                                   std::shared_ptr<parallel::Transport> transport)
    : config_(config),
      decomp_(parallel::decompose(mesh, nranks, /*halo_depth=*/2)),
      comm_(decomp_, std::move(transport), rank),
      rank_(rank),
      local_trsk_(localTrskWeights(trsk, decomp_.domains[rank])),
      ncells_global_(mesh.ncells) {
  const parallel::LocalDomain& dom = decomp_.domains[rank_];
  const int ntracers = static_cast<int>(global_initial.tracers.size());
  dycore::Bounds bounds;
  bounds.cells_prog = dom.ncells_owned;
  bounds.cells_diag = dom.ncells_inner1;
  bounds.edges_prog = dom.nedges_owned;
  bounds.vertices_diag = dom.nvtx_complete;
  dycore_ = std::make_unique<dycore::Dycore>(dom.mesh, local_trsk_, config_, bounds);
  dycore::Bands bands;
  bands.boundary_cells = dom.boundary_cells;
  bands.interior_cells = dom.interior_cells;
  bands.boundary_edges = dom.boundary_edges;
  bands.interior_edges = dom.interior_edges;
  dycore_->setBands(std::move(bands));
  state_ = scatterLocalState(global_initial, dom, config_.nlev, ntracers);
  list_.addCellField(state_.delp);
  list_.addCellField(state_.theta);
  list_.addCellField(state_.w);
  list_.addCellField(state_.phi);
  list_.addEdgeField(state_.u);
  comm_.planLocal(list_);
  hooks_.post = [this]() { comm_.post(rank_); };
  hooks_.wait = [this]() {
    const auto t0 = std::chrono::steady_clock::now();
    comm_.wait(rank_);
    wait_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  };
  // Initial halo fill, the distributed twin of ParallelModel's
  // construction-time collective exchange (same bytes, same seq bump, same
  // CommStats totals across the fleet).
  comm_.post(rank_);
  comm_.wait(rank_);
}

void RankProcessModel::step() { dycore_->step(state_, hooks_); }

void RankProcessModel::run(int nsteps) {
  for (int i = 0; i < nsteps; ++i) step();
}

const parallel::LocalDomain& RankProcessModel::domain() const {
  return decomp_.domains[rank_];
}

std::uint64_t RankProcessModel::ownedHash() const {
  const parallel::LocalDomain& dom = domain();
  const std::size_t lev = static_cast<std::size_t>(config_.nlev);
  std::uint64_t h = 14695981039346656037ull;
  for (Index lc = 0; lc < dom.ncells_owned; ++lc) {
    h = fnv1a(&state_.delp(lc, 0), lev * sizeof(double), h);
    h = fnv1a(&state_.theta(lc, 0), lev * sizeof(double), h);
    h = fnv1a(&state_.w(lc, 0), (lev + 1) * sizeof(double), h);
    h = fnv1a(&state_.phi(lc, 0), (lev + 1) * sizeof(double), h);
  }
  for (Index le = 0; le < dom.nedges_owned; ++le) {
    h = fnv1a(&state_.u(le, 0), lev * sizeof(double), h);
  }
  for (const auto& tr : state_.tracers) {
    for (Index lc = 0; lc < dom.ncells_owned; ++lc) {
      h = fnv1a(&tr(lc, 0), lev * sizeof(double), h);
    }
  }
  return h;
}

void RankProcessModel::writeOwnedState(double* delp, double* theta, double* w,
                                       double* phi, double* u,
                                       double* tracers) const {
  const parallel::LocalDomain& dom = domain();
  const std::size_t lev = static_cast<std::size_t>(config_.nlev);
  const std::size_t row = lev * sizeof(double);
  const std::size_t row1 = (lev + 1) * sizeof(double);
  for (Index lc = 0; lc < dom.ncells_owned; ++lc) {
    const std::size_t g = static_cast<std::size_t>(dom.cell_global[lc]);
    std::memcpy(delp + g * lev, &state_.delp(lc, 0), row);
    std::memcpy(theta + g * lev, &state_.theta(lc, 0), row);
    std::memcpy(w + g * (lev + 1), &state_.w(lc, 0), row1);
    std::memcpy(phi + g * (lev + 1), &state_.phi(lc, 0), row1);
    for (std::size_t t = 0; t < state_.tracers.size(); ++t) {
      std::memcpy(tracers + (t * static_cast<std::size_t>(ncells_global_) + g) * lev,
                  &state_.tracers[t](lc, 0), row);
    }
  }
  for (Index le = 0; le < dom.nedges_owned; ++le) {
    const std::size_t g = static_cast<std::size_t>(dom.edge_global[le]);
    std::memcpy(u + g * lev, &state_.u(le, 0), row);
  }
}

// ---------------------------------------------------------------------------
// Worker side

namespace {

int workerMain(const RunSpec& spec, Index rank, int threads) {
  // Size the team before the first parallel region, so the mesh/TRSK/init
  // build below runs on this rank's CPU share too.
  omp_set_num_threads(threads);
  const grid::HexMesh mesh = grid::buildHexMesh(spec.grid_level);
  const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  dycore::DycoreConfig cfg;
  cfg.nlev = spec.nlev;
  cfg.dt = spec.dt;
  cfg.ntracers = spec.ntracers;
  cfg.ns = spec.ns;
  // Every worker builds the same global initial state (cold: the analytic
  // init; restart: the validated snapshot) and scatters its own rank slice.
  const dycore::State initial =
      spec.restart.empty()
          ? dycore::initBaroclinicWave(mesh, cfg, spec.ntracers)
          : loadDynRestart(spec.restart, mesh, cfg, spec.ntracers, nullptr);
  auto transport = std::make_shared<parallel::ShmTransport>(spec.segment,
                                                            spec.nranks, rank);
  RankProcessModel model(mesh, trsk, cfg, spec.nranks, rank, initial, transport);

  const ResultLayout lay =
      ResultLayout::compute(spec.nranks, mesh.ncells, mesh.nedges, cfg.nlev,
                            static_cast<int>(initial.tracers.size()));
  parallel::ShmRegion ctl =
      parallel::ShmRegion::attach(spec.segment + "-ctl", lay.total);
  auto* base = static_cast<std::uint8_t*>(ctl.payload());
  auto* c = reinterpret_cast<CtlBlock*>(base);
  const auto at = [&](std::size_t off) {
    return reinterpret_cast<double*>(base + off);
  };

  double step_seconds = 0.0;  // accumulated inside kCmdStep
  std::uint32_t last = 0;
  for (;;) {
    std::uint32_t s = c->cmd_seq.load(std::memory_order_acquire);
    while (s == last) {
      parallel::futexWait(&c->cmd_seq, s, 0.5);
      s = c->cmd_seq.load(std::memory_order_acquire);
      // Orphan guard: if the parent vanished without a stop command, exit
      // instead of idling on a leaked segment forever.
      if (s == last && ::getppid() == 1) return 3;
    }
    const std::uint32_t cmd = c->cmd;
    switch (cmd) {
      case kCmdStep: {
        model.setWireLatency(c->wire_latency);
        const auto t0 = std::chrono::steady_clock::now();
        model.run(c->nsteps);
        step_seconds += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        break;
      }
      case kCmdGather:
        model.writeOwnedState(at(lay.delp_off), at(lay.theta_off), at(lay.w_off),
                              at(lay.phi_off), at(lay.u_off), at(lay.tracers_off));
        reinterpret_cast<std::uint64_t*>(base + lay.hashes_off)[rank] =
            model.ownedHash();
        reinterpret_cast<std::int64_t*>(base + lay.threads_off)[rank] =
            omp_get_max_threads();
        at(lay.step_s_off)[rank] = step_seconds;
        at(lay.wait_s_off)[rank] = model.waitSeconds();
        if (rank == 0) {
          const parallel::CommStats st = model.commStats();
          c->messages = st.messages;
          c->bytes = st.bytes;
          c->exchanges = st.exchanges;
        }
        break;
      case kCmdStop:
      default:
        break;
    }
    last = s;
    // Counting ack barrier: the last rank to finish this command publishes
    // the ack (its acquire fetch_add orders every peer's writes before the
    // parent's acquire load of ack_seq).
    if (c->done_count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        static_cast<std::uint32_t>(spec.nranks)) {
      c->done_count.store(0, std::memory_order_relaxed);
      c->ack_seq.store(s, std::memory_order_release);
      parallel::futexWake(&c->ack_seq, INT_MAX);
    }
    if (cmd == kCmdStop) return 0;
  }
}

} // namespace

std::optional<int> maybeRunWorker(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], kWorkerFlag) != 0) return std::nullopt;
  // Operands after the flag, in the order MpSession writes them.
  static constexpr const char* kOperands[] = {
      "segment", "nranks", "rank", "grid_level", "nlev", "dt",
      "ntracers", "ns", "restart", "threads"};
  constexpr int kNumOperands = static_cast<int>(std::size(kOperands));
  if (argc != 2 + kNumOperands) {
    std::fprintf(stderr, "%s: expected %d operands, got %d\n", kWorkerFlag,
                 kNumOperands, argc - 2);
    return 2;
  }
  int bad = -1;  // index of the first malformed operand
  const auto operand = [&](int i) { return argv[2 + i]; };
  const auto num = [&](int i, auto lo, auto hi) {
    const auto v = common::parseNumber(operand(i), lo, hi);
    if (!v && bad < 0) bad = i;
    return v.value_or(lo);
  };
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  RunSpec spec;
  spec.segment = operand(0);
  spec.nranks = num(1, Index{1}, std::numeric_limits<Index>::max());
  const Index rank = num(2, Index{0}, spec.nranks - 1);
  spec.grid_level = num(3, 0, kMaxInt);
  spec.nlev = num(4, 1, kMaxInt);
  spec.dt = num(5, std::numeric_limits<double>::min(),
                std::numeric_limits<double>::max());
  spec.ntracers = num(6, 0, kMaxInt);
  if (std::strcmp(operand(7), "mix") == 0) {
    spec.ns = precision::NsMode::kSingle;
  } else if (std::strcmp(operand(7), "dp") != 0 && bad < 0) {
    bad = 7;
  }
  if (std::strcmp(operand(8), "-") != 0) spec.restart = operand(8);
  const int threads = num(9, 1, kMaxInt);
  if (bad >= 0) {
    std::fprintf(stderr, "%s: malformed %s operand '%s'\n", kWorkerFlag,
                 kOperands[bad], operand(bad));
    return 2;
  }
  try {
    return workerMain(spec, rank, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[grist shm worker rank %d] %s\n",
                 static_cast<int>(rank), e.what());
    return 1;
  }
}

// ---------------------------------------------------------------------------
// Parent side

MpSession::MpSession(RunSpec spec)
    : spec_(std::move(spec)), mesh_(grid::buildHexMesh(spec_.grid_level)) {
  if (spec_.nranks <= 0) {
    throw std::invalid_argument("MpSession: need at least one rank");
  }
  if (spec_.segment.empty()) spec_.segment = parallel::makeSegmentName();
  layout_ = ResultLayout::compute(spec_.nranks, mesh_.ncells, mesh_.nedges,
                                  spec_.nlev, spec_.ntracers);
  // The control/result segment is parent-created and zero-filled; workers
  // attach by the derived "-ctl" name. The TRANSPORT segment is created by
  // rank 0 inside planLocal (it knows the message sizes); the parent only
  // unlinks it at teardown.
  ctl_ = parallel::ShmRegion::create(spec_.segment + "-ctl", layout_.total);
  ctl_.markReady();
  hashes_.assign(static_cast<std::size_t>(spec_.nranks), 0);
  threads_.assign(static_cast<std::size_t>(spec_.nranks), 0);
  step_s_.assign(static_cast<std::size_t>(spec_.nranks), 0.0);
  wait_s_.assign(static_cast<std::size_t>(spec_.nranks), 0.0);

  char dt[40];
  std::snprintf(dt, sizeof(dt), "%.17g", spec_.dt);
  const parallel::CpuShare cpus = parallel::cpuShare(spec_.nranks);
  pids_ = parallel::spawnRanks(cpus, spec_.pin, [&](Index r) {
    return std::vector<std::string>{
        "grist-shm-worker",
        kWorkerFlag,
        spec_.segment,
        std::to_string(spec_.nranks),
        std::to_string(r),
        std::to_string(spec_.grid_level),
        std::to_string(spec_.nlev),
        dt,
        std::to_string(spec_.ntracers),
        nsName(spec_.ns),
        spec_.restart.empty() ? "-" : spec_.restart,
        std::to_string(cpus.threads)};
  });
  exit_codes_.assign(pids_.size(), -1);
}

MpSession::~MpSession() {
  if (!failed_) {
    try {
      command(kCmdStop, 0);
    } catch (...) {
      // failSession already tore the fleet down; fall through to unlink.
    }
  }
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (exit_codes_[i] < 0) ::waitpid(pids_[i], nullptr, 0);
  }
  parallel::ShmTransport::unlinkSegments(spec_.segment);
  parallel::ShmRegion::unlink(spec_.segment + "-ctl");
}

void MpSession::probeChildren() {
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (exit_codes_[i] >= 0) continue;
    int status = 0;
    const pid_t w = ::waitpid(pids_[i], &status, WNOHANG);
    if (w == 0) continue;
    int code = 1;
    if (w == pids_[i]) {
      if (WIFEXITED(status)) {
        code = WEXITSTATUS(status);
      } else if (WIFSIGNALED(status)) {
        code = 128 + WTERMSIG(status);
      }
    }
    exit_codes_[i] = code;
    // ANY exit while a command is outstanding is fatal -- even a clean one
    // means the rank can never ack.
    failSession("rank " + std::to_string(i) + " (pid " +
                std::to_string(pids_[i]) + ") exited with code " +
                std::to_string(code) + " mid-command");
  }
}

void MpSession::failSession(const std::string& why) {
  failed_ = true;
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (exit_codes_[i] < 0) ::kill(pids_[i], SIGTERM);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    while (exit_codes_[i] < 0) {
      int status = 0;
      if (::waitpid(pids_[i], &status, WNOHANG) != 0) {
        exit_codes_[i] = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pids_[i], SIGKILL);
        ::waitpid(pids_[i], &status, 0);
        exit_codes_[i] = 137;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  parallel::ShmTransport::unlinkSegments(spec_.segment);
  parallel::ShmRegion::unlink(spec_.segment + "-ctl");
  throw std::runtime_error("MpSession: " + why);
}

void MpSession::command(std::uint32_t cmd, int nsteps) {
  if (failed_) throw std::logic_error("MpSession: session already failed");
  auto* c = static_cast<CtlBlock*>(ctl_.payload());
  c->cmd = cmd;
  c->nsteps = nsteps;
  c->wire_latency = spec_.wire_latency;
  const std::uint32_t s = ++seq_;
  c->cmd_seq.store(s, std::memory_order_release);
  parallel::futexWake(&c->cmd_seq, INT_MAX);
  for (;;) {
    const std::uint32_t a = c->ack_seq.load(std::memory_order_acquire);
    if (a == s) return;
    parallel::futexWait(&c->ack_seq, a, 0.05);
    if (cmd != kCmdStop) probeChildren();
  }
}

void MpSession::run(int nsteps) { command(kCmdStep, nsteps); }

void MpSession::refreshResults() {
  const auto* base = static_cast<const std::uint8_t*>(ctl_.payload());
  const auto* c = reinterpret_cast<const CtlBlock*>(base);
  const auto* h = reinterpret_cast<const std::uint64_t*>(base + layout_.hashes_off);
  const auto* th = reinterpret_cast<const std::int64_t*>(base + layout_.threads_off);
  const auto* ss = reinterpret_cast<const double*>(base + layout_.step_s_off);
  const auto* ws = reinterpret_cast<const double*>(base + layout_.wait_s_off);
  for (Index r = 0; r < spec_.nranks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    hashes_[i] = h[r];
    threads_[i] = static_cast<int>(th[r]);
    step_s_[i] = ss[r];
    wait_s_[i] = ws[r];
  }
  stats_.messages = c->messages;
  stats_.bytes = c->bytes;
  stats_.exchanges = c->exchanges;
}

dycore::State MpSession::gather() {
  command(kCmdGather, 0);
  refreshResults();
  const auto* base = static_cast<const std::uint8_t*>(ctl_.payload());
  const auto at = [&](std::size_t off) {
    return reinterpret_cast<const double*>(base + off);
  };
  const std::size_t nc = static_cast<std::size_t>(mesh_.ncells);
  const std::size_t ne = static_cast<std::size_t>(mesh_.nedges);
  const std::size_t lev = static_cast<std::size_t>(spec_.nlev);
  dycore::State g(mesh_, spec_.nlev, spec_.ntracers);
  std::memcpy(g.delp.data(), at(layout_.delp_off), nc * lev * sizeof(double));
  std::memcpy(g.theta.data(), at(layout_.theta_off), nc * lev * sizeof(double));
  std::memcpy(g.w.data(), at(layout_.w_off), nc * (lev + 1) * sizeof(double));
  std::memcpy(g.phi.data(), at(layout_.phi_off), nc * (lev + 1) * sizeof(double));
  std::memcpy(g.u.data(), at(layout_.u_off), ne * lev * sizeof(double));
  for (int t = 0; t < spec_.ntracers; ++t) {
    std::memcpy(g.tracers[static_cast<std::size_t>(t)].data(),
                at(layout_.tracers_off) + static_cast<std::size_t>(t) * nc * lev,
                nc * lev * sizeof(double));
  }
  return g;
}

parallel::CommStats MpSession::commStats() {
  command(kCmdGather, 0);
  refreshResults();
  return stats_;
}

} // namespace grist::core::mp
