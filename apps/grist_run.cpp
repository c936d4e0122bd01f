// The grist-sw command-line driver: run a namelist-described configuration
// for a given number of steps, with elastic checkpoint/restart -- the
// analog of the paper artifact's ParGRIST-GCM executable driven by
// run-*.sh scripts (Appendix B).
//
//   grist_run <namelist> [steps] [--ranks N] [--transport threads|shm]
//             [--pin] [--wire-latency S]
//             [--checkpoint-every K --checkpoint-dir D] [--restart PATH]
//             [--ensemble M] [--perturb-seed S]
//
// Extra namelist keys beyond the factory's (see core/factory.hpp):
//   steps (48)            dynamics steps to run (overridden by argv[2])
//   restart_in            restart file to resume from (--restart overrides)
//   restart_out           snapshot file to write at the end (same format as
//                         the checkpoints, so a resume continues the cadence)
//   report_interval (12)  steps between progress lines
//
// Checkpoint/restart (io/snapshot.hpp, core/checkpoint.hpp):
//   --checkpoint-every K  write an atomic snapshot every K dynamics steps
//   --checkpoint-dir D    into D/ckpt-<step>.grist (keep-last-2 rotation)
//   --restart PATH        resume from a snapshot (v2) or a legacy GRISTSW1
//                         restart file. Checkpoints store the GLOBAL state,
//                         so a checkpoint written at N ranks restores at
//                         any M ranks (repartition-on-restart), across
//                         both transports.
//
// With --ranks N > 1 the run becomes the multi-rank dynamics step (the
// decomposition gate configuration: dynamics only, no physics/IO):
//   --transport threads   the in-process persistent worker pool
//   --transport shm       one OS process per rank over the POSIX
//                         shared-memory transport; this binary fork+execs
//                         ITSELF as the rank workers, so worker dispatch
//                         runs first in main(). A rank that dies takes the
//                         whole run down and its exit code is propagated.
//   --pin                 bind rank r to its own block of this process's
//                         allowed CPUs (shm)
//   --wire-latency S      emulate S seconds of interconnect delivery delay
// Each rank's OpenMP team is sized to its CPU share on both transports:
// max(1, allowed CPUs / N), capped by OMP_NUM_THREADS when that is lower.
// An shm run ends with one line per rank (team size; stepping seconds split
// into compute and halo wait) and the max/mean compute imbalance.
//
// Numeric flags and the steps operand are parsed strictly: a malformed or
// out-of-range value exits 2 naming the flag and the value.
//
// Batched ensembles (core/ensemble_runner.hpp):
//   --ensemble M          step M members as one fused workload. Shares the
//                         mesh/TRSK/ML weights across members and batches
//                         the ML physics GEMMs cross-member; each member
//                         stays bitwise identical to the same seed run solo.
//   --perturb-seed S      deterministic theta perturbation seed (default 0 =
//                         identical members); needs --ensemble. The report
//                         lines add the area-weighted surface-pressure
//                         ensemble spread. Ensemble runs are single-rank.
// A solo run is the one-member case of the same runner, so both share one
// step loop and one checkpoint/restart path, e.g.
//   grist_run nml --ensemble 4 --checkpoint-every 8 --checkpoint-dir ck
//   grist_run nml --ensemble 4 --restart ck/ckpt-000000000048.grist
// A restart must have the member count it was written with.
#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "grist/common/parse.hpp"
#include "grist/common/timer.hpp"
#include "grist/core/checkpoint.hpp"
#include "grist/core/factory.hpp"
#include "grist/core/mp_runner.hpp"
#include "grist/core/parallel_model.hpp"
#include "grist/dycore/diagnostics.hpp"
#include "grist/dycore/init.hpp"
#include "grist/io/snapshot.hpp"
#include "grist/partition/partitioner.hpp"

namespace {

/// Validated checkpoint/restart options shared by all run modes.
struct CkptOpts {
  int every = 0;          ///< 0 = no periodic checkpoints
  std::string dir;
  std::string restart;    ///< snapshot/legacy file to resume from
};

bool fileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

constexpr int kMaxInt = std::numeric_limits<int>::max();

/// `text` parsed strictly into [lo, hi]; otherwise exits 2 naming `what`
/// (the flag) and the value.
template <class T>
T parseArg(const char* what, const char* text, T lo, T hi,
           const char* expected) {
  if (const auto v = grist::common::parseNumber(text, lo, hi)) return *v;
  std::fprintf(stderr, "grist_run: %s: invalid value '%s' (expected %s)\n",
               what, text, expected);
  std::exit(2);
}

/// The multi-rank dynamics run (both transports share the reporting).
int runMultiRank(const grist::Config& config, int steps, grist::Index nranks,
                 const std::string& transport, bool pin, double wire_latency,
                 const CkptOpts& ckpt) {
  using namespace grist;
  const int glevel = config.getInt("grid_level", 4);
  dycore::DycoreConfig cfg;
  cfg.nlev = config.getInt("nlev", 20);
  cfg.dt = config.getDouble("dt_dyn", 300.0);
  const std::string scheme = config.getString("scheme", "DP-PHY");
  cfg.ns = scheme.rfind("MIX", 0) == 0 ? precision::NsMode::kSingle
                                       : precision::NsMode::kDouble;
  const int ntracers = 1;  // decomposition gate configuration

  std::printf("multi-rank dynamics: grid G%d, nlev %d, %d ranks, transport %s%s\n",
              glevel, cfg.nlev, static_cast<int>(nranks), transport.c_str(),
              pin ? " (pinned)" : "");
  long step_base = 0;  // global step the run resumes at
  Timer timer;
  parallel::CommStats stats;
  // Chunked stepping shared by both transports: run to the next checkpoint
  // boundary, snapshot the gathered global state, repeat.
  const auto drive = [&](auto&& run_steps, auto&& capture) {
    long done = 0;
    while (done < steps) {
      const int chunk =
          ckpt.every > 0
              ? static_cast<int>(std::min<long>(ckpt.every, steps - done))
              : static_cast<int>(steps - done);
      run_steps(chunk);
      done += chunk;
      if (ckpt.every > 0 && (done % ckpt.every == 0 || done == steps)) {
        const std::string path = io::writeCheckpoint(
            ckpt.dir, capture(step_base + done), step_base + done);
        std::printf("checkpoint: step %ld -> %s\n", step_base + done,
                    path.c_str());
      }
    }
  };
  if (transport == "shm") {
    core::mp::RunSpec spec;
    spec.grid_level = glevel;
    spec.nlev = cfg.nlev;
    spec.dt = cfg.dt;
    spec.ns = cfg.ns;
    spec.ntracers = ntracers;
    spec.nranks = nranks;
    spec.pin = pin;
    spec.wire_latency = wire_latency;
    spec.restart = ckpt.restart;
    if (!ckpt.restart.empty()) {
      // Validate in the parent for a friendly error before spawning the
      // fleet (each worker re-reads + re-validates the file itself).
      const grid::HexMesh mesh = grid::buildHexMesh(glevel);
      core::loadDynRestart(ckpt.restart, mesh, cfg, ntracers, &step_base);
      std::printf("resuming from %s at step %ld\n", ckpt.restart.c_str(),
                  step_base);
    }
    core::mp::MpSession session(spec);
    const std::uint64_t part_fp = partition::Partitioner::fingerprint(
        partition::Partitioner::partition(session.mesh(), nranks));
    drive([&](int n) { session.run(n); },
          [&](long step) {
            return core::captureDynRun(session.gather(), cfg, glevel, step,
                                       nranks, part_fp);
          });
    stats = session.commStats();
    // Imbalance over compute seconds: stepping seconds include the halo
    // wait, in which every rank idles until the slowest one catches up.
    double sum = 0.0, worst = 0.0;
    for (Index r = 0; r < nranks; ++r) {
      const double compute = session.rankComputeSeconds(r);
      std::printf(
          "rank %d: %d OpenMP threads, %.3f s stepping (%.3f s compute, "
          "%.3f s halo wait)\n",
          static_cast<int>(r), session.rankThreads(r),
          session.rankStepSeconds(r), compute, session.rankWaitSeconds(r));
      sum += compute;
      worst = std::max(worst, compute);
    }
    std::printf("rank imbalance (max/mean compute): %.3f\n",
                sum > 0.0 ? worst * nranks / sum : 1.0);
  } else if (transport == "threads") {
    const grid::HexMesh mesh = grid::buildHexMesh(glevel);
    const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
    dycore::State initial =
        ckpt.restart.empty()
            ? dycore::initBaroclinicWave(mesh, cfg, ntracers)
            : core::loadDynRestart(ckpt.restart, mesh, cfg, ntracers,
                                   &step_base);
    if (!ckpt.restart.empty()) {
      std::printf("resuming from %s at step %ld\n", ckpt.restart.c_str(),
                  step_base);
    }
    core::ParallelModel model(mesh, trsk, cfg, nranks, initial);
    model.setWireLatency(wire_latency);
    const std::uint64_t part_fp =
        partition::Partitioner::fingerprint(model.decomposition().cell_part);
    drive([&](int n) { model.run(n); },
          [&](long step) {
            return core::captureDynRun(model.gatherState(), cfg, glevel, step,
                                       nranks, part_fp);
          });
    stats = model.commStats();
  } else {
    std::fprintf(stderr, "grist_run: unknown transport '%s' (threads|shm)\n",
                 transport.c_str());
    return 2;
  }
  const double wall = timer.elapsed();
  const double sdays = steps * cfg.dt / 86400.0;
  std::printf("done: %d steps (%.3f simulated days) in %.1f s wall (%.1f SDPD)\n",
              steps, sdays, wall, sdays / (wall / 86400.0));
  std::printf("comm: %lld messages, %.3f MB, %lld exchange rounds\n",
              static_cast<long long>(stats.messages), stats.bytes / 1.0e6,
              static_cast<long long>(stats.exchanges));
  return 0;
}

/// Solo (M = 1) and batched-ensemble runs: one EnsembleRunner, one step
/// loop and one checkpoint/restart path for every M. Bad input (namelist,
/// restart file) exits 2 before the first step.
int runModel(const grist::Config& config, int steps, int members,
             std::uint64_t perturb_seed, const CkptOpts& ckpt) {
  using namespace grist;
  std::unique_ptr<core::EnsembleBundle> bundle;
  int report = 0;
  std::string restart_out;
  try {
    bundle = core::makeEnsembleFromConfig(config, members, perturb_seed);
    report = std::max(1, config.getInt("report_interval", 12));
    restart_out = config.getString("restart_out", "");
    // --restart takes precedence over the namelist's restart_in; both accept
    // snapshot (v2) and legacy GRISTSW1 files through the same reader.
    const std::string restart_in =
        !ckpt.restart.empty() ? ckpt.restart
                              : config.getString("restart_in", "");
    if (!restart_in.empty()) {
      bundle->runner->restore(io::Snapshot::read(restart_in));
      std::printf("resumed from %s at sim day %.3f (step %ld)\n",
                  restart_in.c_str(), bundle->runner->simDays(),
                  bundle->runner->dynSteps());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grist_run: %s\n", e.what());
    return 2;
  }
  core::EnsembleRunner& runner = *bundle->runner;
  const grid::HexMesh& mesh = bundle->mesh;
  const core::ModelConfig& mc = runner.config().model;
  const int M = runner.members();
  std::printf("scheme %s, grid G%d (%d cells), %d steps",
              core::schemeLabel(mc.dyn.ns, mc.scheme), mesh.level, mesh.ncells,
              steps);
  if (M > 1) {
    std::printf(", %d members, seed %llu", M,
                static_cast<unsigned long long>(perturb_seed));
  }
  std::printf("\n");

  const double start_seconds = runner.simSeconds();
  Timer timer;
  for (int s = 0; s < steps; ++s) {
    runner.step();
    if (ckpt.every > 0 && ((s + 1) % ckpt.every == 0 || s + 1 == steps)) {
      const std::string path =
          io::writeCheckpoint(ckpt.dir, runner.snapshot(), runner.dynSteps());
      std::printf("checkpoint: step %ld -> %s\n", runner.dynSteps(),
                  path.c_str());
    }
    if ((s + 1) % report == 0) {
      // Member 0's KE and rain, plus the area-weighted surface-pressure
      // spread across members.
      double rain_max = 0;
      for (const double r : runner.meanPrecipRate(0)) rain_max = std::max(rain_max, r);
      std::printf("step %6d  sim day %8.3f  KE %.4e  max rain %7.2f mm/d", s + 1,
                  runner.simDays(),
                  dycore::totalKineticEnergy(mesh, runner.state(0)), rain_max);
      if (M > 1) std::printf("  spread %.4e Pa", runner.globalSpread());
      std::printf("\n");
    }
  }
  const double wall = timer.elapsed();
  const double days = (runner.simSeconds() - start_seconds) / 86400.0;
  std::printf(
      "done: %d member(s) x %.3f simulated days in %.1f s wall (%.1f %s on "
      "this host)\n",
      M, days, wall, M * days / (wall / 86400.0), M > 1 ? "member-SDPD" : "SDPD");

  if (!restart_out.empty()) {
    runner.snapshot().write(restart_out);
    std::printf("restart written to %s\n", restart_out.c_str());
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: grist_run <namelist> [steps] [--ranks N] "
               "[--transport threads|shm] [--pin] [--wire-latency S]\n"
               "                 [--checkpoint-every K --checkpoint-dir D] "
               "[--restart PATH]\n"
               "                 [--ensemble M] [--perturb-seed S]\n");
}

} // namespace

int main(int argc, char** argv) {
  using namespace grist;
  // Worker dispatch first: under --transport shm this binary is re-exec'd
  // as the rank worker processes.
  if (auto rc = core::mp::maybeRunWorker(argc, argv)) return *rc;

  Index ranks = 1;
  std::string transport = "threads";
  bool pin = false;
  double wire_latency = 0.0;
  CkptOpts ckpt;
  int ensemble = 0;                  // 0 = solo run
  std::uint64_t perturb_seed = 0;
  bool seed_given = false;
  std::vector<char*> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "grist_run: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--ranks") {
      ranks = parseArg(arg.c_str(), value(), Index{1},
                       std::numeric_limits<Index>::max(),
                       "a rank count >= 1");
    } else if (arg == "--transport") {
      transport = value();
    } else if (arg == "--pin") {
      pin = true;
    } else if (arg == "--wire-latency") {
      wire_latency = parseArg(arg.c_str(), value(), 0.0,
                              std::numeric_limits<double>::max(),
                              "finite seconds >= 0");
    } else if (arg == "--checkpoint-every") {
      ckpt.every = parseArg(arg.c_str(), value(), 1, kMaxInt,
                            "a step count >= 1");
    } else if (arg == "--checkpoint-dir") {
      ckpt.dir = value();
    } else if (arg == "--restart") {
      ckpt.restart = value();
    } else if (arg == "--ensemble") {
      ensemble = parseArg(arg.c_str(), value(), 1, kMaxInt,
                          "a member count >= 1");
    } else if (arg == "--perturb-seed") {
      perturb_seed = parseArg(arg.c_str(), value(), std::uint64_t{0},
                              std::numeric_limits<std::uint64_t>::max(),
                              "an unsigned 64-bit integer");
      seed_given = true;
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.empty()) {
    usage();
    return 2;
  }
  if (transport != "threads" && transport != "shm") {
    std::fprintf(stderr, "grist_run: unknown transport '%s' (threads|shm)\n",
                 transport.c_str());
    return 2;
  }
  if (ckpt.every > 0 && ckpt.dir.empty()) {
    std::fprintf(stderr,
                 "grist_run: --checkpoint-every needs --checkpoint-dir\n");
    return 2;
  }
  if (!ckpt.dir.empty() && ckpt.every == 0) {
    std::fprintf(stderr,
                 "grist_run: --checkpoint-dir needs --checkpoint-every\n");
    return 2;
  }
  if (!ckpt.restart.empty() && !fileExists(ckpt.restart)) {
    std::fprintf(stderr, "grist_run: restart file not found: %s\n",
                 ckpt.restart.c_str());
    return 2;
  }
  if (seed_given && ensemble == 0) {
    std::fprintf(stderr, "grist_run: --perturb-seed needs --ensemble\n");
    return 2;
  }
  if (ensemble > 0 && (ranks > 1 || transport == "shm")) {
    std::fprintf(stderr,
                 "grist_run: --ensemble runs single-rank (drop --ranks/"
                 "--transport shm)\n");
    return 2;
  }
  Config config;
  try {
    config = Config::fromFile(pos[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grist_run: %s\n", e.what());
    return 2;
  }
  // Configuration errors (malformed namelist numbers included) exit 2 in
  // every mode; a failure while stepping exits 1.
  try {
    const int steps =
        pos.size() > 1
            ? parseArg("steps", pos[1], 0, kMaxInt, "a step count >= 0")
            : config.getInt("steps", 48);
    if (ranks > 1 || transport == "shm") {
      return runMultiRank(config, steps, ranks, transport, pin, wire_latency,
                          ckpt);
    }
    return runModel(config, steps, std::max(1, ensemble), perturb_seed, ckpt);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "grist_run: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grist_run: %s\n", e.what());
    return 1;
  }
}
