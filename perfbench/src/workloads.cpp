#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "grist/common/config.hpp"
#include "grist/common/hash.hpp"
#include "grist/core/checkpoint.hpp"
#include "grist/core/factory.hpp"
#include "grist/core/mp_runner.hpp"
#include "grist/dycore/diagnostics.hpp"
#include "grist/dycore/init.hpp"
#include "grist/parallel/decompose.hpp"
#include "kernels.hpp"
#include "loops.hpp"

namespace perfbench {

using namespace grist;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Shared settings

constexpr int kInstances = 3;          ///< model instances per timed run
constexpr double kAmplitude = 1e-3;    ///< K, EnsembleRunner's default theta noise
constexpr int kSoloCkptEvery = 24;     ///< steps between solo checkpoints
constexpr int kEnsembleMembers = 8;
/// Steps from construction over which the untrained networks of the
/// ensemble are known to keep every member finite; within 375 steps some
/// seeds blow up. Windows stop inside it.
constexpr long kEnsembleStepEnvelope = 192;
constexpr int kFleetRanks = 4;

// Wall time of one window cycle on the reference host (4-CPU AVX-512 Xeon,
// Release, the driver's 2-thread team; the fleet's ranks keep the default
// team). They fix how many cycles a run steps for a given --seconds, so
// both sides of a comparison step exactly the same work.
constexpr double kSoloCycleSeconds = 1.7;       // 24 steps
constexpr double kEnsembleCycleSeconds = 7.6;   // 120 steps
constexpr double kFleetStepSeconds = 0.85;      // 1 step (see README)

const char* const kSolo = "solo-typhoon-g5";
const char* const kEnsemble = "ensemble-ml-g4-m8";
const char* const kFleet = "fleet-shm-g5-r4";

/// Perturbation seed for benchmark seed n. EnsembleRunner treats 0 as "no
/// perturbation", so seed n perturbs with n + 1 and every seed perturbs.
std::uint64_t perturbSeed(std::uint64_t seed) { return seed + 1; }

std::string typhoonNamelist(const Options& opt) {
  return opt.root + "/apps/namelists/typhoon_g5.nml";
}

/// Scratch directory of this run inside the checkout, removed at the end.
struct WorkDir {
  std::string path;
  explicit WorkDir(const Options& opt)
      : path(opt.root + "/.bench_work/" + opt.workload + "-" +
             std::to_string(::getpid())) {
    resetDir(path);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

void note(const char* fmt, const std::string& a, double b = 0.0) {
  std::fprintf(stderr, fmt, a.c_str(), b);
  std::fflush(stderr);
}

/// Counts one checked model instance; records its problem, if any.
void record(Result& r, const std::string& what,
            const std::optional<std::string>& problem) {
  ++r.attempted;
  if (problem) {
    ++r.failed;
    r.problems.push_back(what + ": " + *problem);
    note("perfbench: FAILED %s\n", r.problems.back());
  }
}

/// Runs `body` as one checked instance; an exception counts as a failure.
void attempt(Result& r, const std::string& what,
             const std::function<std::optional<std::string>()>& body) {
  std::optional<std::string> problem;
  try {
    problem = body();
  } catch (const std::exception& e) {
    problem = std::string("threw: ") + e.what();
  }
  record(r, what, problem);
}

/// A timed stretch of back-to-back steps.
struct Window {
  long steps = 0;
  double wall = 0.0;         ///< s, includes checkpoint writes
  double sim_seconds = 0.0;  ///< simulated time covered (per member)
  std::vector<double> step_ms;
};

/// Steps `model` `steps` times back to back. `after_step` runs after every
/// step (the checkpoint cadence) and is inside the window.
template <typename M, typename AfterStep>
Window stepWindow(M& model, long steps, double dt, AfterStep&& after_step) {
  Window w;
  w.step_ms.reserve(static_cast<std::size_t>(steps));
  const double t0 = now();
  for (long i = 0; i < steps; ++i) {
    const double s0 = now();
    model.step();
    w.step_ms.push_back((now() - s0) * 1e3);
    after_step();
  }
  w.wall = now() - t0;
  w.steps = steps;
  w.sim_seconds = static_cast<double>(steps) * dt;
  return w;
}

/// Steps in a window of `seconds` at the nominal cycle time: whole cycles,
/// at least one, and no more than `max_steps` when that is positive.
long windowSteps(double seconds, int cycle, double cycle_seconds, long max_steps = 0) {
  long cycles = std::max(1L, static_cast<long>(seconds / cycle_seconds));
  if (max_steps > 0) cycles = std::max(1L, std::min(cycles, max_steps / cycle));
  return cycles * cycle;
}

/// What the timed windows of a run add up to.
struct Totals {
  std::vector<double> setup_s, step_ms;
  std::vector<double> sdpd;  ///< per window, per member
  double wall = 0.0;
  long steps = 0;

  void add(const Window& w) {
    step_ms.insert(step_ms.end(), w.step_ms.begin(), w.step_ms.end());
    sdpd.push_back(w.sim_seconds / w.wall);
    wall += w.wall;
    steps += w.steps;
  }
};

/// The model instances of a run, one after another: kInstances in a timed
/// run, one in a traced run. Each is set up (timed into setup_s), stepped
/// through its window of --seconds / instances and checked; a throw or a
/// failed check counts it as failed. Returns the last instance.
template <typename Run, typename SetUp, typename Step, typename Check>
std::unique_ptr<Run> runInstances(Result& res, const Options& opt, Totals& t,
                                  SetUp&& set_up, Step&& window, Check&& check) {
  const int n = opt.trace ? 1 : kInstances;
  std::unique_ptr<Run> run;
  for (int i = 0; i < n; ++i) {
    run.reset();  // one instance alive at a time
    const std::string what = "instance " + std::to_string(i);
    const double t0 = now();
    try {
      run = set_up();
    } catch (const std::exception& e) {
      record(res, what, std::string("set-up threw: ") + e.what());
      continue;
    }
    t.setup_s.push_back(now() - t0);
    attempt(res, what, [&] {
      const Window w = window(*run, opt.seconds / n);
      t.add(w);
      note("perfbench: %s window %.3f s\n", opt.workload, w.wall);
      return check(*run);
    });
  }
  return run;
}

/// The end-to-end metrics of a timed run. sdpd is the median over the
/// instances' windows; `members` turns it into member-days.
void addEndToEnd(Result& r, const Totals& t, int members, double rss_mb) {
  r.metrics.add("sdpd", members * median(t.sdpd), "day/day");
  r.metrics.add("step_ms_p50", percentile(t.step_ms, 50.0), "ms");
  r.metrics.add("step_ms_p95", percentile(t.step_ms, 95.0), "ms");
  r.metrics.add("setup_s", median(t.setup_s), "s");
  r.metrics.add("peak_rss_mb", rss_mb, "MB");
  const double ok = r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) / r.attempted : 0.0;
  r.metrics.add("ok_frac", ok, "frac");
  r.samples_json = "{\"step_ms\": " + std::to_string(t.step_ms.size()) +
                   ", \"windows\": " + std::to_string(t.sdpd.size()) +
                   ", \"setup_s\": " + std::to_string(t.setup_s.size()) + "}";
}

// ---------------------------------------------------------------------------
// Per-layer metrics: one table, so every workload reports the same names.

const char* const kKernelNames[] = {
    "fused_edge_fluxes",       "fused_cell_diagnostics", "fused_vertex_diagnostics",
    "fused_scalar_tendencies", "fused_momentum_tendency", "compute_rrr",
    "vert_implicit_solver",    "tracer_hori_flux_limiter"};

std::vector<std::pair<std::string, std::string>> layerMetricDefs() {
  std::vector<std::pair<std::string, std::string>> d = {
      {"dycore.ms_per_step", "ms"},      {"dycore.share", "frac"},
      {"tracer.transport_ms", "ms"},     {"tracer.remap_ms", "ms"},
      {"tracer.share", "frac"},          {"coupler.to_physics_ms", "ms"},
      {"coupler.apply_ms", "ms"},        {"coupler.share", "frac"},
      {"physics.suite_ms", "ms"},        {"physics.share", "frac"},
      {"core.glue_ms_per_step", "ms"},   {"io.capture_ms", "ms"},
      {"io.write_ms", "ms"},             {"io.bytes_per_ckpt", "B"},
      {"io.read_ms", "ms"},              {"mp.spawn_s", "s"},
      {"mp.gather_ms", "ms"},            {"comm.messages_per_step", "count/step"},
      {"comm.bytes_per_step", "B/step"}, {"comm.rounds_per_step", "count/step"}};
  for (const char* k : kKernelNames) {
    const std::string p = std::string("kernel.") + k;
    d.push_back({p + ".ms", "ms"});
    d.push_back({p + ".gbps_computed", "GB/s"});
    d.push_back({p + ".triad_frac", "frac"});
  }
  d.push_back({"host.triad_gbps", "GB/s"});
  d.push_back({"trace.coverage", "frac"});
  d.push_back({"trace.overhead", "frac"});
  return d;
}

/// Emits every per-layer metric; a layer this workload does not exercise
/// (or cannot observe from outside its processes) reads 0.
void emitLayers(Result& r, const std::map<std::string, double>& v) {
  std::size_t found = 0;
  for (const auto& [name, unit] : layerMetricDefs()) {
    const auto it = v.find(name);
    found += it != v.end();
    r.metrics.add(name, it == v.end() ? 0.0 : it->second, unit);
  }
  if (found != v.size()) throw std::logic_error("a per-layer metric is missing from the table");
}

/// Layer times from a traced window of `steps` steps taking `wall` seconds.
void addSpanLayers(std::map<std::string, double>& v, const Tracer& tr,
                   double wall, long steps, long tracer_steps,
                   long physics_steps) {
  const auto ms = [&](const char* name) { return tr.total(name).first * 1e3; };
  const auto per = [](double x, long n) { return n > 0 ? x / static_cast<double>(n) : 0.0; };
  v["dycore.ms_per_step"] = per(ms("dycore"), steps);
  v["dycore.share"] = ms("dycore") / 1e3 / wall;
  v["tracer.transport_ms"] = per(ms("tracer.transport"), tracer_steps);
  v["tracer.remap_ms"] = per(ms("tracer.remap"), tracer_steps);
  v["tracer.share"] = (ms("tracer.transport") + ms("tracer.remap")) / 1e3 / wall;
  v["coupler.to_physics_ms"] = per(ms("coupler.to_physics"), physics_steps);
  v["coupler.apply_ms"] = per(ms("coupler.apply"), physics_steps);
  v["coupler.share"] = (ms("coupler.to_physics") + ms("coupler.apply")) / 1e3 / wall;
  v["physics.suite_ms"] = per(ms("physics.suite"), physics_steps);
  v["physics.share"] = ms("physics.suite") / 1e3 / wall;
  v["core.glue_ms_per_step"] = per(ms("core.glue"), steps);
  const long ckpts = tr.total("io.write").second;
  v["io.capture_ms"] = per(ms("io.capture"), ckpts);
  v["io.write_ms"] = per(ms("io.write"), ckpts);
  v["trace.coverage"] = tr.topLevelTotal() / wall;
}

/// Kernel roofline on the workload's final state, then the triad (three
/// arrays of 4x the last-level cache).
void addKernelLayers(std::map<std::string, double>& v, const grid::HexMesh& mesh,
                     const grid::TrskWeights& trsk,
                     const dycore::DycoreConfig& cfg, const dycore::State& state,
                     double tracer_dt, std::string& context) {
  const std::vector<KernelTiming> ks = timeKernels(mesh, trsk, cfg, state, tracer_dt);
  const TriadResult triad = runTriad();
  v["host.triad_gbps"] = triad.gbps;
  for (const KernelTiming& k : ks) {
    const std::string p = std::string("kernel.") + k.name;
    const double gbps = k.bytes / (k.ms * 1e-3) / 1e9;
    v[p + ".ms"] = k.ms;
    v[p + ".gbps_computed"] = gbps;
    v[p + ".triad_frac"] = gbps / triad.gbps;
  }
  context = "{\"triad_array_bytes\": " + std::to_string(triad.array_bytes) +
            ", \"llc_bytes\": " + std::to_string(triad.llc_bytes) +
            ", \"kernel_bytes\": \"computed from array sizes\"}";
}

std::string tracePath(const Options& opt) {
  const std::string dir = opt.root + "/.bench_work/traces";
  fs::create_directories(dir);
  return dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
}

std::optional<std::string> compareLandAndPrecip(const std::vector<double>& tskin_a,
                                                const std::vector<double>& tskin_b,
                                                const std::vector<double>& pr_a,
                                                const std::vector<double>& pr_b) {
  if (auto d = firstDifference(tskin_a, tskin_b, "tskin")) return d;
  return firstDifference(pr_a, pr_b, "precip");
}

std::optional<std::string> checkLandAndPrecip(const std::vector<double>& tskin,
                                              const std::vector<double>& precip) {
  if (auto p = findNonFinite(tskin, "tskin")) return p;
  return findNonFinite(precip, "precip");
}

// ---------------------------------------------------------------------------
// solo-typhoon-g5: core::Model from the shipped namelist, checkpointing.

struct SoloRun {
  std::unique_ptr<core::ModelBundle> bundle;
  dycore::State initial;  ///< perturbed state before the first step
  double mass0 = 0.0;
  std::string ckpt_dir;

  core::Model& model() { return *bundle->model; }
};

int warmUpSteps(const core::ModelConfig& mc) {
  // The shortest prefix in which every step kind (dynamics, tracer,
  // physics) has run once; lazy first-call costs land in set-up.
  return std::max(mc.trac_interval, mc.phy_interval);
}

std::unique_ptr<SoloRun> setUpSolo(const Config& nml, std::uint64_t seed,
                                   const std::string& dir) {
  auto r = std::make_unique<SoloRun>();
  r->bundle = core::makeModelFromConfig(nml);
  core::Model& m = r->model();
  core::EnsembleRunner::perturbState(
      m.state(), core::EnsembleRunner::memberSeed(perturbSeed(seed), 0), kAmplitude);
  r->initial = m.state();
  r->mass0 = dycore::totalDryMass(r->bundle->mesh, m.state());
  r->ckpt_dir = dir;
  resetDir(dir);
  for (int i = 0; i < warmUpSteps(m.config()); ++i) m.step();
  io::writeCheckpoint(dir, m.snapshot(), m.dynSteps());
  return r;
}

/// One cycle holds a whole number of every cadence: tracer, physics,
/// radiation (every radiation_interval physics steps) and checkpoint.
int soloCycle(const core::ModelConfig& mc) {
  const int rad = mc.phy_interval * mc.conventional.radiation_interval;
  return std::lcm(std::lcm(mc.trac_interval, mc.phy_interval),
                  std::lcm(rad, kSoloCkptEvery));
}

std::optional<std::string> checkSolo(SoloRun& run) {
  core::Model& m = run.model();
  if (auto p = checkState(run.bundle->mesh, m.state(), run.mass0)) return p;
  return checkLandAndPrecip(m.tskin(), m.accumulatedPrecip());
}

/// Production window on the Model, checkpointing on the cadence.
Window soloModelWindow(SoloRun& run, long steps) {
  core::Model& m = run.model();
  return stepWindow(m, steps, m.config().dyn.dt, [&] {
    if (m.dynSteps() % kSoloCkptEvery == 0) {
      io::writeCheckpoint(run.ckpt_dir, m.snapshot(), m.dynSteps());
    }
  });
}

/// The traced loop from `initial`: the same warm-up and checkpoint as
/// setUpSolo (untraced), then `steps` traced steps into `dir`.
Window soloLoopWindow(SoloLoop& loop, const core::ModelConfig& mc, long steps,
                      const std::string& dir, Tracer& tr) {
  resetDir(dir);
  for (int i = 0; i < warmUpSteps(mc); ++i) loop.step();
  io::writeCheckpoint(dir, loop.snapshot(), loop.dynSteps());
  tr.setEnabled(true);
  const Window w = stepWindow(loop, steps, mc.dyn.dt, [&] {
    if (loop.dynSteps() % kSoloCkptEvery != 0) return;
    io::Snapshot snap;
    tr.span("io.capture", [&] { snap = loop.snapshot(); });
    tr.span("io.write", [&] { io::writeCheckpoint(dir, snap, loop.dynSteps()); });
  });
  tr.setEnabled(false);
  return w;
}

/// First bitwise difference between the Model and the loop shadowing it:
/// prognostics, tracers, tskin, precipitation, then the newest checkpoint
/// file (which adds the clock and the accumulator windows).
std::optional<std::string> compareSolo(SoloRun& run, const SoloLoop& loop,
                                       const std::string& loop_dir) {
  core::Model& m = run.model();
  if (auto d = firstDifference(m.state(), loop.state())) return d;
  if (auto d = compareLandAndPrecip(m.tskin(), loop.tskin(), m.accumulatedPrecip(),
                                    loop.accumulatedPrecip())) {
    return d;
  }
  return fileDifference(io::latestCheckpoint(run.ckpt_dir),
                        io::latestCheckpoint(loop_dir));
}

Result runSolo(const Options& opt) {
  Result res;
  WorkDir work(opt);
  const Config nml = Config::fromFile(typhoonNamelist(opt));
  Totals prod;
  std::unique_ptr<SoloRun> run = runInstances<SoloRun>(
      res, opt, prod,
      [&] { return setUpSolo(nml, opt.seed, work.path + "/ckpt-model"); },
      [](SoloRun& r, double seconds) {
        const int cycle = soloCycle(r.model().config());
        return soloModelWindow(r, windowSteps(seconds, cycle, kSoloCycleSeconds));
      },
      checkSolo);
  if (!opt.trace) {
    addEndToEnd(res, prod, 1, peakRssSelfMb());
    return res;
  }
  if (!run) return res;
  const core::ModelConfig mc = run->model().config();

  // Traced run: the benchmark-owned loop over the same steps from the same
  // perturbed state, then a bitwise comparison with the Model it shadows.
  Tracer tr(false);
  const grid::HexMesh& mesh = run->bundle->mesh;
  SoloLoop loop(mesh, run->bundle->trsk, mc, run->initial, tr);
  const std::string loop_dir = work.path + "/ckpt-loop";
  const Window traced = soloLoopWindow(loop, mc, prod.steps, loop_dir, tr);
  tr.writeChromeTrace(tracePath(opt));
  if (auto diff = compareSolo(*run, loop, loop_dir)) {
    res.trace_void = true;
    res.problems.push_back("traced loop differs from core::Model: " + *diff);
    note("perfbench: TRACE VOID: %s\n", res.problems.back());
  }

  std::map<std::string, double> v;
  addSpanLayers(v, tr, traced.wall, traced.steps, traced.steps / mc.trac_interval,
                traced.steps / mc.phy_interval);
  v["io.bytes_per_ckpt"] = static_cast<double>(fs::file_size(io::latestCheckpoint(loop_dir)));
  v["trace.overhead"] = traced.wall / prod.wall - 1.0;

  std::string kctx;
  addKernelLayers(v, mesh, run->bundle->trsk, mc.dyn, loop.state(),
                  mc.trac_interval * mc.dyn.dt, kctx);
  res.samples_json = "{\"traced_steps\": " + std::to_string(traced.steps) +
                     ", \"spans\": " + std::to_string(tr.spans().size()) +
                     ", \"kernels\": " + kctx + "}";
  emitLayers(res, v);
  return res;
}

// ---------------------------------------------------------------------------
// ensemble-ml-g4-m8: EnsembleRunner, M = 8, DP-ML fp32, fused GEMMs.

struct EnsembleRun {
  grid::HexMesh mesh;
  grid::TrskWeights trsk;
  core::EnsembleConfig config;
  std::unique_ptr<core::EnsembleRunner> runner;
  std::vector<dycore::State> initial;  ///< perturbed members before step 1
  std::vector<double> mass0;
};

/// The bench_ensemble configuration: G4, nlev 20, DP, fp32 ML physics with
/// networks built in code (q1q2 channels 24 / res 2, rad hidden 48),
/// default cadences.
core::EnsembleConfig ensembleConfig(std::uint64_t seed) {
  core::EnsembleConfig ec;
  core::ModelConfig& mc = ec.model;
  mc.dyn.nlev = 20;
  mc.dyn.dt = 300.0;
  mc.dyn.ns = precision::NsMode::kDouble;
  mc.scheme = core::PhysicsScheme::kMl;
  ml::Q1Q2NetConfig qcfg;
  qcfg.nlev = mc.dyn.nlev;
  qcfg.channels = 24;
  qcfg.res_units = 2;
  mc.q1q2 = std::make_shared<ml::Q1Q2Net>(qcfg);
  ml::RadMlpConfig rcfg;
  rcfg.nlev = mc.dyn.nlev;
  rcfg.hidden = 48;
  mc.rad_mlp = std::make_shared<ml::RadMlp>(rcfg);
  ec.members = kEnsembleMembers;
  ec.perturb_seed = perturbSeed(seed);
  ec.perturb_amplitude = kAmplitude;
  ec.cross_member_gemm = true;
  return ec;
}

std::unique_ptr<EnsembleRun> setUpEnsemble(const Options& opt) {
  auto r = std::make_unique<EnsembleRun>();
  r->mesh = grid::buildHexMesh(4);
  r->trsk = grid::buildTrskWeights(r->mesh);
  r->config = ensembleConfig(opt.seed);
  const dycore::State initial = dycore::initBaroclinicWave(r->mesh, r->config.model.dyn, 3);
  r->runner = std::make_unique<core::EnsembleRunner>(r->mesh, r->trsk, r->config, initial);
  for (int m = 0; m < r->runner->members(); ++m) {
    r->initial.push_back(r->runner->state(m));
    r->mass0.push_back(dycore::totalDryMass(r->mesh, r->runner->state(m)));
  }
  for (int i = 0; i < warmUpSteps(r->config.model); ++i) r->runner->step();
  return r;
}

std::optional<std::string> checkEnsemble(const EnsembleRun& run) {
  for (int m = 0; m < run.runner->members(); ++m) {
    const std::string who = "member " + std::to_string(m) + ": ";
    if (auto p = checkState(run.mesh, run.runner->state(m), run.mass0[static_cast<std::size_t>(m)])) {
      return who + *p;
    }
    if (auto p = checkLandAndPrecip(run.runner->tskin(m), run.runner->accumulatedPrecip(m))) {
      return who + *p;
    }
  }
  return std::nullopt;
}

Result runEnsemble(const Options& opt) {
  Result res;
  Totals prod;
  std::unique_ptr<EnsembleRun> run = runInstances<EnsembleRun>(
      res, opt, prod, [&] { return setUpEnsemble(opt); },
      [](EnsembleRun& r, double seconds) {
        const core::ModelConfig& mc = r.config.model;
        const long steps =
            windowSteps(seconds, std::lcm(mc.trac_interval, mc.phy_interval),
                        kEnsembleCycleSeconds, kEnsembleStepEnvelope - warmUpSteps(mc));
        return stepWindow(*r.runner, steps, mc.dyn.dt, [] {});
      },
      checkEnsemble);
  if (!opt.trace) {
    addEndToEnd(res, prod, kEnsembleMembers, peakRssSelfMb());
    return res;
  }
  if (!run) return res;
  core::EnsembleRunner& runner = *run->runner;
  const core::ModelConfig& mc = run->config.model;
  const int members = runner.members();

  Tracer tr(false);
  EnsembleLoop loop(run->mesh, run->trsk, run->config, run->initial, tr);
  for (int i = 0; i < warmUpSteps(mc); ++i) loop.step();
  tr.setEnabled(true);
  const Window traced = stepWindow(loop, prod.steps, mc.dyn.dt, [] {});
  tr.setEnabled(false);
  tr.writeChromeTrace(tracePath(opt));

  for (int m = 0; m < members; ++m) {
    std::optional<std::string> diff = firstDifference(runner.state(m), loop.state(m));
    if (!diff) {
      diff = compareLandAndPrecip(runner.tskin(m), loop.tskin(m), runner.accumulatedPrecip(m),
                                  loop.accumulatedPrecip(m));
    }
    if (diff) {
      res.trace_void = true;
      res.problems.push_back("traced loop differs from core::EnsembleRunner, member " +
                             std::to_string(m) + ": " + *diff);
      note("perfbench: TRACE VOID: %s\n", res.problems.back());
      break;
    }
  }

  std::map<std::string, double> v;
  addSpanLayers(v, tr, traced.wall, traced.steps, traced.steps / mc.trac_interval,
                traced.steps / mc.phy_interval);
  v["trace.overhead"] = traced.wall / prod.wall - 1.0;
  std::string kctx;
  addKernelLayers(v, run->mesh, run->trsk, mc.dyn, loop.state(0),
                  mc.trac_interval * mc.dyn.dt, kctx);
  res.samples_json = "{\"traced_steps\": " + std::to_string(traced.steps) +
                     ", \"spans\": " + std::to_string(tr.spans().size()) +
                     ", \"kernels\": " + kctx + "}";
  emitLayers(res, v);
  return res;
}

// ---------------------------------------------------------------------------
// fleet-shm-g5-r4: MpSession, 4 rank processes over shm, dynamics only.

struct FleetSpec {
  int grid_level;
  dycore::DycoreConfig cfg;
};

/// What `grist_run typhoon_g5.nml --ranks 4 --transport shm` runs: the
/// namelist's grid, levels, dt and NS mode; everything else at the
/// DycoreConfig defaults; one tracer.
FleetSpec fleetSpec(const Options& opt) {
  const Config nml = Config::fromFile(typhoonNamelist(opt));
  FleetSpec f;
  f.grid_level = nml.getInt("grid_level", 4);
  f.cfg.nlev = nml.getInt("nlev", 20);
  f.cfg.dt = nml.getDouble("dt_dyn", 300.0);
  f.cfg.ns = nml.getString("scheme", "DP-PHY").rfind("MIX", 0) == 0
                 ? precision::NsMode::kSingle
                 : precision::NsMode::kDouble;
  f.cfg.ntracers = 1;
  return f;
}

struct FleetRun {
  std::unique_ptr<core::mp::MpSession> session;
  std::string input;
  double mass0 = 0.0;
};

/// Writes the seed-perturbed typhoon snapshot, spawns the fleet on it and
/// steps one warm-up step. `tr` records the spawn.
std::unique_ptr<FleetRun> setUpFleet(const Options& opt, const FleetSpec& f,
                                     const std::string& dir, Tracer& tr) {
  auto r = std::make_unique<FleetRun>();
  {
    const grid::HexMesh mesh = grid::buildHexMesh(f.grid_level);
    dycore::State s = dycore::initTyphoon(mesh, f.cfg, {}, f.cfg.ntracers);
    core::EnsembleRunner::perturbState(
        s, core::EnsembleRunner::memberSeed(perturbSeed(opt.seed), 0), kAmplitude);
    r->mass0 = dycore::totalDryMass(mesh, s);
    r->input = dir + "/fleet-input.grist";
    core::captureDynRun(s, f.cfg, f.grid_level, 0, 1, 0).write(r->input);
  }
  core::mp::RunSpec spec;
  spec.grid_level = f.grid_level;
  spec.nlev = f.cfg.nlev;
  spec.dt = f.cfg.dt;
  spec.ns = f.cfg.ns;
  spec.ntracers = f.cfg.ntracers;
  spec.nranks = kFleetRanks;
  spec.restart = r->input;
  tr.span("mp.spawn", [&] {
    r->session = std::make_unique<core::mp::MpSession>(spec);
    r->session->run(0);  // acked once every rank has read its slice and come up
  });
  r->session->run(1);  // warm-up: every step of the fleet is the same kind
  return r;
}

/// The gathered state's per-rank FNV-1a hashes, recomputed here in
/// RankProcessModel::ownedHash order, must equal the ranks' own.
std::optional<std::string> checkRankHashes(core::mp::MpSession& session,
                                           const dycore::State& g) {
  const parallel::Decomposition d =
      parallel::decompose(session.mesh(), session.nranks(), /*halo_depth=*/2);
  const std::size_t lev = static_cast<std::size_t>(g.nlev);
  for (Index r = 0; r < session.nranks(); ++r) {
    const parallel::LocalDomain& dom = d.domains[static_cast<std::size_t>(r)];
    std::uint64_t h = 14695981039346656037ull;
    for (Index lc = 0; lc < dom.ncells_owned; ++lc) {
      const Index c = dom.cell_global[static_cast<std::size_t>(lc)];
      h = common::fnv1a(&g.delp(c, 0), lev * sizeof(double), h);
      h = common::fnv1a(&g.theta(c, 0), lev * sizeof(double), h);
      h = common::fnv1a(&g.w(c, 0), (lev + 1) * sizeof(double), h);
      h = common::fnv1a(&g.phi(c, 0), (lev + 1) * sizeof(double), h);
    }
    for (Index le = 0; le < dom.nedges_owned; ++le) {
      const Index e = dom.edge_global[static_cast<std::size_t>(le)];
      h = common::fnv1a(&g.u(e, 0), lev * sizeof(double), h);
    }
    for (const auto& tr : g.tracers) {
      for (Index lc = 0; lc < dom.ncells_owned; ++lc) {
        h = common::fnv1a(&tr(dom.cell_global[static_cast<std::size_t>(lc)], 0),
                          lev * sizeof(double), h);
      }
    }
    if (h != session.rankHash(r)) {
      return "rank " + std::to_string(r) + " hash of the gathered state differs from the rank's own";
    }
  }
  return std::nullopt;
}

std::optional<std::string> checkFleet(FleetRun& run, const dycore::State& g) {
  if (auto p = checkState(run.session->mesh(), g, run.mass0)) return p;
  return checkRankHashes(*run.session, g);
}

/// `steps` run(1) calls, each one "mp.run" span on `tr`.
Window fleetWindow(core::mp::MpSession& s, long steps, double dt, Tracer& tr) {
  Window w;
  const double t0 = now();
  for (long i = 0; i < steps; ++i) {
    const double s0 = now();
    tr.span("mp.run", [&] { s.run(1); });
    w.step_ms.push_back((now() - s0) * 1e3);
  }
  w.wall = now() - t0;
  w.steps = steps;
  w.sim_seconds = static_cast<double>(steps) * dt;
  return w;
}

Result runFleet(const Options& opt) {
  Result res;
  WorkDir work(opt);
  const FleetSpec f = fleetSpec(opt);
  Tracer tr(opt.trace);  // records the spawn during set-up
  Tracer untraced(false);
  Totals prod;
  parallel::CommStats before{}, after{};
  std::unique_ptr<FleetRun> run = runInstances<FleetRun>(
      res, opt, prod, [&] { return setUpFleet(opt, f, work.path, tr); },
      [&](FleetRun& r, double seconds) {
        if (opt.trace) before = r.session->commStats();
        const Window w = fleetWindow(*r.session, windowSteps(seconds, 1, kFleetStepSeconds),
                                     f.cfg.dt, untraced);
        if (opt.trace) after = r.session->commStats();
        return w;
      },
      [](FleetRun& r) { return checkFleet(r, r.session->gather()); });
  if (!opt.trace) {
    run.reset();  // reaps the ranks, so their peak RSS is visible
    addEndToEnd(res, prod, 1, peakRssChildrenMb());
    return res;
  }
  if (!run) return res;
  core::mp::MpSession& session = *run->session;

  // Traced: the same number of steps again on the same fleet, with spans
  // around the run() calls and the gather, plus the outside-only layers.
  std::map<std::string, double> v;
  const auto spawn = tr.total("mp.spawn");
  v["mp.spawn_s"] = spawn.first;
  tr.span("io.read", [&] {
    const io::Snapshot snap = io::Snapshot::read(run->input);
    core::validateDynSnapshot(snap, f.cfg, f.grid_level, session.mesh().ncells,
                              session.mesh().nedges, f.cfg.ntracers);
  });
  v["io.read_ms"] = tr.total("io.read").first * 1e3;
  v["io.bytes_per_ckpt"] = static_cast<double>(fs::file_size(run->input));
  const double span_base = tr.topLevelTotal();

  const double t0 = now();
  const Window traced = fleetWindow(session, prod.steps, f.cfg.dt, tr);
  dycore::State g;
  tr.span("mp.gather", [&] { g = session.gather(); });
  const double traced_wall = now() - t0;
  tr.setEnabled(false);
  tr.writeChromeTrace(tracePath(opt));
  attempt(res, "traced window", [&] { return checkFleet(*run, g); });

  const double steps = static_cast<double>(prod.steps);
  v["mp.gather_ms"] = tr.total("mp.gather").first * 1e3;
  v["comm.messages_per_step"] = static_cast<double>(after.messages - before.messages) / steps;
  v["comm.bytes_per_step"] = static_cast<double>(after.bytes - before.bytes) / steps;
  v["comm.rounds_per_step"] = static_cast<double>(after.exchanges - before.exchanges) / steps;
  v["trace.coverage"] = (tr.topLevelTotal() - span_base) / traced_wall;
  v["trace.overhead"] = traced.wall / prod.wall - 1.0;

  const grid::HexMesh mesh = session.mesh();
  const grid::TrskWeights trsk = grid::buildTrskWeights(mesh);
  run.reset();
  std::string kctx;
  addKernelLayers(v, mesh, trsk, f.cfg, g, f.cfg.dt, kctx);
  res.samples_json = "{\"traced_steps\": " + std::to_string(traced.steps) +
                     ", \"kernels\": " + kctx + "}";
  emitLayers(res, v);
  return res;
}

// ---------------------------------------------------------------------------
// Self-test

/// A small solo configuration (G3, nlev 8) with the typhoon namelist's
/// scheme and cadences, so the self-test runs in seconds.
Config smallSoloNamelist() {
  return Config::fromString(
      "grid_level = 3\nnlev = 8\ndt_dyn = 480.0\ntrac_interval = 4\n"
      "phy_interval = 4\nscheme = MIX-PHY\ncase = typhoon\n");
}

bool expect(bool ok, const char* what) {
  std::fprintf(stderr, "perfbench self-test: %s %s\n", ok ? "ok  " : "FAIL", what);
  return ok;
}

}  // namespace

int selfTest(const std::string& root) {
  Options opt;
  opt.root = root;
  opt.workload = "selftest";
  WorkDir work(opt);
  const Config nml = smallSoloNamelist();
  bool ok = true;

  // 1. One injected NaN fails the output check, and a clean state passes.
  {
    std::unique_ptr<SoloRun> run = setUpSolo(nml, 7, work.path + "/nan");
    Result clean;
    attempt(clean, "clean", [&] { return checkSolo(*run); });
    ok &= expect(clean.correct(), "a clean run passes the output check");
    run->model().state().theta(5, 3) = std::numeric_limits<double>::quiet_NaN();
    Result bad;
    attempt(bad, "nan", [&] { return checkSolo(*run); });
    ok &= expect(bad.failed == 1 && !bad.correct() &&
                     bad.problems.at(0).find("theta") != std::string::npos,
                 "one injected NaN is reported as a failed run, naming the field");
  }

  // 2. The traced loop matches core::Model bitwise, and a loop started one
  //    ULP away from the Model's state is rejected.
  for (const bool diverge : {false, true}) {
    std::unique_ptr<SoloRun> run = setUpSolo(nml, 7, work.path + "/model");
    const core::ModelConfig mc = run->model().config();
    const long steps = 2 * soloCycle(mc);
    soloModelWindow(*run, steps);
    dycore::State initial = run->initial;
    if (diverge) initial.theta(11, 2) = std::nextafter(initial.theta(11, 2), 1e9);
    Tracer tr(false);
    SoloLoop loop(run->bundle->mesh, run->bundle->trsk, mc, initial, tr);
    soloLoopWindow(loop, mc, steps, work.path + "/loop", tr);
    const std::optional<std::string> diff = compareSolo(*run, loop, work.path + "/loop");
    ok &= diverge ? expect(diff.has_value(), "a traced loop that diverges from core::Model is rejected")
                  : expect(!diff.has_value(), "the traced loop is bitwise equal to core::Model");
  }
  return ok ? 0 : 1;
}

Result runWorkload(const Options& opt) {
  if (opt.workload == kSolo) return runSolo(opt);
  if (opt.workload == kEnsemble) return runEnsemble(opt);
  if (opt.workload == kFleet) return runFleet(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

}  // namespace perfbench
