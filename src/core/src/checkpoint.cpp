#include "grist/core/checkpoint.hpp"

#include <stdexcept>
#include <string>

namespace grist::core {

io::ConfigSection dynConfigSection(const dycore::DycoreConfig& cfg,
                                   int grid_level, int ntracers, Index nranks,
                                   std::uint64_t partition_fingerprint) {
  io::ConfigSection cs;
  cs.grid_level = grid_level;
  cs.writer_nranks = static_cast<std::int32_t>(nranks);
  cs.nlev = cfg.nlev;
  cs.ntracers = ntracers;
  cs.trac_interval = 0;  // dynamics-only: no cadences
  cs.phy_interval = 0;
  cs.dt = cfg.dt;
  cs.ns_single = cfg.ns == precision::NsMode::kSingle ? 1 : 0;
  cs.partition_fingerprint = partition_fingerprint;
  return cs;
}

void configMismatch(const char* field, double have, double want) {
  throw std::runtime_error("restart: CONFIG mismatch: " + std::string(field) +
                           " " + std::to_string(have) + " (checkpoint) vs " +
                           std::to_string(want) + " (run)");
}

void validateDynSnapshot(const io::Snapshot& snap,
                         const dycore::DycoreConfig& cfg, int grid_level,
                         Index ncells, Index nedges, int ntracers) {
  if (!snap.state) {
    throw std::runtime_error("restart: snapshot has no STATE section");
  }
  if (snap.config) {
    const io::ConfigSection& cs = *snap.config;
    if (cs.grid_level >= 0 && cs.grid_level != grid_level) {
      configMismatch("grid_level", cs.grid_level, grid_level);
    }
    if (cs.nlev != cfg.nlev) configMismatch("nlev", cs.nlev, cfg.nlev);
    if (cs.ntracers != ntracers) configMismatch("ntracers", cs.ntracers, ntracers);
    if (cs.dt != cfg.dt) configMismatch("dt", cs.dt, cfg.dt);
    const std::uint8_t ns = cfg.ns == precision::NsMode::kSingle ? 1 : 0;
    if (cs.ns_single != ns) configMismatch("ns_single", cs.ns_single, ns);
  }
  const io::StateSection& s = *snap.state;
  if (s.ncells != ncells) configMismatch("ncells", static_cast<double>(s.ncells), ncells);
  if (s.nedges != nedges) configMismatch("nedges", static_cast<double>(s.nedges), nedges);
  if (s.nlev != cfg.nlev) configMismatch("nlev", s.nlev, cfg.nlev);
  if (s.ntracers != ntracers) configMismatch("ntracers", s.ntracers, ntracers);
}

io::Snapshot captureDynRun(const dycore::State& global,
                           const dycore::DycoreConfig& cfg, int grid_level,
                           long steps_done, Index nranks,
                           std::uint64_t partition_fingerprint) {
  io::Snapshot snap;
  snap.state = io::StateSection::capture(global);
  io::ClockSection clock;
  clock.sim_seconds = static_cast<double>(steps_done) * cfg.dt;
  clock.dyn_steps = steps_done;
  snap.clock = clock;
  snap.config = dynConfigSection(cfg, grid_level,
                                 static_cast<int>(global.tracers.size()),
                                 nranks, partition_fingerprint);
  return snap;
}

dycore::State loadDynRestart(const std::string& path,
                             const grid::HexMesh& mesh,
                             const dycore::DycoreConfig& cfg, int ntracers,
                             long* steps_done) {
  const io::Snapshot snap = io::Snapshot::read(path);
  validateDynSnapshot(snap, cfg, mesh.level, mesh.ncells, mesh.nedges,
                      ntracers);
  if (steps_done) {
    *steps_done = snap.clock && snap.clock->dyn_steps >= 0
                      ? static_cast<long>(snap.clock->dyn_steps)
                      : 0;
  }
  return snap.state->toState(mesh);
}

} // namespace grist::core
