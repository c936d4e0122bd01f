// Fork/exec launcher for one-OS-process-per-rank runs over the shm
// transport.
//
// Children are fork+exec'd from /proc/self/exe rather than plain-forked:
// the parent typically has live OpenMP teams (libgomp is not fork-safe),
// so each rank gets a fresh address space and re-enters the same binary in
// a worker argv mode (the binary dispatches on its own argv early in main).
// CPU share: a fleet launched from this process splits the CPUs of its
// sched_getaffinity mask (a taskset/cgroup cpuset narrows it) evenly, the
// way each MPI rank of the paper's runs owns its core group's CPEs and no
// rank competes for another's cores. Rank r's OpenMP team is sized to its
// share (capped by omp_get_max_threads(), so OMP_NUM_THREADS can still
// lower it); with pinning, rank r is also bound to its own disjoint block
// of the allowed CPUs. The mask is built before fork and applied in the
// child between fork and exec -- the affinity mask survives exec.
//
// waitRanks() implements whole-run teardown: the first rank that exits
// nonzero (or dies on a signal) gets its exit code propagated, the
// remaining ranks are SIGTERMed, and survivors past a grace window are
// SIGKILLed -- a crashed rank can never leave the run wedged on a futex.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <functional>
#include <string>
#include <vector>

#include "grist/common/types.hpp"

namespace grist::parallel {

/// Unique /dev/shm-safe segment name for one multi-process run
/// ("/grist-mp-<pid>-<nonce>"). Uniqueness per live parent is what matters;
/// a name leaked by a killed run is reclaimed by ShmRegion::create.
std::string makeSegmentName();

/// How `nranks` ranks launched from the calling thread share its CPUs.
struct CpuShare {
  Index nranks = 1;
  std::vector<int> cpus;  ///< the caller's allowed CPUs, ascending
  int share = 1;          ///< CPUs per rank: max(1, cpus.size() / nranks)
  int threads = 1;        ///< OpenMP team per rank: min(share, omp_get_max_threads())

  /// Rank r's CPUs: `share` consecutive allowed CPUs starting at index
  /// r * share, wrapping mod cpus.size(). Blocks are pairwise disjoint when
  /// nranks <= cpus.size(); beyond that, ranks share CPUs round-robin.
  cpu_set_t block(Index rank) const;
};

/// The CPU share of `nranks` ranks, from the calling thread's
/// sched_getaffinity mask and omp_get_max_threads().
CpuShare cpuShare(Index nranks);

/// Fork+exec `cpus.nranks` copies of this binary. `argv_for(rank)`
/// supplies the FULL argv (argv[0] included) for that rank's process;
/// `pin` binds rank r to cpus.block(r) before exec. Returns the child pids
/// in rank order. Throws (after killing already-spawned children) if a
/// fork fails.
std::vector<pid_t> spawnRanks(const CpuShare& cpus, bool pin,
                              const std::function<std::vector<std::string>(Index)>& argv_for);

/// spawnRanks(cpuShare(nranks), pin, argv_for).
std::vector<pid_t> spawnRanks(Index nranks, bool pin,
                              const std::function<std::vector<std::string>(Index)>& argv_for);

/// Reap every child; on the first nonzero exit (or signal death, reported
/// as 128+signo) SIGTERM the rest, SIGKILL whatever survives `kill_grace_s`
/// seconds, and return the first failure code. Returns 0 when all ranks
/// exit cleanly.
int waitRanks(const std::vector<pid_t>& pids, double kill_grace_s = 5.0);

} // namespace grist::parallel
