// Kernel roofline calibration: the eight dycore/tracer kernels timed through
// the dispatch table the dycore uses (backend::simd::table()), on arrays
// shaped by a workload's mesh, nlev and NS mode, each with a bandwidth from
// byte counts computed from array sizes, against a STREAM-style triad run in
// the same process.
#pragma once

#include <cstdint>
#include <vector>

#include "grist/dycore/config.hpp"
#include "grist/dycore/state.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"

namespace perfbench {

struct KernelTiming {
  const char* name;
  double ms;     ///< median wall time per call
  double bytes;  ///< computed operand traffic per call
};

/// Times the eight kernels on copies of `state`'s fields. `tracer_dt` is the
/// tracer step length the flux limiter is called with.
std::vector<KernelTiming> timeKernels(const grist::grid::HexMesh& mesh,
                                      const grist::grid::TrskWeights& trsk,
                                      const grist::dycore::DycoreConfig& cfg,
                                      const grist::dycore::State& state,
                                      double tracer_dt);

struct TriadResult {
  double gbps;                   ///< best of the repetitions
  std::uint64_t array_bytes;     ///< each of the three arrays
  std::uint64_t llc_bytes;       ///< last-level cache sysfs reports
};

/// a[i] = b[i] + s * c[i] over OpenMP threads, each array at least four
/// times the last-level cache. Throws when the host lacks the memory.
TriadResult runTriad();

}  // namespace perfbench
