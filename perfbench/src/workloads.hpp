// The benchmark's three closed-loop workloads, each in a timed mode (the
// end-to-end metrics) and a traced mode (the per-layer metrics).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;  ///< checkout root: namelists are read, scratch written here
};

struct Result {
  int attempted = 0;  ///< model instances whose output was checked
  int failed = 0;     ///< of those, the ones that threw or failed a check
  bool trace_void = false;  ///< traced loop differed from the production driver
  Metrics metrics;
  std::vector<std::string> problems;
  std::string samples_json = "{}";  ///< sample counts behind the metrics

  bool correct() const { return failed == 0 && !trace_void && attempted > 0; }
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
Result runWorkload(const Options& opt);

/// The benchmark's own tests: an injected NaN fails the output check, and a
/// traced loop that diverges from its production driver is rejected.
/// Returns 0 when both hold.
int selfTest(const std::string& root);

}  // namespace perfbench
