// perfbench_driver: one run of one workload of the whole-run benchmark.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1 --root DIR
//   perfbench_driver --self-test --root DIR
//
// Prints one JSON object as the last line of stdout: correct, attempted,
// failed, metrics (end-to-end with --trace 0, per-layer with --trace 1),
// problems, samples and the host/build context. perfbench/run.py builds
// this binary and is the benchmark's entry point.
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "grist/core/mp_runner.hpp"
#include "workloads.hpp"

namespace {

/// OpenMP team of this process, which steps the solo and ensemble models.
/// A team as wide as the machine stalls at every barrier whenever anything
/// else on a shared host takes one of its CPUs: one busy neighbour made a
/// solo window 8x slower with 4 threads on 4 CPUs, and left it within 3%
/// with 2. The fleet's rank processes are exec'd afresh and keep the
/// default team.
constexpr int kDriverThreads = 2;

std::string jsonString(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return o + "\"";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 --root DIR\n"
               "       perfbench_driver --self-test --root DIR\n",
               why);
  return 2;
}

bool parseUnsigned(const char* s, unsigned long long& out) {
  char* end = nullptr;
  if (*s == '\0' || *s == '-') return false;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  // MpSession re-executes this binary as its rank workers.
  if (auto rc = grist::core::mp::maybeRunWorker(argc, argv)) return *rc;

  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench_driver: built as '%s'; results are recorded only "
                 "from a Release build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  omp_set_num_threads(std::min(kDriverThreads, omp_get_num_procs()));

  perfbench::Options opt;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    unsigned long long n = 0;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      if (!parseUnsigned(v, n)) return usage("--seed needs a non-negative integer");
      opt.seed = n;
    } else if (a == "--seconds") {
      if (!parseUnsigned(v, n) || n == 0) return usage("--seconds needs a positive integer");
      opt.seconds = static_cast<double>(n);
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage("--trace needs 0 or 1");
      }
      opt.trace = v[0] == '1';
    } else if (a == "--root") {
      opt.root = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.root.empty()) return usage("--root is required");
  if (self_test) return perfbench::selfTest(opt.root);
  if (!have_workload) return usage("--workload is required");

  perfbench::Result r;
  try {
    r = perfbench::runWorkload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  std::string problems = "[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    problems += (i ? ", " : "") + jsonString(r.problems[i]);
  }
  problems += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s, "
      "\"problems\": %s, \"samples\": %s, \"context\": %s}\n",
      r.correct() ? "true" : "false", r.attempted, r.failed, r.metrics.json().c_str(),
      problems.c_str(), r.samples_json.c_str(), perfbench::contextJson().c_str());
  return 0;
}
