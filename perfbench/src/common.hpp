// Shared pieces of the whole-run benchmark driver: the span recorder the
// traced runs use, the metric list every run reports, order statistics,
// output checks, and the host/build context printed with every result.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "grist/dycore/state.hpp"
#include "grist/grid/hex_mesh.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the first call in this process (steady clock).
double now();

// ---------------------------------------------------------------------------
// Spans

/// One recorded call into a layer: name, start, end and the enclosing span
/// (-1 for top level). Names are string literals, so recording allocates
/// nothing beyond the reserved vector.
struct Span {
  const char* name;
  double t0, t1;
  int parent;
};

/// In-memory span recorder. Disabled recorders do nothing, so the same loop
/// code runs untraced and traced.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  void setEnabled(bool on) { enabled_ = on; }

  /// Run f() inside a span named `name`.
  template <typename F>
  void span(const char* name, F&& f) {
    if (!enabled_) {
      f();
      return;
    }
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0.0, parent_});
    const int saved = parent_;
    parent_ = id;
    f();
    parent_ = saved;
    spans_[static_cast<std::size_t>(id)].t1 = now();
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration (s) and call count of the spans named `name`.
  std::pair<double, long> total(const char* name) const;
  /// Summed duration (s) of the top-level spans (the layer calls).
  double topLevelTotal() const;
  /// Chrome trace-event JSON of every span (load in chrome://tracing).
  void writeChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  int parent_ = -1;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  /// {"name": {"value": v, "unit": u}, ...} with every digit of v.
  std::string json() const;

 private:
  std::vector<Metric> items_;
};

/// Linear-interpolated percentile (q in [0, 100]) of `v`.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// ---------------------------------------------------------------------------
// Output checks

/// Names the first non-finite prognostic or tracer value (field, cell or
/// edge, level), or nullopt when every value is finite.
std::optional<std::string> findNonFinite(const grist::dycore::State& s);
std::optional<std::string> findNonFinite(const std::vector<double>& v,
                                         const char* name);

/// Relative dry-mass drift bound. The dycore, vertical remap and physics
/// coupling conserve dry mass to rounding: a run's windows drift ~1e-15 in
/// DP and ~1e-12 under MIX, so 1e-9 leaves room for longer windows and
/// still flags a real mass leak.
inline constexpr double kMassDriftBound = 1e-9;

/// Checks one model state: finite everywhere and dry mass within
/// kMassDriftBound of `mass0`. Returns the problem, or nullopt.
std::optional<std::string> checkState(const grist::grid::HexMesh& mesh,
                                      const grist::dycore::State& s,
                                      double mass0);

/// First difference between two states, bit for bit, or nullopt.
std::optional<std::string> firstDifference(const grist::dycore::State& a,
                                           const grist::dycore::State& b);
std::optional<std::string> firstDifference(const std::vector<double>& a,
                                           const std::vector<double>& b,
                                           const char* name);
/// First differing byte of two files, or nullopt when they are identical.
std::optional<std::string> fileDifference(const std::string& a,
                                          const std::string& b);

// ---------------------------------------------------------------------------
// Host and process

/// Peak resident set of this process, MB.
double peakRssSelfMb();
/// Largest peak resident set among this process's reaped children, MB.
double peakRssChildrenMb();
/// Size in bytes of the highest-level data/unified cache sysfs reports.
std::uint64_t lastLevelCacheBytes();
std::uint64_t memAvailableBytes();

/// Host and build context as a JSON object (CPU, nproc, caches, compiler,
/// build type, selected SIMD and quant tiers, OpenMP environment).
std::string contextJson();

/// Recreate `dir` (and its parents) empty.
void resetDir(const std::string& dir);

}  // namespace perfbench
