#include "common.hpp"

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "grist/backend/quant.hpp"
#include "grist/backend/simd.hpp"
#include "grist/dycore/diagnostics.hpp"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;
using grist::Index;

double now() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Spans

std::pair<double, long> Tracer::total(const char* name) const {
  double s = 0.0;
  long n = 0;
  for (const Span& sp : spans_) {
    if (std::strcmp(sp.name, name) == 0) {
      s += sp.t1 - sp.t0;
      ++n;
    }
  }
  return {s, n};
}

double Tracer::topLevelTotal() const {
  double s = 0.0;
  for (const Span& sp : spans_) {
    if (sp.parent < 0) s += sp.t1 - sp.t0;
  }
  return s;
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i ? "," : "", sp.name, sp.t0 * 1e6, (sp.t1 - sp.t0) * 1e6, i,
                  sp.parent);
    out << buf;
  }
  out << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Metrics

std::string Metrics::json() const {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const Metric& m = items_[i];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

// ---------------------------------------------------------------------------
// Output checks

namespace {

std::optional<std::string> nonFiniteIn(const grist::parallel::Field& f,
                                       const std::string& name,
                                       const char* entity) {
  const int ncomp = f.components();
  for (Index e = 0; e < f.entities(); ++e) {
    for (int k = 0; k < ncomp; ++k) {
      if (!std::isfinite(f(e, k))) {
        return name + " is " + std::to_string(f(e, k)) + " at " + entity +
               " " + std::to_string(e) + ", level " + std::to_string(k);
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> diffIn(const grist::parallel::Field& a,
                                  const grist::parallel::Field& b,
                                  const std::string& name) {
  if (a.entities() != b.entities() || a.components() != b.components()) {
    return name + " shapes differ";
  }
  const std::size_t n = a.size();
  if (std::memcmp(a.data(), b.data(), n * sizeof(double)) == 0) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(double)) != 0) {
      const std::size_t nc = static_cast<std::size_t>(a.components());
      char buf[160];
      std::snprintf(buf, sizeof(buf), " differs at entity %zu, level %zu: %.17g vs %.17g",
                    i / nc, i % nc, a.data()[i], b.data()[i]);
      return name + buf;
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> findNonFinite(const grist::dycore::State& s) {
  if (auto p = nonFiniteIn(s.delp, "delp", "cell")) return p;
  if (auto p = nonFiniteIn(s.theta, "theta", "cell")) return p;
  if (auto p = nonFiniteIn(s.w, "w", "cell")) return p;
  if (auto p = nonFiniteIn(s.phi, "phi", "cell")) return p;
  if (auto p = nonFiniteIn(s.u, "u", "edge")) return p;
  for (std::size_t t = 0; t < s.tracers.size(); ++t) {
    if (auto p = nonFiniteIn(s.tracers[t], "tracer " + std::to_string(t), "cell")) {
      return p;
    }
  }
  return std::nullopt;
}

std::optional<std::string> findNonFinite(const std::vector<double>& v,
                                         const char* name) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) {
      return std::string(name) + " is " + std::to_string(v[i]) + " at cell " +
             std::to_string(i);
    }
  }
  return std::nullopt;
}

std::optional<std::string> checkState(const grist::grid::HexMesh& mesh,
                                      const grist::dycore::State& s,
                                      double mass0) {
  if (auto p = findNonFinite(s)) return p;
  const double mass = grist::dycore::totalDryMass(mesh, s);
  const double drift = std::abs(mass - mass0) / mass0;
  if (!(drift <= kMassDriftBound)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "dry-mass drift %.3e exceeds %.1e", drift,
                  kMassDriftBound);
    return std::string(buf);
  }
  return std::nullopt;
}

std::optional<std::string> firstDifference(const grist::dycore::State& a,
                                           const grist::dycore::State& b) {
  if (auto d = diffIn(a.delp, b.delp, "delp")) return d;
  if (auto d = diffIn(a.theta, b.theta, "theta")) return d;
  if (auto d = diffIn(a.w, b.w, "w")) return d;
  if (auto d = diffIn(a.phi, b.phi, "phi")) return d;
  if (auto d = diffIn(a.u, b.u, "u")) return d;
  if (a.tracers.size() != b.tracers.size()) return "tracer counts differ";
  for (std::size_t t = 0; t < a.tracers.size(); ++t) {
    if (auto d = diffIn(a.tracers[t], b.tracers[t], "tracer " + std::to_string(t))) {
      return d;
    }
  }
  return std::nullopt;
}

std::optional<std::string> firstDifference(const std::vector<double>& a,
                                           const std::vector<double>& b,
                                           const char* name) {
  if (a.size() != b.size()) return std::string(name) + " sizes differ";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return std::string(name) + " differs at cell " + std::to_string(i);
    }
  }
  return std::nullopt;
}

std::optional<std::string> fileDifference(const std::string& a,
                                          const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa || !fb) return "cannot open " + (fa ? b : a);
  const std::string da((std::istreambuf_iterator<char>(fa)), {});
  const std::string db((std::istreambuf_iterator<char>(fb)), {});
  if (da.size() != db.size()) {
    return a + " and " + b + " differ in size (" + std::to_string(da.size()) +
           " vs " + std::to_string(db.size()) + " bytes)";
  }
  const auto mm = std::mismatch(da.begin(), da.end(), db.begin());
  if (mm.first == da.end()) return std::nullopt;
  return a + " and " + b + " differ at byte " +
         std::to_string(mm.first - da.begin());
}

// ---------------------------------------------------------------------------
// Host and process

double peakRssSelfMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double peakRssChildrenMb() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

std::string readFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::uint64_t parseCacheSize(const std::string& s) {
  // sysfs writes e.g. "48K", "2048K", "307200K".
  if (s.empty()) return 0;
  std::uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
  if (s.back() == 'K') v <<= 10;
  if (s.back() == 'M') v <<= 20;
  return v;
}

struct CacheInfo {
  int level;
  std::string type;
  std::uint64_t bytes;
};

std::vector<CacheInfo> caches() {
  std::vector<CacheInfo> out;
  for (int i = 0;; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    if (!fs::exists(dir)) break;
    out.push_back({std::atoi(readFirstLine(dir + "/level").c_str()),
                   readFirstLine(dir + "/type"),
                   parseCacheSize(readFirstLine(dir + "/size"))});
  }
  return out;
}

std::string jsonEscape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

}  // namespace

std::uint64_t lastLevelCacheBytes() {
  std::uint64_t best = 0;
  int best_level = 0;
  for (const CacheInfo& c : caches()) {
    if (c.type == "Instruction") continue;
    if (c.level > best_level || (c.level == best_level && c.bytes > best)) {
      best_level = c.level;
      best = c.bytes;
    }
  }
  return best;
}

std::uint64_t memAvailableBytes() {
  std::ifstream in("/proc/meminfo");
  std::string key;
  std::uint64_t kb = 0;
  std::string unit;
  while (in >> key >> kb >> unit) {
    if (key == "MemAvailable:") return kb << 10;
  }
  return 0;
}

std::string contextJson() {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        cpu = line.substr(line.find(':') + 2);
        break;
      }
    }
  }
  std::ostringstream o;
  o << "{\"cpu\": \"" << jsonEscape(cpu) << "\", \"nproc\": "
    << ::sysconf(_SC_NPROCESSORS_ONLN) << ", \"caches\": [";
  const std::vector<CacheInfo> cs = caches();
  for (std::size_t i = 0; i < cs.size(); ++i) {
    o << (i ? ", " : "") << "{\"level\": " << cs[i].level << ", \"type\": \""
      << cs[i].type << "\", \"bytes\": " << cs[i].bytes << "}";
  }
  o << "], \"compiler\": \"" << PERFBENCH_CXX_COMPILER
    << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"simd_tier\": \""
    << grist::backend::simd::tierName(grist::backend::simd::activeTier())
    << "\", \"simd_enabled\": "
    << (grist::backend::simd::enabled() ? "true" : "false")
    << ", \"quant_tier\": \"" << grist::backend::quant::table().name
    << "\", \"omp_max_threads\": " << omp_get_max_threads() << ", \"omp_env\": {";
  bool first = true;
  for (char** e = environ; *e; ++e) {
    const std::string kv = *e;
    if (kv.rfind("OMP_", 0) == 0 || kv.rfind("GOMP_", 0) == 0 ||
        kv.rfind("GRIST_", 0) == 0) {
      const std::size_t eq = kv.find('=');
      o << (first ? "" : ", ") << "\"" << jsonEscape(kv.substr(0, eq)) << "\": \""
        << jsonEscape(kv.substr(eq + 1)) << "\"";
      first = false;
    }
  }
  o << "}}";
  return o.str();
}

void resetDir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

}  // namespace perfbench
