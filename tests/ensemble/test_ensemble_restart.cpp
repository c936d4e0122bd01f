// Ensemble checkpoint/restart gates (ctest labels ENSEMBLE and RESTART):
// EnsembleRunner::snapshot()/restore() carry every member, so an M-member
// run stopped mid tracer window and mid physics window resumes bitwise; a
// file restores only into a runner with its member count; and a one-member
// file keeps the section layout solo checkpoints have always had.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "grist/core/ensemble_runner.hpp"
#include "grist/core/model.hpp"
#include "grist/dycore/init.hpp"
#include "grist/grid/hex_mesh.hpp"
#include "grist/grid/trsk.hpp"
#include "grist/io/snapshot.hpp"

namespace grist::core {
namespace {

namespace fs = std::filesystem;
using io::SectionId;

constexpr int kNlev = 10;

long bitDiff(const double* a, const double* b, std::size_t n) {
  long bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) ++bad;
  }
  return bad;
}

long bitDiff(const parallel::Field& a, const parallel::Field& b) {
  if (a.size() != b.size()) return static_cast<long>(a.size() + b.size());
  return bitDiff(a.data(), b.data(), a.size());
}

long bitDiff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return static_cast<long>(a.size() + b.size());
  return bitDiff(a.data(), b.data(), a.size());
}

/// Mismatching doubles between member m of two runners: full prognostic
/// state, every tracer, tskin and accumulated precipitation.
long memberDiff(const EnsembleRunner& a, const EnsembleRunner& b, int m) {
  const dycore::State& x = a.state(m);
  const dycore::State& y = b.state(m);
  long bad = bitDiff(x.delp, y.delp) + bitDiff(x.theta, y.theta) +
             bitDiff(x.u, y.u) + bitDiff(x.w, y.w) + bitDiff(x.phi, y.phi);
  for (std::size_t t = 0; t < x.tracers.size(); ++t) {
    bad += bitDiff(x.tracers[t], y.tracers[t]);
  }
  return bad + bitDiff(a.tskin(m), b.tskin(m)) +
         bitDiff(a.accumulatedPrecip(m), b.accumulatedPrecip(m));
}

class EnsembleRestart : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mesh_ = new grid::HexMesh(grid::buildHexMesh(3));
    trsk_ = new grid::TrskWeights(grid::buildTrskWeights(*mesh_));
  }
  static void TearDownTestSuite() {
    delete trsk_;
    delete mesh_;
    trsk_ = nullptr;
    mesh_ = nullptr;
  }
  void SetUp() override {
    path_ = (fs::temp_directory_path() /
             ("grist_ensemble_restart." + std::to_string(::getpid()) + ".grist"))
                .string();
  }
  void TearDown() override { fs::remove(path_); }

  /// DP-ML on the cadence the ENSEMBLE gates use (tracers every 4 steps,
  /// physics every 5). Soil conduction is off: the land model's soil
  /// columns are physics state that checkpoints deliberately leave out
  /// (DESIGN.md, "Three restore paths"), and without conduction they never
  /// change, so every bit the resumed run needs has to come from the file.
  static ModelConfig mlConfig() {
    ModelConfig mc;
    mc.dyn.nlev = kNlev;
    mc.dyn.dt = 300.0;
    mc.dyn.ns = precision::NsMode::kDouble;
    mc.trac_interval = 4;
    mc.phy_interval = 5;
    mc.scheme = PhysicsScheme::kMl;
    mc.ml.land.soil_conductivity = 0.0;
    ml::Q1Q2NetConfig qcfg;
    qcfg.nlev = kNlev;
    qcfg.channels = 12;
    qcfg.res_units = 1;
    mc.q1q2 = std::make_shared<ml::Q1Q2Net>(qcfg);
    ml::RadMlpConfig rcfg;
    rcfg.nlev = kNlev;
    rcfg.hidden = 16;
    mc.rad_mlp = std::make_shared<ml::RadMlp>(rcfg);
    return mc;
  }

  static std::unique_ptr<EnsembleRunner> makeRunner(const ModelConfig& mc,
                                                    int members) {
    EnsembleConfig ec;
    ec.model = mc;
    ec.members = members;
    ec.perturb_seed = 42;
    return std::make_unique<EnsembleRunner>(
        *mesh_, *trsk_, ec, dycore::initBaroclinicWave(*mesh_, mc.dyn, 3));
  }

  static std::vector<SectionId> sectionIds(const std::string& path) {
    std::vector<SectionId> ids;
    for (const io::SnapshotInfo::Entry& e : io::Snapshot::peek(path).sections) {
      ids.push_back(e.id);
    }
    return ids;
  }

  static grid::HexMesh* mesh_;
  static grid::TrskWeights* trsk_;
  std::string path_;
};

grid::HexMesh* EnsembleRestart::mesh_ = nullptr;
grid::TrskWeights* EnsembleRestart::trsk_ = nullptr;

TEST_F(EnsembleRestart, MidWindowResumeIsBitwiseForEveryMember) {
  // Step 6 is two steps into a tracer window (trac 4) and one step after a
  // physics step (phy 5): the flux windows, tskin and precipitation totals
  // of all three members must come back from the file.
  const ModelConfig mc = mlConfig();
  const auto straight = makeRunner(mc, 3);
  straight->run(16);

  const auto first = makeRunner(mc, 3);
  first->run(6);
  first->snapshot().write(path_);

  const auto second = makeRunner(mc, 3);
  second->restore(io::Snapshot::read(path_));
  EXPECT_EQ(second->dynSteps(), 6);
  EXPECT_EQ(second->simSeconds(), first->simSeconds());
  second->run(10);

  EXPECT_EQ(second->simSeconds(), straight->simSeconds());
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(memberDiff(*second, *straight, m), 0) << "member " << m;
  }
  // The perturbed members really differ, so a resume that restored one
  // member into all three would not pass.
  EXPECT_GT(bitDiff(straight->state(1).theta, straight->state(0).theta), 0);
}

TEST_F(EnsembleRestart, MemberCountMismatchNamesBothCounts) {
  const ModelConfig mc = mlConfig();
  const auto writer = makeRunner(mc, 3);
  writer->run(2);
  writer->snapshot().write(path_);
  const io::Snapshot snap = io::Snapshot::read(path_);

  const auto expectRejected = [&](auto& target, const char* have) {
    try {
      target.restore(snap);
      ADD_FAILURE() << "a 3-member snapshot restored into " << have << " member(s)";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("holds 3 members"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("has ") + have), std::string::npos) << what;
    }
  };
  const auto two = makeRunner(mc, 2);
  expectRejected(*two, "2");
  Model solo(*mesh_, *trsk_, mc, dycore::initBaroclinicWave(*mesh_, mc.dyn, 3));
  expectRejected(solo, "1");
}

TEST_F(EnsembleRestart, OneMemberFileKeepsTheSoloSectionLayout) {
  // A one-member checkpoint is what a solo Model has always written:
  // STATE, LAND, CLOCK, DIAG, MLWT (ML scheme only) and CONFIG, no MEMBER.
  ModelConfig mc = mlConfig();
  Model solo_ml(*mesh_, *trsk_, mc, dycore::initBaroclinicWave(*mesh_, mc.dyn, 3));
  solo_ml.run(6);
  solo_ml.snapshot().write(path_);
  EXPECT_EQ(sectionIds(path_),
            (std::vector<SectionId>{SectionId::kState, SectionId::kLand,
                                    SectionId::kClock, SectionId::kDiag,
                                    SectionId::kMlWeights, SectionId::kConfig}));

  mc.scheme = PhysicsScheme::kConventional;
  Model phy(*mesh_, *trsk_, mc, dycore::initBaroclinicWave(*mesh_, mc.dyn, 3));
  phy.run(6);
  phy.snapshot().write(path_);
  EXPECT_EQ(sectionIds(path_),
            (std::vector<SectionId>{SectionId::kState, SectionId::kLand,
                                    SectionId::kClock, SectionId::kDiag,
                                    SectionId::kConfig}));

  // Members 1..M-1 add one MEMBER section each after member 0's DIAG.
  const auto three = makeRunner(mlConfig(), 3);
  three->snapshot().write(path_);
  EXPECT_EQ(sectionIds(path_),
            (std::vector<SectionId>{SectionId::kState, SectionId::kLand,
                                    SectionId::kClock, SectionId::kDiag,
                                    SectionId::kMember, SectionId::kMember,
                                    SectionId::kMlWeights, SectionId::kConfig}));
}

} // namespace
} // namespace grist::core
