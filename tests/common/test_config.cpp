#include "grist/common/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace grist {
namespace {

TEST(Config, ParsesTypedValues) {
  const Config cfg = Config::fromString(R"(
    # run control
    grid_level = 5
    dt_dyn = 4.5     ! seconds
    use_ml_physics = .true.
    case_name = doksuri
  )");
  EXPECT_EQ(cfg.getInt("grid_level", -1), 5);
  EXPECT_DOUBLE_EQ(cfg.getDouble("dt_dyn", 0.0), 4.5);
  EXPECT_TRUE(cfg.getBool("use_ml_physics", false));
  EXPECT_EQ(cfg.getString("case_name", ""), "doksuri");
}

TEST(Config, FallbacksApplyWhenMissing) {
  const Config cfg = Config::fromString("a = 1");
  EXPECT_EQ(cfg.getInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cfg.getDouble("missing", 2.5), 2.5);
  EXPECT_FALSE(cfg.getBool("missing", false));
  EXPECT_FALSE(cfg.has("missing"));
  EXPECT_TRUE(cfg.has("a"));
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::fromString("no equals sign here"), std::runtime_error);
  EXPECT_THROW(Config::fromString("= value_without_key"), std::runtime_error);
}

TEST(Config, NonBooleanValueThrows) {
  const Config cfg = Config::fromString("flag = maybe");
  EXPECT_THROW(cfg.getBool("flag", false), std::runtime_error);
}

TEST(Config, LaterAssignmentWins) {
  const Config cfg = Config::fromString("x = 1\nx = 2");
  EXPECT_EQ(cfg.getInt("x", 0), 2);
}

TEST(Config, BooleanSpellings) {
  const Config cfg = Config::fromString("a=TRUE\nb=.false.\nc=1\nd=no");
  EXPECT_TRUE(cfg.getBool("a", false));
  EXPECT_FALSE(cfg.getBool("b", true));
  EXPECT_TRUE(cfg.getBool("c", false));
  EXPECT_FALSE(cfg.getBool("d", true));
}

TEST(Config, MalformedNumberThrowsNamingKeyAndValue) {
  const Config cfg = Config::fromString(
      "grid_level = 3x\nnlev = 20x\ndt_dyn = 300s\nempty =\nfrac = 3.5\n"
      "huge = 99999999999");
  const auto expectRejected = [](auto&& get, const char* key, const char* value) {
    try {
      get();
      ADD_FAILURE() << key << " = " << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + value + "'"), std::string::npos) << what;
    }
  };
  expectRejected([&] { return cfg.getInt("grid_level", 4); }, "grid_level", "3x");
  expectRejected([&] { return cfg.getInt("nlev", 20); }, "nlev", "20x");
  expectRejected([&] { return cfg.getDouble("dt_dyn", 300.0); }, "dt_dyn", "300s");
  expectRejected([&] { return cfg.getInt("empty", 1); }, "empty", "");
  expectRejected([&] { return cfg.getInt("frac", 1); }, "frac", "3.5");
  expectRejected([&] { return cfg.getInt("huge", 1); }, "huge", "99999999999");
}

TEST(Config, WholeNumbersBeforeInlineCommentsParse) {
  const Config cfg = Config::fromString(
      "dt_dyn = 300.0   ! seconds\nsteps = 90 ! 6 hours\namp = 1e-3\n"
      "neg = -4\nhalf = .5");
  EXPECT_DOUBLE_EQ(cfg.getDouble("dt_dyn", 0.0), 300.0);
  EXPECT_EQ(cfg.getInt("steps", 0), 90);
  EXPECT_DOUBLE_EQ(cfg.getDouble("amp", 0.0), 1e-3);
  EXPECT_EQ(cfg.getInt("neg", 0), -4);
  EXPECT_DOUBLE_EQ(cfg.getDouble("half", 0.0), 0.5);
}

TEST(Config, ShippedNamelistsParse) {
  for (const char* name : {"baroclinic_g4.nml", "typhoon_g5.nml"}) {
    const Config cfg =
        Config::fromFile(std::string(GRIST_SOURCE_DIR "/apps/namelists/") + name);
    EXPECT_GT(cfg.getInt("grid_level", -1), 0) << name;
    EXPECT_GT(cfg.getInt("nlev", -1), 0) << name;
    EXPECT_GT(cfg.getDouble("dt_dyn", -1.0), 0.0) << name;
    EXPECT_GT(cfg.getInt("trac_interval", -1), 0) << name;
    EXPECT_GT(cfg.getInt("phy_interval", -1), 0) << name;
    EXPECT_GT(cfg.getInt("steps", -1), 0) << name;
    EXPECT_GT(cfg.getInt("report_interval", -1), 0) << name;
  }
}

} // namespace
} // namespace grist
