#include "grist/common/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace grist::common {
namespace {

constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr double kDblMax = std::numeric_limits<double>::max();

TEST(ParseNumber, AcceptsWholeInRangeValues) {
  EXPECT_EQ(parseNumber<int>("4", 1, kIntMax), 4);
  EXPECT_EQ(parseNumber<int>("-3", -5, 5), -3);
  EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615", 0,
                                       std::numeric_limits<std::uint64_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_DOUBLE_EQ(*parseNumber<double>("1.6e-4", 0.0, kDblMax), 1.6e-4);
  EXPECT_DOUBLE_EQ(*parseNumber<double>("0", 0.0, kDblMax), 0.0);
}

TEST(ParseNumber, RejectsPartialAndEmptyText) {
  for (const char* bad : {"", "2x", "abc", " 4", "4 ", "+4", "0x10", "4.0"}) {
    EXPECT_FALSE(parseNumber<int>(bad, 0, kIntMax)) << "'" << bad << "'";
  }
  for (const char* bad : {"", "1e", "0.5s", "--1", " 1"}) {
    EXPECT_FALSE(parseNumber<double>(bad, 0.0, kDblMax)) << "'" << bad << "'";
  }
}

TEST(ParseNumber, RejectsOutOfRangeAndNonFinite) {
  EXPECT_FALSE(parseNumber<int>("0", 1, kIntMax));
  EXPECT_FALSE(parseNumber<int>("-3", 1, kIntMax));
  EXPECT_FALSE(parseNumber<int>("99999999999", 1, kIntMax));  // overflows int
  EXPECT_FALSE(parseNumber<std::uint64_t>("-1", 0, 10));
  EXPECT_FALSE(parseNumber<double>("-1", 0.0, kDblMax));
  EXPECT_FALSE(parseNumber<double>("inf", 0.0, kDblMax));
  EXPECT_FALSE(parseNumber<double>("nan", 0.0, kDblMax));
  EXPECT_FALSE(parseNumber<double>("1e999", 0.0, kDblMax));
}

} // namespace
} // namespace grist::common
