// Unit + property tests for versions and version constraints.
#include <gtest/gtest.h>
#include <string>
#include <utility>

#include "src/spec/version.hpp"
#include "src/support/error.hpp"

namespace splice::spec {
namespace {

Version v(const char* s) { return Version::parse(s); }
VersionConstraint vc(const char* s) { return VersionConstraint::parse(s); }

TEST(Version, ParseAndPrint) {
  EXPECT_EQ(v("1.14.5").str(), "1.14.5");
  EXPECT_EQ(v("2024.1-rc1").num_components(), 4u);
  EXPECT_THROW(Version::parse(""), ParseError);
  EXPECT_THROW(Version::parse("1.!bad"), ParseError);
}

TEST(Version, NumericComparison) {
  EXPECT_LT(v("1.2"), v("1.10"));       // numeric, not lexical
  EXPECT_LT(v("1.9.9"), v("1.10.0"));
  EXPECT_LT(v("1.2"), v("1.2.1"));      // longer is newer
  EXPECT_LT(v("9"), v("10"));
  EXPECT_EQ(v("1.2.0"), v("1.2.0"));
  EXPECT_EQ(v("1-2-0"), v("1.2.0"));    // separators are equivalent
}

TEST(Version, AlphaComponents) {
  EXPECT_LT(v("1.2rc1"), v("1.2.0"));   // numbers beat strings at same slot
  EXPECT_LT(v("1.2alpha"), v("1.2beta"));
  EXPECT_GT(v("3.0"), v("3.0rc2"));
}

TEST(Version, Prefix) {
  EXPECT_TRUE(v("1.14.5").has_prefix(v("1")));
  EXPECT_TRUE(v("1.14.5").has_prefix(v("1.14")));
  EXPECT_TRUE(v("1.14.5").has_prefix(v("1.14.5")));
  EXPECT_FALSE(v("1.14.5").has_prefix(v("1.14.5.1")));
  EXPECT_FALSE(v("1.14.5").has_prefix(v("1.15")));
  EXPECT_FALSE(v("11.4").has_prefix(v("1")));  // component, not string prefix
}

TEST(VersionConstraint, PrefixRangeSemantics) {
  // "@1.2" matches any 1.2.x, as in Spack.
  VersionConstraint c = vc("1.2");
  EXPECT_TRUE(c.includes(v("1.2")));
  EXPECT_TRUE(c.includes(v("1.2.11")));
  EXPECT_FALSE(c.includes(v("1.3")));
  EXPECT_FALSE(c.includes(v("1.1.9")));
}

TEST(VersionConstraint, ExactSemantics) {
  VersionConstraint c = vc("=1.2");
  EXPECT_TRUE(c.includes(v("1.2")));
  EXPECT_FALSE(c.includes(v("1.2.11")));
  EXPECT_EQ(c.concrete(), v("1.2"));
  EXPECT_FALSE(vc("1.2").concrete().has_value());
}

TEST(VersionConstraint, ClosedRange) {
  VersionConstraint c = vc("1.2:1.4");
  EXPECT_TRUE(c.includes(v("1.2")));
  EXPECT_TRUE(c.includes(v("1.3.7")));
  EXPECT_TRUE(c.includes(v("1.4")));
  EXPECT_TRUE(c.includes(v("1.4.9")));  // prefix-inclusive top
  EXPECT_FALSE(c.includes(v("1.5")));
  EXPECT_FALSE(c.includes(v("1.1.9")));
}

TEST(VersionConstraint, OpenRanges) {
  EXPECT_TRUE(vc("1.2:").includes(v("99")));
  EXPECT_FALSE(vc("1.2:").includes(v("1.1")));
  EXPECT_TRUE(vc(":1.4").includes(v("0.1")));
  EXPECT_TRUE(vc(":1.4").includes(v("1.4.9")));
  EXPECT_FALSE(vc(":1.4").includes(v("1.5")));
}

TEST(VersionConstraint, Union) {
  VersionConstraint c = vc("1.2:1.4,1.6");
  EXPECT_TRUE(c.includes(v("1.3")));
  EXPECT_TRUE(c.includes(v("1.6.2")));
  EXPECT_FALSE(c.includes(v("1.5")));
}

TEST(VersionConstraint, Intersects) {
  EXPECT_TRUE(vc("1.2:1.4").intersects(vc("1.4:1.6")));
  EXPECT_FALSE(vc("1.2:1.3").intersects(vc("1.5:1.6")));
  EXPECT_TRUE(vc("=1.2.11").intersects(vc("1.2")));
  EXPECT_FALSE(vc("=1.2.11").intersects(vc("1.3")));
  EXPECT_TRUE(vc("1.2").intersects(VersionConstraint()));  // any
}

TEST(VersionConstraint, SubsetOf) {
  EXPECT_TRUE(vc("1.3").subset_of(vc("1.2:1.4")));
  EXPECT_TRUE(vc("=1.2.11").subset_of(vc("1.2")));
  EXPECT_FALSE(vc("1.2:1.5").subset_of(vc("1.2:1.4")));
  EXPECT_TRUE(vc("1.2:1.4").subset_of(VersionConstraint()));  // any is loosest
  EXPECT_FALSE(VersionConstraint().subset_of(vc("1.2")));
}

TEST(VersionConstraint, Constrain) {
  VersionConstraint c = vc("1.2:1.6");
  ASSERT_TRUE(c.constrain(vc("1.4:")));
  EXPECT_TRUE(c.includes(v("1.5")));
  EXPECT_FALSE(c.includes(v("1.3")));
  EXPECT_FALSE(c.constrain(vc("2.0:")));  // empty intersection
}

TEST(VersionConstraint, ConstrainWithExact) {
  VersionConstraint c = vc("1.2:1.6");
  ASSERT_TRUE(c.constrain(vc("=1.4.2")));
  EXPECT_EQ(c.concrete(), v("1.4.2"));
}

TEST(VersionConstraint, RoundTrip) {
  for (const char* text : {"1.2", "=1.2.11", "1.2:1.4", "1.2:", ":1.4",
                           "1.2:1.4,1.6"}) {
    EXPECT_EQ(VersionConstraint::parse(text).str(), text) << text;
  }
}

// Property: compare() is a total order over a generated set.
class VersionOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(VersionOrderTest, TotalOrderLaws) {
  std::vector<Version> vs;
  int seed = GetParam();
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      vs.push_back(v((std::to_string(a + seed) + "." + std::to_string(b)).c_str()));
      if ((a + b) % 2 == 0) {
        vs.push_back(v((std::to_string(a + seed) + "." + std::to_string(b) +
                        "rc1").c_str()));
      }
    }
  }
  for (const Version& a : vs) {
    EXPECT_EQ(Version::compare(a, a), 0);
    for (const Version& b : vs) {
      EXPECT_EQ(Version::compare(a, b), -Version::compare(b, a));
      for (const Version& c : vs) {
        if (Version::compare(a, b) <= 0 && Version::compare(b, c) <= 0) {
          EXPECT_LE(Version::compare(a, c), 0)
              << a.str() << " " << b.str() << " " << c.str();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionOrderTest, ::testing::Values(0, 3, 7));

// Property: subset_of implies intersects, and includes is monotone under
// constrain. The parameters are std::string, not const char*, so the printed
// parameter (and with it the discovered test name) is the constraint text
// rather than a load address that changes from run to run.
class ConstraintPropertyTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(ConstraintPropertyTest, SubsetImpliesIntersects) {
  const auto& [a_text, b_text] = GetParam();
  VersionConstraint a = vc(a_text.c_str()), b = vc(b_text.c_str());
  if (a.subset_of(b)) {
    EXPECT_TRUE(a.intersects(b)) << a_text << " vs " << b_text;
  }
  // Constrain narrows: anything in (a ∩ b) is in both.
  VersionConstraint merged = a;
  if (merged.constrain(b)) {
    for (const char* probe : {"1.0", "1.2", "1.2.11", "1.3", "1.4", "1.4.9",
                              "1.5", "2.0"}) {
      Version pv = v(probe);
      if (merged.includes(pv)) {
        EXPECT_TRUE(a.includes(pv)) << probe << " in merged but not " << a_text;
        EXPECT_TRUE(b.includes(pv)) << probe << " in merged but not " << b_text;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, ConstraintPropertyTest,
    ::testing::Values(std::pair<std::string, std::string>{"1.2", "1.2:1.4"},
                      std::pair<std::string, std::string>{"1.2:1.4", "1.3:"},
                      std::pair<std::string, std::string>{"=1.2.11", "1.2"},
                      std::pair<std::string, std::string>{":1.4", "1.2:"},
                      std::pair<std::string, std::string>{"1.2:1.4,1.6",
                                                          "1.3:1.7"},
                      std::pair<std::string, std::string>{"1.2", "1.3"}));

}  // namespace
}  // namespace splice::spec
