// Unit tests for src/support: hashing, string utilities, and the
// parallel_for_each work-distribution helper.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/support/hash.hpp"
#include "src/support/parallel.hpp"
#include "src/support/strings.hpp"

namespace splice {
namespace {

TEST(Hash, Deterministic) {
  EXPECT_EQ(stable_hash_b32("hello"), stable_hash_b32("hello"));
  EXPECT_EQ(stable_hash_u64("hello"), stable_hash_u64("hello"));
}

TEST(Hash, DistinctInputsDistinctDigests) {
  std::set<std::string> digests;
  for (int i = 0; i < 1000; ++i) {
    digests.insert(stable_hash_b32("input-" + std::to_string(i)));
  }
  EXPECT_EQ(digests.size(), 1000u);
}

TEST(Hash, B32FormatIsSpackLike) {
  std::string d = stable_hash_b32("zlib@1.2.11");
  EXPECT_EQ(d.size(), 26u);
  for (char c : d) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= '2' && c <= '7');
    EXPECT_TRUE(ok) << "bad base32 char: " << c;
  }
}

TEST(Hash, HexFormat) {
  Hasher h;
  h.update("x");
  std::string hex = h.hex();
  EXPECT_EQ(hex.size(), 32u);
  for (char c : hex) {
    bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    EXPECT_TRUE(ok);
  }
}

TEST(Hash, FieldFramingIsInjective) {
  // ("ab","c") must differ from ("a","bc"): field() length-prefixes.
  Hasher h1;
  h1.field("ab");
  h1.field("c");
  Hasher h2;
  h2.field("a");
  h2.field("bc");
  EXPECT_NE(h1.hex(), h2.hex());
}

TEST(Hash, EmptyFieldsMatter) {
  Hasher h1;
  h1.field("");
  Hasher h2;
  EXPECT_NE(h1.hex(), h2.hex());
}

TEST(Strings, SplitBasic) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitNoDelimiter) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitEmpty) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, SplitWs) {
  auto parts = split_ws("  hdf5  ^zlib\t^mpich \n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hdf5");
  EXPECT_EQ(parts[1], "^zlib");
  EXPECT_EQ(parts[2], "^mpich");
}

TEST(Strings, JoinRoundTrip) {
  std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(join(parts, "-"), "a-b-c");
  EXPECT_EQ(join({}, "-"), "");
  EXPECT_EQ(join({"x"}, "-"), "x");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(is_identifier("zlib"));
  EXPECT_TRUE(is_identifier("py-shroud"));
  EXPECT_TRUE(is_identifier("mpiabi_07"));
  EXPECT_TRUE(is_identifier("7zip"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("Zlib"));
  EXPECT_FALSE(is_identifier("-zlib"));
  EXPECT_FALSE(is_identifier("has space"));
  EXPECT_FALSE(is_identifier("dot.name"));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("/old/prefix/lib:/old/prefix/bin", "/old/prefix", "/new"),
            "/new/lib:/new/bin");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("x", "", "y"), "x");
  // Replacement containing the needle must not loop.
  EXPECT_EQ(replace_all("ab", "a", "aa"), "aab");
}

TEST(Strings, ParseCountIsStrict) {
  EXPECT_EQ(parse_count("0"), 0u);
  EXPECT_EQ(parse_count("4096"), 4096u);
  EXPECT_EQ(parse_count("18446744073709551615"), UINT64_MAX);
  // Signs, spaces, suffixes, fractions and overflow are all malformed
  // (strtoull would wrap "-1" to UINT64_MAX and read "2x" as 2).
  for (const char* bad : {"", "-1", "+5", " 5", "5 ", "2x", "abc", "1.5",
                          "1e3", "0x10", "18446744073709551616"}) {
    EXPECT_EQ(parse_count(bad), std::nullopt) << "\"" << bad << "\"";
  }
}

TEST(Strings, ParseNonNegativeIsStrict) {
  EXPECT_EQ(parse_non_negative("0"), 0.0);
  EXPECT_EQ(parse_non_negative("250.5"), 250.5);
  EXPECT_EQ(parse_non_negative(".5"), 0.5);
  EXPECT_EQ(parse_non_negative("1e3"), 1000.0);
  for (const char* bad : {"", "-1", "-0", "+1", " 1", "1ms", "fast", "inf",
                          "nan", "0x1p3", "1e400", "1e"}) {
    EXPECT_EQ(parse_non_negative(bad), std::nullopt) << "\"" << bad << "\"";
  }
}

TEST(Strings, ParseSwitchOneRuleForEveryOnOffSetting) {
  for (const char* off : {"0", "off", "false"}) {
    EXPECT_FALSE(parse_switch(off, true)) << off;
  }
  for (const char* on : {"1", "on", "true", "yes"}) {
    EXPECT_TRUE(parse_switch(on, false)) << on;
  }
  EXPECT_TRUE(parse_switch(nullptr, true));
  EXPECT_FALSE(parse_switch(nullptr, false));
  EXPECT_TRUE(parse_switch("", true));
  EXPECT_FALSE(parse_switch("", false));
}

TEST(Parallel, ZeroItemsRunsNothing) {
  std::atomic<int> calls{0};
  parallel_for_each(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(parallel_workers(0, 4), 0u);
}

TEST(Parallel, EveryIndexExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    std::vector<std::atomic<int>> hits(100);
    parallel_for_each(hits.size(), jobs, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(Parallel, JobsZeroAutoDetectsHardwareThreads) {
  // The exact count is machine-dependent; the contract is "at least one,
  // never more than n", and the work still runs exactly once per index.
  std::size_t w = parallel_workers(64, 0);
  EXPECT_GE(w, 1u);
  EXPECT_LE(w, 64u);
  EXPECT_EQ(parallel_workers(2, 0), parallel_workers(2, 0));
  std::atomic<int> calls{0};
  parallel_for_each(8, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(Parallel, WorkerClampToTaskCount) {
  EXPECT_EQ(parallel_workers(3, 8), 3u);
  EXPECT_EQ(parallel_workers(8, 3), 3u);
  EXPECT_EQ(parallel_workers(8, 1), 1u);
  EXPECT_EQ(parallel_workers(1, 8), 1u);
}

TEST(Parallel, ExceptionPropagatesInline) {
  EXPECT_THROW(
      parallel_for_each(4, 1,
                        [&](std::size_t i) {
                          if (i == 2) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(Parallel, ExceptionPropagatesAcrossWorkers) {
  std::atomic<int> calls{0};
  try {
    parallel_for_each(64, 4, [&](std::size_t i) {
      ++calls;
      if (i == 10) throw std::runtime_error("boom");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Workers stop picking up new work after the failure; what ran, ran once.
  EXPECT_GE(calls.load(), 1);
  EXPECT_LE(calls.load(), 64);
}

// The TSan matrix job runs this with full race checking: heavy shared
// read-modify-write traffic through the atomic counter distribution.
TEST(Parallel, StressManyTasksManyWorkers) {
  constexpr std::size_t kTasks = 5000;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<long> sum{0};
  parallel_for_each(kTasks, 8, [&](std::size_t i) {
    ++hits[i];
    sum += static_cast<long>(i);
  });
  for (std::size_t i = 0; i < kTasks; ++i) ASSERT_EQ(hits[i].load(), 1);
  EXPECT_EQ(sum.load(),
            static_cast<long>(kTasks) * (static_cast<long>(kTasks) - 1) / 2);
}

}  // namespace
}  // namespace splice
