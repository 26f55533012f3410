// Encoding equivalence: the concretizer must reproduce the committed golden
// answers (tests/golden/, see golden_answers.hpp) exactly — DAG hashes,
// build sets, splices and objective vectors for every RADIUSS root, plain
// and ^mpiabi, on the local and a 2,000-node public cache, under the direct
// encoding and the indirect encoding with splicing off and on.
//
// Search identity: with splicing on, the SAT translation's size and the
// CDCL search's counters must reproduce tests/golden/search-*.txt line for
// line, so a solver change that claims "same search" is checked, not
// assumed.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

#include "tests/golden_answers.hpp"

namespace splice::golden {

void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

namespace {

/// Request line -> rendered block, so a mismatch names its request.
std::map<std::string, std::string> blocks(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string line, key;
  while (std::getline(in, line)) {
    if (line.rfind("request ", 0) == 0) {
      key = line;
      out[key];
    } else if (!line.empty()) {
      out[key] += line + "\n";
    }
  }
  return out;
}

std::string read_golden(const std::string& stem) {
  std::ifstream in(std::string(SPLICE_GOLDEN_DIR) + "/" + stem + ".txt");
  EXPECT_TRUE(in) << "missing golden file " << stem;
  std::ostringstream golden;
  golden << in.rdbuf();
  return golden.str();
}

/// Request -> "sat_vars sat_clauses ... ground_atoms" of a search golden.
std::map<std::string, std::string> search_lines(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      out[line.substr(0, colon)] = line.substr(colon + 1);
    }
  }
  return out;
}

std::string param_name(const ::testing::TestParamInfo<Config>& param) {
  std::string name;
  for (char ch : param.param.name) name += ch == '-' ? '_' : ch;
  return name;
}

class GoldenAnswers : public ::testing::TestWithParam<Config> {};

TEST_P(GoldenAnswers, ReproducedExactly) {
  const Config& config = GetParam();
  std::map<std::string, std::string> want = blocks(read_golden(config.name));
  std::map<std::string, std::string> got = blocks(render(config));
  ASSERT_EQ(want.size(), 64u);
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [request, block] : want) {
    SCOPED_TRACE(request);
    auto it = got.find(request);
    ASSERT_NE(it, got.end());
    EXPECT_EQ(it->second, block);
  }
}

INSTANTIATE_TEST_SUITE_P(Encodings, GoldenAnswers,
                         ::testing::ValuesIn(configs()), param_name);

class GoldenSearch : public ::testing::TestWithParam<Config> {};

TEST_P(GoldenSearch, SameTranslationAndSearch) {
  const Config& config = GetParam();
  std::map<std::string, std::string> want =
      search_lines(read_golden("search-" + config.name));
  std::map<std::string, std::string> got = search_lines(render_search(config));
  ASSERT_EQ(want.size(), 64u);
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [request, counters] : want) {
    SCOPED_TRACE(request);
    auto it = got.find(request);
    ASSERT_NE(it, got.end());
    EXPECT_EQ(it->second, counters);
  }
}

INSTANTIATE_TEST_SUITE_P(Splicing, GoldenSearch,
                         ::testing::ValuesIn(search_configs()), param_name);

}  // namespace
}  // namespace splice::golden
