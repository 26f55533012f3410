// Encoding equivalence: the concretizer must reproduce the committed golden
// answers (tests/golden/, see golden_answers.hpp) exactly — DAG hashes,
// build sets, splices and objective vectors for every RADIUSS root, plain
// and ^mpiabi, on the local and a 2,000-node public cache, under the direct
// encoding and the indirect encoding with splicing off and on.
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

class GoldenAnswers : public ::testing::TestWithParam<Config> {};

TEST_P(GoldenAnswers, ReproducedExactly) {
  const Config& config = GetParam();
  std::ifstream in(std::string(SPLICE_GOLDEN_DIR) + "/" + config.name +
                   ".txt");
  ASSERT_TRUE(in) << "missing golden file for " << config.name;
  std::ostringstream golden;
  golden << in.rdbuf();

  std::map<std::string, std::string> want = blocks(golden.str());
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

INSTANTIATE_TEST_SUITE_P(
    Encodings, GoldenAnswers, ::testing::ValuesIn(configs()),
    [](const ::testing::TestParamInfo<Config>& param) {
      std::string name;
      for (char ch : param.param.name) name += ch == '-' ? '_' : ch;
      return name;
    });

}  // namespace
}  // namespace splice::golden
