// golden_answers_dump: regenerate the reuse-encoding golden answers.
//
//   golden_answers_dump DIR     writes DIR/<config>.txt for every config
//
// Run it only on a tree whose answers are known good: the files it writes
// are the oracle concretizer_golden_test compares against.
#include <cstdio>
#include <fstream>
#include <string>

#include "tests/golden_answers.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: golden_answers_dump DIR\n");
    return 2;
  }
  for (const splice::golden::Config& config : splice::golden::configs()) {
    std::string path = std::string(argv[1]) + "/" + config.name + ".txt";
    std::ofstream out(path, std::ios::binary);
    out << splice::golden::render(config);
    if (!out) {
      std::fprintf(stderr, "golden_answers_dump: cannot write %s\n",
                   path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
