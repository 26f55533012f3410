// golden_answers_dump: regenerate the reuse-encoding golden answers.
//
//   golden_answers_dump DIR           writes DIR/<config>.txt for every config
//   golden_answers_dump --search DIR  writes DIR/search-<config>.txt for
//                                     every search_configs() entry
//
// Run it only on a tree whose answers are known good: the files it writes
// are the oracle concretizer_golden_test compares against.
#include <cstdio>
#include <fstream>
#include <string>

#include "tests/golden_answers.hpp"

int main(int argc, char** argv) {
  const bool search = argc == 3 && std::string(argv[1]) == "--search";
  if (argc != 2 && !search) {
    std::fprintf(stderr, "usage: golden_answers_dump [--search] DIR\n");
    return 2;
  }
  const std::string dir = argv[argc - 1];
  for (const splice::golden::Config& config :
       search ? splice::golden::search_configs() : splice::golden::configs()) {
    std::string path = dir + "/" + (search ? "search-" : "") + config.name +
                       ".txt";
    std::ofstream out(path, std::ios::binary);
    out << (search ? splice::golden::render_search(config)
                   : splice::golden::render(config));
    if (!out) {
      std::fprintf(stderr, "golden_answers_dump: cannot write %s\n",
                   path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
