// perfbench: runs one benchmark workload and prints its metrics as the last
// line of stdout (see perfbench/README.md). perfbench/run.py builds it and
// runs it in a scratch working directory.
//
//   perfbench --workload table1|serve_hot --seed N
//             --seconds S --trace 0|1 --serve-bin PATH [--corpus-seed N]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--corpus-seed") {
      options.corpus_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (flag == "--serve-bin") {
      options.serve_bin = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const std::string& w = options.workload;
  if ((w != "table1" && w != "serve_hot") ||
      options.seconds <= 0 || options.serve_bin.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload table1|serve_hot "
                 "--seed N --seconds S --trace 0|1 --serve-bin PATH "
                 "[--corpus-seed N]\n");
    return 2;
  }

  perfbench::Report report;
  try {
    if (options.trace) {
      perfbench::runTrace(options, report);
    } else if (w == "table1") {
      perfbench::runTable1(options, report);
    } else {
      perfbench::runServe(options, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.print();
  return 0;
}
