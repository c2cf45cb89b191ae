// perfbench: the benchmark of record for mphls.
//
//   perfbench --workload fuzz-standard|dse-ladder|serve-mix --seed N
//             --seconds S --trace 0|1 [--mphls PATH --work-dir DIR]
//
// Prints notes and the environment line, then, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when any output was wrong, 2 on bad arguments.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload fuzz-standard|dse-ladder|"
               "serve-mix --seed N --seconds S --trace 0|1 "
               "[--mphls PATH --work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return usage();
      o.trace = v == "1";
    } else if (arg == "--mphls") {
      o.mphls = v;
    } else if (arg == "--work-dir") {
      o.workDir = v;
    } else {
      return usage();
    }
  }
  if (o.seconds <= 0) return usage();

  perfbench::RunResult r;
  try {
    if (workload == "fuzz-standard") {
      r = perfbench::runFuzz(o);
    } else if (workload == "dse-ladder") {
      r = perfbench::runDse(o);
    } else if (workload == "serve-mix") {
      if (o.mphls.empty() || o.workDir.empty()) return usage();
      r = perfbench::runServe(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& n : r.notes) std::cout << "# " << n << "\n";
  std::cout << "# env: " << perfbench::environmentLine() << "\n";
  std::cout << perfbench::resultJson(r, o.trace ? perfbench::perLayerMetrics()
                                                : perfbench::endToEndMetrics())
            << std::endl;
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
