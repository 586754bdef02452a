// e2e_bench: runs one workload in this process and prints its result as
// one JSON line (metrics with units, attempted/failed counts, correctness
// errors, diagnostics). run.py builds this binary, runs it in a fresh
// process per workload, and formats the final result.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "cable_study|serve_read|serve_republish --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed")
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (arg == "--trace") opt.trace = value == "1";
    else if (arg == "--spans-out") spans_out = value;
    else return usage(("unknown option " + arg).c_str());
  }
  if (opt.seconds <= 0) return usage("--seconds must be positive");

  e2e::Result result;
  if (opt.workload == "cable_study") result = e2e::run_cable_study(opt);
  else if (opt.workload == "serve_read") result = e2e::run_serve(opt, false);
  else if (opt.workload == "serve_republish")
    result = e2e::run_serve(opt, true);
  else return usage(("unknown workload " + opt.workload).c_str());

  result.info["compiler"] = E2E_COMPILER;
  result.info["build_type"] = E2E_BUILD_TYPE;
  if (!spans_out.empty() && !result.spans_json.empty()) {
    std::ofstream os{spans_out};
    os << result.spans_json;
  }
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
