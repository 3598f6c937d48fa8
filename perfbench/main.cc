// rdfcube_perfbench: one run of one workload.
//
//   rdfcube_perfbench --workload relate|serve|refresh --seed N --seconds S
//                     --trace 0|1 [--trace-out FILE]
//
// Prints one summary line per op class, then a final JSON line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (which also writes the
// spans as Chrome trace JSON to --trace-out). Exits 1 when an answer or a
// conservation check fails, 2 on a usage error.

#include <cstdio>
#include <string>

#include "base/result.h"
#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "util/string_util.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: rdfcube_perfbench --workload relate|serve|refresh "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc % 2 == 0) return Usage("every flag takes a value");
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      rdfcube::Result<uint64_t> seed = rdfcube::ParseU64(value);
      if (!seed.ok()) return Usage("--seed expects a whole number");
      args.seed = seed.value();
    } else if (flag == "--seconds") {
      rdfcube::Result<double> seconds = rdfcube::ParseDouble(value);
      if (!seconds.ok() || !(seconds.value() > 0)) {
        return Usage("--seconds expects a positive number");
      }
      args.seconds = seconds.value();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace expects 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  perfbench::Report report;
  if (args.workload == "relate") {
    perfbench::RunRelate(args, &report);
  } else if (args.workload == "serve") {
    perfbench::RunServe(args, &report);
  } else if (args.workload == "refresh") {
    perfbench::RunRefresh(args, &report);
  } else {
    return Usage("unknown --workload");
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
