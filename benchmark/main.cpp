// tb_perf: one repetition of one benchmark workload (see README.md).
//
//   tb_perf --workload fig7_bitwire|fed_replicated|threaded_churn|
//                      threaded_readmostly
//           [--seed N] [--seconds S] [--trace 0|1] [--scale F]
//
// Writes its files into $TB_BENCH_OUT (default "."); exits non-zero when a
// correctness gate fails. run.py builds, runs and aggregates this binary.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"

namespace {

struct WorkloadEntry {
  const char* name;
  unsigned bit;
  void (*run)(const perf::Args&, perf::RunReport&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"fig7_bitwire", perf::kFig7, perf::run_fig7},
    {"fed_replicated", perf::kFed, perf::run_fed},
    {"threaded_churn", perf::kChurn, perf::run_threaded},
    {"threaded_readmostly", perf::kReadMostly, perf::run_threaded},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "tb_perf: %s\nusage: tb_perf --workload W [--seed N] "
               "[--seconds S] [--trace 0|1] [--scale F]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perf::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(value) != "0";
    } else if (flag == "--scale") {
      args.scale = std::strtod(value, nullptr);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0 || args.scale <= 0) {
    return usage("--seconds and --scale must be positive");
  }
  for (const WorkloadEntry& entry : kWorkloads) {
    if (args.workload != entry.name) continue;
    args.bit = entry.bit;
    perf::RunReport report(args);
    entry.run(args, report);
    return report.finish();
  }
  return usage(("unknown workload '" + args.workload + "'").c_str());
}
