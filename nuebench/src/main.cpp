// nuebench: the repository benchmark binary.
//
//   nuebench --workload torus-route|daemon-storm|dragonfly-sim
//            --seed N --seconds S --trace 0|1
//            [--trace-out FILE] [--corrupt]
//
// Prints a metric table with units and sample counts, a line with the
// run's deterministic work counts, and last a one-line JSON result:
// {"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
// per-layer metrics of a traced run instead of the end-to-end ones and
// writes the benchmark's spans to --trace-out. --corrupt feeds the
// workload a deliberately broken input (the benchmark's self-test).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "util/rss.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "nuebench: " << why
            << "\nusage: nuebench --workload torus-route|daemon-storm|"
               "dragonfly-sim --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--corrupt]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  nuebench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      opt.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("missing --workload");
  if (opt.corrupt && opt.workload == "dragonfly-sim") {
    return usage("--corrupt applies to torus-route and daemon-storm only");
  }

  try {
    nuebench::Outcome out;
    if (opt.workload == "torus-route") {
      out = nuebench::run_torus_route(opt);
    } else if (opt.workload == "daemon-storm") {
      out = nuebench::run_daemon_storm(opt);
    } else if (opt.workload == "dragonfly-sim") {
      out = nuebench::run_dragonfly_sim(opt);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
    if (!opt.trace) {
      out.e2e("peak_rss_mb", nue::peak_rss_mb().value_or(0.0), "MB", 1);
      out.e2e("ok_share",
              out.attempted == 0
                  ? 0.0
                  : static_cast<double>(out.attempted - out.failed) /
                        static_cast<double>(out.attempted),
              "share", out.attempted);
    }
    nuebench::print_report(out, opt.trace);
  } catch (const std::exception& e) {
    std::cerr << "nuebench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
