// maqs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path>]
//
// Runs one workload in this process and prints, as its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Lines before it start with '#' and record the run's
// environment and notes.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "maqs_perfbench: %s\n"
               "usage: maqs_perfbench --workload "
               "<rpc_small|woven_rw|gateway_http> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0)) {
        usage("--seconds takes a number > 0");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      opt.trace = value[0] == '1';
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char ch : s) {
    if (ch == '"' || ch == '\\') std::putchar('\\');
    std::putchar(ch);
  }
  std::putchar('"');
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct() && out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i) std::printf(", ");
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread. The timed set-ups run on fresh
  // threads one after another; with an arena each, whether a thread
  // reused a dead thread's arena or touched new pages moved peak_rss_mb
  // by 1.1 MiB (of 10) between runs of woven_rw.
  mallopt(M_ARENA_MAX, 1);
  const Options opt = parse(argc, argv);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
#ifdef __clang__
  const char* const compiler = "clang " __clang_version__;
#else
  const char* const compiler = "gcc " __VERSION__;
#endif
  std::printf("# nproc=%u build=%s compiler=%s traffic=simulated-loopback-only\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              compiler);
  Outcome out;
  try {
    if (opt.workload == "rpc_small") {
      run_rpc_small(opt, out);
    } else if (opt.workload == "woven_rw") {
      run_woven_rw(opt, out);
    } else if (opt.workload == "gateway_http") {
      run_gateway_http(opt, out);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maqs_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  for (Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.problem(m.name + " is not a finite number");
      m.value = 0;  // keeps the result line valid JSON
    }
  }
  for (const std::string& p : out.problems) {
    std::printf("# self-check failed: %s\n", p.c_str());
  }
  std::printf("# failed_ratio=%.17g (%llu of %llu requests)\n",
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  print_result(out);
  std::fflush(stdout);
  return 0;
}
