/// perfbench_driver: one run of one benchmark workload.
///
///   perfbench_driver --workload=<paper_attack|robust_crossdevice|socket_fleet>
///                    --seed=<n> --seconds=<s> --trace=<0|1>
///
/// Prints a host line, the checks and self-tests, every metric of the mode
/// by name and unit, and as its last line one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// Exit status 0 when every check passed, 1 when one failed, 2 on bad
/// arguments. perfbench/run.py builds this binary and calls it.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// The deadline after which the run cleans up and exits on its own.
constexpr unsigned kDeadlineSeconds = 170;

bool ParseFlag(const char* arg, const char* name, std::string& out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

std::size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<std::size_t>(count) : 1;
}

void PrintResult(const Outcome& outcome, const Values& values, bool trace) {
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    const auto found = values.find(spec.name);
    const double value = found == values.end() ? 0.0 : found->second;
    std::printf("metric %-24s %.6g %s\n", spec.name, value, spec.unit);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + number + ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  json += "}}";
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.correct ? "true" : "false");
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string seed = "1";
  std::string seconds = "10";
  std::string trace = "0";
  for (int i = 1; i < argc; ++i) {
    if (!ParseFlag(argv[i], "--workload", options.workload) &&
        !ParseFlag(argv[i], "--seed", seed) &&
        !ParseFlag(argv[i], "--seconds", seconds) &&
        !ParseFlag(argv[i], "--trace", trace)) {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  char* end = nullptr;
  options.seed = std::strtoull(seed.c_str(), &end, 10);
  const bool seed_ok = *end == '\0' && !seed.empty();
  options.seconds = std::strtod(seconds.c_str(), &end);
  const bool seconds_ok = *end == '\0' && options.seconds > 0.0 &&
                          options.seconds <= 60.0;
  if (!seed_ok || !seconds_ok || (trace != "0" && trace != "1")) {
    std::fprintf(stderr, "bad --seed, --seconds or --trace\n");
    return 2;
  }
  options.trace = trace == "1";
  options.threads = AvailableCpus();

  void (*run)(const RunOptions&, Outcome&, Values&) = nullptr;
  if (options.workload == "paper_attack") {
    run = RunPaperAttack;
  } else if (options.workload == "robust_crossdevice") {
    run = RunRobustCrossDevice;
  } else if (options.workload == "socket_fleet") {
    run = RunSocketFleet;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  cleanup::Install(kDeadlineSeconds);
  std::printf("workload %s seed %llu seconds %g mode %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced" : "untraced");
  std::fflush(stdout);

  Outcome outcome;
  Values values;
  run(options, outcome, values);
  if (values.find("peak_rss_mb") == values.end()) {
    values["peak_rss_mb"] = SelfPeakRssMb();
  }
  cleanup::RunAll();
  PrintHostLine(options.threads);
  PrintResult(outcome, values, options.trace);
  return outcome.correct ? 0 : 1;
}
