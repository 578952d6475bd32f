// yt_perfbench: the repository benchmark's workload runner.
//
//   yt_perfbench --workload <optimistic-batch|sharded-stream|
//                            interactive-session>
//                --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints an `info` line (thread count, hardware_concurrency, rounds, the
// exact counters) and, last, one JSON result line: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the per-layer ones, from a run whose second half records
// the benchmark's spans and the program's tracer into --trace-out. Exits 1
// when an output check fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "yt_perfbench: %s\nusage: yt_perfbench --workload "
               "<optimistic-batch|sharded-stream|interactive-session> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed wants an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || options.seconds <= 0 || options.seconds > 60) {
        return Usage("--seconds wants a number in (0, 60]");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace wants 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }

  perfbench::Outcome out;
  if (options.workload == "optimistic-batch") {
    out = perfbench::RunOptimisticBatch(options);
  } else if (options.workload == "sharded-stream") {
    out = perfbench::RunShardedStream(options);
  } else if (options.workload == "interactive-session") {
    out = perfbench::RunInteractiveSession(options);
  } else {
    return Usage("unknown --workload");
  }

  std::string exact = "{";
  for (size_t i = 0; i < out.exact.size(); ++i) {
    if (i > 0) exact += ", ";
    exact += "\"" + out.exact[i].first + "\": " + std::to_string(out.exact[i].second);
  }
  exact += "}";
  std::printf(
      "info {\"workload\": \"%s\", \"seed\": %llu, \"rounds\": %zu, "
      "\"workers\": %zu, \"threads_max\": %d, \"hardware_concurrency\": %u, "
      "\"exact\": %s}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      out.rounds, out.workers, out.threads_max,
      std::thread::hardware_concurrency(), exact.c_str());
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  const perfbench::Metrics& metrics = options.trace ? out.per_layer : out.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              metrics.ToJson().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
