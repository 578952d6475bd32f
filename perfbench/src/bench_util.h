#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

// Small shared helpers of the repository benchmark: clocks, percentiles,
// the metric list printed as JSON, process resource probes and the round
// loop every workload runs.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Nearest-rank percentile (rank ceil(q * n)) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}
double Mean(const std::vector<double>& v);
// True when at least ten samples lie beyond the q-percentile, the least a
// tail figure needs to be more than one slow call.
bool TailResolved(size_t samples, double q);

// Ordered name -> (value, unit) list, rendered as the `metrics` object of
// the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool empty() const { return items_.empty(); }
  std::string ToJson() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// Integer counters that must repeat exactly across runs with one seed.
using ExactCounters = std::vector<std::pair<std::string, uint64_t>>;

// Everything one run reports.
struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;  // failed output checks, for stderr
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  ExactCounters exact;
  size_t rounds = 0;
  size_t workers = 0;
  int threads_max = 0;
  // Peak RSS through set-up and the first round's timed part (sampled
  // before the output checks, and before later rounds replay the same work).
  double peak_rss_mb = 0;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

// Peak resident set of this process so far, in MB.
double PeakRssMb();
// Threads this process has right now (from /proc/self/status; 0 if the
// file cannot be read).
int ThreadCount();

// FNV-1a over a byte string (digests of final states and answers).
uint64_t Fnv1a(const std::string& bytes, uint64_t h = 1469598103934665603ull);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
