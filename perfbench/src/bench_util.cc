#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::max<size_t>(1, std::min(rank, v.size()));
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

bool TailResolved(size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  for (Item& item : items_) {
    if (item.name == name) {
      item.value = value;
      item.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
    out += "\"" + items_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + items_[i].unit + "\"}";
  }
  return out + "}";
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
