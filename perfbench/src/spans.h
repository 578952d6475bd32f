#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// The benchmark's own trace spans: one span around each call the benchmark
// makes into a layer of the program (facade calls, Scheduler Submit and
// RunToCompletion, IngestPipeline Submit and Flush, agent callbacks, the
// post-run layer probes). Spans are kept in memory while the traced rounds
// run (they alternate with untraced ones) and written out, together with the program's own obs::Tracer spans,
// as one Chrome trace-event JSON file when the run ends.
//
// Each span has a name, a layer, start and end, the span that was open on
// the same thread when it began (its parent) and the op it belongs to. A
// layer's self time is its spans' time minus the part their child spans
// cover.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static SpanRecorder& Global();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  struct Span {
    const char* name;
    const char* layer;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t id;
    uint64_t parent;  // 0 = none
    uint64_t op;
    uint32_t tid;
  };

  void Record(const Span& span);

  // Self time per layer, in ns, over every recorded span.
  std::map<std::string, double> SelfNsByLayer() const;
  uint64_t dropped() const;

  // Clears and starts the program's tracer alongside this recorder; the
  // moment of the call is the zero of both timelines in the written file.
  void BeginTracedSection();
  // Pauses or resumes both recorders inside a traced section; what they
  // hold is kept.
  void SetTracing(bool on);
  void EndTracedSection();

  // Writes this recorder's spans and the program's tracer dump as one
  // Chrome trace-event JSON file. Returns an error text, empty on success.
  std::string WriteChromeTrace(const std::string& path) const;

 private:
  SpanRecorder() = default;

  static constexpr size_t kMaxSpans = 200000;

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint32_t> next_tid_{1};
  uint64_t base_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t dropped_ = 0;     // guarded by mu_

  friend class ScopedSpan;
};

// RAII span; records only while the recorder is enabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, uint64_t op = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool armed_ = false;
  SpanRecorder::Span span_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
