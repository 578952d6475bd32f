#include "spans.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

// Marks the zero of the program's trace: obs::Tracer rebases its dump to
// its earliest event, so the benchmark records this event first (from a
// thread of its own, whose ring nothing else can overwrite) and drops it
// again when the two traces are merged.
constexpr uint64_t kAnchorArg = UINT64_MAX;

thread_local std::vector<uint64_t> t_open;  // ids of this thread's open spans
thread_local uint32_t t_tid = 0;

}  // namespace

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::map<std::string, double> SpanRecorder::SelfNsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, size_t> by_id;
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_id[spans_[i].id] = i;
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  // A thread's children run strictly inside their parent and one after
  // another, so the part of a parent they cover is the sum of their spans.
  for (const Span& s : spans_) {
    auto it = by_id.find(s.parent);
    if (s.parent != 0 && it != by_id.end()) {
      self[it->second] -= static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].layer] += self[i];
  return out;
}

void SpanRecorder::BeginTracedSection() {
  youtopia::obs::Tracer& tracer = youtopia::obs::Tracer::Global();
  tracer.Clear();
  base_ns_ = youtopia::obs::MonotonicNs();
  const uint64_t base = base_ns_;
  tracer.SetEnabled(true);
  std::thread([&tracer, base] {
    tracer.RecordSpan(youtopia::obs::TraceName::kOp, base, base, kAnchorArg);
  }).join();
  SetEnabled(true);
}

void SpanRecorder::SetTracing(bool on) {
  youtopia::obs::Tracer::Global().SetEnabled(on);
  SetEnabled(on);
}

void SpanRecorder::EndTracedSection() { SetTracing(false); }

std::string SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::string program_path = path + ".program.tmp";
  if (!youtopia::obs::Tracer::Global().DumpJson(program_path)) {
    return "cannot write " + program_path;
  }
  std::vector<std::string> program_events;
  {
    std::ifstream in(program_path);
    std::string line;
    char anchor[64];
    std::snprintf(anchor, sizeof(anchor), "\"op\":%" PRIu64 "}", kAnchorArg);
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == ',') line.pop_back();
      if (line.empty() || line[0] != '{' || line.rfind("{\"displayTimeUnit\"", 0) == 0) {
        continue;
      }
      if (line.find(anchor) != std::string::npos) continue;
      program_events.push_back(line);
    }
  }
  std::remove(program_path.c_str());

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "cannot write " + path;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
               "\"args\":{\"name\":\"perfbench\"}}");
  for (const std::string& e : program_events) std::fprintf(f, ",\n%s", e.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    const double ts = static_cast<double>(s.start_ns - base_ns_) / 1000.0;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1000.0;
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":2,\"tid\":%u,\"args\":{\"id\":%" PRIu64
                 ",\"parent\":%" PRIu64 ",\"op\":%" PRIu64 "}}",
                 s.name, s.layer, ts, dur, s.tid, s.id, s.parent, s.op);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0 ? "" : "cannot close " + path;
}

ScopedSpan::ScopedSpan(const char* name, const char* layer, uint64_t op) {
  SpanRecorder& rec = SpanRecorder::Global();
  if (!rec.enabled()) return;
  if (t_tid == 0) t_tid = rec.next_tid_.fetch_add(1, std::memory_order_relaxed);
  armed_ = true;
  span_.name = name;
  span_.layer = layer;
  span_.op = op;
  span_.tid = t_tid;
  span_.id = rec.NextId();
  span_.parent = t_open.empty() ? 0 : t_open.back();
  t_open.push_back(span_.id);
  span_.start_ns = youtopia::obs::MonotonicNs();
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  span_.end_ns = youtopia::obs::MonotonicNs();
  t_open.pop_back();
  SpanRecorder::Global().Record(span_);
}

}  // namespace perfbench
