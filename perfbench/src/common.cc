#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <thread>

namespace perfbench {

double Samples::Percentile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * s.size()));
  rank = std::clamp<std::size_t>(rank, 1, s.size());
  return s[rank - 1];
}

double TypedSamples::GeomeanOfMedians() const {
  double log_sum = 0;
  std::size_t n = 0;
  for (const Samples& s : by_type_) {
    if (s.size() == 0) continue;
    log_sum += std::log(s.Percentile(0.5));
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

void Report::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (++failures_ <= 10) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::PrintJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.9g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

Tracer::Buffer& Tracer::ThisThreadBuffer() {
  // One buffer per (tracer, thread); the tracer outlives every thread
  // that records into it.
  thread_local std::uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<int>(buffers_.size());
    buffer = buffers_.back().get();
    owner = id_;
  }
  return *buffer;
}

std::uint64_t Tracer::Record(const char* name, std::uint64_t op,
                             std::uint64_t parent, std::int64_t start_ns,
                             std::int64_t end_ns) {
  if (!enabled_) return 0;
  const std::uint64_t id = next_span_.fetch_add(1) + 1;
  ThisThreadBuffer().spans.push_back({name, id, parent, op, start_ns, end_ns});
  return id;
}

std::size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t origin = INT64_MAX;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"span\": %llu, \"parent\": %llu, \"op\": %llu}}",
                   first ? "" : ",\n", s.name, b->tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void EmitEndToEnd(Report* report, double setup_s, const Samples& round_rate,
                  const TypedSamples& latency, double index_bytes) {
  report->Metric("setup_s", setup_s, "s");
  report->Metric("ops_per_s", round_rate.Percentile(0.5), "ops/s");
  report->Metric("geomean_ms", latency.GeomeanOfMedians(), "ms");
  report->Metric("index_bytes", index_bytes, "bytes");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::size_t UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace perfbench
