#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Report::note(const std::string& line) const { std::printf("%s\n", line.c_str()); }

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    // %.17g keeps every digit of the measured double; JSON has no NaN/Inf.
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(metric.first) ? metric.first : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + metric.second + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const usize mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

Tail tail(std::vector<double> values) {
  Tail result;
  result.samples = values.size();
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  if (values.size() < 11) {
    result.value = values.back();
    return result;
  }
  const usize n = values.size();
  // Rank of the p99 (nearest rank), capped so ten samples lie above it.
  const usize rank = std::min(static_cast<usize>(std::ceil(0.99 * static_cast<double>(n))) - 1,
                              n - 11);
  result.value = values[rank];
  result.percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
  return result;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// --- tracing -------------------------------------------------------------

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

i64 Tracer::open(const char* name, u64 ops) {
  SpanRecord record;
  record.name = name;
  record.parent = open_;
  record.run = run;
  record.ops = ops;
  record.start_ns = since_origin_ns();
  spans_.push_back(record);
  open_ = static_cast<i64>(spans_.size()) - 1;
  return open_;
}

void Tracer::close(i64 index) {
  SpanRecord& record = spans_[static_cast<usize>(index)];
  record.end_ns = since_origin_ns();
  open_ = record.parent;
}

std::vector<double> Tracer::self_ns() const {
  std::vector<double> self(spans_.size());
  for (usize i = 0; i < spans_.size(); ++i) {
    self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    if (spans_[i].parent >= 0) {
      self[static_cast<usize>(spans_[i].parent)] -=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
  }
  return self;
}

std::map<std::string, double> Tracer::layer_self_ms() const {
  const std::vector<double> self = self_ns();
  std::map<std::string, double> layers;
  for (usize i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run == 0) continue;
    const std::string name = spans_[i].name;
    layers[name.substr(0, name.find('.'))] += self[i] / 1e6;
  }
  return layers;
}

std::vector<double> Tracer::durations_ns(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.run > 0 && name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

double Tracer::per_iteration_ms(const std::string& name) const {
  const std::vector<double> durations = durations_ns(name);
  return std::accumulate(durations.begin(), durations.end(), 0.0) / 1e6 /
         static_cast<double>(std::max<usize>(1, iterations()));
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "index\tname\tstart_ns\tend_ns\tparent\trun\tops\n";
  for (usize i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent
        << '\t' << s.run << '\t' << s.ops << '\n';
  }
  return static_cast<bool>(out);
}

Span::Span(const char* name, u64 ops) {
  Tracer& t = tracer();
  if (t.enabled) index_ = t.open(name, ops);
  if (t.inject_us > 0.0 && t.inject_span == name) {
    const auto until = Clock::now() + std::chrono::nanoseconds(static_cast<i64>(t.inject_us * 1e3));
    while (Clock::now() < until) {
    }
  }
}

Span::~Span() {
  if (index_ >= 0) tracer().close(index_);
}

// --- harness -------------------------------------------------------------

std::vector<double> repeat_for(double seconds, usize min_iterations, usize max_iterations,
                               const std::function<double(u32)>& iteration) {
  std::vector<double> walls;
  std::vector<double> lengths;  // whole iterations, checks included
  const auto start = Clock::now();
  // Start another iteration only if a typical one still fits the budget.
  while (walls.size() < min_iterations ||
         (walls.size() < max_iterations && seconds_since(start) + median(lengths) <= seconds)) {
    const auto begin = Clock::now();
    walls.push_back(iteration(static_cast<u32>(walls.size())));
    lengths.push_back(seconds_since(begin));
  }
  return walls;
}

void traced_halves(const Options& options, Report& report,
                   const std::function<double(u32)>& iteration) {
  const std::vector<double> untraced = repeat_for(options.seconds / 2, 2, SIZE_MAX, iteration);

  Tracer& t = tracer();
  t.enabled = true;
  std::vector<double> iteration_s;
  const std::vector<double> traced = repeat_for(options.seconds / 2, 2, SIZE_MAX, [&](u32 i) {
    t.run = i + 1;
    const auto start = Clock::now();
    double wall = 0.0;
    {
      Span root("bench.iteration");
      wall = iteration(i);
    }
    iteration_s.push_back(seconds_since(start));
    return wall;
  });
  t.run = 0;  // later spans (probes, direct runs) stay recorded, outside the iterations

  // Self time per layer, per traced iteration; run.py reports 0 for a
  // layer the workload never enters.
  const double iterations = static_cast<double>(traced.size());
  double layers_ms = 0.0;
  for (const auto& [layer, ms] : t.layer_self_ms()) {
    report.set("self." + layer + "_ms", ms / iterations, "ms");
    if (layer != "bench") layers_ms += ms / iterations;
  }
  const double iteration_ms = mean(iteration_s) * 1e3;
  report.set("bench.trace_overhead_pct", (median(traced) / median(untraced) - 1.0) * 100.0, "%");
  report.note("traced iterations: " + std::to_string(traced.size()) + ", untraced: " +
              std::to_string(untraced.size()) + "; layer self times (the benchmark's own " +
              "self.bench excluded) cover " + std::to_string(layers_ms) + " ms of " +
              std::to_string(iteration_ms) + " ms per traced iteration");
}

}  // namespace perfbench
