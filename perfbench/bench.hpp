// Shared pieces of the repository benchmark: run options, the metric
// report printed as the final JSON line, the in-memory span tracer that
// times calls into the npat layers from outside, and small statistics.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace perfbench {

using npat::i64;
using npat::u32;
using npat::u64;
using npat::usize;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) { return seconds_between(from, Clock::now()); }

struct Options {
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Everything one run prints: the verdict, the operation counts and the
/// metrics by name. Human-readable notes go to stdout before the JSON line.
struct Report {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a correctness check; a failed one makes the run incorrect.
  bool check(bool ok, const std::string& what);
  void note(const std::string& line) const;
  /// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
};

// --- statistics ----------------------------------------------------------

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// The p99, or when fewer than ten samples lie beyond it the highest
/// percentile that still has ten beyond it; with fewer than eleven samples
/// no rank qualifies and the maximum is returned.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  usize samples = 0;
};
Tail tail(std::vector<double> values);

/// Peak resident set of this process in MiB (getrusage maxrss).
double peak_rss_mb();

// --- tracing -------------------------------------------------------------

struct SpanRecord {
  const char* name = "";
  i64 start_ns = 0;
  i64 end_ns = 0;
  i64 parent = -1;  ///< index of the enclosing span, -1 at top level
  u32 run = 0;      ///< workload iteration the span belongs to
  u64 ops = 1;      ///< calls covered (a batched probe loop covers many)
};

/// Collects spans in memory while enabled; the benchmark writes them out
/// at the end. Single-threaded by design: the whole benchmark runs on one
/// host thread, so the open-span stack needs no locking.
class Tracer {
 public:
  bool enabled = false;
  u32 run = 0;
  /// Test hook: busy-wait this long inside every span named `inject_span`
  /// (the benchmark's own wrapper), to prove self time lands on one layer.
  std::string inject_span;
  double inject_us = 0.0;

  i64 open(const char* name, u64 ops);
  void close(i64 index);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    open_ = -1;
  }

  /// Self time of every span (duration minus its direct children), in ns.
  std::vector<double> self_ns() const;
  /// Sum of self time per layer (the span name up to its first '.') over
  /// the workload iterations (runs >= 1).
  std::map<std::string, double> layer_self_ms() const;
  /// Durations in ns of every span with this exact name inside the
  /// workload iterations (runs >= 1; run 0 holds probes and direct runs).
  std::vector<double> durations_ns(const std::string& name) const;
  /// Total duration of those spans per traced iteration, in ms.
  double per_iteration_ms(const std::string& name) const;
  /// Traced workload iterations recorded.
  usize iterations() const { return durations_ns("bench.iteration").size(); }
  bool write_tsv(const std::string& path) const;

 private:
  i64 since_origin_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  std::vector<SpanRecord> spans_;
  i64 open_ = -1;
  Clock::time_point origin_ = Clock::now();
};

Tracer& tracer();

/// RAII span around one call (or one batched loop of `ops` calls).
class Span {
 public:
  explicit Span(const char* name, u64 ops = 1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  i64 index_ = -1;
};

/// Calls `fn` inside a span named `name`.
template <class F>
decltype(auto) traced(const char* name, F&& fn) {
  Span span(name);
  return fn();
}

// --- workloads -----------------------------------------------------------

void run_evsel_scan(const Options& options, Report& report);
void run_evsel_sort_sweep(const Options& options, Report& report);
void run_memhist_remote(const Options& options, Report& report);
void run_fleet_ingest(const Options& options, Report& report);

/// Shared timing harness: calls `iteration(i)` at least `min_iterations`
/// times and then, up to `max_iterations`, as long as another one fits in
/// `seconds`; returns the wall time each iteration reported.
std::vector<double> repeat_for(double seconds, usize min_iterations, usize max_iterations,
                               const std::function<double(u32)>& iteration);

/// Trace-mode scaffold shared by all workloads: an untraced half and a
/// traced half of the run; reports self time per layer per traced
/// iteration and bench.trace_overhead_pct. Tracing stays on afterwards so
/// probes and direct runs are recorded too (as run 0).
void traced_halves(const Options& options, Report& report,
                   const std::function<double(u32)>& iteration);

}  // namespace perfbench
