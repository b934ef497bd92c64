// The repository benchmark's program. run.py builds it and calls
//   npat_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
// It prints human-readable notes, then one JSON line with the verdict,
// the operation counts and the metrics: end-to-end with --trace 0, and
// with --trace 1 the per-layer ones the workload measures (run.py reports
// the others, of layers the workload never enters, as 0).
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"

using namespace perfbench;

int main(int argc, char** argv) {
  std::string workload;
  i64 seed = 1;
  double seconds = 10.0;
  i64 trace = 0;
  std::string inject;
  std::string spans_out;
  npat::util::Cli cli("npat repository benchmark");
  cli.add_flag("workload", &workload,
               "evsel_scan | evsel_sort_sweep | memhist_remote | fleet_ingest");
  cli.add_flag("seed", &seed, "input seed (same seed, same inputs)");
  cli.add_flag("seconds", &seconds, "measuring time of the run");
  cli.add_flag("trace", &trace, "0 = end-to-end metrics, 1 = traced run with per-layer metrics");
  cli.add_flag("inject-busy", &inject,
               "test hook SPAN=MICROSECONDS: busy-wait inside every span of that name");
  cli.add_flag("spans-out", &spans_out, "traced run: write the spans to this TSV file");
  if (const auto rc = cli.parse_main(argc, argv)) return *rc;
  if (seconds <= 0.0 || seconds > 600.0 || seed < 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "need --seconds in (0, 600], --seed >= 0, --trace 0|1\n");
    return 2;
  }

  Options options;
  options.seed = static_cast<u64>(seed);
  options.seconds = seconds;
  options.trace = trace == 1;
  if (!inject.empty()) {
    const auto eq = inject.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "--inject-busy wants SPAN=MICROSECONDS\n");
      return 2;
    }
    tracer().inject_span = inject.substr(0, eq);
    tracer().inject_us = std::stod(inject.substr(eq + 1));
  }

  // The modules' default configuration: self-observability on.
  npat::obs::EnabledGuard obs_on(true);
  Report report;
  try {
    if (workload == "evsel_scan") {
      run_evsel_scan(options, report);
    } else if (workload == "evsel_sort_sweep") {
      run_evsel_sort_sweep(options, report);
    } else if (workload == "memhist_remote") {
      run_memhist_remote(options, report);
    } else if (workload == "fleet_ingest") {
      run_fleet_ingest(options, report);
    } else {
      std::fprintf(stderr, "unknown --workload '%s'\n", workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "benchmark failed: %s\n", error.what());
    return 1;
  }

  const double fail_ratio = report.attempted == 0
                                ? 1.0
                                : static_cast<double>(report.failed) /
                                      static_cast<double>(report.attempted);
  std::printf("fail_ratio = %.6g (%llu failed of %llu attempted)\n", fail_ratio,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  if (options.trace) {
    report.set("fail_ratio", fail_ratio, "ratio");
    if (!spans_out.empty() && !tracer().write_tsv(spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_out.c_str());
      return 1;
    }
  }
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%-32s %.6g %s\n", name.c_str(), metric.first, metric.second.c_str());
  }
  if (report.attempted == 0) report.correct = false;
  std::printf("%s\n", report.json().c_str());
  return 0;
}
