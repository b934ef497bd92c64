// The three simulator workloads: EvSel's batched comparison (Fig. 8),
// EvSel's thread-count sweep (Fig. 9) and Memhist's histograms (Fig. 10).
// Each is a closed-loop batch job repeated until the run's time is up; the
// seed feeds the collector / runner seed, which drives every random choice
// the programs make (scan fill, sort comparisons, chase addresses).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>

#include "bench.hpp"
#include "evsel/collector.hpp"
#include "evsel/compare.hpp"
#include "evsel/regress.hpp"
#include "evsel/report.hpp"
#include "layers.hpp"
#include "memhist/builder.hpp"
#include "perf/load_latency.hpp"
#include "sim/presets.hpp"
#include "trace/runner.hpp"
#include "workloads/cache_scan.hpp"
#include "workloads/mlc_remote.hpp"
#include "workloads/parallel_sort.hpp"
#include "workloads/sift_like.hpp"

namespace perfbench {
namespace {

using namespace npat;

/// Set-up is repeated this many times per run and the median reported,
/// after kWarmSetups untimed ones that settle the process's first heap
/// growth.
constexpr usize kWarmSetups = 3;
constexpr usize kSetups = 21;
/// Requests per run are capped below eleven, so the request-latency tail
/// is the same statistic (the maximum) in every run.
constexpr usize kMaxRequests = 10;

/// Tallies the end-to-end metrics every simulator workload reports. Times
/// and rates are over the whole run (totals, not medians of iterations):
/// when the host switches between fast and slow spells inside a run, a
/// median jumps to whichever spell holds the majority, a total does not.
struct SimTally {
  std::vector<double> setup_s;
  std::vector<double> walls;  // per iteration: first call to rendered report
  double instructions = 0.0;
  double runs = 0.0;

  void iteration(double wall, double iteration_instructions, usize iteration_runs) {
    walls.push_back(wall);
    instructions += iteration_instructions;
    runs += static_cast<double>(iteration_runs);
  }
};

void report_e2e(Report& report, const SimTally& tally) {
  report.set("setup_s", median(tally.setup_s), "s");
  std::string setups;
  for (const double s : tally.setup_s) setups += " " + std::to_string(s * 1e3).substr(0, 5);
  report.note("set-up ms:" + setups);
  const double total_s = mean(tally.walls) * static_cast<double>(tally.walls.size());
  report.set("wall_s", mean(tally.walls), "s");
  report.set("sim_minstr_per_s", tally.instructions / total_s / 1e6, "Minstr/s");
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  // A batch workload's capacity is simulated program runs per second; its
  // request latency is one whole request, from first call to report.
  report.set("capacity_fps", tally.runs / total_s, "1/s");
  std::vector<double> request_ms;
  for (const double wall : tally.walls) request_ms.push_back(wall * 1e3);
  report.set("ingest_p50_ms", median(request_ms), "ms");
  const Tail p99 = tail(request_ms);
  report.set("ingest_p99_ms", p99.value, "ms");
  std::string walls;
  for (const double ms : request_ms) walls += " " + std::to_string(static_cast<int>(ms));
  report.note("requests: " + std::to_string(p99.samples) + "; tail is p" +
              std::to_string(p99.percentile) + "; request ms:" + walls);
}

/// Builds the workload's long-lived object kWarmSetups + kSetups times,
/// each time from scratch, timing the last kSetups; returns the last one.
template <class T, class... Args>
std::unique_ptr<T> set_up(SimTally& tally, const Args&... args) {
  // Nothing else may allocate between set-ups: a small block left above a
  // freed machine pins the heap top, and every later set-up would reuse
  // the untrimmed pages instead of faulting them in (3x faster, bimodal).
  tally.setup_s.reserve(kSetups);
  std::unique_ptr<T> object;
  for (usize k = 0; k < kWarmSetups + kSetups; ++k) {
    object.reset();  // every set-up allocates afresh
    const auto start = Clock::now();
    object = std::make_unique<T>(args...);
    if (k >= kWarmSetups) tally.setup_s.push_back(seconds_since(start));
  }
  return object;
}

/// Program factory wrapper: the benchmark's own factory, timed as the
/// workloads layer.
evsel::ProgramFactory build_traced(std::function<trace::Program()> build) {
  return [build = std::move(build)] { return traced("workloads.build", build); };
}

/// Instructions retired across every run of a measurement: the measured
/// instructions event times the runs that measurement took.
double total_instructions(const evsel::Measurement& m, u64 runs) {
  return m.mean(sim::Event::kInstructions) * static_cast<double>(runs);
}

/// Per-layer metrics the EvSel workloads share, from the traced iterations.
void report_evsel_layers(Report& report, u64 runs_per_iteration) {
  const Tracer& t = tracer();
  const auto layers = t.layer_self_ms();
  const double measure_self_ms =
      layers.count("evsel") ? layers.at("evsel") / static_cast<double>(t.iterations()) : 0.0;
  report.set("evsel.runs", static_cast<double>(runs_per_iteration), "count");
  report.set("evsel.measure_s", t.per_iteration_ms("evsel.measure") / 1e3, "s");
  report.set("evsel.run_ms", measure_self_ms / static_cast<double>(runs_per_iteration), "ms");
  report.set("evsel.compare_ms", t.per_iteration_ms("evsel.compare"), "ms");
  report.set("evsel.correlate_ms", t.per_iteration_ms("evsel.correlate"), "ms");
  report.set("evsel.render_ms", t.per_iteration_ms("evsel.render"), "ms");
  report.set("workloads.build_ms", t.per_iteration_ms("workloads.build"), "ms");
}

// --- evsel_scan ----------------------------------------------------------

/// 512 x 512 floats = 1 MiB: larger than the 256 KiB L2, resident in the
/// 45 MiB L3, so the cache/TLB/prefetch path does the work, not DRAM.
/// (At 384 the row-stride columns still fit L2 and L2 misses do not rise.)
constexpr usize kScanSize = 512;
constexpr u32 kScanRepetitions = 2;

workloads::CacheScanParams scan_params(workloads::ScanVariant variant) {
  workloads::CacheScanParams params;
  params.size = kScanSize;
  params.variant = variant;
  params.fill_phase = false;  // Fig. 8 measures the traversal alone
  return params;
}

}  // namespace

void run_evsel_scan(const Options& options, Report& report) {
  SimTally tally;
  const auto collector = set_up<evsel::Collector>(tally, sim::hpe_dl580_gen9(2));
  evsel::CollectOptions collect;
  collect.repetitions = kScanRepetitions;
  collect.seed = options.seed;
  evsel::ReportOptions render;
  render.max_rows = 18;
  render.show_descriptions = false;

  const auto unit = scan_params(workloads::ScanVariant::kUnitStride);
  const auto row = scan_params(workloads::ScanVariant::kRowStride);
  u64 runs_per_iteration = 0;

  const auto iteration = [&](u32) -> double {
    const u64 runs_before = collector->runs_executed();
    try {
      const auto start = Clock::now();
      const auto a = traced("evsel.measure", [&] {
        return collector->measure(
            "listing-1 (unit stride)",
            build_traced([&] { return workloads::cache_scan_program(unit); }), collect);
      });
      const u64 runs_a = collector->runs_executed() - runs_before;
      const auto b = traced("evsel.measure", [&] {
        return collector->measure(
            "listing-2 (row stride)",
            build_traced([&] { return workloads::cache_scan_program(row); }), collect);
      });
      const auto comparison = traced("evsel.compare", [&] { return evsel::compare(a, b); });
      const std::string text =
          traced("evsel.render", [&] { return evsel::render_comparison(comparison, render); });
      const double wall = seconds_since(start);

      const u64 runs = collector->runs_executed() - runs_before;
      runs_per_iteration = runs;
      tally.iteration(wall,
                      total_instructions(a, runs_a) + total_instructions(b, runs - runs_a),
                      runs);

      // Fig. 8 directions (row stride vs unit stride), not exact counts.
      const auto delta = [&](sim::Event e) { return comparison.row(e).test.relative_delta; };
      const auto& rejects = comparison.row(sim::Event::kFillBufferRejects).test;
      bool ok = !text.empty();
      ok &= report.check(delta(sim::Event::kL1dMiss) > 0.0, "fig8: L1 misses go up");
      ok &= report.check(delta(sim::Event::kL2Miss) > 0.0, "fig8: L2 misses go up");
      ok &= report.check(delta(sim::Event::kL2PrefetchRequests) < 0.0,
                         "fig8: L2 prefetches go down");
      ok &= report.check(rejects.mean_b > rejects.mean_a, "fig8: fill-buffer rejects go up");
      ok &= report.check(std::abs(delta(sim::Event::kInstructions)) <= 0.02,
                         "fig8: instructions within 2%");
      report.attempted += runs;
      if (!ok) report.failed += runs;
      return wall;
    } catch (const std::exception& error) {
      const u64 runs = std::max<u64>(1, collector->runs_executed() - runs_before);
      report.check(false, std::string("evsel_scan threw: ") + error.what());
      report.attempted += runs;
      report.failed += runs;
      return 0.0;
    }
  };

  if (!options.trace) {
    repeat_for(options.seconds, 3, kMaxRequests, iteration);
    report_e2e(report, tally);
    return;
  }
  traced_halves(options, report, iteration);
  report_evsel_layers(report, runs_per_iteration);
  probe_scan_layers(report, sim::hpe_dl580_gen9(2), kScanSize);
  direct_run(report, sim::hpe_dl580_gen9(2),
             [&] { return workloads::cache_scan_program(row); }, options.seed);
}

// --- evsel_sort_sweep ----------------------------------------------------

namespace {

/// 64 KiB of uints split over up to 16 threads on 4 sockets: small enough
/// for several sweeps a run, big enough that the merge tree crosses nodes.
constexpr usize kSortElements = 1 << 14;
constexpr u32 kSortRepetitions = 3;  // as bench/fig9
const std::vector<double> kThreadCounts = {1, 2, 4, 8, 16};

workloads::ParallelSortParams sort_params(u32 threads) {
  workloads::ParallelSortParams params;
  params.elements = kSortElements;
  params.threads = threads;
  return params;
}

}  // namespace

void run_evsel_sort_sweep(const Options& options, Report& report) {
  SimTally tally;
  const auto collector = set_up<evsel::Collector>(tally, sim::hpe_dl580_gen9(4));
  evsel::CollectOptions collect;
  collect.repetitions = kSortRepetitions;
  collect.seed = options.seed;
  // Fig. 9's events of interest plus context, as bench/fig9 measures them.
  collect.events = {
      sim::Event::kCycles,         sim::Event::kInstructions,
      sim::Event::kL1dLocks,       sim::Event::kSpeculativeJumpsRetired,
      sim::Event::kPageWalks,      sim::Event::kAtomicOps,
      sim::Event::kBranches,       sim::Event::kBranchMisses,
      sim::Event::kStallCyclesMem, sim::Event::kMemLoadRemoteDram,
      sim::Event::kUncQpiTxFlits,  sim::Event::kUncImcReads,
  };
  evsel::ReportOptions render;
  render.show_descriptions = false;
  u64 runs_per_iteration = 0;

  const auto iteration = [&](u32) -> double {
    const u64 runs_before = collector->runs_executed();
    try {
      const auto start = Clock::now();
      std::vector<evsel::Measurement> points;
      double instructions = 0.0;
      for (const double threads : kThreadCounts) {
        const u64 before = collector->runs_executed();
        const auto params = sort_params(static_cast<u32>(threads));
        auto m = traced("evsel.measure", [&] {
          return collector->measure(
              "threads=" + std::to_string(static_cast<int>(threads)),
              build_traced([&] { return workloads::parallel_sort_program(params); }), collect);
        });
          instructions += total_instructions(m, collector->runs_executed() - before);
        m.set_parameter("threads", threads);
        points.push_back(std::move(m));
      }
      const auto sweep =
          traced("evsel.correlate", [&] { return evsel::correlate("threads", std::move(points)); });
      const std::string text =
          traced("evsel.render", [&] { return evsel::render_correlations(sweep, 0.3, render); });
      const double wall = seconds_since(start);

      const u64 runs = collector->runs_executed() - runs_before;
      runs_per_iteration = runs;
      tally.iteration(wall, instructions, runs);

      // Fig. 9: the sign holds and |R| > 0.95.
      const auto r_of = [&](sim::Event e) {
        const auto* row = sweep.correlation(e);
        return row == nullptr ? 0.0 : row->best.r;
      };
      bool ok = !text.empty();
      ok &= report.check(r_of(sim::Event::kL1dLocks) > 0.95, "fig9: l1d.locks R > 0.95");
      ok &= report.check(r_of(sim::Event::kSpeculativeJumpsRetired) < -0.95,
                         "fig9: br_inst.spec_exec R < -0.95");
      report.attempted += runs;
      if (!ok) report.failed += runs;
      return wall;
    } catch (const std::exception& error) {
      const u64 runs = std::max<u64>(1, collector->runs_executed() - runs_before);
      report.check(false, std::string("evsel_sort_sweep threw: ") + error.what());
      report.attempted += runs;
      report.failed += runs;
      return 0.0;
    }
  };

  if (!options.trace) {
    repeat_for(options.seconds, 3, kMaxRequests, iteration);
    report_e2e(report, tally);
    return;
  }
  traced_halves(options, report, iteration);
  report_evsel_layers(report, runs_per_iteration);
  probe_sort_layers(report, options.seed, sim::hpe_dl580_gen9(4), kSortElements);
  direct_run(report, sim::hpe_dl580_gen9(4),
             [] { return workloads::parallel_sort_program(sort_params(16)); }, options.seed);
}

// --- memhist_remote ------------------------------------------------------

namespace {

/// Fig. 10's substitution: the L3 is scaled to 4 MiB, so two 3 MiB SIFT
/// tiles per node spill it and the 32 MiB chase buffer is far beyond it.
sim::MachineConfig memhist_config() {
  sim::MachineConfig config = sim::hpe_dl580_gen9(2);
  config.l3.size_bytes = MiB(4);
  return config;
}

constexpr Cycles kSliceCycles = 400000;  // fast-forward stand-in for 10 ms slices
constexpr u64 kChaseSteps = 120000;
constexpr u64 kVerifySteps = 30000;

workloads::SiftLikeParams sift_params() {
  workloads::SiftLikeParams params;
  params.threads = 4;
  params.tile_bytes = KiB(3072);  // bench/fig10's tile: above a thread's L3 share
  params.octaves = 2;
  return params;
}

workloads::MlcParams mlc_chase(const sim::MachineConfig& config) {
  workloads::MlcParams params = workloads::mlc_remote(config.topology);
  params.chase_steps = kChaseSteps;
  return params;
}

/// Lower edge of the histogram bin holding the one-hop remote latency:
/// the start of the remote-memory interval.
Cycles remote_interval_lo(const memhist::LatencyHistogram& histogram,
                          const sim::MachineConfig& config) {
  const Cycles remote = config.l1.hit_latency + config.memory.local_dram_latency +
                        config.memory.per_hop_latency;
  for (const auto& bin : histogram.bins()) {
    if (remote >= bin.lo && (bin.hi == 0 || remote < bin.hi)) return bin.lo;
  }
  return remote;
}

}  // namespace

void run_memhist_remote(const Options& options, Report& report) {
  const sim::MachineConfig config = memhist_config();
  SimTally tally;
  const auto machine = set_up<sim::Machine>(tally, config);
  trace::RunnerConfig runner_config;
  runner_config.seed = options.seed;
  usize uncertain_bins = 0;
  u64 pebs_samples = 0;

  const auto iteration = [&](u32) -> double {
    usize runs = 0;
    try {
      double instructions = 0.0;
      const auto run_program = [&](trace::Runner& runner, const trace::Program& program) {
        traced("trace.run", [&] { return runner.run(program); });
        instructions +=
            static_cast<double>(machine->aggregate_counters()[sim::Event::kInstructions]);
        ++runs;
      };
      const auto histogram = [&](const std::function<trace::Program()>& build,
                                 memhist::HistogramMode mode) {
        machine->reset();
        os::AddressSpace space(machine->topology());
        trace::Runner runner(*machine, space, runner_config);
        memhist::MemhistOptions memhist_options;
        memhist_options.slice_cycles = kSliceCycles;
        memhist_options.mode = mode;
        memhist::MemhistBuilder builder(*machine, runner, memhist_options);
        const trace::Program program = traced("workloads.build", build);
        traced("memhist.start", [&] { builder.start(); });
        run_program(runner, program);
        auto result = traced("memhist.finish", [&] { return builder.finish(); });
        memhist::annotate_with_machine_levels(result, config);
        return result;
      };

      const auto start = Clock::now();
      const auto sift = histogram([] { return workloads::sift_like_program(sift_params()); },
                                  memhist::HistogramMode::kOccurrences);
      const auto mlc = histogram([&] { return workloads::mlc_program(mlc_chase(config)); },
                                 memhist::HistogramMode::kCosts);
      // mlc verification (the paper checked Memhist's peaks against mlc):
      // a dependent chase on every node with PEBS load latency armed.
      std::vector<double> node_median;
      u64 samples = 0;
      for (sim::NodeId node = 0; node < config.topology.nodes; ++node) {
        machine->reset();
        os::AddressSpace space(machine->topology());
        trace::Runner runner(*machine, space, runner_config);
        perf::LoadLatencySession session(*machine);
        workloads::MlcParams params = workloads::mlc_local();
        params.target_node = node;
        params.chase_steps = kVerifySteps;
        params.think_instructions = 24;
        const trace::Program program =
            traced("workloads.build", [&] { return workloads::mlc_program(params); });
        traced("perf.arm", [&] { session.arm(1, 16); });
        run_program(runner, program);
        const auto reading = traced("perf.disarm", [&] { return session.disarm(); });
        std::vector<double> latencies;
        for (const auto& sample : reading.samples) {
          latencies.push_back(static_cast<double>(sample.latency));
        }
        samples += reading.samples.size();
        node_median.push_back(median(latencies));
      }
      const std::string text = traced("memhist.render", [&] {
        return sift.render("Fig. 10a - NUMA SIFT") + mlc.render("Fig. 10b - mlc remote");
      });
      const double wall = seconds_since(start);
      tally.iteration(wall, instructions, runs);
      uncertain_bins = sift.uncertain_bins() + mlc.uncertain_bins();
      pebs_samples = samples;

      // Fig. 10: the SIFT peak lies outside the remote interval and the
      // mlc cost peak inside it; local chases stay below remote ones.
      const Cycles remote_lo = remote_interval_lo(mlc, config);
      const auto sift_peak = sift.peak_bin();
      const auto mlc_peak = mlc.peak_bin();
      bool ok = !text.empty();
      ok &= report.check(sift_peak && sift.bins()[*sift_peak].lo < remote_lo,
                         "fig10: SIFT peak outside the remote interval");
      ok &= report.check(mlc_peak && mlc.bins()[*mlc_peak].lo >= remote_lo,
                         "fig10: mlc cost peak inside the remote interval");
      for (usize node = 1; node < node_median.size(); ++node) {
        ok &= report.check(node_median[0] < node_median[node],
                           "fig10: local chase below remote chase to node " +
                               std::to_string(node));
      }
      report.attempted += runs;
      if (!ok) report.failed += runs;
      return wall;
    } catch (const std::exception& error) {
      report.check(false, std::string("memhist_remote threw: ") + error.what());
      report.attempted += runs + 1;
      report.failed += runs + 1;
      return 0.0;
    }
  };

  if (!options.trace) {
    repeat_for(options.seconds, 3, kMaxRequests, iteration);
    report_e2e(report, tally);
    return;
  }
  traced_halves(options, report, iteration);
  report.set("workloads.build_ms", tracer().per_iteration_ms("workloads.build"), "ms");
  report.set("perf.samples", static_cast<double>(pebs_samples), "count");
  report.set("memhist.uncertain_bins", static_cast<double>(uncertain_bins), "count");
  probe_memhist_layers(report, options.seed, config);
  direct_run(report, config, [&] { return workloads::mlc_program(mlc_chase(config)); },
             options.seed);

  // The same program with and without the builder's samplers armed, each
  // on a fresh machine. Each run takes over the heap the one before it
  // freed, so the pairs alternate their order (plain first, then sampled
  // first) and an untimed run goes before the first pair.
  std::vector<double> plain_ms;
  std::vector<double> memhist_ms;
  std::vector<double> finish_ms;
  {
    sim::Machine fresh(config);
    os::AddressSpace space(fresh.topology());
    trace::Runner runner(fresh, space, runner_config);
    runner.run(workloads::mlc_program(mlc_chase(config)));
  }
  for (int pair = 0; pair < 6; ++pair) {
    for (const bool sampled : {pair % 2 == 1, pair % 2 == 0}) {
      sim::Machine fresh(config);
      os::AddressSpace space(fresh.topology());
      trace::Runner runner(fresh, space, runner_config);
      memhist::MemhistOptions memhist_options;
      memhist_options.slice_cycles = kSliceCycles;
      memhist_options.mode = memhist::HistogramMode::kCosts;
      memhist::MemhistBuilder builder(fresh, runner, memhist_options);
      const trace::Program program = workloads::mlc_program(mlc_chase(config));
      const auto start = Clock::now();
      {
        Span span(sampled ? "memhist.run" : "trace.run");
        if (sampled) builder.start();
        runner.run(program);
      }
      (sampled ? memhist_ms : plain_ms).push_back(seconds_since(start) * 1e3);
      if (!sampled) continue;
      const auto finish_start = Clock::now();
      traced("memhist.finish", [&] { return builder.finish(); });
      finish_ms.push_back(seconds_since(finish_start) * 1e3);
    }
  }
  // Per pair, so host speed drifting between pairs cancels out.
  std::vector<double> overhead_pct;
  for (usize pair = 0; pair < plain_ms.size(); ++pair) {
    overhead_pct.push_back((memhist_ms[pair] / plain_ms[pair] - 1.0) * 100.0);
  }
  report.set("memhist.run_ms", median(memhist_ms), "ms");
  report.set("memhist.sampling_overhead_pct", median(overhead_pct), "%");
  report.set("memhist.finish_ms", median(finish_ms), "ms");
}

}  // namespace perfbench
