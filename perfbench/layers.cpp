#include "layers.hpp"

#include <algorithm>
#include <vector>

#include "os/vm.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using namespace npat;

/// Host ns per op of `op(i)` for i in [0, n), recorded as one span of n
/// ops: a span per call would cost as much as the call being measured.
template <class Op>
double timed_loop(const char* name, usize n, Op&& op) {
  const auto start = Clock::now();
  {
    Span span(name, n);
    for (usize i = 0; i < n; ++i) op(i);
  }
  return seconds_since(start) * 1e9 / static_cast<double>(n);
}

double ratio(u64 part, u64 whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// Counter deltas of one loop, read system-wide.
struct CounterDelta {
  sim::CounterBlock before;
  sim::CounterBlock after;
  u64 operator[](sim::Event e) const { return after[e] - before[e]; }
};

/// One probe context: a fresh machine and address space on the preset.
struct Probe {
  sim::Machine machine;
  os::AddressSpace space;
  std::vector<os::AddressSpace::Translation> translations;

  explicit Probe(const sim::MachineConfig& config)
      : machine(config), space(machine.topology()) {}

  /// Translates every address of the pattern (first touch on `node_of(i)`)
  /// as the os layer probe.
  template <class NodeOf>
  void translate(const std::vector<VirtAddr>& addresses, NodeOf&& node_of, Report& report) {
    translations.resize(addresses.size());
    report.set("os.translate_ns", timed_loop("os.translate_ex", addresses.size(), [&](usize i) {
                 translations[i] = space.translate_ex(addresses[i], node_of(i));
               }),
               "ns");
  }

  /// Loads over the pattern from `core_of(i)`; reports sim.load_ns and the
  /// hit ratios the loop produced.
  template <class CoreOf>
  void loads(const std::vector<VirtAddr>& addresses, CoreOf&& core_of, Report& report) {
    CounterDelta d{machine.aggregate_counters(), {}};
    report.set("sim.load_ns", timed_loop("sim.load", addresses.size(), [&](usize i) {
                 machine.load(core_of(i), translations[i].paddr, addresses[i],
                              translations[i].tlb_key);
               }),
               "ns");
    d.after = machine.aggregate_counters();
    report.set("sim.l1_hit_ratio", ratio(d[sim::Event::kL1dHit], d[sim::Event::kL1dAccess]),
               "ratio");
    report.set("sim.l2_hit_ratio", ratio(d[sim::Event::kL2Hit], d[sim::Event::kL2Access]),
               "ratio");
    report.set("sim.l3_hit_ratio", ratio(d[sim::Event::kL3Hit], d[sim::Event::kL3Access]),
               "ratio");
    report.set("sim.dtlb_miss_ratio",
               ratio(d[sim::Event::kDtlbMiss], d[sim::Event::kDtlbAccess]), "ratio");
  }

  template <class CoreOf>
  void stores(const std::vector<VirtAddr>& addresses, CoreOf&& core_of, Report& report) {
    report.set("sim.store_ns", timed_loop("sim.store", addresses.size(), [&](usize i) {
                 machine.store(core_of(i), translations[i].paddr, addresses[i],
                               translations[i].tlb_key);
               }),
               "ns");
  }

  /// Branches with the workload's outcome pattern, then its per-element
  /// ALU work.
  template <class CoreOf, class Taken>
  void branch_execute(usize n, CoreOf&& core_of, Taken&& taken, u64 alu, Report& report) {
    report.set("sim.branch_ns", timed_loop("sim.branch", n, [&](usize i) {
                 machine.branch(core_of(i), 0xB000 + (i & 7), taken(i));
               }),
               "ns");
    report.set("sim.execute_ns",
               timed_loop("sim.execute", n, [&](usize i) { machine.execute(core_of(i), alu); }),
               "ns");
  }
};

}  // namespace

void probe_scan_layers(Report& report, const sim::MachineConfig& config, usize size) {
  Probe probe(config);
  const VirtAddr base = probe.space.allocate(size * size * sizeof(float));
  // Listing 2: the inner loop walks down a column, one row per access.
  std::vector<VirtAddr> addresses(size * size);
  for (usize i = 0; i < addresses.size(); ++i) {
    addresses[i] = base + ((i % size) * size + i / size) * sizeof(float);
  }
  const auto core0 = [](usize) { return sim::CoreId{0}; };
  probe.translate(addresses, [](usize) { return sim::NodeId{0}; }, report);
  probe.loads(addresses, core0, report);
  probe.stores(addresses, core0, report);
  std::vector<bool> taken(addresses.size());
  for (usize i = 0; i < taken.size(); ++i) taken[i] = i % size != size - 1;  // loop back-edge
  probe.branch_execute(addresses.size(), core0, [&](usize i) { return taken[i]; }, 2, report);
  report.check(report.metrics["sim.l1_hit_ratio"].first < 0.5,
               "scan probe: row stride misses L1");
}

void probe_sort_layers(Report& report, u64 seed, const sim::MachineConfig& config,
                       usize elements) {
  constexpr usize kOps = 1 << 18;
  constexpr u32 kThreads = 16;
  Probe probe(config);
  probe.machine.set_coherence_enabled(true);  // as the runner does for threaded programs
  const sim::Topology& topology = probe.machine.topology();
  const u32 threads = std::min(kThreads, topology.total_cores());
  const VirtAddr base = probe.space.allocate(elements * sizeof(u32));
  // The sequential fill first-touches the whole array on node 0.
  for (VirtAddr page = base; page < base + elements * sizeof(u32); page += 4096) {
    probe.space.translate_ex(page, 0);
  }
  // Each thread streams its own chunk; threads interleave op by op.
  const usize chunk = elements / threads;
  std::vector<VirtAddr> addresses(kOps);
  for (usize i = 0; i < kOps; ++i) {
    const usize thread = i % threads;
    addresses[i] = base + (thread * chunk + (i / threads) % chunk) * sizeof(u32);
  }
  const auto core_of = [&](usize i) { return static_cast<sim::CoreId>(i % threads); };
  probe.translate(addresses, [&](usize i) { return topology.node_of_core(core_of(i)); }, report);
  probe.loads(addresses, core_of, report);
  probe.stores(addresses, core_of, report);
  util::Xoshiro256ss rng(seed);
  std::vector<bool> taken(kOps);
  for (usize i = 0; i < kOps; ++i) taken[i] = rng.chance(0.5);  // data-dependent merges
  probe.branch_execute(kOps, core_of, [&](usize i) { return taken[i]; }, 2, report);

  // Barrier tickets: every thread's atomic on one shared line.
  const VirtAddr barrier = probe.space.allocate(64);
  const auto line = probe.space.translate_ex(barrier, 0);
  report.set("sim.atomic_ns", timed_loop("sim.atomic_rmw", kOps, [&](usize i) {
               probe.machine.atomic_rmw(core_of(i), line.paddr, barrier, line.tlb_key);
             }),
             "ns");

  // Lines written on node 0 and read from the other nodes: each batch of
  // fresh lines is dirtied by core 0 (untimed), then read by cores of
  // nodes 1..n-1. Fresh lines miss the reader's L3, so the directory serves
  // them from node 0's caches (remote HITM). Lines are visited in random
  // order, 128 B apart, so no prefetcher pulls them in ahead of the access.
  constexpr usize kLines = 4096;
  const VirtAddr shared = probe.space.allocate(kOps * 128);
  std::vector<VirtAddr> line_addr(kOps);
  for (usize l = 0; l < kOps; ++l) line_addr[l] = shared + l * 128;
  std::shuffle(line_addr.begin(), line_addr.end(), rng);
  std::vector<os::AddressSpace::Translation> lines(kOps);
  for (usize l = 0; l < kOps; ++l) lines[l] = probe.space.translate_ex(line_addr[l], 0);
  const u32 remote_cores = topology.total_cores() - topology.cores_per_node;
  double coherent_ns = 0.0;
  CounterDelta d{probe.machine.aggregate_counters(), {}};
  for (usize first = 0; first < kOps; first += kLines) {
    for (usize l = first; l < first + kLines; ++l) {
      probe.machine.store(0, lines[l].paddr, line_addr[l], lines[l].tlb_key);
    }
    coherent_ns += timed_loop("sim.coherent_load", kLines, [&](usize i) {
      const usize l = first + (i * 2654435761u) % kLines;  // another order than the stores
      const auto core = static_cast<sim::CoreId>(topology.cores_per_node + l % remote_cores);
      probe.machine.load(core, lines[l].paddr, line_addr[l], lines[l].tlb_key);
    });
  }
  d.after = probe.machine.aggregate_counters();
  report.set("sim.coherent_load_ns", coherent_ns / static_cast<double>(kOps / kLines), "ns");
  const double hitm = ratio(d[sim::Event::kMemLoadRemoteHitm], d[sim::Event::kLoadsRetired]);
  report.set("sim.hitm_ratio", hitm, "ratio");
  report.check(hitm > 0.5, "sort probe: dirty lines are shared across nodes (remote HITM)");
}

void probe_memhist_layers(Report& report, u64 seed, const sim::MachineConfig& config) {
  constexpr usize kOps = 1 << 17;
  constexpr usize kBuffer = 32u << 20;  // mlc's buffer, far beyond the scaled L3
  Probe probe(config);
  const sim::Topology& topology = probe.machine.topology();
  sim::NodeId far = 0;
  for (sim::NodeId node = 0; node < topology.nodes; ++node) {
    if (topology.hops(0, node) > topology.hops(0, far)) far = node;
  }
  util::Xoshiro256ss rng(seed);
  const auto chase = [&](VirtAddr base) {
    std::vector<VirtAddr> addresses(kOps);
    for (VirtAddr& a : addresses) a = base + rng.below(kBuffer / 64) * 64;
    return addresses;
  };
  const auto core0 = [](usize) { return sim::CoreId{0}; };
  const auto node0 = [](usize) { return sim::NodeId{0}; };

  // Local chase: the SIFT side of the workload stays on its own node.
  const auto local = chase(probe.space.allocate(kBuffer, os::PagePolicy::kBind, 0));
  probe.translate(local, node0, report);
  probe.loads(local, core0, report);
  probe.stores(local, core0, report);
  std::vector<bool> taken(kOps);
  for (usize i = 0; i < kOps; ++i) taken[i] = i % 64 != 63;
  probe.branch_execute(kOps, core0, [&](usize i) { return taken[i]; }, 1, report);

  // Remote chase: mlc bound to the farthest node.
  const auto remote = chase(probe.space.allocate(kBuffer, os::PagePolicy::kBind, far));
  std::vector<os::AddressSpace::Translation> translations(kOps);
  for (usize i = 0; i < kOps; ++i) translations[i] = probe.space.translate_ex(remote[i], 0);
  CounterDelta d{probe.machine.aggregate_counters(), {}};
  report.set("sim.remote_load_ns", timed_loop("sim.remote_load", kOps, [&](usize i) {
               probe.machine.load(0, translations[i].paddr, remote[i], translations[i].tlb_key);
             }),
             "ns");
  d.after = probe.machine.aggregate_counters();
  const double remote_ratio =
      ratio(d[sim::Event::kMemLoadRemoteDram], d[sim::Event::kLoadsRetired]);
  report.set("sim.remote_dram_ratio", remote_ratio, "ratio");
  report.check(remote_ratio > 0.5, "memhist probe: the mlc chase reaches remote DRAM");
}

double direct_run(Report& report, const sim::MachineConfig& config,
                  const std::function<trace::Program()>& build, u64 seed) {
  // Three fresh runs of identical input; the host time is their median,
  // the simulated counts are identical by construction.
  constexpr int kRuns = 3;
  std::vector<double> run_ms;
  sim::CounterBlock counters;
  trace::RunResult result;
  for (int r = 0; r < kRuns; ++r) {
    sim::Machine machine(config);
    os::AddressSpace space(machine.topology());
    trace::RunnerConfig runner_config;
    runner_config.seed = seed;
    trace::Runner runner(machine, space, runner_config);
    const trace::Program program = build();
    const auto start = Clock::now();
    result = traced("trace.run", [&] { return runner.run(program); });
    run_ms.push_back(seconds_since(start) * 1e3);
    counters = machine.aggregate_counters();
  }
  const double ms = median(run_ms);
  const u64 mem_ops =
      counters[sim::Event::kLoadsRetired] + counters[sim::Event::kStoresRetired];
  report.set("trace.run_ms", ms, "ms");
  report.set("trace.ns_per_mem_op", ms * 1e6 / static_cast<double>(std::max<u64>(mem_ops, 1)),
             "ns");
  report.set("trace.slices", static_cast<double>(result.scheduler_slices), "count");
  report.set("model.cycles", static_cast<double>(counters[sim::Event::kCycles]), "count");
  report.set("model.instructions", static_cast<double>(counters[sim::Event::kInstructions]),
             "count");
  report.set("model.mem_ops", static_cast<double>(mem_ops), "count");
  report.set("model.remote_dram_loads",
             static_cast<double>(counters[sim::Event::kMemLoadRemoteDram]), "count");
  report.set("model.atomic_ops", static_cast<double>(counters[sim::Event::kAtomicOps]), "count");
  return ms;
}

}  // namespace perfbench
