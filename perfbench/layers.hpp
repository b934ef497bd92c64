// Layer probes: each drives the os and sim layers directly with one
// workload's own address pattern on that workload's preset, so host time
// per simulated operation is measured layer by layer, and the hit ratios
// prove the probe reaches the level it claims.
#pragma once

#include <functional>

#include "bench.hpp"
#include "sim/machine.hpp"
#include "trace/runner.hpp"

namespace perfbench {

/// Row-stride scan of a size x size float array on one core (Fig. 8's
/// listing 2): must miss L1.
void probe_scan_layers(Report& report, const npat::sim::MachineConfig& config, usize size);
/// Sort-like traffic of 16 threads over an array first touched on node 0,
/// plus barrier atomics and cross-node reads of dirty lines: must share
/// lines across nodes (remote HITM).
void probe_sort_layers(Report& report, u64 seed, const npat::sim::MachineConfig& config,
                       usize elements);
/// Dependent random chase over a buffer bound to node 0 and one bound to
/// the farthest node: the remote chase must reach remote DRAM.
void probe_memhist_layers(Report& report, u64 seed, const npat::sim::MachineConfig& config);

/// Direct Runner::run calls of `build()`'s program, each on a fresh
/// machine: trace.run_ms, trace.ns_per_mem_op, trace.slices and the model.*
/// counts. Returns the median run's host time in ms.
double direct_run(Report& report, const npat::sim::MachineConfig& config,
                  const std::function<npat::trace::Program()>& build, u64 seed);

}  // namespace perfbench
