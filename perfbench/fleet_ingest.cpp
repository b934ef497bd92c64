// fleet_ingest: the fleet_scale probe mix (lossy v3, supervised v4 with
// mid-frame cuts, stamped v6) at thousands of probes, streamed into one
// sequential FleetCollector over in-process loopback channels. No
// simulator layer runs here: this workload is the control for every sim
// optimisation and the only one for fleet, wire, resilience, introspect.
//
// Each iteration replays the same rounds twice. The paced pass is an open
// loop: round r is due at start + r * interval, below capacity, and every
// merged frame's latency runs from its round's due time to the return of
// the poll that merged it, so a stall is charged to every later round.
// The unpaced pass sends the same rounds back to back and gives capacity.
// Both passes drive the collector with the same simulated clock, so their
// merged state must be identical.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "fleet/collector.hpp"
#include "fleet/view.hpp"
#include "introspect/health.hpp"
#include "memhist/remote.hpp"
#include "resilience/probe.hpp"
#include "util/channel.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace npat;
namespace wire = memhist::wire;

/// The ROADMAP's measured point where cost per frame has grown. Traced
/// poll time per frame on a 4-vCPU VM: 3.5 us at 1000 probes, 3.8 us at
/// 3000, 4.1 us at 10000.
constexpr usize kProbes = 10000;
constexpr usize kRounds = 24;  // one sample per probe per data round
constexpr usize kMaxDrainRounds = 128;  // supervised acks and retransmissions
constexpr Cycles kPeriod = 500;         // simulated cycles between samples
/// Each supervised probe's first links drop 1% of sends and are cut
/// mid-frame after 10 sends; the data rounds always use them up.
constexpr usize kChaoticLinks = 2;
constexpr u32 kNodes = 2;
/// Offered load of the paced pass, a third of the unpaced pass's capacity
/// at kProbes (124k frames/s on the same VM).
constexpr double kOfferedFps = 40000.0;
constexpr double kRoundInterval = static_cast<double>(kProbes) / kOfferedFps;

enum class Kind { kPlain, kSupervised, kStamped };
Kind kind_of(usize h) { return static_cast<Kind>(h % 3); }

Cycles sample_time(usize index) { return 1000 + static_cast<Cycles>(index) * kPeriod; }

wire::MonitorSampleMsg make_sample(util::Xoshiro256ss& rng, usize index) {
  wire::MonitorSampleMsg sample;
  sample.timestamp = sample_time(index);
  sample.footprint_bytes = (64u << 20) + rng.below(16u << 20);
  for (u32 node = 0; node < kNodes; ++node) {
    wire::MonitorNodeCounters row;
    row.instructions = 1000 + rng.below(5000);
    row.cycles = 2000 + rng.below(8000);
    row.local_dram = rng.below(500);
    row.remote_dram = rng.below(200);
    row.remote_hitm = rng.below(50);
    row.imc_reads = rng.below(800);
    row.imc_writes = rng.below(400);
    row.qpi_flits = rng.below(1000);
    row.resident_bytes = (16u << 20) + rng.below(4u << 20);
    sample.nodes.push_back(row);
  }
  return sample;
}

/// Everything a pass leaves behind that a view, the health pane or the
/// self-metrics could observe, folded per probe (FNV-1a).
u64 digest_probe(u64 hash, const fleet::ProbeState& state) {
  const auto mix = [&hash](u64 value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  for (const monitor::Sample& sample : state.samples) {
    mix(sample.timestamp);
    mix(sample.footprint_bytes);
    for (const monitor::NodeSample& node : sample.nodes) {
      for (const u64 v : {node.instructions, node.cycles, node.local_dram, node.remote_dram,
                          node.remote_hitm, node.imc_reads, node.imc_writes, node.qpi_flits,
                          node.resident_bytes}) {
        mix(v);
      }
    }
  }
  for (const u64 v :
       {u64{state.damage.dropped_frames}, u64{state.damage.resyncs},
        u64{state.damage.truncated_flushes}, u64{state.damage.unexpected_frames},
        u64{state.epoch}, u64{state.seq_floor}, u64{state.highest_seq},
        u64{state.gap_backlog}, state.delivered_frames, state.duplicate_frames,
        state.epoch_resets, state.heartbeats, state.hellos, state.resumes, state.acks_sent,
        state.pipeline.frames, state.pipeline.stamped_frames,
        state.pipeline.ingest_observations, state.pipeline.reorder_observations,
        u64{state.ended}}) {
    mix(v);
  }
  return hash;
}

/// One pass's fleet: a collector and kProbes probes on loopback links.
class Fleet {
 public:
  explicit Fleet(u64 seed) : seed_(seed), plain_(kProbes), supervised_(kProbes) {
    for (usize h = 0; h < kProbes; ++h) {
      const std::string host = util::format("h%05zu", h);
      if (kind_of(h) == Kind::kSupervised) {
        supervised_[h] = std::make_unique<SupLink>();
        SupLink* link = supervised_[h].get();
        auto dial = [this, link, h, host]() -> std::shared_ptr<util::ByteChannel> {
          auto pair = util::make_loopback_pair();
          if (link->connections == 0) {
            Span span("fleet.add_probe");
            link->slot = collector.add_probe(pair.b, host);
          } else {
            Span span("fleet.reattach_probe");
            collector.reattach_probe(link->slot, pair.b);
          }
          const usize attempt = link->connections++;
          // Later links are clean so every stream converges: the resume
          // handshake on a fresh link is what repairs a gap left by a drop.
          if (attempt >= kChaoticLinks) return pair.a;
          util::DisconnectingChannel::Config cut;
          cut.cut_after_sends = 10;
          cut.cut_delivery_bytes = 9;  // shorter than any frame: one clean truncation
          auto cut_channel = std::make_shared<util::DisconnectingChannel>(pair.a, cut);
          util::FaultyChannel::Config faults;
          faults.drop_probability = 0.01;
          faults.seed = seed_ + h * 101 + attempt;
          auto faulty = std::make_shared<util::FaultyChannel>(cut_channel, faults);
          link->cuts.push_back(cut_channel);
          link->faults.push_back(faulty);
          return faulty;
        };
        resilience::SupervisedProbeConfig config;
        config.host_id = host;
        config.node_count = kNodes;
        config.heartbeat_interval = 1u << 30;  // data frames only
        config.resume_timeout = kPeriod * 2;
        config.backoff = {.initial = kPeriod / 8 + 1,
                          .max = kPeriod * 2,
                          .multiplier = 2.0,
                          .jitter = 0.5};
        config.seed = seed_ + 9000 + h;
        link->probe = std::make_unique<resilience::SupervisedProbe>(std::move(config),
                                                                     std::move(dial));
        // The first pump dials and registers the probe: part of set-up.
        traced("resilience.pump", [&] { link->probe->pump(0); });
      } else {
        auto pair = util::make_loopback_pair();
        util::FaultyChannel::Config faults;
        // Plain v3 streams take the corruption chaos; the stamped v6
        // streams stay clean so their latency measures queueing only.
        faults.drop_probability = kind_of(h) == Kind::kPlain ? 0.02 : 0.0;
        faults.corrupt_probability = kind_of(h) == Kind::kPlain ? 0.01 : 0.0;
        faults.seed = seed_ + h * 101;
        PlainLink& link = plain_[h];
        link.tx = std::make_shared<util::FaultyChannel>(pair.a, faults);
        traced("fleet.add_probe", [&] { return collector.add_probe(pair.b, host); });
        link.probe = std::make_unique<memhist::Probe>(link.tx);
        // Interval 3 drifts the stamped position through the stream.
        if (kind_of(h) == Kind::kStamped) link.probe->set_stamp_interval(3);
        link.probe->send_hello(kNodes, host);
      }
    }
  }

  /// Sends round `round`'s frames from every probe; true while any probe
  /// still has data to send or acknowledgements to collect.
  bool send_round(usize round, Cycles& wall) {
    bool busy = false;
    for (usize h = 0; h < kProbes; ++h) {
      // The frames are a function of (seed, probe, round) only.
      util::Xoshiro256ss rng(seed_ ^ (h * 0x9e3779b97f4a7c15ull) ^ round);
      if (kind_of(h) == Kind::kSupervised) {
        SupLink& link = *supervised_[h];
        traced("resilience.pump", [&] { link.probe->pump(wall); });
        if (link.cursor < kRounds) {
          const auto sample = make_sample(rng, link.cursor++);
          wall = std::max(wall, sample.timestamp);
          traced("resilience.send_sample", [&] { link.probe->send_sample(sample, wall); });
        }
        if (link.cursor >= kRounds && !link.end_sent) {
          link.probe->send_end(sample_time(kRounds), wall);
          link.end_sent = true;
        }
        if (!(link.end_sent && link.probe->fully_acked())) busy = true;
      } else {
        PlainLink& link = plain_[h];
        if (link.cursor < kRounds) {
          const auto sample = make_sample(rng, link.cursor++);
          wall = std::max(wall, sample.timestamp);
          link.probe->set_clock(sample.timestamp);
          traced("memhist.send_sample", [&] { link.probe->send_sample(sample); });
        }
        if (link.cursor < kRounds) {
          busy = true;
        } else if (!link.ended) {
          link.probe->send_end(sample_time(kRounds));
          link.tx->close();
          link.ended = true;
        }
      }
    }
    return busy;
  }

  /// Offered frames and those lost without landing in the reconciliation
  /// identity (or missing / duplicated in a supervised timeline).
  struct Books {
    u64 offered = 0;
    u64 unaccounted = 0;
  };
  Books reconcile() const {
    Books books;
    for (usize h = 0; h < kProbes; ++h) {
      if (kind_of(h) == Kind::kSupervised) {
        const SupLink& link = *supervised_[h];
        const fleet::ProbeState& state = collector.probe(link.slot);
        u64 in_transit = 0;
        for (const auto& faulty : link.faults) in_transit += faulty->dropped_sends();
        for (const auto& cut : link.cuts) in_transit += cut->stall_discards();
        const u64 accepted =
            link.probe->data_transmissions() + link.probe->control_transmissions();
        const u64 accounted = state.delivered_frames + state.duplicate_frames + state.hellos +
                              state.resumes + state.heartbeats +
                              state.damage.unexpected_frames + in_transit +
                              state.damage.dropped_frames;
        books.offered += accepted;
        books.unaccounted += accepted > accounted ? accepted - accounted : accounted - accepted;
        // Exactly-once: the merged timeline is the sent sequence.
        u64 timeline_errors = state.samples.size() > kRounds ? state.samples.size() - kRounds
                                                             : kRounds - state.samples.size();
        for (usize i = 0; i < state.samples.size(); ++i) {
          if (state.samples[i].timestamp != static_cast<Cycles>(i) * kPeriod) ++timeline_errors;
        }
        books.unaccounted += timeline_errors;
      } else {
        const PlainLink& link = plain_[h];
        const fleet::ProbeState& state = collector.probe(h);
        const u64 sent = link.probe->frames_sent();
        const u64 accounted = state.samples.size() + state.hellos + (state.ended ? 1 : 0) +
                              link.tx->dropped_sends() + link.tx->corrupted_sends();
        books.offered += sent + link.probe->send_failures();
        books.unaccounted += (sent > accounted ? sent - accounted : accounted - sent) +
                             link.probe->send_failures();
      }
    }
    return books;
  }

  u64 digest() const {
    u64 hash = 14695981039346656037ull;
    for (usize i = 0; i < collector.probe_count(); ++i) {
      hash = digest_probe(hash, collector.probe(i));
    }
    return hash;
  }

  /// Sample slot of each probe index (supervised probes register on dial).
  usize slot(usize h) const {
    return kind_of(h) == Kind::kSupervised ? supervised_[h]->slot : h;
  }

  fleet::FleetCollector collector;

 private:
  struct PlainLink {
    std::shared_ptr<util::FaultyChannel> tx;
    std::unique_ptr<memhist::Probe> probe;
    usize cursor = 0;
    bool ended = false;
  };
  struct SupLink {
    std::unique_ptr<resilience::SupervisedProbe> probe;
    std::vector<std::shared_ptr<util::DisconnectingChannel>> cuts;
    std::vector<std::shared_ptr<util::FaultyChannel>> faults;
    usize slot = 0;
    usize connections = 0;
    usize cursor = 0;
    bool end_sent = false;
  };

  u64 seed_;
  std::vector<PlainLink> plain_;  // indexed by probe; supervised slots stay empty
  std::vector<std::unique_ptr<SupLink>> supervised_;
};

/// When round `round` of a paced pass started at `start` is due.
Clock::time_point due_time(Clock::time_point start, usize round) {
  return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                     kRoundInterval * static_cast<double>(round)));
}

/// Runs every round (data, then drain until the supervised probes are
/// fully acknowledged) and returns the pass's seconds. When `latencies` is
/// set the pass is paced and records per-frame latency and the
/// generator's lateness.
double run_pass(Fleet& fleet, std::vector<double>* latencies, std::vector<double>* lags) {
  std::vector<usize> cursor(kProbes, 0);
  const auto start = Clock::now();
  Cycles wall = 0;
  for (usize round = 0; round < kRounds + kMaxDrainRounds; ++round) {
    if (latencies != nullptr) {
      const auto due = due_time(start, round);
      std::this_thread::sleep_until(due);
      lags->push_back(std::max(0.0, seconds_since(due)) * 1e3);
    }
    const bool busy = fleet.send_round(round, wall);
    traced("fleet.poll", [&] { return fleet.collector.poll(wall); });
    if (latencies != nullptr) {
      const auto returned = Clock::now();
      for (usize h = 0; h < kProbes; ++h) {
        const fleet::ProbeState& state = fleet.collector.probe(fleet.slot(h));
        for (; cursor[h] < state.samples.size(); ++cursor[h]) {
          const Cycles raw = state.samples[cursor[h]].timestamp + state.origin.value_or(0);
          const usize sent_round = (raw - sample_time(0)) / kPeriod;
          latencies->push_back(seconds_between(due_time(start, sent_round), returned) * 1e3);
        }
      }
    }
    if (!busy && round >= kRounds) break;
    wall += kPeriod;
  }
  return seconds_since(start);
}

struct FleetCounts {
  u64 frames = 0, delivered = 0, duplicates = 0, damage = 0, reattaches = 0, merged = 0;
  double instructions = 0.0;
};

FleetCounts count(const Fleet& fleet) {
  FleetCounts c;
  for (usize i = 0; i < fleet.collector.probe_count(); ++i) {
    const fleet::ProbeState& state = fleet.collector.probe(i);
    c.frames += state.pipeline.frames;
    c.delivered += state.delivered_frames;
    c.duplicates += state.duplicate_frames;
    c.damage += state.damage.total();
    c.reattaches += state.reattaches;
    c.merged += state.samples.size();
    for (const monitor::Sample& sample : state.samples) {
      for (const monitor::NodeSample& node : sample.nodes) {
        c.instructions += static_cast<double>(node.instructions);
      }
    }
  }
  return c;
}

double median_of(const char* span, double scale) {
  return median(tracer().durations_ns(span)) / scale;
}

}  // namespace

void run_fleet_ingest(const Options& options, Report& report) {
  std::vector<double> setup_s, walls, latencies, lags;
  // Rates over the whole run, as the simulator workloads report them.
  double merged = 0.0, pass_s = 0.0, total_wall = 0.0, instructions = 0.0;
  FleetCounts counts;

  const auto setup = [&] {
    const auto start = Clock::now();
    auto fleet = std::make_unique<Fleet>(options.seed);
    setup_s.push_back(seconds_since(start));
    return fleet;
  };

  const auto iteration = [&](u32) -> double {
    auto paced = setup();
    run_pass(*paced, &latencies, &lags);
    const u64 paced_digest = paced->digest();
    const Fleet::Books paced_books = paced->reconcile();
    paced.reset();

    auto unpaced = setup();
    const auto start = Clock::now();
    const double pass_seconds = run_pass(*unpaced, nullptr, nullptr);
    const auto view = traced("fleet.view", [&] { return unpaced->collector.view(); });
    const std::string text = traced("fleet.render", [&] { return fleet::render_fleet_view(view); });
    const auto rows = traced("fleet.health_rows", [&] { return unpaced->collector.health_rows(); });
    const std::string health = traced("introspect.render_health", [&] {
      return introspect::render_health(rows, unpaced->collector.clock());
    });
    const double wall = seconds_since(start);

    counts = count(*unpaced);
    walls.push_back(wall);
    total_wall += wall;
    merged += static_cast<double>(counts.merged);
    pass_s += pass_seconds;
    instructions += counts.instructions;
    const Fleet::Books books = unpaced->reconcile();
    report.attempted += paced_books.offered + books.offered;
    report.failed += paced_books.unaccounted + books.unaccounted;
    report.check(paced_books.unaccounted == 0 && books.unaccounted == 0,
                 "fleet: every offered frame reconciles (" +
                     std::to_string(paced_books.unaccounted + books.unaccounted) +
                     " unaccounted)");
    report.check(paced_digest == unpaced->digest(),
                 "fleet: paced and unpaced merged state are identical");
    report.check(!text.empty() && !health.empty(), "fleet: view and health pane render");
    return wall;
  };

  if (!options.trace) {
    repeat_for(options.seconds, 3, SIZE_MAX, iteration);
    report.set("setup_s", median(setup_s), "s");
    report.set("wall_s", mean(walls), "s");
    // Simulated instructions carried by the merged telemetry, per second.
    report.set("sim_minstr_per_s", instructions / total_wall / 1e6, "Minstr/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set("capacity_fps", merged / pass_s, "1/s");
    report.set("ingest_p50_ms", median(latencies), "ms");
    const Tail p99 = tail(latencies);
    report.set("ingest_p99_ms", p99.value, "ms");
    report.note(util::format("iterations: %zu; ingest tail p%.3f of %zu frames; offered %.0f "
                             "frames/s paced",
                             walls.size(), p99.percentile, p99.samples, kOfferedFps));
    return;
  }

  traced_halves(options, report, iteration);
  const Tracer& t = tracer();
  report.set("fleet.add_probe_us", median_of("fleet.add_probe", 1e3), "us");
  report.set("fleet.poll_ms", median_of("fleet.poll", 1e6), "ms");
  // Two passes per iteration decode the same frames.
  const double frames_per_iteration = 2.0 * static_cast<double>(counts.frames);
  report.set("fleet.ns_per_frame", t.per_iteration_ms("fleet.poll") * 1e6 / frames_per_iteration,
             "ns");
  report.set("fleet.view_ms", median_of("fleet.view", 1e6), "ms");
  report.set("introspect.health_ms",
             median_of("fleet.health_rows", 1e6) + median_of("introspect.render_health", 1e6),
             "ms");
  report.set("memhist.send_us", median_of("memhist.send_sample", 1e3), "us");
  report.set("resilience.send_us", median_of("resilience.send_sample", 1e3), "us");
  report.set("resilience.pump_us", median_of("resilience.pump", 1e3), "us");
  report.set("fleet.frames", static_cast<double>(counts.frames), "count");
  report.set("fleet.delivered", static_cast<double>(counts.delivered), "count");
  report.set("fleet.duplicates", static_cast<double>(counts.duplicates), "count");
  report.set("fleet.damage", static_cast<double>(counts.damage), "count");
  report.set("resilience.reattaches", static_cast<double>(counts.reattaches), "count");
  report.set("resilience.useful_ratio",
             static_cast<double>(counts.delivered) /
                 static_cast<double>(std::max<u64>(1, counts.delivered + counts.duplicates)),
             "ratio");
  const Tail lag = tail(lags);
  report.set("bench.gen_lag_p99_ms", lag.value, "ms");
}

}  // namespace perfbench
