// sgprs_perfbench — timed passes of one benchmark workload.
//
// perfbench/run.py drives this binary, one process per batch of passes, so
// every batch's peak RSS is its own. A pass goes through the public path end
// to end — workload::load_scenario_spec -> workload::run_spec(spec, RunSeeds)
// -> the report writer — timed with std::chrono::steady_clock. The process
// prints one JSON object on stdout: the fastest and median pass wall time,
// the paper's statistics, the run's work counts and an FNV-1a hash of the
// report bytes, time series included (the correctness check compares
// hashes; it pins no golden value).
//
//   sgprs_perfbench --spec FILE [--seed N] [--shards N] [--duration-s S]
//                   [--repeat-s S] [--setup] [--traced] [--layers]
//
//   --seed        RunSeeds.sim (default: the spec's own sim.seed)
//   --shards      overrides sim.shards
//   --duration-s  overrides the simulated horizon (sim.duration_s)
//   --repeat-s    after the first pass, repeats passes until S wall-seconds
//                 have passed; every pass must write the same report bytes.
//                 Host-speed probes run before the first pass and after
//                 the last
//   --setup       drops the warm-up, so a near-zero --duration-s measures
//                 the run's fixed cost (spec load, cluster build, WCET
//                 profiling, initial placement, report write)
//   --traced      attaches obs::PhaseProfiler (and obs::SpanSink on
//                 dynamic specs, exported to a discarding stream) and
//                 reports the fastest pass's per-phase profile
//   --layers      after the passes, replays each layer's public entry points
//                 at the workload's size and reports median timings with
//                 their sample counts
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "dnn/builders.hpp"
#include "dnn/partition.hpp"
#include "fleet/report.hpp"
#include "gpu/context_pool.hpp"
#include "gpu/executor.hpp"
#include "metrics/collector.hpp"
#include "metrics/timeseries.hpp"
#include "obs/instruments.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"
#include "workload/spec.hpp"
#include "workload/suite.hpp"

namespace {

using namespace sgprs;
using common::SimTime;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string spec;
  std::optional<std::uint64_t> seed;
  int shards = 0;
  double duration_s = 0.0;
  bool setup = false;
  bool traced = false;
  bool layers = false;
  double repeat_s = 0.0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sgprs_perfbench: " << why
            << "\nusage: sgprs_perfbench --spec FILE [--seed N] [--shards N] "
               "[--duration-s S] [--repeat-s S] [--setup] [--traced] [--layers]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--spec") {
      opt.spec = next();
    } else if (a == "--seed") {
      opt.seed = std::stoull(next());
    } else if (a == "--shards") {
      opt.shards = std::stoi(next());
    } else if (a == "--duration-s") {
      opt.duration_s = std::stod(next());
    } else if (a == "--setup") {
      opt.setup = true;
    } else if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--layers") {
      opt.layers = true;
    } else if (a == "--repeat-s") {
      opt.repeat_s = std::stod(next());
    } else {
      usage("unknown argument " + a);
    }
  }
  if (opt.spec.empty()) usage("--spec is required");
  return opt;
}

/// Discards everything written to it, counting bytes: the span export is
/// formatted in full without holding the document in memory.
class CountingBuf : public std::streambuf {
 public:
  std::int64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += n;
    return n;
  }

 private:
  std::int64_t bytes_ = 0;
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// What a user of the CLI would keep: the full fleet-run JSON followed by
/// its time-series CSV for dynamic specs, the suite row (headline metrics)
/// for closed-world ones.
void write_report(const workload::ScenarioSpec& spec,
                  const workload::SpecResult& r, std::ostream& out) {
  if (r.dynamic) {
    fleet::write_fleet_run_json(r.dyn, out);
    metrics::write_timeseries_csv(r.dyn.series, out);
    return;
  }
  std::vector<workload::SuiteRun> runs(1);
  runs[0].file = spec.name;
  runs[0].ok = true;
  runs[0].scenario = spec.name;
  runs[0].description = spec.description;
  runs[0].result = r;
  workload::write_suite_json(runs, out);
}

/// Run-shape facts the layer replays are sized by.
struct Shape {
  std::int64_t devices = 1;
  std::int64_t live_streams = 1;
};

Shape shape_of(const workload::SpecResult& r) {
  Shape s;
  if (r.dynamic) {
    s.devices = r.dyn.final_devices;
    s.live_streams =
        r.dyn.streams_admitted - r.dyn.streams_retired - r.dyn.streams_lost;
  } else if (r.fleet) {
    s.devices = static_cast<std::int64_t>(r.cluster.fleet.devices.size());
    s.live_streams = r.cluster.fleet.tasks_assigned;
  } else {
    s.live_streams = static_cast<std::int64_t>(r.single.per_task.size());
  }
  s.devices = std::max<std::int64_t>(1, s.devices);
  s.live_streams = std::max<std::int64_t>(1, s.live_streams);
  return s;
}

// ---------------------------------------------------------------------------
// Layer replays. Each returns the median of its samples and the sample
// count; a sample is timed as a whole and divided by the operations in it.

struct Timing {
  double median = 0.0;
  std::int64_t samples = 0;
};

Timing median_of(std::vector<double> v) {
  Timing t;
  t.samples = static_cast<std::int64_t>(v.size());
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  return t;
}

/// workload: load_scenario_spec on the workload's own file.
Timing replay_spec_load(const std::string& path) {
  std::vector<double> ms;
  const auto start = Clock::now();
  while (ms.size() < 5 || (ms.size() < 200 && seconds_since(start) < 0.2)) {
    const auto t0 = Clock::now();
    workload::load_scenario_spec(path);
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median_of(std::move(ms));
}

/// The 6-stage ResNet18 partition every workload's streams run.
struct StageSet {
  dnn::Network net = dnn::resnet18();
  dnn::CostModel cost = dnn::CostModel::calibrated();
  dnn::StagePlan plan = dnn::partition_into_stages(net, cost, 6);
};

/// dnn: stage_kernels over every stage of the 6-stage ResNet18 partition.
Timing replay_stage_kernels(const StageSet& s) {
  std::vector<double> ns;
  std::size_t kernels = 0;
  for (int sample = 0; sample < 300; ++sample) {
    const auto t0 = Clock::now();
    for (const auto& stage : s.plan.stages) {
      kernels += dnn::stage_kernels(s.net, s.cost, stage, sample).size();
    }
    ns.push_back(seconds_since(t0) * 1e9 / s.plan.stage_count());
  }
  if (kernels == 0) std::abort();
  return median_of(std::move(ns));
}

/// Streams one device's context pool exposes.
int pool_stream_count(const gpu::ContextPoolConfig& pool_cfg,
                      const gpu::DeviceSpec& device,
                      const gpu::SharingParams& sharing) {
  sim::Engine engine;
  gpu::Executor exec(engine, device, gpu::SpeedupModel::rtx2080ti(), sharing);
  gpu::ContextPool pool(exec, pool_cfg);
  int n = 0;
  for (const auto& pc : pool.contexts()) {
    n += static_cast<int>(pc.high_streams.size() + pc.low_streams.size());
  }
  return n;
}

/// gpu: Executor::enqueue_batch of every ResNet18 stage on `streams` pool
/// streams of one device (at most the pool's count), run to completion;
/// time per kernel completed.
Timing replay_executor(const StageSet& s,
                       const gpu::ContextPoolConfig& pool_cfg,
                       const gpu::DeviceSpec& device,
                       const gpu::SharingParams& sharing, int streams) {
  std::vector<std::vector<gpu::KernelDesc>> batches;
  std::size_t per_frame = 0;
  for (const auto& stage : s.plan.stages) {
    batches.push_back(dnn::stage_kernels(s.net, s.cost, stage));
    per_frame += batches.back().size();
  }
  constexpr int kFrames = 8;
  std::vector<double> ns;
  for (int sample = 0; sample < 25; ++sample) {
    sim::Engine engine;
    gpu::Executor exec(engine, device, gpu::SpeedupModel::rtx2080ti(),
                       sharing);
    gpu::ContextPool pool(exec, pool_cfg);
    // Low streams first, spread across contexts, as the scheduler fills
    // them; high streams after.
    std::vector<gpu::StreamId> ids;
    for (const bool high : {false, true}) {
      for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (const auto& pc : pool.contexts()) {
          const auto& list = high ? pc.high_streams : pc.low_streams;
          if (i < list.size()) {
            ids.push_back(list[i]);
            any = true;
          }
        }
        if (!any) break;
      }
    }
    const int k = std::min(streams, static_cast<int>(ids.size()));
    std::int64_t done = 0;
    const auto t0 = Clock::now();
    for (int f = 0; f < kFrames; ++f) {
      for (int st = 0; st < k; ++st) {
        for (const auto& batch : batches) {
          exec.enqueue_batch(ids[st], batch, [&done](SimTime) { ++done; });
        }
      }
    }
    engine.run();
    const double secs = seconds_since(t0);
    if (done != static_cast<std::int64_t>(kFrames) * k *
                    static_cast<std::int64_t>(batches.size())) {
      std::abort();
    }
    ns.push_back(secs * 1e9 / (static_cast<double>(per_frame) * kFrames * k));
  }
  return median_of(std::move(ns));
}

/// A pending event that, when fired, schedules its successor a seeded
/// pseudo-random delay ahead: the calendar holds a constant pending set.
struct HoldEvent {
  sim::Engine* engine;
  std::uint64_t* state;
  void operator()() const {
    *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::int64_t delay_ns = 1 + static_cast<std::int64_t>(
                                          (*state >> 33) % 33333333ULL);
    engine->schedule_at(engine->now() + SimTime{delay_ns}, *this);
  }
};

/// sim: Engine::schedule_at + step with `pending` events in the calendar.
Timing replay_engine(std::int64_t pending) {
  sim::Engine engine;
  std::uint64_t state = 42;
  for (std::int64_t i = 0; i < pending; ++i) {
    HoldEvent{&engine, &state}();
  }
  constexpr int kSteps = 200000;
  for (int i = 0; i < kSteps; ++i) engine.step();  // warm the slab
  std::vector<double> ns;
  for (int sample = 0; sample < 9; ++sample) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSteps; ++i) engine.step();
    ns.push_back(seconds_since(t0) * 1e9 / kSteps);
  }
  if (engine.pending_count() != static_cast<std::size_t>(pending)) {
    std::abort();
  }
  return median_of(std::move(ns));
}

/// metrics: Collector::on_release + on_complete, one frame per call pair,
/// spread over `tasks` task ids.
Timing replay_collector(std::int64_t tasks) {
  constexpr int kFrames = 100000;
  std::vector<double> ns;
  for (int sample = 0; sample < 9; ++sample) {
    metrics::Collector collector(SimTime::zero());
    SimTime t = SimTime::zero();
    const auto t0 = Clock::now();
    for (int i = 0; i < kFrames; ++i) {
      const int task = static_cast<int>(i % tasks);
      collector.on_release(task, t);
      collector.on_complete(task, t, t + SimTime::from_ms(33.0),
                            t + SimTime{3000000 + (i % 97) * 10000});
      t = t + SimTime{1000};
    }
    ns.push_back(seconds_since(t0) * 1e9 / kFrames);
    if (collector.total_counts().completed() != kFrames) std::abort();
  }
  return median_of(std::move(ns));
}

/// cluster: Placer::place + remove_task at the workload's device count and
/// policy. The placer first takes the spec's initial task set one place()
/// at a time; then each sample retires a random live stream and places a
/// fresh one, holding the live set steady.
Timing replay_placer(const workload::ScenarioSpec& spec,
                     std::uint64_t generator_seed) {
  const workload::ScenarioConfig cfg = workload::lower(spec);
  cluster::ClusterConfig cc;
  cc.devices = cfg.fleet.empty()
                   ? std::vector<gpu::DeviceSpec>(cfg.num_devices, cfg.device)
                   : cfg.fleet;
  if (cfg.device_mem_mb > 0.0) {
    for (auto& d : cc.devices) {
      d.mem_bytes = static_cast<std::int64_t>(cfg.device_mem_mb * 1048576.0);
    }
  }
  cc.placement = cfg.placement;
  cc.admission_margin = cfg.admission_margin;
  cc.occupancy_threshold = cfg.occupancy_threshold;
  cc.scheduler = cfg.scheduler;
  cc.pool = workload::pool_config_for(cfg);
  cc.sharing = cfg.sharing;
  sim::Engine engine;
  metrics::Collector collector;
  cluster::Cluster fleet(engine, collector, cc);
  cluster::Placer& placer = fleet.placer();
  const std::vector<rt::Task> tasks = workload::task_builder_for(
      spec, generator_seed)(cfg, fleet.pool_sm_sizes());

  struct Live {
    int device;
    int task_id;
  };
  std::vector<Live> live;
  for (const auto& t : tasks) {
    if (const auto d = placer.place(t)) live.push_back({*d, t.id});
  }
  if (live.empty() || tasks.empty()) std::abort();
  common::Rng rng(7);
  int next_id = static_cast<int>(tasks.size());
  std::vector<double> us;
  const auto start = Clock::now();
  while (us.size() < 200 ||
         (us.size() < 5000 && seconds_since(start) < 0.3)) {
    const std::size_t victim = rng.next_u64() % live.size();
    rt::Task fresh = tasks[rng.next_u64() % tasks.size()];
    fresh.id = next_id++;
    const auto t0 = Clock::now();
    if (!placer.remove_task(live[victim].device, live[victim].task_id)) {
      std::abort();
    }
    const auto d = placer.place(fresh);
    us.push_back(seconds_since(t0) * 1e6);
    if (d) {
      live[victim] = {*d, fresh.id};
    } else {
      live[victim] = live.back();
      live.pop_back();
      if (live.empty()) break;
    }
  }
  return median_of(std::move(us));
}

Timing replay_report_write(const workload::ScenarioSpec& spec,
                           const workload::SpecResult& r) {
  std::vector<double> ms;
  const auto start = Clock::now();
  while (ms.size() < 3 || (ms.size() < 50 && seconds_since(start) < 0.3)) {
    std::ostringstream out;
    const auto t0 = Clock::now();
    write_report(spec, r, out);
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median_of(std::move(ms));
}

// ---------------------------------------------------------------------------
// Host-speed probe. A fixed mix of what the simulator spends its time on —
// integer arithmetic, binary-heap calendar operations and dependent loads
// over a 4 MiB ring — about 25 ms on a 4-core x86 VM. Its code lives here,
// not in src/, so no change to the simulator moves it: its time measures
// only how fast the host runs at the moment. A batch times a few probes
// before its first pass and after its last (between passes they would
// evict the passes' caches), and frees the probe's memory in between so
// that it stays out of the passes' peak RSS.

double fastest_probe_s(int runs) {
  std::uint64_t state = 88172645463325252ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::uint32_t> ring(1 << 20);
  for (std::uint32_t i = 0; i < ring.size(); ++i) ring[i] = i;
  // Sattolo's shuffle: one cycle through the whole ring.
  for (std::size_t i = ring.size() - 1; i > 0; --i) {
    std::swap(ring[i], ring[next() % i]);
  }
  std::vector<std::uint64_t> heap;
  for (int i = 0; i < (1 << 16); ++i) heap.push_back(next() % 1000000);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());

  double best = 1e300;
  std::uint64_t sink = 0;
  for (int r = 0; r < runs; ++r) {
    const auto t0 = Clock::now();
    std::uint64_t a = 1;
    for (int i = 0; i < 6000000; ++i) {
      a = a * 6364136223846793005ULL + (a >> 29);
    }
    for (int i = 0; i < 60000; ++i) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.back() += 1 + next() % 33333;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    std::uint32_t at = 0;
    for (int i = 0; i < 150000; ++i) at = ring[at];
    sink += a + heap.front() + at;
    best = std::min(best, seconds_since(t0));
  }
  // Keeps the loops' results live; a probe that never returns 0 is kept.
  if (sink == 0) std::abort();
  return best;
}

constexpr int kProbesPerBlock = 3;

void emit_timing(common::JsonWriter& w, const std::string& name, Timing t) {
  w.key(name).begin_object();
  w.field_exact("median", t.median);
  w.field("samples", t.samples);
  w.end_object();
}

/// One pass through the public path — spec load, run, report written —
/// timed as a whole.
struct Pass {
  workload::ScenarioSpec spec;
  workload::RunSeeds seeds;
  workload::SpecResult result;
  obs::PhaseProfiler profiler;
  std::int64_t span_bytes = 0;
  std::uint64_t report_hash = 0;
  double wall_s = 0.0;
};

Pass timed_pass(const Options& opt) {
  Pass p;
  const auto t0 = Clock::now();
  p.spec = workload::load_scenario_spec(opt.spec);
  workload::ScenarioSpec& spec = p.spec;
  if (opt.shards > 0) spec.base.shards = opt.shards;
  if (opt.setup) spec.base.warmup = SimTime::zero();
  if (opt.duration_s > 0.0) {
    spec.base.duration = SimTime::from_sec(opt.duration_s);
  }
  workload::validate(spec);

  p.seeds.sim = opt.seed.value_or(spec.base.seed);
  p.seeds.generator = spec.generator ? spec.generator->seed : 0;

  auto spans = std::make_unique<obs::SpanSink>();
  obs::Instruments instruments;
  if (opt.traced) {
    instruments.profiler = &p.profiler;
    // Span tracing exists only on the dynamic (fleet-runtime) path.
    if (spec.dynamic()) instruments.spans = spans.get();
  }

  p.result = workload::run_spec(spec, p.seeds, nullptr, instruments);

  if (instruments.spans) {
    CountingBuf sink;
    std::ostream out(&sink);
    spans->write_perfetto(out);
    p.span_bytes = sink.bytes();
  }
  spans.reset();

  std::ostringstream report;
  write_report(spec, p.result, report);
  p.report_hash = fnv1a(report.str());
  p.wall_s = seconds_since(t0);
  return p;
}

int run(const Options& opt) {
  // The first pass is kept for its counts, spec and result; later passes
  // only add their wall time, must hash the same report, and replace the
  // profile when they are the fastest so far.
  double probe_s = opt.repeat_s > 0.0 ? fastest_probe_s(kProbesPerBlock) : 0.0;
  const Pass first = timed_pass(opt);
  std::vector<double> walls{first.wall_s};
  obs::PhaseProfiler profiler = first.profiler;
  int mismatches = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < opt.repeat_s) {
    const Pass p = timed_pass(opt);
    if (p.report_hash != first.report_hash) ++mismatches;
    if (p.wall_s < *std::min_element(walls.begin(), walls.end())) {
      profiler = p.profiler;
    }
    walls.push_back(p.wall_s);
  }
  if (opt.repeat_s > 0.0) {
    probe_s = std::min(probe_s, fastest_probe_s(kProbesPerBlock));
  }
  const workload::ScenarioSpec& spec = first.spec;
  const workload::SpecResult& r = first.result;
  std::sort(walls.begin(), walls.end());

  const metrics::Snapshot& agg = r.aggregate();
  const Shape shape = shape_of(r);
  std::ostringstream hash;
  hash << std::hex << first.report_hash;

  common::JsonWriter w(std::cout);
  w.begin_object();
  w.field("shards", spec.base.shards);
  w.field("passes", static_cast<std::int64_t>(walls.size()));
  w.field("pass_mismatches", mismatches);
  w.field_exact("wall_min_s", walls.front());
  w.field_exact("wall_median_s", walls[walls.size() / 2]);
  if (opt.repeat_s > 0.0) w.field_exact("probe_min_s", probe_s);
  w.field_exact("horizon_s", spec.base.duration.to_sec());
  w.field("report_hash", hash.str());
  w.field("span_bytes", first.span_bytes);
  // The paper's statistics over the measured (post-warm-up) window.
  w.field("frames", agg.counts.completed());
  w.field_exact("sim_fps", agg.fps);
  w.field_exact("dmr", agg.dmr);
  w.field_exact("p99_latency_ms", agg.p99_latency_ms);
  // Work counts: exact, repeat at a fixed seed.
  const double events = r.dynamic ? r.dyn.sim_events
                        : r.fleet ? r.cluster.sim_events
                                  : r.single.sim_events;
  w.field("events", static_cast<std::int64_t>(std::llround(events)));
  w.field("releases", r.releases());
  w.field("stage_migrations", r.migrations());
  w.field("medium_promotions", r.dynamic ? r.dyn.medium_promotions
                               : r.fleet ? r.cluster.medium_promotions
                                         : r.single.medium_promotions);
  w.field("jobs_shed", r.dyn.jobs_shed);
  w.field("streams_admitted", r.dyn.streams_admitted);
  w.field("streams_rejected", r.dyn.streams_rejected);
  w.field("decisions",
          static_cast<std::int64_t>(r.dyn.decisions.size()) +
              r.dyn.truncated_decisions);
  w.field("failovers", r.dyn.failovers);
  w.field("failover_retries", r.dyn.failover_retries);
  w.field("devices_failed", r.dyn.devices_failed);
  w.field("jobs_faulted", r.dyn.jobs_faulted);
  w.field("streams_lost", r.dyn.streams_lost);
  w.field("devices", shape.devices);
  w.field("live_streams", shape.live_streams);

  if (opt.traced) {
    w.key("profile").begin_object();
    for (int p = 0; p < obs::PhaseProfiler::kPhases; ++p) {
      const auto phase = static_cast<obs::PhaseProfiler::Phase>(p);
      const auto& st = profiler.stat(phase);
      w.key(obs::PhaseProfiler::phase_name(phase)).begin_object();
      w.field("count", st.count);
      w.field_exact("total_s", st.total_s);
      w.field_exact("max_s", st.max_s);
      w.end_object();
    }
    w.end_object();
  }

  if (opt.layers) {
    const workload::ScenarioConfig cfg = workload::lower(spec);
    const StageSet stages;
    const gpu::ContextPoolConfig pool_cfg = workload::pool_config_for(cfg);
    // Contended = the workload's streams per device, at least 2 and at
    // most the streams one device's pool exposes.
    const int per_device = static_cast<int>(
        (shape.live_streams + shape.devices - 1) / shape.devices);
    const int contended = std::min(
        std::max(2, per_device),
        pool_stream_count(pool_cfg, cfg.device, cfg.sharing));
    w.key("layers").begin_object();
    w.field("contended_streams", contended);
    emit_timing(w, "spec_load_ms", replay_spec_load(opt.spec));
    emit_timing(w, "stage_kernels_ns", replay_stage_kernels(stages));
    emit_timing(w, "ns_per_kernel_solo",
                replay_executor(stages, pool_cfg, cfg.device, cfg.sharing, 1));
    emit_timing(w, "ns_per_kernel_contended",
                replay_executor(stages, pool_cfg, cfg.device, cfg.sharing,
                                contended));
    emit_timing(w, "ns_per_event", replay_engine(shape.live_streams));
    emit_timing(w, "collector_ns_per_frame",
                replay_collector(shape.live_streams));
    emit_timing(w, "report_write_ms", replay_report_write(spec, r));
    emit_timing(w, "us_per_placement",
                replay_placer(spec, first.seeds.generator));
    w.end_object();
  }
  w.end_object();
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "sgprs_perfbench: " << e.what() << "\n";
    return 1;
  }
}
