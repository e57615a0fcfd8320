#include "fleet/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fleet/faults.hpp"
#include "fleet/overload_guard.hpp"
#include "gpu/device.hpp"
#include "obs/instruments.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace sgprs::fleet {

namespace {

using common::SimTime;
using workload::ScenarioConfig;
using workload::ScenarioSpec;

/// True when `from` plus `seconds` lies more than a second past `limit`, so
/// also when a drawn or compounded delay (an exponential MTTR tail, a
/// failover backoff grown by its multiplier) is too long or not finite to
/// convert to a SimTime. Sums near `limit` fall through to the caller's
/// exact SimTime comparison.
bool far_past(SimTime from, double seconds, SimTime limit) {
  return !(from.to_sec() + seconds <= limit.to_sec() + 1.0);
}

/// A stream currently releasing jobs somewhere in the fleet.
struct LiveStream {
  int task_id = -1;
  const rt::Task* task = nullptr;  // stable storage in a device's deque
  int device = -1;
  SimTime admitted_at;
  int tier = 0;
  /// Origin name: the timeline template for churned streams, the task
  /// entry name for the initial set (retire targets match it exactly),
  /// empty for generator-built tasks.
  std::string tmpl;
};

/// A stream whose device crashed and that the crash-instant batch failover
/// could not re-place. It waits in the retry/backoff loop (then parks, or
/// is dropped) holding a full copy of its task — the crashed device's
/// storage is no longer its home.
struct Orphan {
  int task_id = -1;
  rt::Task task;
  int tier = 0;
  std::string tmpl;
  int from_device = -1;
  SimTime orphaned_at;
  /// Placement attempts consumed so far (the crash-instant batch is 1).
  int attempts = 0;
  bool parked = false;
};

class FleetRuntime {
 public:
  FleetRuntime(const ScenarioSpec& spec, const workload::RunSeeds& seeds,
               trace::TraceRecorder* capture,
               const obs::Instruments& instruments)
      : spec_(spec),
        cfg_(workload::lower(spec)),
        policy_(spec.fleet_policy ? *spec.fleet_policy : FleetPolicySpec{}),
        timeline_(spec.timeline ? *spec.timeline : TimelineSpec{}),
        faults_(spec.faults ? *spec.faults : FaultSpec{}),
        reduced_(cfg_.warmup),
        capture_(capture),
        sink_(instruments.spans),
        prof_(instruments.profiler) {
    cfg_.seed = seeds.sim;
    generator_seed_ = seeds.generator;
    if (!spec.fleet_mode && !spec.dynamic()) {
      // The paper's single-GPU runs: every task placed on base.device.
      cfg_.num_devices = 1;
      cfg_.fleet.clear();
      cfg_.admission_margin = 0.0;
    }
    // Churn rng: timeline seed mixed with the sim seed, so experiment
    // replications decorrelate while a fixed (spec, seeds) pair replays
    // byte-identically.
    std::uint64_t mix = timeline_.seed +
                        0x9e3779b97f4a7c15ULL * (cfg_.seed + 1);
    churn_rng_.reseed(common::splitmix64_next(mix));
    fault_engine_ = std::make_unique<FaultEngine>(faults_, cfg_.seed);
    if (timeline_.trace) {
      // A replayed trace that carries fault events *is* the fault source:
      // it replaces the spec's scripted events and stochastic process
      // (the failover policy still comes from the spec).
      for (const auto& e : timeline_.trace->events) {
        if (e.kind == trace::TraceEvent::Kind::kCrash ||
            e.kind == trace::TraceEvent::Kind::kRecover) {
          trace_faults_ = true;
          break;
        }
      }
    }

    overload_.cfg = policy_.overload;
    overload_.audit = &result_.decisions;
    overload_.audit_truncated = &result_.truncated_decisions;

    {
      obs::PhaseProfiler::Scope setup(prof_,
                                      obs::PhaseProfiler::Phase::kSetup);
      build_cluster();
      build_prototypes();
      place_initial_tasks();
    }
    if (capture_ && spec_.dynamic()) {
      capture_->set_templates(effective_templates());
    }
    start();
  }

  workload::SpecResult run() {
    {
      obs::PhaseProfiler::Scope eng(prof_,
                                    obs::PhaseProfiler::Phase::kEngineRun);
      run_epochs();
    }
    finish();
    workload::SpecResult out;
    out.name = spec_.name;
    out.fleet = spec_.fleet_mode;
    out.dynamic = spec_.dynamic();
    if (out.dynamic) {
      fill_dynamic();
      out.dyn = std::move(result_);
    } else if (out.fleet) {
      fill_cluster(out.cluster);
    } else {
      fill_single(out.single);
    }
    return out;
  }

 private:
  // --- epoch loop (docs/sharding.md) ---------------------------------

  /// Epoch-barrier loop, the one execution path at every shard count. Each
  /// iteration is one epoch: the cluster runs every shard's device events
  /// up to the next control-plane instant (Cluster::run_until), then the
  /// control engine runs that instant's events serially. Control handlers
  /// schedule onto the paused shard engines (admission release arming,
  /// retire cancels); those land in each engine's staging buffer and are
  /// ingested by MinHeap::merge_from when its shard resumes — the
  /// cross-shard handoff batch, ordered by (epoch, source shard, per-shard
  /// schedule sequence).
  void run_epochs() {
    for (;;) {
      const SimTime tc = engine_.next_event_time();
      const bool has_control = tc <= cfg_.duration;
      {
        obs::PhaseProfiler::Scope wave(
            prof_, obs::PhaseProfiler::Phase::kShardPhase);
        cluster_->run_until(has_control ? tc : cfg_.duration);
      }
      if (!has_control) break;
      obs::PhaseProfiler::Scope ctl(
          prof_, obs::PhaseProfiler::Phase::kControlPhase);
      engine_.run_until(tc);
    }
    engine_.run_until(cfg_.duration);  // idle control calendar: advance now
  }

  // --- setup ---------------------------------------------------------

  void build_cluster() {
    cluster::ClusterConfig ccfg = workload::cluster_config_for(cfg_);
    ccfg.wrap_scheduler = [this, shards = ccfg.shards](
                              std::unique_ptr<rt::Scheduler> inner,
                              int device_index,
                              metrics::Collector& collector) {
      DeviceOverload& dev = overload_.device(
          device_index, cluster::shard_of(device_index, shards));
      dev.collector = &collector;
      return std::make_unique<OverloadGuard>(std::move(inner), device_index,
                                             &overload_, &dev);
    };
    if (sink_) {
      // Per-device buffers: each is written only by its device's shard
      // thread (and the control plane at barriers).
      ccfg.tracer_for = [this](int device_index) {
        return &sink_->device_tracer(device_index);
      };
    }
    cluster_ =
        std::make_unique<cluster::Cluster>(shard0_, reduced_, std::move(ccfg));

    // The scenario-wide memory cap applies to autoscaled devices too, so a
    // memory-constrained fleet cannot scale its way past the budget.
    scale_spec_ = workload::device_spec_for(
        cfg_, policy_.autoscaler.device.empty()
                  ? cfg_.device
                  : *gpu::device_by_name(policy_.autoscaler.device));
    pool_sizes_ = cluster_->pool_sm_sizes();
    if (policy_.autoscaler.kind != AutoscalePolicyKind::kNone) {
      // Devices the autoscaler may add must already be covered by every
      // task's WCET profile — profile their pool sizes up front.
      for (int sms : cluster::pool_sm_sizes_for(
               scale_spec_, workload::pool_config_for(cfg_))) {
        if (std::find(pool_sizes_.begin(), pool_sizes_.end(), sms) ==
            pool_sizes_.end()) {
          pool_sizes_.push_back(sms);
        }
      }
      autoscaler_ = make_autoscaler(policy_.autoscaler.kind);
    }
  }

  /// Replaying a trace swaps the timeline's own template set for the one
  /// recorded in the trace file (a trace-driven timeline has no templates
  /// of its own — validated at parse time).
  const std::vector<StreamTemplate>& effective_templates() const {
    return timeline_.trace ? timeline_.trace->templates
                           : timeline_.templates;
  }

  /// One pre-profiled prototype task per template (plus a downgraded
  /// variant when QoS fps_scale is enabled): admissions clone, never
  /// profile.
  void build_prototypes() {
    const double scale = policy_.overload.fps_scale;
    for (const auto& t : effective_templates()) {
      prototypes_[t.name] = build_stream_task(t, cfg_.device, pool_sizes_);
      if (scale < 1.0) {
        downgraded_[t.name] =
            build_stream_task(t, cfg_.device, pool_sizes_, scale);
      }
    }
  }

  void place_initial_tasks() {
    if (spec_.tasks.empty() && !spec_.generator) return;
    auto builder = workload::task_builder_for(spec_, generator_seed_);
    std::vector<rt::Task> tasks = builder(cfg_, pool_sizes_);
    for (const auto& t : tasks) {
      next_task_id_ = std::max(next_task_id_, t.id + 1);
    }
    if (capture_ && !spec_.dynamic()) capture_initial_tasks(tasks);
    cluster_->place(std::move(tasks));
    for (int d = 0; d < cluster_->num_devices(); ++d) {
      for (const auto& t : cluster_->device(d).tasks) {
        const workload::TaskEntrySpec* e =
            workload::task_entry_for(spec_, t.id);
        const int tier = e ? e->tier : 0;
        overload_.set_tier(t.id, tier);
        live_.push_back(LiveStream{t.id, &t, d, SimTime::zero(), tier,
                                   e ? e->name : ""});
        ++result_.streams_admitted;
      }
    }
    // Keep stream bookkeeping in admission (id) order, not device order.
    std::sort(live_.begin(), live_.end(),
              [](const LiveStream& a, const LiveStream& b) {
                return a.task_id < b.task_id;
              });
    if (sink_) {
      for (const auto& s : live_) {
        sink_->stream_admitted(SimTime::zero(), s.task_id, s.device,
                               s.tmpl.empty() ? "task" : s.tmpl);
      }
    }
    for (const cluster::Cluster::Rejected& r : cluster_->rejected()) {
      ++result_.streams_rejected;
      if (r.oom) {
        ++result_.streams_oom_rejected;
        record({SimTime::zero(), DecisionKind::kStreamOomRejected, r.id, -1,
                "initial placement ran out of device memory"});
      } else {
        record({SimTime::zero(), DecisionKind::kStreamRejected, r.id, -1,
                "initial placement failed admission"});
      }
    }
  }

  /// --record-trace on a static spec: its workload is the initial task
  /// set this run places, so the trace is one template per task (its
  /// entry's shape, a default entry's for generator tasks, with the built
  /// task's name, network and resolved times) plus one t=0 admission each.
  /// Approximate by design: replaying it goes through the dynamic path,
  /// whose report format differs from the closed-world one.
  void capture_initial_tasks(const std::vector<rt::Task>& tasks) {
    std::vector<StreamTemplate> templates;
    templates.reserve(tasks.size());
    for (const auto& t : tasks) {
      const workload::TaskEntrySpec* e =
          workload::task_entry_for(spec_, t.id);
      StreamTemplate& st =
          templates.emplace_back(e ? *e : workload::TaskEntrySpec{});
      const bool sporadic = t.arrival == rt::ArrivalModel::kSporadic;
      st.name = t.name;
      st.network = t.network->name();
      st.num_stages = t.stage_count();
      st.deadline_ms = t.deadline.to_ms();
      st.phase_ms = t.phase.to_ms();
      st.fps = 1000.0 / (sporadic ? t.min_separation : t.period).to_ms();
      if (sporadic) {
        st.min_separation_ms = t.min_separation.to_ms();
        st.max_separation_ms = t.max_separation.to_ms();
      }
    }
    capture_->set_templates(std::move(templates));
    for (const auto& t : tasks) {
      capture_->record_admit(SimTime::zero(), t.name, t.id, -1, "initial");
    }
  }

  void start() {
    rt::RunnerConfig rcfg;
    rcfg.duration = cfg_.duration;
    rcfg.jitter_seed = cfg_.seed;
    cluster_->start(rcfg);
    peak_provisioned_ = provisioned_devices();

    if (timeline_.trace) {
      // Replay: the recorded admit/retire stream *is* the churn source.
      // Events are scheduled here — in trace order, in the same start()
      // slot the scripted events occupy — so equal-time events keep their
      // recorded order through the engine's insertion-sequence tie-break.
      // The horizon rule matches what capture could produce: scripted and
      // arrival admits never fire at t == duration, recorded lifetime
      // retires can, so only t > duration is skipped.
      const auto& events = timeline_.trace->events;
      for (std::size_t i = 0; i < events.size(); ++i) {
        const SimTime t = SimTime::from_ns(events[i].t_ns);
        if (t > cfg_.duration) break;  // non-decreasing: nothing later fires
        engine_.schedule_at(t, [this, i] { run_trace_event(i); });
      }
    } else {
      // Scripted events (every_s expands against the run horizon).
      for (std::size_t i = 0; i < timeline_.events.size(); ++i) {
        const TimelineEvent& e = timeline_.events[i];
        if (e.every_s <= 0.0) {
          schedule_event(SimTime::from_sec(e.at_s), i);
          continue;
        }
        const double until =
            e.until_s > 0.0 ? e.until_s : cfg_.duration.to_sec();
        for (double t = e.from_s; t <= until; t += e.every_s) {
          schedule_event(SimTime::from_sec(t), i);
        }
      }
      // Stochastic arrival processes.
      for (std::size_t i = 0; i < timeline_.arrivals.size(); ++i) {
        arm_arrival(i, SimTime::from_sec(timeline_.arrivals[i].from_s));
      }
    }
    // Fault sources (docs/faults.md). On a fault-carrying trace replay the
    // recorded crash/recover events fire from the trace loop above; the
    // spec's own sources stay quiet so faults are not injected twice.
    if (!trace_faults_) {
      for (std::size_t i = 0; i < faults_.events.size(); ++i) {
        const SimTime t = SimTime::from_sec(faults_.events[i].at_s);
        if (t >= cfg_.duration) continue;
        engine_.schedule_at(t, [this, i] { run_fault_event(i); });
      }
      if (faults_.process.mtbf_s > 0.0) {
        for (int d = 0; d < cluster_->num_devices(); ++d) {
          arm_device_fault(d, SimTime::from_sec(faults_.process.from_s));
        }
      }
    }
    // Control loops.
    if (autoscaler_) {
      schedule_at_or_skip(SimTime::from_ms(policy_.autoscaler.tick_ms),
                          [this] { autoscale_tick(); });
    }
    series_window_ = SimTime::from_ms(policy_.series_window_ms);
    result_.series.window = series_window_;
    schedule_at_or_skip(series_window_, [this] { sample_tick(); });
  }

  // --- scheduling helpers -------------------------------------------

  template <typename F>
  void schedule_at_or_skip(SimTime t, F&& fn) {
    if (t > cfg_.duration) return;
    engine_.schedule_at(t, std::forward<F>(fn));
  }

  void schedule_event(SimTime t, std::size_t index) {
    if (t >= cfg_.duration) return;
    engine_.schedule_at(t, [this, index] { run_event(index); });
  }

  // --- churn driver --------------------------------------------------

  void run_event(std::size_t index) {
    const TimelineEvent& e = timeline_.events[index];
    const SimTime now = engine_.now();
    if (e.kind == TimelineEvent::Kind::kAdmit) {
      const StreamTemplate* t = find_template(timeline_, e.target);
      SGPRS_CHECK(t != nullptr);  // validated at parse time
      for (int i = 0; i < e.count; ++i) admit_stream(*t, now, "scripted");
    } else {
      retire_matching(e.target, e.count, now);
    }
  }

  void run_trace_event(std::size_t index) {
    const trace::TraceEvent& e = timeline_.trace->events[index];
    const SimTime now = engine_.now();
    if (e.kind == trace::TraceEvent::Kind::kCrash) {
      // Faults replay directly (crash_device re-derives the failover); the
      // recorded source tag keeps the audit-trail bytes identical.
      crash_device(e.device, now, e.source);
      return;
    }
    if (e.kind == trace::TraceEvent::Kind::kRecover) {
      recover_device(e.device, e.source);
      return;
    }
    if (e.kind == trace::TraceEvent::Kind::kAdmit) {
      const StreamTemplate* t = nullptr;
      for (const auto& cand : timeline_.trace->templates) {
        if (cand.name == e.tmpl) {
          t = &cand;
          break;
        }
      }
      SGPRS_CHECK(t != nullptr);  // validated at load time
      // Admission is re-run, not replayed: on the recorded cluster the
      // outcome (and the id burned) matches the original run exactly; on a
      // scaled trace or different policy it may differ, which is the point
      // of replaying against new configurations.
      const int id = admit_stream(*t, now, e.source.c_str(), e.tier);
      if (id >= 0) trace_ids_[e.id] = id;
    } else {
      const auto it = trace_ids_.find(e.id);
      if (it == trace_ids_.end()) return;  // that admit was rejected here
      retire_stream_by_id(it->second, DecisionKind::kStreamRetired,
                          e.source.c_str());
    }
  }

  void arm_arrival(std::size_t index, SimTime from) {
    const ArrivalProcess& a = timeline_.arrivals[index];
    // Exponential inter-arrival gap (Poisson process), drawn in event
    // order from the churn rng.
    const double gap_s =
        -std::log(1.0 - churn_rng_.next_double()) / a.rate_per_s;
    const SimTime at = from + SimTime::from_sec(gap_s);
    const SimTime until = a.until_s > 0.0 ? SimTime::from_sec(a.until_s)
                                          : cfg_.duration;
    if (at >= until || at >= cfg_.duration) return;
    engine_.schedule_at(at, [this, index] { fire_arrival(index); });
  }

  void fire_arrival(std::size_t index) {
    const ArrivalProcess& a = timeline_.arrivals[index];
    const SimTime now = engine_.now();
    const StreamTemplate* t = find_template(timeline_, a.tmpl);
    SGPRS_CHECK(t != nullptr);
    const int id = admit_stream(*t, now, "arrival");
    if (id >= 0 && a.lifetime_max_s > 0.0) {
      const double life_s =
          churn_rng_.uniform(a.lifetime_min_s, a.lifetime_max_s);
      schedule_at_or_skip(now + SimTime::from_sec(life_s), [this, id] {
        retire_stream_by_id(id, DecisionKind::kStreamRetired,
                            "lifetime elapsed");
      });
    }
    arm_arrival(index, now);
  }

  /// Admits one stream: clone the prototype, place (admission test unless
  /// disabled), QoS-downgrade retry, then arm its releases. Returns the
  /// task id, or -1 when the stream was rejected.
  ///
  /// `tier_override >= 0` (synthesized traces) replaces the template tier.
  /// The capture hook records the *attempt* before the outcome is known:
  /// even a rejected admission consumed an id, and replay must burn the
  /// same ids to stay byte-identical.
  int admit_stream(const StreamTemplate& tmpl, SimTime now,
                   const char* source, int tier_override = -1) {
    const int id = next_task_id_++;
    const int tier = tier_override >= 0 ? tier_override : tmpl.tier;
    if (capture_) {
      capture_->record_admit(now, tmpl.name, id, tier_override, source);
    }
    rt::Task task = prototypes_.at(tmpl.name);
    task.id = id;
    task.name = tmpl.name + "-" + std::to_string(id);

    std::optional<int> dev;
    bool oom = false;
    if (policy_.overload.admission_test) {
      const cluster::PlaceResult r = cluster_->placer().place_ex(task);
      dev = r.device;
      oom = r.oom;
    } else {
      dev = cluster_->placer().force_place(task);
    }
    bool downgraded = false;
    if (!dev && policy_.overload.fps_scale < 1.0) {
      task = downgraded_.at(tmpl.name);
      task.id = id;
      task.name = tmpl.name + "-" + std::to_string(id);
      const cluster::PlaceResult r = cluster_->placer().place_ex(task);
      dev = r.device;
      oom = r.oom;
      downgraded = dev.has_value();
    }
    if (!dev) {
      ++result_.streams_rejected;
      if (oom) {
        // Memory was the sole remaining blocker on every candidate: the
        // fleet has compute headroom but no VRAM for this stream.
        ++result_.streams_oom_rejected;
        record({now, DecisionKind::kStreamOomRejected, id, -1,
                std::string(source) + " " + tmpl.name});
      } else {
        record({now, DecisionKind::kStreamRejected, id, -1,
                std::string(source) + " " + tmpl.name});
      }
      return -1;
    }
    const rt::Task& stored = cluster_->admit_task(*dev, std::move(task));
    overload_.set_tier(id, tier);
    live_.push_back(LiveStream{id, &stored, *dev, now, tier, tmpl.name});
    ++result_.streams_admitted;
    if (sink_) sink_->stream_admitted(now, id, *dev, tmpl.name);
    if (downgraded) {
      ++result_.streams_downgraded;
      record({now, DecisionKind::kStreamDowngraded, id, *dev,
              tmpl.name + " at fps_scale " +
                  std::to_string(policy_.overload.fps_scale)});
    } else {
      record({now, DecisionKind::kStreamAdmitted, id, *dev,
              std::string(source) + " " + tmpl.name});
    }
    return id;
  }

  /// Retires the `count` oldest live streams whose origin name (timeline
  /// template, or initial task-entry name) equals `target` exactly.
  /// Prefix or suffix heuristics would let "cam" capture "cam_hd" /
  /// "cam2" streams; generator-built streams have no origin name and can
  /// only be retired by lifetime.
  void retire_matching(const std::string& target, int count, SimTime now) {
    std::vector<int> ids;
    for (const auto& s : live_) {
      if (static_cast<int>(ids.size()) >= count) break;
      if (s.tmpl == target) ids.push_back(s.task_id);
    }
    for (int id : ids) {
      retire_stream_by_id(id, DecisionKind::kStreamRetired, "scripted");
    }
    (void)now;
  }

  bool retire_stream_by_id(int id, DecisionKind kind, const char* detail) {
    auto it = std::find_if(live_.begin(), live_.end(),
                           [id](const LiveStream& s) {
                             return s.task_id == id;
                           });
    if (it == live_.end()) return false;  // already gone (double retire)
    const SimTime now = engine_.now();
    // Churn retirements feed the capture; autoscaler drops (kStreamDropped)
    // do not — they are consequences replay re-derives, not inputs.
    if (capture_ && kind == DecisionKind::kStreamRetired) {
      capture_->record_retire(now, id, detail);
    }
    cluster_->retire_task(it->device, id);
    record({now, kind, id, it->device, detail});
    if (sink_) sink_->stream_retired(now, id);
    live_.erase(it);
    ++result_.streams_retired;
    return true;
  }

  // --- autoscaler ----------------------------------------------------

  int provisioned_devices() const {
    return cluster_->placer().active_devices() +
           static_cast<int>(warming_.size());
  }

  void autoscale_tick() {
    const SimTime now = engine_.now();
    finish_drains(now);

    const auto& acfg = policy_.autoscaler;
    FleetLoad load;
    load.warming_devices = static_cast<int>(warming_.size());
    load.draining_devices = static_cast<int>(draining_.size());
    load.failed_devices = failed_count();
    for (int d = 0; d < cluster_->num_devices(); ++d) {
      if (!cluster_->placer().device_active(d)) continue;
      ++load.active_devices;
      const double u = cluster_->placer().utilization(d);
      load.mean_utilization += u;
      load.max_utilization = std::max(load.max_utilization, u);
    }
    if (load.active_devices > 0) {
      load.mean_utilization /= static_cast<double>(load.active_devices);
    }

    if (sink_) {
      sink_->control(now, "autoscale_tick", -1, -1,
                     std::to_string(load.active_devices) + " active, " +
                         std::to_string(load.warming_devices) + " warming");
    }
    const int provisioned = load.active_devices + load.warming_devices;
    int desired = autoscaler_->desired_devices(load, acfg);
    desired = std::clamp(desired, acfg.min_devices, acfg.max_devices);
    const bool cooled =
        last_scale_.ns < 0 ||
        now - last_scale_ >= SimTime::from_ms(acfg.cooldown_ms);
    if (desired > provisioned && cooled) {
      scale_up(now);
    } else if (desired < provisioned && cooled &&
               load.active_devices > acfg.min_devices) {
      scale_down(now);
    }

    schedule_at_or_skip(now + SimTime::from_ms(acfg.tick_ms),
                        [this] { autoscale_tick(); });
  }

  void scale_up(SimTime now) {
    const auto& acfg = policy_.autoscaler;
    const bool warm = acfg.warmup_ms > 0.0;
    const int idx = cluster_->add_device(scale_spec_, /*active=*/!warm);
    ++result_.scale_ups;
    last_scale_ = now;
    record({now, DecisionKind::kScaleUp, -1, idx, scale_spec_.name});
    if (warm) {
      warming_.push_back(idx);
      schedule_at_or_skip(now + SimTime::from_ms(acfg.warmup_ms),
                          [this, idx] { activate_device(idx); });
    } else {
      record({now, DecisionKind::kDeviceActive, -1, idx, ""});
      update_degraded(now);
      readmit_parked(now);
    }
    // Autoscaled devices join the stochastic fault process too.
    if (!trace_faults_) arm_device_fault(idx, now);
    peak_provisioned_ = std::max(peak_provisioned_, provisioned_devices());
  }

  void activate_device(int idx) {
    // A device that crashed mid-warm-up never activates here; recovery
    // (which re-activates unconditionally) owns bringing it back.
    if (device_failed(idx)) return;
    const SimTime now = engine_.now();
    warming_.erase(std::remove(warming_.begin(), warming_.end(), idx),
                   warming_.end());
    cluster_->set_device_active(idx, true);
    record({now, DecisionKind::kDeviceActive, -1, idx, ""});
    update_degraded(now);
    readmit_parked(now);
  }

  void scale_down(SimTime now) {
    // Victim: the active device hosting the fewest live streams; ties go
    // to the youngest (highest index) so the original fleet shrinks last.
    int victim = -1;
    int victim_streams = 0;
    for (int d = 0; d < cluster_->num_devices(); ++d) {
      if (!cluster_->placer().device_active(d)) continue;
      int streams = 0;
      for (const auto& s : live_) streams += s.device == d ? 1 : 0;
      if (victim < 0 || streams < victim_streams ||
          (streams == victim_streams && d > victim)) {
        victim = d;
        victim_streams = streams;
      }
    }
    if (victim < 0) return;
    cluster_->set_device_active(victim, false);
    draining_.push_back(victim);
    ++result_.scale_downs;
    last_scale_ = now;
    record({now, DecisionKind::kScaleDown, -1, victim,
            std::to_string(victim_streams) + " streams to re-place"});

    // Re-place the victim's streams through the placer; in-flight jobs
    // keep draining on the victim, only *future* releases move.
    replace_streams(
        victim, now, DecisionKind::kStreamReplaced, [](int, int) {},
        [&](int id, rt::Task&&, int, std::string) {
          // The stream leaves the system (it *was* admitted), so it
          // counts as retired — not rejected — keeping
          // admitted − retired == live.
          record({now, DecisionKind::kStreamDropped, id, victim,
                  "no device admits the re-placed stream"});
          if (sink_) sink_->stream_retired(now, id);
          ++result_.streams_retired;
        });
  }

  /// Shared drain / failover re-placement. All of `victim`'s live streams
  /// are retired first and re-placed as ONE batched decision (CASE-style):
  /// the victim is inactive, so the candidate set any stream sees is the
  /// same whether its predecessors were retired one at a time or up front.
  /// The batch is then walked in admission order — placed streams are
  /// re-admitted (recorded as `success_kind`, then `on_placed(id, dev)`),
  /// each unplaced one is handed to `on_unplaced(id, task, tier, tmpl)`
  /// *inline*, so the audit interleaving matches the pre-refactor drain
  /// loop byte for byte.
  template <typename OnPlaced, typename OnUnplaced>
  void replace_streams(int victim, SimTime now, DecisionKind success_kind,
                       OnPlaced&& on_placed, OnUnplaced&& on_unplaced) {
    std::vector<int> ids;
    std::vector<rt::Task> copies;
    std::vector<int> tiers;
    std::vector<std::string> tmpls;
    for (const auto& s : live_) {
      if (s.device != victim) continue;
      ids.push_back(s.task_id);
      copies.push_back(*s.task);  // keeps its id: metrics stay continuous
      tiers.push_back(s.tier);
      tmpls.push_back(s.tmpl);
    }
    for (int id : ids) {
      cluster_->retire_task(victim, id, /*forget_metrics=*/true);
    }
    std::vector<cluster::PlaceResult> placed;
    {
      obs::PhaseProfiler::Scope batch(
          prof_, obs::PhaseProfiler::Phase::kPlacerBatch);
      placed = cluster_->placer().place_batch(
          copies, /*force=*/!policy_.overload.admission_test);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const int id = ids[i];
      auto it = std::find_if(live_.begin(), live_.end(),
                             [id](const LiveStream& s) {
                               return s.task_id == id;
                             });
      if (!placed[i].device) {
        live_.erase(it);
        on_unplaced(id, std::move(copies[i]), tiers[i],
                    std::move(tmpls[i]));
        continue;
      }
      const int dev = *placed[i].device;
      const rt::Task& stored =
          cluster_->admit_task(dev, std::move(copies[i]));
      it->task = &stored;
      it->device = dev;
      record({now, success_kind, id, dev,
              "from device " + std::to_string(victim)});
      if (sink_) sink_->stream_moved(now, id, dev);
      on_placed(id, dev);
    }
  }

  void finish_drains(SimTime now) {
    for (auto it = draining_.begin(); it != draining_.end();) {
      if (device_failed(*it)) {
        // Crashed mid-drain: crash_device already tore the drain down
        // (jobs aborted, kDeviceFailed recorded) and released the placer
        // accounting exactly once — never retire it a second time here.
        it = draining_.erase(it);
      } else if (cluster_->jobs_in_flight(*it) == 0) {
        record({now, DecisionKind::kDeviceRetired, -1, *it, ""});
        it = draining_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // --- faults / failover (docs/faults.md) ----------------------------

  bool device_failed(int d) const {
    return d >= 0 && d < static_cast<int>(failed_.size()) &&
           failed_[d] != 0;
  }

  int failed_count() const {
    int n = 0;
    for (char f : failed_) n += f ? 1 : 0;
    return n;
  }

  void grow_fault_state(int d) {
    if (d >= static_cast<int>(failed_.size())) {
      failed_.resize(d + 1, 0);
      down_gen_.resize(d + 1, 0);
      fault_incidents_.resize(d + 1, 0);
    }
  }

  void run_fault_event(std::size_t index) {
    const FaultEvent& e = faults_.events[index];
    const SimTime now = engine_.now();
    if (e.kind == FaultEvent::Kind::kRecover) {
      recover_device(e.device, "scripted");
      return;
    }
    std::vector<int> victims;
    if (e.device >= 0) {
      victims.push_back(e.device);
    } else {
      // Correlated outage: the first `count` healthy devices, highest
      // index first — the same victim order scale-down uses, so the
      // original fleet core fails last.
      for (int d = cluster_->num_devices() - 1;
           d >= 0 && static_cast<int>(victims.size()) < e.count; --d) {
        if (!device_failed(d)) victims.push_back(d);
      }
    }
    for (int d : victims) {
      if (!crash_device(d, now, "scripted")) continue;
      if (e.down_s > 0.0 && !far_past(now, e.down_s, cfg_.duration)) {
        schedule_recovery(d, now + SimTime::from_sec(e.down_s),
                          "scripted recovery");
      }
    }
  }

  /// Arms device `d`'s next stochastic failure: `from` plus an exponential
  /// MTBF gap keyed (seed, device, incident) — shard-blind, so the
  /// schedule never depends on event interleaving or shard count.
  void arm_device_fault(int d, SimTime from) {
    const FaultProcess& pr = faults_.process;
    if (pr.mtbf_s <= 0.0) return;
    grow_fault_state(d);
    const SimTime until =
        pr.until_s > 0.0 ? std::min(SimTime::from_sec(pr.until_s),
                                    cfg_.duration)
                         : cfg_.duration;
    const SimTime base = std::max(from, SimTime::from_sec(pr.from_s));
    const int incident = fault_incidents_[d];
    const double gap_s = fault_engine_->failure_gap_s(d, incident);
    if (far_past(base, gap_s, until)) return;
    const SimTime at = base + SimTime::from_sec(gap_s);
    if (at >= until) return;
    engine_.schedule_at(at,
                        [this, d, incident] { stochastic_fail(d, incident); });
  }

  void stochastic_fail(int d, int incident) {
    if (incident != fault_incidents_[d]) return;  // stale arm
    if (device_failed(d)) return;  // a scripted crash got there first;
                                   // recovery re-arms the process
    fault_incidents_[d] = incident + 1;
    const SimTime now = engine_.now();
    if (!crash_device(d, now, "mtbf")) return;
    if (faults_.process.mttr_s > 0.0) {
      const double repair_s = fault_engine_->repair_s(d, incident);
      if (!far_past(now, repair_s, cfg_.duration)) {
        schedule_recovery(d, now + SimTime::from_sec(repair_s),
                          "mttr elapsed");
      }
    }
  }

  /// `why` must be a string literal: the engine's inline event buffer has
  /// no room for a std::string capture, and the audit tags here are fixed.
  void schedule_recovery(int d, SimTime at, const char* why) {
    if (at > cfg_.duration) return;  // stays down past the horizon
    const int gen = down_gen_[d];
    engine_.schedule_at(at, [this, d, gen, why] {
      // Generation guard: an explicit recover event may have beaten this
      // timer, and the device may even be mid-way through a *newer* crash
      // whose own recovery this must not preempt.
      if (!device_failed(d) || down_gen_[d] != gen) return;
      recover_device(d, why);
    });
  }

  /// Kills device `d` at `now`: in-flight jobs are aborted (counted as
  /// jobs_faulted — their collector entries stay open, so they never read
  /// as deadline misses), live streams fail over through one placer batch,
  /// and whatever cannot be re-placed immediately enters the retry loop as
  /// an orphan. A crash tears down warm-up and drain state too: the device
  /// leaves warming_/draining_ here and its pending activation /
  /// drain-retire events become no-ops, so placer accounting is released
  /// exactly once (by the stream retirements in the failover batch).
  bool crash_device(int d, SimTime now, const std::string& why) {
    if (d < 0 || d >= cluster_->num_devices()) return false;
    grow_fault_state(d);
    if (failed_[d]) return false;  // already down
    failed_[d] = 1;
    ++down_gen_[d];
    warming_.erase(std::remove(warming_.begin(), warming_.end(), d),
                   warming_.end());
    draining_.erase(std::remove(draining_.begin(), draining_.end(), d),
                    draining_.end());
    cluster_->set_device_active(d, false);
    ++result_.devices_failed;
    record({now, DecisionKind::kDeviceFailed, -1, d, why});
    if (capture_) capture_->record_fault(now, d, /*crash=*/true, why);
    const int killed = cluster_->abort_in_flight(d);
    result_.jobs_faulted += killed;
    // Recorded from the control plane (the shards are parked at this
    // barrier) because abort_in_flight has no notion of sim time.
    if (sink_ && killed > 0) sink_->device_tracer(d).abort_all(killed, now);
    replace_streams(
        d, now, DecisionKind::kStreamFailedOver,
        [&](int, int) {
          ++result_.failovers;
          recovery_.add(0.0);  // re-homed within the crash instant
        },
        [&](int id, rt::Task&& task, int tier, std::string tmpl) {
          record({now, DecisionKind::kStreamOrphaned, id, d,
                  "no device admits the failed-over stream"});
          if (sink_) sink_->stream_moved(now, id, -1);
          Orphan o;
          o.task_id = id;
          o.task = std::move(task);
          o.tier = tier;
          o.tmpl = std::move(tmpl);
          o.from_device = d;
          o.orphaned_at = now;
          o.attempts = 1;  // the crash-instant batch was attempt one
          orphans_.push_back(std::move(o));
          schedule_retry(orphans_.back(), now);
        });
    update_degraded(now);
    return true;
  }

  /// Brings a failed device back: it rejoins the active set (even if it
  /// was warming or draining when it crashed — recovery is a clean
  /// restart), parked orphans get a placement attempt, and the stochastic
  /// fault process re-arms for the next incident.
  bool recover_device(int d, const std::string& why) {
    if (!device_failed(d)) return false;  // stale or double recovery
    const SimTime now = engine_.now();
    failed_[d] = 0;
    cluster_->set_device_active(d, true);
    ++result_.devices_recovered;
    record({now, DecisionKind::kDeviceRecovered, -1, d, why});
    if (capture_) capture_->record_fault(now, d, /*crash=*/false, why);
    update_degraded(now);
    readmit_parked(now);
    if (!trace_faults_) arm_device_fault(d, now);
    return true;
  }

  void schedule_retry(const Orphan& o, SimTime now) {
    const double backoff_ms =
        fault_engine_->retry_backoff_ms(o.task_id, o.attempts);
    if (far_past(now, backoff_ms * 1e-3, cfg_.duration)) return;
    const SimTime at = now + SimTime::from_ms(backoff_ms);
    if (at > cfg_.duration) return;  // homeless at the horizon
    const int id = o.task_id;
    engine_.schedule_at(at, [this, id] { retry_failover(id); });
  }

  void retry_failover(int id) {
    auto it = std::find_if(orphans_.begin(), orphans_.end(),
                           [id](const Orphan& o) { return o.task_id == id; });
    if (it == orphans_.end() || it->parked) return;  // re-homed already
    Orphan& o = *it;
    const SimTime now = engine_.now();
    ++o.attempts;
    ++result_.failover_retries;
    record({now, DecisionKind::kFailoverRetry, id, -1,
            "attempt " + std::to_string(o.attempts) + " of " +
                std::to_string(faults_.failover.max_attempts)});
    const bool final_attempt = o.attempts >= faults_.failover.max_attempts;
    if (try_place_orphan(o, now, final_attempt)) {
      orphans_.erase(it);
      return;
    }
    if (!final_attempt) {
      schedule_retry(o, now);
      return;
    }
    if (faults_.failover.park) {
      // Parked: no more timed retries; the next capacity-change event
      // (device recovery, warm-up activation) re-runs placement.
      o.parked = true;
      return;
    }
    drop_orphan(o, now, "failover attempts exhausted");
    orphans_.erase(it);
  }

  /// One placement attempt for an orphan. On the final attempt the
  /// failover policy may downgrade QoS (re-place at fps_scale × rate)
  /// before giving up, mirroring admission-time downgrade. Returns true
  /// when the stream found a new home.
  bool try_place_orphan(Orphan& o, SimTime now, bool final_attempt) {
    rt::Task task = o.task;  // fresh copy; the id survives re-admission
    std::optional<int> dev;
    if (policy_.overload.admission_test) {
      dev = cluster_->placer().place_ex(task).device;
    } else {
      dev = cluster_->placer().force_place(task);
    }
    bool downgraded = false;
    if (!dev && final_attempt && faults_.failover.qos_downgrade) {
      const auto dg = downgraded_.find(o.tmpl);
      if (dg != downgraded_.end()) {
        task = dg->second;
        task.id = o.task_id;
        task.name = o.tmpl + "-" + std::to_string(o.task_id);
        dev = cluster_->placer().place_ex(task).device;
        downgraded = dev.has_value();
      }
    }
    if (!dev) return false;
    const rt::Task& stored = cluster_->admit_task(*dev, std::move(task));
    live_.push_back(
        LiveStream{o.task_id, &stored, *dev, now, o.tier, o.tmpl});
    const double down_s = (now - o.orphaned_at).to_sec();
    ++result_.failovers;
    recovery_.add(down_s);
    result_.unavailability_s += down_s;
    if (downgraded) {
      ++result_.streams_downgraded;
      record({now, DecisionKind::kStreamDowngraded, o.task_id, *dev,
              o.tmpl + " downgraded on final failover attempt"});
    }
    record({now, DecisionKind::kStreamFailedOver, o.task_id, *dev,
            "from device " + std::to_string(o.from_device)});
    if (sink_) sink_->stream_moved(now, o.task_id, *dev);
    return true;
  }

  void drop_orphan(const Orphan& o, SimTime now, const std::string& why) {
    record({now, DecisionKind::kStreamDropped, o.task_id, o.from_device,
            why});
    if (sink_) sink_->stream_retired(now, o.task_id);
    // The stream *was* admitted, so it leaves as retired (keeping
    // admitted − retired == live) as well as lost.
    ++result_.streams_lost;
    ++result_.streams_retired;
    result_.unavailability_s += (now - o.orphaned_at).to_sec();
  }

  /// Capacity-change hook: parked orphans get one more placement attempt
  /// whenever the fleet grows back — a device recovers or a warm-up
  /// completes. Orphans re-try in crash order (stable, shard-blind).
  void readmit_parked(SimTime now) {
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      if (!it->parked) {
        ++it;
        continue;
      }
      ++result_.failover_retries;
      record({now, DecisionKind::kFailoverRetry, it->task_id, -1,
              "parked retry on capacity change"});
      if (try_place_orphan(*it, now, /*final_attempt=*/true)) {
        it = orphans_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Degraded mode: below the min_active_devices floor the overload
  /// guard's shed path engages (priority-aware, tight queue limit)
  /// instead of letting every surviving queue blow up; the pre-fault
  /// overload config is restored when capacity returns. The swap happens
  /// here — at control barriers — the same way set_tier writes do, so the
  /// parallel shard phase never observes a torn config.
  void update_degraded(SimTime now) {
    if (faults_.min_active_devices <= 0) return;
    const int active = cluster_->placer().active_devices();
    if (!degraded_ && active < faults_.min_active_devices) {
      degraded_ = true;
      saved_overload_ = overload_.cfg;
      if (overload_.cfg.shed == ShedMode::kNone) {
        overload_.cfg.shed = ShedMode::kPriority;
      }
      overload_.cfg.queue_limit =
          overload_.cfg.queue_limit > 0
              ? std::min(overload_.cfg.queue_limit,
                         faults_.degraded_queue_limit)
              : faults_.degraded_queue_limit;
      record({now, DecisionKind::kDegradedEnter, -1, -1,
              std::to_string(active) + " active devices, floor " +
                  std::to_string(faults_.min_active_devices)});
    } else if (degraded_ && active >= faults_.min_active_devices) {
      degraded_ = false;
      overload_.cfg = saved_overload_;
      record({now, DecisionKind::kDegradedExit, -1, -1,
              std::to_string(active) + " active devices"});
    }
  }

  // --- time series ---------------------------------------------------

  void sample_tick() {
    const SimTime now = engine_.now();
    // Counts only — a full aggregate() would merge and sort every latency
    // sample recorded so far just to throw the percentiles away, turning
    // per-window sampling quadratic in run length.
    const metrics::TaskCounters c = cluster_->total_counts();

    metrics::TimeSample s;
    s.t = now;
    for (int d = 0; d < cluster_->num_devices(); ++d) {
      if (cluster_->placer().device_active(d)) {
        ++s.devices_active;
        s.utilization += cluster_->placer().utilization(d);
      }
    }
    if (s.devices_active > 0) {
      s.utilization /= static_cast<double>(s.devices_active);
    }
    s.devices_warming = static_cast<int>(warming_.size());
    s.devices_draining = static_cast<int>(draining_.size());
    s.streams_live = static_cast<int>(live_.size());
    s.releases = c.released - prev_counts_.released;
    s.completions = c.completed() - prev_counts_.completed();
    s.on_time = c.on_time - prev_counts_.on_time;
    s.dropped = c.dropped - prev_counts_.dropped;
    const std::int64_t closed = c.closed() - prev_counts_.closed();
    const std::int64_t late = (c.late - prev_counts_.late) + s.dropped;
    s.window_dmr = closed > 0
                       ? static_cast<double>(late) /
                             static_cast<double>(closed)
                       : 0.0;
    // The first post-warmup sample covers only (warmup, t]; normalising
    // by the full window would report a spurious FPS dip at the boundary.
    const double win_s = std::min(series_window_.to_sec(),
                                  (now - cfg_.warmup).to_sec());
    s.window_fps = win_s > 0.0
                       ? static_cast<double>(s.completions) / win_s
                       : 0.0;
    s.streams_rejected_cum = result_.streams_rejected;
    s.streams_oom_cum = result_.streams_oom_rejected;
    s.jobs_shed_cum = overload_.total_jobs_shed();
    s.devices_failed = failed_count();
    s.orphaned_streams = static_cast<int>(orphans_.size());
    const double placed_or_orphaned =
        static_cast<double>(live_.size() + orphans_.size());
    s.availability =
        placed_or_orphaned > 0.0
            ? static_cast<double>(live_.size()) / placed_or_orphaned
            : 1.0;
    result_.series.samples.push_back(s);
    prev_counts_ = c;

    schedule_at_or_skip(now + series_window_, [this] { sample_tick(); });
  }

  // --- wrap-up -------------------------------------------------------

  void record(FleetDecision d) {
    if (sink_) {
      sink_->control(d.at, to_string(d.kind), d.task_id, d.device, d.detail);
    }
    overload_.record(std::move(d));
  }

  void finish() {
    // Orphans still homeless at the horizon are lost: their downtime is
    // charged through the end of the run and they leave the system as
    // retired streams. Recorded before the final shed flush so the audit
    // trail stays time-ordered at the horizon.
    for (const auto& o : orphans_) {
      drop_orphan(o, cfg_.duration,
                  o.parked ? "orphaned at horizon (parked)"
                           : "orphaned at horizon");
    }
    orphans_.clear();
    overload_.flush_all();  // sheds after the last control decision
    if (sink_) {
      sink_->set_horizon(cfg_.duration);
      for (int d = 0; d < cluster_->num_devices(); ++d) {
        sink_->set_device_name(d, cluster_->device_spec(d).name);
      }
    }
    {
      // Report from the reduced collector, so a re-placed stream's whole
      // (possibly cross-shard) history is attributed to its final home at
      // any shard count.
      obs::PhaseProfiler::Scope reduce(
          prof_, obs::PhaseProfiler::Phase::kCollectorReduce);
      cluster_->reduce();
    }
  }

  /// Counters every result shape carries. `sim_events` counts the device
  /// calendars, plus the control plane's events for a dynamic run.
  template <typename Result>
  void fill_counters(Result& r, std::size_t control_events) const {
    r.releases = cluster_->releases_issued();
    r.stage_migrations = cluster_->stage_migrations();
    r.medium_promotions = cluster_->medium_promotions();
    r.sim_events = static_cast<double>(control_events +
                                       cluster_->events_processed());
  }

  void fill_dynamic() {
    result_.name = spec_.name;
    result_.fleet = cluster_->fleet_report(cfg_.duration);
    // The per-device rollup double-counts nothing (moved-away ids are
    // forgotten at the source), but the exact fleet snapshot comes from the
    // whole reduced collector.
    result_.fleet.fleet = reduced_.aggregate(cfg_.duration);
    result_.fleet.tasks_rejected =
        static_cast<int>(result_.streams_rejected);
    result_.fleet.tasks_oom_rejected =
        static_cast<int>(result_.streams_oom_rejected);
    fill_counters(result_, engine_.processed_count());
    result_.jobs_shed = overload_.total_jobs_shed();
    result_.recovery_p50_s = recovery_.p50();
    result_.recovery_p99_s = recovery_.p99();
    result_.peak_devices =
        std::max(peak_provisioned_, provisioned_devices());
    result_.final_devices = cluster_->placer().active_devices();
  }

  void fill_cluster(workload::ClusterScenarioResult& r) const {
    fill_counters(r, 0);
    r.fleet = cluster_->fleet_report(cfg_.duration);
    for (const cluster::Cluster::Rejected& rej : cluster_->rejected()) {
      r.rejected_task_ids.push_back(rej.id);
    }
  }

  void fill_single(workload::ScenarioResult& r) const {
    fill_counters(r, 0);
    const cluster::Cluster::Device& dev = cluster_->device(0);
    r.aggregate = reduced_.aggregate(cfg_.duration);
    r.per_task.reserve(dev.tasks.size());
    for (const auto& t : dev.tasks) {
      // A task with no release in the window never reached the collector.
      r.per_task.push_back(reduced_.has_task(t.id)
                               ? reduced_.per_task(t.id, cfg_.duration)
                               : metrics::Snapshot{});
    }
    r.gpu_busy_sm_seconds = dev.exec->busy_sm_seconds();
  }

  const ScenarioSpec& spec_;
  ScenarioConfig cfg_;
  FleetPolicySpec policy_;
  TimelineSpec timeline_;
  FaultSpec faults_;
  std::uint64_t generator_seed_ = 0;

  sim::Engine engine_;  // control plane
  sim::Engine shard0_;  // the cluster's shard 0
  /// Every device collector folded together at the end of the run; the
  /// cluster's reports read it.
  metrics::Collector reduced_;

  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<AutoscalerPolicy> autoscaler_;
  OverloadState overload_;
  common::Rng churn_rng_;

  gpu::DeviceSpec scale_spec_;
  std::vector<int> pool_sizes_;
  std::map<std::string, rt::Task> prototypes_;
  std::map<std::string, rt::Task> downgraded_;

  std::vector<LiveStream> live_;  // admission order
  int next_task_id_ = 0;
  trace::TraceRecorder* capture_ = nullptr;
  obs::SpanSink* sink_ = nullptr;       // --trace-spans (null = off)
  obs::PhaseProfiler* prof_ = nullptr;  // --profile (null = off)
  /// Replay: recorded id -> id this run assigned (identity on an exact
  /// replay; diverges when a scaled trace meets admission rejections).
  std::unordered_map<int, int> trace_ids_;
  std::vector<int> warming_;
  std::vector<int> draining_;

  bool trace_faults_ = false;  // replayed trace carries fault events
  std::unique_ptr<FaultEngine> fault_engine_;
  std::vector<char> failed_;          // per device: down, not yet recovered
  std::vector<int> down_gen_;         // crash generation (stale-timer guard)
  std::vector<int> fault_incidents_;  // stochastic incidents per device
  std::vector<Orphan> orphans_;       // crash order
  common::Percentiles recovery_;      // crash-to-re-home seconds
  bool degraded_ = false;
  OverloadConfig saved_overload_;

  SimTime last_scale_ = SimTime::from_ns(-1);
  int peak_provisioned_ = 0;
  SimTime series_window_;
  metrics::TaskCounters prev_counts_;

  FleetRunResult result_;
};

}  // namespace

workload::SpecResult run_fleet_scenario(const ScenarioSpec& spec,
                                        const workload::RunSeeds& seeds,
                                        trace::TraceRecorder* capture,
                                        const obs::Instruments& instruments) {
  FleetRuntime runtime(spec, seeds, capture, instruments);
  return runtime.run();
}

}  // namespace sgprs::fleet
