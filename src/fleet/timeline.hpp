// Declarative churn timeline: the open-world half of a scenario spec.
//
// A timeline describes how inference streams come and go *during* a run —
// the conf_date_BabaeiC24 question the closed-world path cannot ask. It has
// three parts:
//   * stream templates — named (network, rate, stages, ...) combinations a
//     churn event instantiates; each admission clones a pre-profiled
//     prototype, so no WCET profiling happens on the hot path;
//   * scripted events — "at t, admit k streams of template X" / "at t,
//     retire k streams matching X", plus an `every_s` repetition form for
//     ramps and waves;
//   * stochastic arrival processes — seeded Poisson arrivals with bounded
//     uniform lifetimes, for tenant-churn style workloads.
//
// Determinism: all randomness (arrival gaps, lifetimes) is drawn from one
// seeded rng in simulation-event order, and per-stream arrival jitter rngs
// are keyed on (jitter_seed, task id) — so a replay, or the same scenario
// inside a parallel experiment fan-out, is byte-identical.
//
// The stream shape itself (StreamTemplate) lives here too, because every
// place a stream is described shares it: timeline templates, the initial
// "tasks" entries (workload::TaskEntrySpec) and recorded traces. One
// parser, one validator and one rt::Task builder serve all three.
//
// docs/online-fleet.md is the schema reference; parsing follows the same
// rules as the rest of the spec surface (unknown keys are errors, messages
// carry field paths).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "gpu/device.hpp"
#include "rt/task.hpp"

namespace sgprs::trace {
struct Trace;
}  // namespace sgprs::trace

namespace sgprs::fleet {

/// One periodic (or sporadic) DNN stream: the shape a task entry, a churn
/// template and a recorded trace template all share. Times are
/// milliseconds. The defaults here are a template's; workload::TaskEntrySpec
/// is this struct plus a replica count, with its own defaults (see
/// StreamRole).
struct StreamTemplate {
  std::string name;
  std::string network = "resnet18";
  double fps = 30.0;
  int num_stages = 6;
  /// Relative deadline; 0 = implicit (deadline = period).
  double deadline_ms = 0.0;
  /// First-release offset. Templates need >= 0 (a churned stream's phase
  /// counts from its admission instant); a task entry's negative phase
  /// means a seeded random phase in [0, period).
  double phase_ms = 0.0;
  rt::PriorityPolicy priority_policy = rt::PriorityPolicy::kLastStageHigh;
  rt::ArrivalModel arrival = rt::ArrivalModel::kPeriodic;
  /// Sporadic only; 0 = derive min from fps (1000/fps) and max as
  /// 1.5 * min. Admission treats 1/min_separation as the worst-case rate.
  double min_separation_ms = 0.0;
  double max_separation_ms = 0.0;
  /// Overload shed tier: 0 = protected (never shed under priority-aware
  /// shedding), higher tiers shed first. Task entries default to tier 0,
  /// templates to tier 1.
  int tier = 1;
  /// Placement footprint overrides: < 0 (default) derives from the
  /// network's profile, >= 0 pins memory (MiB) / time-averaged resident
  /// warps explicitly.
  double mem_mb = -1.0;
  long long warps = -1;
};

/// Where a stream shape appears. The roles differ only in these rules:
///   * a task entry also takes "count" and may leave "name" out; a
///     template needs a non-empty name;
///   * a task entry's negative phase_ms is a seeded random phase; a
///     template's phase_ms must be >= 0;
///   * a sporadic task entry takes fps or min_separation_ms, not both; a
///     template accepts both (recorded traces write both).
enum class StreamRole { kTaskEntry, kTemplate };

/// Parses one stream shape into `s`, whose fields hold the role's defaults
/// on entry. Throws workload::SpecError with field paths. A task entry's
/// "count" is accepted here and read by its caller.
void parse_stream(const common::JsonValue& v, const std::string& path,
                  StreamRole role, StreamTemplate& s);

/// Semantic rules of one stream shape: finite numbers, a period of at
/// least 1 ns, known network, separations only on sporadic streams,
/// footprint overrides >= 0 or unset.
void validate_stream(const StreamTemplate& s, const std::string& path,
                     StreamRole role);

/// The "templates" array of a timeline or trace object at `path` (empty
/// when absent), and its rules: unique names plus validate_stream each.
std::vector<StreamTemplate> parse_templates(const common::JsonValue& v,
                                            const std::string& path);
void validate_templates(const std::vector<StreamTemplate>& templates,
                        const std::string& path);

/// The offline phase for one stream shape on `device`'s pool sizes: the
/// task's period, deadline, stage plan, WCET table, priorities, sporadic
/// separations and footprint (spec overrides applied). `fps_scale` < 1
/// builds the QoS-downgraded variant (rate and separations scaled). The
/// task is a prototype: callers clone it and set id and name; its phase is
/// phase_ms, or zero when phase_ms < 0 (the caller draws random phases).
rt::Task build_stream_task(const StreamTemplate& s,
                           const gpu::DeviceSpec& device,
                           const std::vector<int>& pool_sm_sizes,
                           double fps_scale = 1.0);

/// One scripted churn event. `every_s == 0` fires once at `at_s`;
/// `every_s > 0` repeats from `from_s` (inclusive) every `every_s` seconds
/// until `until_s` (0 = the run horizon).
struct TimelineEvent {
  enum class Kind { kAdmit, kRetire };
  Kind kind = Kind::kAdmit;
  /// Template to admit, or the template/stream-name prefix to retire
  /// (retire picks the oldest matching live streams, FIFO).
  std::string target;
  int count = 1;
  double at_s = 0.0;
  double every_s = 0.0;
  double from_s = 0.0;
  double until_s = 0.0;
};

/// Seeded Poisson arrival process: streams of `tmpl` arrive at `rate_per_s`
/// in [from_s, until_s] and each departs after a uniform lifetime in
/// [lifetime_min_s, lifetime_max_s] (0/0 = streams stay until the horizon).
struct ArrivalProcess {
  std::string tmpl;
  double rate_per_s = 1.0;
  double lifetime_min_s = 0.0;
  double lifetime_max_s = 0.0;
  double from_s = 0.0;
  double until_s = 0.0;  // 0 = run horizon
};

struct TimelineSpec {
  std::vector<StreamTemplate> templates;
  std::vector<TimelineEvent> events;
  std::vector<ArrivalProcess> arrivals;
  /// Churn rng seed; the effective stream is mixed with the scenario sim
  /// seed so experiment replications decorrelate without spec edits.
  std::uint64_t seed = 1;
  /// Trace-driven timeline: `"trace": "<file>"` replaces templates, events
  /// and arrivals with the recorded admit/retire stream of a prior run.
  /// `trace_path` is the spec-relative path as written; the loader resolves
  /// it and attaches the parsed trace (see workload::resolve_spec_trace).
  std::string trace_path;
  std::shared_ptr<const trace::Trace> trace;
};

/// Upper bound on the instants one periodic control source fires over a
/// run: an every_s event's expansions, the series sampler, the autoscaler
/// tick. The busiest curated source, the 50 ms autoscaler tick over a 3 s
/// run, fires 60 times; the bound leaves room for hour-long runs and turns
/// a mistyped period into a field-path error instead of a hang.
inline constexpr std::int64_t kMaxControlInstants = 1000000;

/// Upper bound on the streams one churn source admits over a run: an
/// event's count (times its expansions), or a Poisson process's rate times
/// its active window. The largest curated source, diurnal_wave_10k's wave,
/// admits 1,500 streams; the bound leaves far more than 10x headroom.
inline constexpr std::int64_t kMaxChurnStreams = 100000;

/// Parses a "timeline" section. Throws workload::SpecError with field paths.
TimelineSpec parse_timeline(const common::JsonValue& v,
                            const std::string& path);

/// Semantic validation: unique template names, known event targets, rate
/// and lifetime ranges, times finite and within SimTime range. Network-name
/// existence is checked here too. Sources open to the run `horizon`
/// (until_s = 0) are bounded against it (kMaxControlInstants,
/// kMaxChurnStreams); a zero horizon leaves them unbounded.
void validate_timeline(const TimelineSpec& spec, const std::string& path,
                       common::SimTime horizon = common::SimTime::zero());

const StreamTemplate* find_template(const TimelineSpec& spec,
                                    const std::string& name);

}  // namespace sgprs::fleet
