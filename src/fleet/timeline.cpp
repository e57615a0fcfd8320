#include "fleet/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dnn/builders.hpp"
#include "dnn/profiler.hpp"
#include "workload/spec_util.hpp"

namespace sgprs::fleet {

namespace {

using common::JsonValue;
using common::SimTime;
using namespace workload::specdet;

/// A sporadic stream's minimum separation: explicit, or 1000/fps.
double min_separation_ms(const StreamTemplate& s, double fps_scale) {
  return (s.min_separation_ms > 0.0 ? s.min_separation_ms : 1000.0 / s.fps) /
         fps_scale;
}

/// Rate of the task a shape builds: sporadic streams are built at their
/// worst-case rate (period == min separation) so admission and
/// utilization math stay conservative.
double built_fps(const StreamTemplate& s, double fps_scale) {
  if (s.arrival != rt::ArrivalModel::kSporadic) return s.fps * fps_scale;
  return 1000.0 / min_separation_ms(s, fps_scale);
}

}  // namespace

void parse_stream(const common::JsonValue& v, const std::string& path,
                  StreamRole role, StreamTemplate& s) {
  require_object(v, path);
  check_keys(v,
             {"name", "count", "network", "fps", "stages", "deadline_ms",
              "phase_ms", "priority", "arrival", "min_separation_ms",
              "max_separation_ms", "tier", "mem_mb", "warps"},
             path);
  if (role == StreamRole::kTemplate && v.find("count")) {
    bad(path, "unknown key \"count\" (a template has no replica count)");
  }
  s.name = str_or(v, "name", s.name, path);
  if (role == StreamRole::kTemplate && s.name.empty()) {
    bad(path + ".name", "template needs a non-empty name");
  }
  s.network = str_or(v, "network", s.network, path);
  s.fps = num_or(v, "fps", s.fps, path);
  s.num_stages = int_or(v, "stages", s.num_stages, path);
  s.deadline_ms = num_or(v, "deadline_ms", s.deadline_ms, path);
  s.phase_ms = num_or(v, "phase_ms", s.phase_ms, path);
  s.priority_policy = enum_or(v, "priority", rt::kPriorityPolicyNames,
                              s.priority_policy, "priority policy", path);
  s.arrival = enum_or(v, "arrival", rt::kArrivalModelNames, s.arrival,
                      "arrival model", path);
  s.min_separation_ms =
      num_or(v, "min_separation_ms", s.min_separation_ms, path);
  s.max_separation_ms =
      num_or(v, "max_separation_ms", s.max_separation_ms, path);
  s.tier = int_or(v, "tier", s.tier, path);
  s.mem_mb = num_or(v, "mem_mb", s.mem_mb, path);
  if (const JsonValue* w = v.find("warps")) {
    s.warps = get_field("warps", path, [&] { return w->as_int(); });
  }
  // For sporadic task entries fps is only a shorthand for min_separation =
  // 1000/fps; stating both invites silent disagreement, so reject it.
  if (role == StreamRole::kTaskEntry &&
      s.arrival == rt::ArrivalModel::kSporadic && v.find("fps") &&
      v.find("min_separation_ms")) {
    bad(path, "sporadic tasks take either fps or min_separation_ms, not "
              "both (min_separation defaults to 1000/fps)");
  }
}

void validate_stream(const StreamTemplate& s, const std::string& path,
                     StreamRole role) {
  check_times(path, {{"deadline_ms", s.deadline_ms / 1000.0},
                     {"phase_ms", s.phase_ms / 1000.0},
                     {"min_separation_ms", s.min_separation_ms / 1000.0},
                     {"max_separation_ms", s.max_separation_ms / 1000.0}});
  // mem_mb becomes an int64 byte count.
  if (!(std::abs(s.mem_mb) < 8e12)) {
    bad(path + ".mem_mb", "must be finite and below 8e12 MiB");
  }
  if (s.fps <= 0.0) bad(path + ".fps", "must be > 0");
  if (s.num_stages < 1) bad(path + ".stages", "must be >= 1");
  if (s.deadline_ms < 0.0) bad(path + ".deadline_ms", "must be >= 0");
  if (role == StreamRole::kTemplate && s.phase_ms < 0.0) {
    bad(path + ".phase_ms", "must be >= 0");
  }
  if (s.tier < 0) bad(path + ".tier", "must be >= 0");
  if (s.mem_mb < 0.0 && s.mem_mb != -1.0) {
    bad(path + ".mem_mb", "must be >= 0 (or omitted to derive from the "
                          "network)");
  }
  if (s.warps < -1) {
    bad(path + ".warps", "must be >= 0 (or omitted to derive from the "
                         "network)");
  }
  if (!dnn::network_builder_by_name(s.network)) {
    bad(path + ".network", "unknown network \"" + s.network + "\" (want " +
                               dnn::network_names() + ")");
  }
  if (s.arrival == rt::ArrivalModel::kSporadic) {
    if (s.min_separation_ms < 0.0 || s.max_separation_ms < 0.0) {
      bad(path, "separations must be >= 0");
    }
    if (s.max_separation_ms > 0.0 &&
        s.max_separation_ms < min_separation_ms(s, 1.0)) {
      bad(path + ".max_separation_ms",
          "must be >= the (possibly fps-derived) min separation");
    }
  } else if (s.min_separation_ms != 0.0 || s.max_separation_ms != 0.0) {
    bad(path, "separations only apply to arrival=sporadic");
  }
  const bool by_sep = s.arrival == rt::ArrivalModel::kSporadic &&
                      s.min_separation_ms > 0.0;
  check_period(built_fps(s, 1.0),
               path + (by_sep ? ".min_separation_ms" : ".fps"));
}

std::vector<StreamTemplate> parse_templates(const common::JsonValue& v,
                                            const std::string& path) {
  std::vector<StreamTemplate> templates;
  if (const JsonValue* list = v.find("templates")) {
    const auto& items =
        get_field("templates", path, [&] { return list->items(); });
    for (std::size_t i = 0; i < items.size(); ++i) {
      parse_stream(items[i], path + ".templates[" + std::to_string(i) + "]",
                   StreamRole::kTemplate, templates.emplace_back());
    }
  }
  return templates;
}

void validate_templates(const std::vector<StreamTemplate>& templates,
                        const std::string& path) {
  for (std::size_t i = 0; i < templates.size(); ++i) {
    const auto& t = templates[i];
    const std::string p = path + ".templates[" + std::to_string(i) + "]";
    for (std::size_t j = 0; j < i; ++j) {
      if (templates[j].name == t.name) {
        bad(p + ".name", "duplicate template \"" + t.name + "\"");
      }
    }
    validate_stream(t, p, StreamRole::kTemplate);
  }
}

rt::Task build_stream_task(const StreamTemplate& s,
                           const gpu::DeviceSpec& device,
                           const std::vector<int>& pool_sm_sizes,
                           double fps_scale) {
  const dnn::Profiler profiler(device, gpu::SpeedupModel::rtx2080ti(),
                               dnn::CostModel::calibrated());
  rt::TaskConfig tc;
  tc.fps = built_fps(s, fps_scale);
  tc.num_stages = s.num_stages;
  tc.priority_policy = s.priority_policy;
  if (s.deadline_ms > 0.0) tc.deadline = SimTime::from_ms(s.deadline_ms);
  if (s.phase_ms >= 0.0) tc.phase = SimTime::from_ms(s.phase_ms);
  rt::Task t = rt::build_task(
      0,
      std::make_shared<const dnn::Network>(
          dnn::network_builder_by_name(s.network)()),
      tc, profiler, pool_sm_sizes);
  if (s.arrival == rt::ArrivalModel::kSporadic) {
    const double min_sep_ms = min_separation_ms(s, fps_scale);
    t.arrival = rt::ArrivalModel::kSporadic;
    t.min_separation = SimTime::from_ms(min_sep_ms);
    t.max_separation = SimTime::from_ms(s.max_separation_ms > 0.0
                                            ? s.max_separation_ms / fps_scale
                                            : 1.5 * min_sep_ms);
  }
  // Footprint overrides pin the task and its downgraded variant alike (a
  // slower stream still holds its weights).
  if (s.mem_mb >= 0.0) {
    t.mem_bytes =
        static_cast<std::int64_t>(std::llround(s.mem_mb * 1048576.0));
  }
  if (s.warps >= 0) t.warps = s.warps;
  return t;
}

namespace {

TimelineEvent parse_event(const JsonValue& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, {"at_s", "every_s", "from_s", "until_s", "admit", "retire",
                 "count"},
             path);
  TimelineEvent e;
  const JsonValue* admit = v.find("admit");
  const JsonValue* retire = v.find("retire");
  if ((admit != nullptr) == (retire != nullptr)) {
    bad(path, "an event takes exactly one of \"admit\" or \"retire\"");
  }
  e.kind = admit ? TimelineEvent::Kind::kAdmit : TimelineEvent::Kind::kRetire;
  e.target = get_field(admit ? "admit" : "retire", path, [&] {
    return (admit ? admit : retire)->as_string();
  });
  e.count = int_or(v, "count", e.count, path);
  e.at_s = num_or(v, "at_s", 0.0, path);
  e.every_s = num_or(v, "every_s", 0.0, path);
  e.from_s = num_or(v, "from_s", 0.0, path);
  e.until_s = num_or(v, "until_s", 0.0, path);
  if (e.every_s > 0.0 && v.find("at_s")) {
    bad(path, "a repeating event uses from_s/until_s, not at_s");
  }
  return e;
}

ArrivalProcess parse_arrival(const JsonValue& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, {"template", "rate_per_s", "lifetime_s", "from_s", "until_s"},
             path);
  ArrivalProcess a;
  a.tmpl = str_or(v, "template", "", path);
  a.rate_per_s = num_or(v, "rate_per_s", a.rate_per_s, path);
  if (const JsonValue* life = v.find("lifetime_s")) {
    const auto items = get_field("lifetime_s", path,
                                 [&] { return life->items(); });
    if (items.size() != 2) {
      bad(path + ".lifetime_s", "expected [min_s, max_s]");
    }
    a.lifetime_min_s = get_field("lifetime_s", path,
                                 [&] { return items[0].as_number(); });
    a.lifetime_max_s = get_field("lifetime_s", path,
                                 [&] { return items[1].as_number(); });
  }
  a.from_s = num_or(v, "from_s", 0.0, path);
  a.until_s = num_or(v, "until_s", 0.0, path);
  return a;
}

}  // namespace

TimelineSpec parse_timeline(const common::JsonValue& v,
                            const std::string& path) {
  require_object(v, path);
  check_keys(v, {"seed", "templates", "events", "arrivals", "trace"}, path);
  TimelineSpec spec;
  spec.seed = seed_or(v, "seed", spec.seed, path);
  spec.trace_path = str_or(v, "trace", "", path);
  if (v.find("trace") && spec.trace_path.empty()) {
    bad(path + ".trace", "trace path must be non-empty");
  }
  spec.templates = parse_templates(v, path);
  if (const JsonValue* events = v.find("events")) {
    const auto& items = get_field("events", path,
                                  [&] { return events->items(); });
    for (std::size_t i = 0; i < items.size(); ++i) {
      spec.events.push_back(parse_event(
          items[i], path + ".events[" + std::to_string(i) + "]"));
    }
  }
  if (const JsonValue* arrivals = v.find("arrivals")) {
    const auto& items = get_field("arrivals", path,
                                  [&] { return arrivals->items(); });
    for (std::size_t i = 0; i < items.size(); ++i) {
      spec.arrivals.push_back(parse_arrival(
          items[i], path + ".arrivals[" + std::to_string(i) + "]"));
    }
  }
  return spec;
}

const StreamTemplate* find_template(const TimelineSpec& spec,
                                    const std::string& name) {
  for (const auto& t : spec.templates) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

void validate_timeline(const TimelineSpec& spec, const std::string& path,
                       SimTime horizon) {
  if ((!spec.trace_path.empty() || spec.trace != nullptr) &&
      (!spec.templates.empty() || !spec.events.empty() ||
       !spec.arrivals.empty())) {
    bad(path + ".trace",
        "a trace-driven timeline replaces templates/events/arrivals; "
        "remove the other sections");
  }
  validate_templates(spec.templates, path);

  const double horizon_s = horizon.to_sec();
  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    const auto& e = spec.events[i];
    const std::string p = path + ".events[" + std::to_string(i) + "]";
    if (e.count < 1) bad(p + ".count", "must be >= 1");
    if (e.count > kMaxChurnStreams) {
      bad(p + ".count", "must be <= " + std::to_string(kMaxChurnStreams) +
                            " (kMaxChurnStreams)");
    }
    if (e.at_s < 0.0 || e.from_s < 0.0 || e.until_s < 0.0 || e.every_s < 0.0) {
      bad(p, "times must be >= 0");
    }
    check_times(p, {{"at_s", e.at_s},
                    {"every_s", e.every_s},
                    {"from_s", e.from_s},
                    {"until_s", e.until_s}});
    if (e.every_s > 0.0 && e.until_s > 0.0 && e.until_s < e.from_s) {
      bad(p + ".until_s", "must be >= from_s");
    }
    if (e.every_s > 0.0) {
      const double until = e.until_s > 0.0 ? e.until_s : horizon_s;
      const double instants =
          std::floor(std::max(0.0, until - e.from_s) / e.every_s) + 1.0;
      if (instants > static_cast<double>(kMaxControlInstants)) {
        bad(p + ".every_s", "repeats more than " +
                                std::to_string(kMaxControlInstants) +
                                " times (kMaxControlInstants)");
      }
      if (e.kind == TimelineEvent::Kind::kAdmit &&
          instants * e.count > static_cast<double>(kMaxChurnStreams)) {
        bad(p + ".count", "admits more than " +
                              std::to_string(kMaxChurnStreams) +
                              " streams over its repeats (kMaxChurnStreams)");
      }
    }
    // Admissions must name a template; retirements may also name a stream
    // prefix, but an exact template match is checked when one exists.
    if (e.kind == TimelineEvent::Kind::kAdmit &&
        !find_template(spec, e.target)) {
      bad(p + ".admit", "unknown template \"" + e.target + "\"");
    }
  }

  for (std::size_t i = 0; i < spec.arrivals.size(); ++i) {
    const auto& a = spec.arrivals[i];
    const std::string p = path + ".arrivals[" + std::to_string(i) + "]";
    if (!find_template(spec, a.tmpl)) {
      bad(p + ".template", "unknown template \"" + a.tmpl + "\"");
    }
    if (a.rate_per_s <= 0.0) bad(p + ".rate_per_s", "must be > 0");
    if (a.lifetime_min_s < 0.0 || a.lifetime_max_s < a.lifetime_min_s) {
      bad(p + ".lifetime_s", "needs 0 <= min_s <= max_s");
    }
    if (a.from_s < 0.0 || a.until_s < 0.0) bad(p, "times must be >= 0");
    check_times(p, {{"lifetime_s", a.lifetime_max_s},
                    {"from_s", a.from_s},
                    {"until_s", a.until_s}});
    if (a.until_s > 0.0 && a.until_s < a.from_s) {
      bad(p + ".until_s", "must be >= from_s");
    }
    // Gaps are drawn in integer nanoseconds: a mean gap below one would
    // stall the process at one instant.
    const double window =
        std::max(0.0, (a.until_s > 0.0 ? a.until_s : horizon_s) - a.from_s);
    if (a.rate_per_s > 1e9 ||
        a.rate_per_s * window > static_cast<double>(kMaxChurnStreams)) {
      bad(p + ".rate_per_s",
          "must be <= 1e9 (a mean gap of at least 1 ns) and admit at most " +
              std::to_string(kMaxChurnStreams) +
              " streams over its window (kMaxChurnStreams)");
    }
  }
}

}  // namespace sgprs::fleet
