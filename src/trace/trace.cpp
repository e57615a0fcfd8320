#include "trace/trace.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <unordered_set>

#include "common/json_writer.hpp"
#include "workload/spec_util.hpp"

namespace sgprs::trace {

namespace {

using common::JsonValue;
using common::JsonWriter;
using namespace workload::specdet;

TraceEvent parse_event(const JsonValue& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, {"t_ns", "admit", "retire", "fault", "device", "id", "tier",
                 "source"},
             path);
  TraceEvent e;
  const JsonValue* t = v.find("t_ns");
  if (!t) bad(path, "event needs a \"t_ns\" timestamp");
  e.t_ns = get_field("t_ns", path, [&] { return t->as_int(); });

  const JsonValue* admit = v.find("admit");
  const JsonValue* retire = v.find("retire");
  const JsonValue* fault = v.find("fault");
  const int discriminators = (admit != nullptr) + (retire != nullptr) +
                             (fault != nullptr);
  if (discriminators != 1) {
    bad(path,
        "an event takes exactly one of \"admit\", \"retire\" or \"fault\"");
  }
  if (fault) {
    const std::string kind =
        get_field("fault", path, [&] { return fault->as_string(); });
    if (kind == "crash") {
      e.kind = TraceEvent::Kind::kCrash;
    } else if (kind == "recover") {
      e.kind = TraceEvent::Kind::kRecover;
    } else {
      bad(path + ".fault",
          "unknown fault kind \"" + kind + "\" (want crash|recover)");
    }
    const JsonValue* device = v.find("device");
    if (!device) bad(path, "a fault event needs its \"device\" index");
    e.device = static_cast<int>(
        get_field("device", path, [&] { return device->as_int(); }));
    if (v.find("id")) bad(path, "\"id\" only applies to admit/retire events");
    if (v.find("tier")) bad(path, "\"tier\" only applies to admit events");
    e.source = str_or(v, "source", "", path);
    return e;
  }
  if (v.find("device")) {
    bad(path, "\"device\" only applies to fault events");
  }
  if (admit) {
    e.kind = TraceEvent::Kind::kAdmit;
    e.tmpl = get_field("admit", path, [&] { return admit->as_string(); });
    const JsonValue* id = v.find("id");
    if (!id) bad(path, "an admit event needs the \"id\" it consumed");
    const std::int64_t n = get_field("id", path, [&] { return id->as_int(); });
    e.id = static_cast<int>(n);
    e.tier = int_or(v, "tier", -1, path);
  } else {
    e.kind = TraceEvent::Kind::kRetire;
    const std::int64_t n =
        get_field("retire", path, [&] { return retire->as_int(); });
    e.id = static_cast<int>(n);
    if (v.find("id")) bad(path, "a retire event names its id via \"retire\"");
    if (v.find("tier")) bad(path, "\"tier\" only applies to admit events");
  }
  e.source = str_or(v, "source", "", path);
  return e;
}

void write_template(const fleet::StreamTemplate& t, std::ostream& out) {
  JsonWriter w(out);
  w.begin_object();
  w.field("name", t.name);
  w.field("network", t.network);
  w.field_exact("fps", t.fps);
  w.field("stages", t.num_stages);
  w.field_exact("deadline_ms", t.deadline_ms);
  w.field_exact("phase_ms", t.phase_ms);
  w.field("priority", common::name_of(rt::kPriorityPolicyNames,
                                      t.priority_policy));
  w.field("arrival", common::name_of(rt::kArrivalModelNames, t.arrival));
  if (t.arrival == rt::ArrivalModel::kSporadic) {
    w.field_exact("min_separation_ms", t.min_separation_ms);
    w.field_exact("max_separation_ms", t.max_separation_ms);
  }
  w.field("tier", t.tier);
  // Footprint overrides are only written when set, so traces recorded
  // before (or without) them stay byte-stable.
  if (t.mem_mb >= 0.0) w.field_exact("mem_mb", t.mem_mb);
  if (t.warps >= 0) w.field("warps", static_cast<std::int64_t>(t.warps));
  w.end_object();
}

void write_event(const TraceEvent& e, std::ostream& out) {
  JsonWriter w(out);
  w.begin_object();
  w.field("t_ns", e.t_ns);
  switch (e.kind) {
    case TraceEvent::Kind::kAdmit:
      w.field("admit", e.tmpl);
      w.field("id", e.id);
      if (e.tier >= 0) w.field("tier", e.tier);
      break;
    case TraceEvent::Kind::kRetire:
      w.field("retire", e.id);
      break;
    case TraceEvent::Kind::kCrash:
      w.field("fault", "crash");
      w.field("device", e.device);
      break;
    case TraceEvent::Kind::kRecover:
      w.field("fault", "recover");
      w.field("device", e.device);
      break;
  }
  if (!e.source.empty()) w.field("source", e.source);
  w.end_object();
}

}  // namespace

common::SimTime Trace::horizon() const {
  return events.empty() ? common::SimTime::from_ns(0)
                        : common::SimTime::from_ns(events.back().t_ns);
}

Trace parse_trace(const common::JsonValue& root,
                  const std::string& default_name) {
  const std::string path = "trace";
  require_object(root, path);
  check_keys(root, {"sgprs_trace", "name", "description", "templates",
                    "events"},
             path);
  const JsonValue* ver = root.find("sgprs_trace");
  if (!ver) {
    bad(path,
        "missing \"sgprs_trace\" version tag — is this really a trace file?");
  }
  const std::int64_t version =
      get_field("sgprs_trace", path, [&] { return ver->as_int(); });
  if (version != Trace::kVersion) {
    bad(path + ".sgprs_trace",
        "unsupported trace version " + std::to_string(version) +
            " (this build reads version " + std::to_string(Trace::kVersion) +
            ")");
  }

  Trace t;
  t.name = str_or(root, "name", default_name, path);
  t.description = str_or(root, "description", "", path);
  t.templates = fleet::parse_templates(root, path);
  if (const JsonValue* events = root.find("events")) {
    const auto& items =
        get_field("events", path, [&] { return events->items(); });
    t.events.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      t.events.push_back(
          parse_event(items[i], path + ".events[" + std::to_string(i) + "]"));
    }
  }
  return t;
}

void validate_trace(const Trace& trace) {
  const std::string path = "trace";
  if (trace.templates.empty()) {
    bad(path + ".templates", "a trace needs at least one stream template");
  }
  fleet::validate_templates(trace.templates, path);

  std::unordered_set<int> admitted;
  std::unordered_set<int> retired;
  std::int64_t prev_t = 0;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const auto& e = trace.events[i];
    const std::string p = path + ".events[" + std::to_string(i) + "]";
    if (e.t_ns < 0) bad(p + ".t_ns", "must be >= 0");
    if (e.t_ns < prev_t) {
      bad(p + ".t_ns",
          "out of order: " + std::to_string(e.t_ns) + " after " +
              std::to_string(prev_t) + " (events must be non-decreasing)");
    }
    prev_t = e.t_ns;
    if (e.kind == TraceEvent::Kind::kCrash ||
        e.kind == TraceEvent::Kind::kRecover) {
      if (e.device < 0) bad(p + ".device", "must be >= 0");
      continue;
    }
    if (e.id < 0) bad(p, "stream id must be >= 0");
    if (e.kind == TraceEvent::Kind::kAdmit) {
      bool known = false;
      for (const auto& t : trace.templates) {
        if (t.name == e.tmpl) {
          known = true;
          break;
        }
      }
      if (!known) bad(p + ".admit", "unknown template \"" + e.tmpl + "\"");
      if (!admitted.insert(e.id).second) {
        bad(p + ".id",
            "duplicate admit id " + std::to_string(e.id) +
                " (admission attempts consume unique ids)");
      }
      if (e.tier < -1) bad(p + ".tier", "must be >= 0 (or omitted)");
    } else {
      if (!admitted.count(e.id)) {
        bad(p + ".retire",
            "retires id " + std::to_string(e.id) + " that was never admitted");
      }
      if (!retired.insert(e.id).second) {
        bad(p + ".retire", "id " + std::to_string(e.id) + " retired twice");
      }
    }
  }
}

void write_trace(const Trace& trace, std::ostream& out) {
  out << "{\n\"sgprs_trace\":" << Trace::kVersion << ",\n";
  out << "\"name\":\"" << JsonWriter::escape(trace.name) << "\",\n";
  out << "\"description\":\"" << JsonWriter::escape(trace.description)
      << "\",\n";
  out << "\"templates\":[";
  for (std::size_t i = 0; i < trace.templates.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    write_template(trace.templates[i], out);
  }
  out << "\n],\n\"events\":[";
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    write_event(trace.events[i], out);
  }
  out << "\n]\n}\n";
}

void save_trace(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw workload::SpecError("trace: cannot write \"" + path + "\"");
  }
  write_trace(trace, out);
  if (!out) {
    throw workload::SpecError("trace: write to \"" + path + "\" failed");
  }
}

Trace load_trace(const std::string& path) {
  const common::JsonValue root = common::parse_json_file(path);
  Trace t = parse_trace(root, std::filesystem::path(path).stem().string());
  validate_trace(t);
  return t;
}

bool sniff_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  char buf[256];
  in.read(buf, sizeof(buf));
  const std::string head(buf, static_cast<std::size_t>(in.gcount()));
  const std::size_t first = head.find_first_not_of(" \t\r\n");
  if (first == std::string::npos || head[first] != '{') return false;
  return head.find("\"sgprs_trace\"") != std::string::npos;
}

TraceRecorder::TraceRecorder(std::string name, std::string description) {
  trace_.name = std::move(name);
  trace_.description = std::move(description);
}

void TraceRecorder::set_templates(
    std::vector<fleet::StreamTemplate> templates) {
  trace_.templates = std::move(templates);
}

void TraceRecorder::record_admit(common::SimTime t, const std::string& tmpl,
                                 int id, int tier_override,
                                 const std::string& source) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kAdmit;
  e.t_ns = t.ns;
  e.id = id;
  e.tmpl = tmpl;
  e.tier = tier_override;
  e.source = source;
  trace_.events.push_back(std::move(e));
}

void TraceRecorder::record_retire(common::SimTime t, int id,
                                  const std::string& detail) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kRetire;
  e.t_ns = t.ns;
  e.id = id;
  e.source = detail;
  trace_.events.push_back(std::move(e));
}

void TraceRecorder::record_fault(common::SimTime t, int device, bool crash,
                                 const std::string& detail) {
  TraceEvent e;
  e.kind = crash ? TraceEvent::Kind::kCrash : TraceEvent::Kind::kRecover;
  e.t_ns = t.ns;
  e.device = device;
  e.source = detail;
  trace_.events.push_back(std::move(e));
}

}  // namespace sgprs::trace
