#include "obs/span.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "common/check.hpp"
#include "common/json_writer.hpp"

namespace sgprs::obs {

namespace {

/// Microsecond timestamp with nanosecond fraction, rendered from the
/// integer — "12345.678" — so the bytes never depend on floating-point
/// formatting. Sim times are non-negative by construction.
std::string us(std::int64_t ns) {
  SGPRS_CHECK(ns >= 0);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  return buf;
}

std::string quoted(const std::string& s) {
  return "\"" + common::JsonWriter::escape(s) + "\"";
}

/// Comma-separated trace-event stream; each event is one hand-rendered
/// JSON object (JsonWriter cannot emit the raw fractional-us timestamps).
class EventStream {
 public:
  explicit EventStream(std::ostream& out) : out_(out) {
    out_ << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  }
  std::ostream& next() {
    if (!first_) out_ << ",\n";
    first_ = false;
    return out_;
  }
  void finish() { out_ << (first_ ? "]\n}\n" : "\n]\n}\n"); }

 private:
  std::ostream& out_;
  bool first_ = true;
};

void emit_process_name(EventStream& es, int pid, const std::string& name) {
  es.next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
            << ",\"tid\":0,\"args\":{\"name\":" << quoted(name) << "}}";
}

void emit_complete(EventStream& es, const std::string& name,
                   const char* cat, int pid, std::int64_t tid,
                   std::int64_t start_ns, std::int64_t end_ns,
                   const std::string& args) {
  es.next() << "{\"name\":" << quoted(name) << ",\"cat\":\"" << cat
            << "\",\"ph\":\"X\",\"ts\":" << us(start_ns)
            << ",\"dur\":" << us(end_ns - start_ns) << ",\"pid\":" << pid
            << ",\"tid\":" << tid << (args.empty() ? "" : ",\"args\":{")
            << args << (args.empty() ? "" : "}") << "}";
}

void emit_instant(EventStream& es, const std::string& name, const char* cat,
                  int pid, std::int64_t tid, std::int64_t t_ns,
                  const std::string& args) {
  es.next() << "{\"name\":" << quoted(name) << ",\"cat\":\"" << cat
            << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << us(t_ns)
            << ",\"pid\":" << pid << ",\"tid\":" << tid
            << (args.empty() ? "" : ",\"args\":{") << args
            << (args.empty() ? "" : "}") << "}";
}

/// A job in flight during export: identified by (task, release instant).
struct PendingJob {
  std::int64_t dispatch_ns = -1;
};
using PendingMap = std::map<std::pair<std::int32_t, std::int64_t>,
                            PendingJob>;

/// Queue span (release -> first dispatch) and exec span (first dispatch ->
/// end). `end_ns` is the completion, the kill instant, or the horizon.
void emit_job_spans(EventStream& es, int pid, std::int32_t task,
                    std::int64_t release_ns, std::int64_t dispatch_ns,
                    std::int64_t end_ns) {
  const std::string args = "\"task\":" + std::to_string(task);
  const std::int64_t queue_end = dispatch_ns >= 0 ? dispatch_ns : end_ns;
  if (queue_end > release_ns) {
    emit_complete(es, "queue", "job", pid, task, release_ns, queue_end,
                  args);
  }
  if (dispatch_ns >= 0) {
    emit_complete(es, "exec", "job", pid, task, dispatch_ns, end_ns, args);
  }
}

}  // namespace

JobTracer& SpanSink::device_tracer(int index) {
  SGPRS_CHECK(index >= 0);
  while (static_cast<int>(devices_.size()) <= index) {
    devices_.emplace_back();
  }
  return devices_[index];
}

void SpanSink::control(SimTime t, std::string kind, int task_id, int device,
                       std::string detail) {
  control_.push_back(ControlRecord{t.ns, std::move(kind),
                                   static_cast<std::int32_t>(task_id),
                                   static_cast<std::int32_t>(device),
                                   std::move(detail)});
}

void SpanSink::stream_admitted(SimTime t, int stream_id, int device,
                               std::string tmpl) {
  streams_.push_back(StreamRecord{t.ns, static_cast<std::int32_t>(stream_id),
                                  static_cast<std::int32_t>(device),
                                  StreamRecord::Kind::kAdmit,
                                  std::move(tmpl)});
}

void SpanSink::stream_moved(SimTime t, int stream_id, int device) {
  streams_.push_back(StreamRecord{t.ns, static_cast<std::int32_t>(stream_id),
                                  static_cast<std::int32_t>(device),
                                  StreamRecord::Kind::kMove, ""});
}

void SpanSink::stream_retired(SimTime t, int stream_id) {
  streams_.push_back(StreamRecord{t.ns, static_cast<std::int32_t>(stream_id),
                                  -1, StreamRecord::Kind::kRetire, ""});
}

void SpanSink::set_device_name(int index, std::string name) {
  SGPRS_CHECK(index >= 0);
  if (index >= static_cast<int>(device_names_.size())) {
    device_names_.resize(index + 1);
  }
  device_names_[index] = std::move(name);
}

std::int64_t SpanSink::total_events() const {
  std::int64_t n = static_cast<std::int64_t>(control_.size()) +
                   static_cast<std::int64_t>(streams_.size());
  for (const auto& d : devices_) {
    n += static_cast<std::int64_t>(d.records().size());
  }
  return n;
}

void SpanSink::write_perfetto(std::ostream& out) const {
  EventStream es(out);

  // Track metadata: pid 0 is the control plane, pid d+1 is device d.
  emit_process_name(es, 0, "control-plane");
  const int devices = std::max(num_devices(),
                               static_cast<int>(device_names_.size()));
  for (int d = 0; d < devices; ++d) {
    std::string name = "device " + std::to_string(d);
    if (d < static_cast<int>(device_names_.size()) &&
        !device_names_[d].empty()) {
      name += " (" + device_names_[d] + ")";
    }
    emit_process_name(es, d + 1, name);
  }

  // Control-plane instants, in decision order.
  for (const auto& c : control_) {
    std::string args;
    if (c.task_id >= 0) args += "\"task\":" + std::to_string(c.task_id);
    if (c.device >= 0) {
      if (!args.empty()) args += ",";
      args += "\"device\":" + std::to_string(c.device);
    }
    if (!c.detail.empty()) {
      if (!args.empty()) args += ",";
      args += "\"detail\":" + quoted(c.detail);
    }
    emit_instant(es, c.kind, "control", 0, 0, c.t_ns, args);
  }

  // Stream lifetime segments: admit/move open, move/retire close; whatever
  // is still open closes at the horizon (in stream-id order — canonical).
  struct OpenSegment {
    std::int64_t start_ns = 0;
    std::int32_t device = -1;
    std::string tmpl;
  };
  std::map<std::int32_t, OpenSegment> open;
  auto close_segment = [&](std::int32_t id, const OpenSegment& seg,
                           std::int64_t end_ns) {
    emit_complete(es, seg.tmpl.empty() ? "stream" : "stream " + seg.tmpl,
                  "stream", seg.device + 1, id, seg.start_ns, end_ns,
                  "\"stream\":" + std::to_string(id) +
                      (seg.tmpl.empty()
                           ? ""
                           : ",\"template\":" + quoted(seg.tmpl)));
  };
  for (const auto& s : streams_) {
    auto it = open.find(s.stream_id);
    switch (s.kind) {
      case StreamRecord::Kind::kAdmit:
        open[s.stream_id] = OpenSegment{s.t_ns, s.device, s.tmpl};
        break;
      case StreamRecord::Kind::kMove:
        if (it != open.end()) {
          OpenSegment seg = it->second;
          close_segment(s.stream_id, seg, s.t_ns);
          if (s.device >= 0) {
            it->second = OpenSegment{s.t_ns, s.device, std::move(seg.tmpl)};
          } else {
            // Orphaned: no home until a later move re-places it.
            open.erase(it);
            emit_instant(es, "orphaned", "stream", 0, s.stream_id, s.t_ns,
                         "\"stream\":" + std::to_string(s.stream_id));
          }
        } else if (s.device >= 0) {
          // Re-placed after an orphan gap: a fresh segment, template lost
          // to the gap (the admit segment carried it).
          open[s.stream_id] = OpenSegment{s.t_ns, s.device, ""};
        }
        break;
      case StreamRecord::Kind::kRetire:
        if (it != open.end()) {
          close_segment(s.stream_id, it->second, s.t_ns);
          open.erase(it);
        }
        break;
    }
  }
  for (const auto& [id, seg] : open) {
    close_segment(id, seg, horizon_ns_);
  }

  // Job spans, device by device in index order. Each device's buffer is
  // already in event order (its shard pushed it).
  for (int d = 0; d < num_devices(); ++d) {
    const int pid = d + 1;
    PendingMap pending;
    for (const auto& r : devices_[d].records()) {
      const auto key = std::make_pair(r.task_id, r.release_ns);
      switch (r.kind) {
        case JobTracer::Event::kRelease:
          pending[key] = PendingJob{};
          break;
        case JobTracer::Event::kDispatch: {
          auto it = pending.find(key);
          if (it != pending.end()) it->second.dispatch_ns = r.t_ns;
          break;
        }
        case JobTracer::Event::kComplete: {
          auto it = pending.find(key);
          if (it != pending.end()) {
            emit_job_spans(es, pid, r.task_id, r.release_ns,
                           it->second.dispatch_ns, r.t_ns);
            pending.erase(it);
          }
          break;
        }
        case JobTracer::Event::kDrop: {
          auto it = pending.find(key);
          if (it != pending.end()) {
            emit_job_spans(es, pid, r.task_id, r.release_ns,
                           it->second.dispatch_ns, r.t_ns);
            pending.erase(it);
          }
          emit_instant(es, "drop", "job", pid, r.task_id, r.t_ns,
                       "\"task\":" + std::to_string(r.task_id));
          break;
        }
        case JobTracer::Event::kShed:
          emit_instant(es, "shed", "job", pid, r.task_id, r.t_ns,
                       "\"task\":" + std::to_string(r.task_id));
          break;
        case JobTracer::Event::kAbortAll:
          // task_id carries the kill count; the jobs it killed truncate
          // here, in (task, release) order — canonical.
          emit_instant(es, "abort_in_flight", "job", pid, 0, r.t_ns,
                       "\"killed\":" + std::to_string(r.task_id));
          for (const auto& [k, pj] : pending) {
            emit_job_spans(es, pid, k.first, k.second, pj.dispatch_ns,
                           r.t_ns);
          }
          pending.clear();
          break;
      }
    }
    // Open at the horizon: jobs still queued or running when the run ends.
    for (const auto& [k, pj] : pending) {
      emit_job_spans(es, pid, k.first, k.second, pj.dispatch_ns,
                     horizon_ns_);
    }
  }

  es.finish();
}

}  // namespace sgprs::obs
