#include "fleet/faults.hpp"

#include "workload/spec_util.hpp"

namespace sgprs::fleet {

namespace {

using common::JsonValue;
using namespace workload::specdet;

FaultEvent parse_fault_event(const JsonValue& v, const std::string& path) {
  require_object(v, path);
  check_keys(v, {"at_s", "crash", "recover", "device", "count", "down_s"},
             path);
  FaultEvent e;
  const JsonValue* crash = v.find("crash");
  const JsonValue* recover = v.find("recover");
  if ((crash != nullptr) == (recover != nullptr)) {
    bad(path, "a fault event takes exactly one of \"crash\" or \"recover\"");
  }
  e.kind = crash ? FaultEvent::Kind::kCrash : FaultEvent::Kind::kRecover;
  // The discriminator's value is the device index; -1 (or "count") means
  // "pick at fire time" — correlated outages.
  e.device = get_field(crash ? "crash" : "recover", path, [&] {
    return static_cast<int>((crash ? crash : recover)->as_int());
  });
  e.at_s = num_or(v, "at_s", 0.0, path);
  e.count = int_or(v, "count", e.count, path);
  e.down_s = num_or(v, "down_s", e.down_s, path);
  if (e.device >= 0 && v.find("count")) {
    bad(path + ".count", "count is for device -1 (pick at fire time); a "
                         "targeted event crashes exactly its device");
  }
  if (v.find("device")) {
    bad(path + ".device",
        "the device index is the \"crash\"/\"recover\" value");
  }
  return e;
}

}  // namespace

FaultSpec parse_fault_spec(const common::JsonValue& v,
                           const std::string& path) {
  require_object(v, path);
  check_keys(v,
             {"seed", "events", "process", "failover", "min_active_devices",
              "degraded_queue_limit"},
             path);
  FaultSpec spec;
  spec.seed = seed_or(v, "seed", spec.seed, path);
  spec.min_active_devices =
      int_or(v, "min_active_devices", spec.min_active_devices, path);
  spec.degraded_queue_limit =
      int_or(v, "degraded_queue_limit", spec.degraded_queue_limit, path);

  if (const JsonValue* events = v.find("events")) {
    const auto& items = get_field("events", path,
                                  [&] { return events->items(); });
    for (std::size_t i = 0; i < items.size(); ++i) {
      spec.events.push_back(parse_fault_event(
          items[i], path + ".events[" + std::to_string(i) + "]"));
    }
  }

  if (const JsonValue* process = v.find("process")) {
    const std::string p = path + ".process";
    require_object(*process, p);
    check_keys(*process, {"mtbf_s", "mttr_s", "from_s", "until_s"}, p);
    auto& pr = spec.process;
    pr.mtbf_s = num_or(*process, "mtbf_s", pr.mtbf_s, p);
    pr.mttr_s = num_or(*process, "mttr_s", pr.mttr_s, p);
    pr.from_s = num_or(*process, "from_s", pr.from_s, p);
    pr.until_s = num_or(*process, "until_s", pr.until_s, p);
  }

  if (const JsonValue* failover = v.find("failover")) {
    const std::string p = path + ".failover";
    require_object(*failover, p);
    check_keys(*failover,
               {"max_attempts", "backoff_ms", "backoff_mult", "jitter_ms",
                "qos_downgrade", "park"},
               p);
    auto& f = spec.failover;
    f.max_attempts = int_or(*failover, "max_attempts", f.max_attempts, p);
    f.backoff_ms = num_or(*failover, "backoff_ms", f.backoff_ms, p);
    f.backoff_mult = num_or(*failover, "backoff_mult", f.backoff_mult, p);
    f.jitter_ms = num_or(*failover, "jitter_ms", f.jitter_ms, p);
    f.qos_downgrade = bool_or(*failover, "qos_downgrade", f.qos_downgrade, p);
    f.park = bool_or(*failover, "park", f.park, p);
  }
  return spec;
}

void validate_fault_spec(const FaultSpec& spec, const std::string& path,
                         std::optional<int> num_devices) {
  for (std::size_t i = 0; i < spec.events.size(); ++i) {
    const auto& e = spec.events[i];
    const std::string p = path + ".events[" + std::to_string(i) + "]";
    check_times(p, {{"at_s", e.at_s}, {"down_s", e.down_s}});
    if (e.at_s < 0.0) bad(p + ".at_s", "must be >= 0");
    if (e.device < -1) bad(p, "device index must be >= 0 (or -1 to pick "
                               "at fire time)");
    if (num_devices && e.device >= *num_devices) {
      bad(p + ".device",
          "device index " + std::to_string(e.device) +
              " (the \"crash\"/\"recover\" value) is past the fleet's " +
              std::to_string(*num_devices) + " device(s), indices 0.." +
              std::to_string(*num_devices - 1));
    }
    if (e.count < 1) bad(p + ".count", "must be >= 1");
    if (e.down_s < 0.0) bad(p + ".down_s", "must be >= 0");
    if (e.kind == FaultEvent::Kind::kRecover) {
      if (e.device < 0) {
        bad(p + ".recover", "a recover event must name its device");
      }
      if (e.down_s != 0.0) bad(p + ".down_s", "only applies to crashes");
    }
  }

  const auto& pr = spec.process;
  const std::string pp = path + ".process";
  check_times(pp, {{"mtbf_s", pr.mtbf_s},
                   {"mttr_s", pr.mttr_s},
                   {"from_s", pr.from_s},
                   {"until_s", pr.until_s}});
  if (pr.mtbf_s < 0.0) bad(pp + ".mtbf_s", "must be >= 0");
  if (pr.mttr_s < 0.0) bad(pp + ".mttr_s", "must be >= 0");
  if (pr.mtbf_s == 0.0 && pr.mttr_s > 0.0) {
    bad(pp + ".mttr_s", "needs a mtbf_s to repair from");
  }
  if (pr.from_s < 0.0 || pr.until_s < 0.0) bad(pp, "times must be >= 0");
  if (pr.until_s > 0.0 && pr.until_s < pr.from_s) {
    bad(pp + ".until_s", "must be >= from_s");
  }

  const auto& f = spec.failover;
  const std::string fp = path + ".failover";
  check_times(fp, {{"backoff_ms", f.backoff_ms * 1e-3},
                   {"jitter_ms", f.jitter_ms * 1e-3}});
  if (f.max_attempts < 1 || f.max_attempts > kMaxFailoverAttempts) {
    bad(fp + ".max_attempts",
        "must be in 1.." + std::to_string(kMaxFailoverAttempts));
  }
  if (f.backoff_ms < 0.0) bad(fp + ".backoff_ms", "must be >= 0");
  if (f.backoff_mult < 1.0) bad(fp + ".backoff_mult", "must be >= 1");
  if (f.jitter_ms < 0.0) bad(fp + ".jitter_ms", "must be >= 0");

  if (spec.min_active_devices < 0) {
    bad(path + ".min_active_devices", "must be >= 0");
  }
  if (spec.degraded_queue_limit < 1) {
    bad(path + ".degraded_queue_limit", "must be >= 1");
  }
}

}  // namespace sgprs::fleet
