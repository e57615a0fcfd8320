// Bit-exact digests of a run's results, shared by the determinism and
// instrument tests.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "fleet/report.hpp"
#include "metrics/timeseries.hpp"
#include "workload/spec.hpp"

namespace sgprs::workload::golden {

inline void digest_snapshot(std::ostringstream& os,
                            const metrics::Snapshot& s) {
  os << s.counts.released << "," << s.counts.dropped << ","
     << s.counts.on_time << "," << s.counts.late << "," << s.fps << ","
     << s.fps_on_time << "," << s.dmr << "," << s.mean_latency_ms << ","
     << s.p50_latency_ms << "," << s.p99_latency_ms << ","
     << s.max_latency_ms << ";";
}

/// Digest of a closed-world result. Hexfloat formatting means two digests
/// compare equal iff every double is the same bit pattern, not merely
/// close. GoldenTraceDeterminism pins its hash for paper_scenario1.
inline std::string digest(const SpecResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.name << "|fleet=" << r.fleet << "|";
  digest_snapshot(os, r.aggregate());
  if (r.fleet) {
    for (const auto& d : r.cluster.fleet.devices) {
      os << "dev" << d.device_index << ":";
      digest_snapshot(os, d.snapshot);
    }
    os << "rejected=" << r.cluster.rejected_task_ids.size() << "|";
  } else {
    for (const auto& t : r.single.per_task) digest_snapshot(os, t);
    os << "busy=" << r.single.gpu_busy_sm_seconds << "|";
  }
  os << "releases=" << r.releases() << "|migrations=" << r.migrations();
  return os.str();
}

/// Everything a run reports, as bytes: a dynamic run's report JSON and
/// series CSV, a closed-world run's digest.
inline std::string result_bytes(const SpecResult& r) {
  if (!r.dynamic) return digest(r);
  std::ostringstream os;
  fleet::write_fleet_run_json(r.dyn, os);
  metrics::write_timeseries_csv(r.dyn.series, os);
  return os.str();
}

}  // namespace sgprs::workload::golden
