// Fleet-level metrics: per-device snapshots rolled up into one report.
//
// Rollup semantics: counts and rates (FPS) sum across devices; DMR is
// recomputed from the summed counts; latency mean/p50/p99/max come from
// the fleet's latency distribution, the per-device histograms merged in
// device order (common/histogram.hpp; cluster::Cluster folds it while it
// builds the rows), so the fleet percentiles are exact — bit-identical to
// a shared Collector over the same population. Utilization is SM-weighted
// so a big idle device drags the fleet number down proportionally to its
// size.
#pragma once

#include <string>
#include <vector>

#include "metrics/collector.hpp"

namespace sgprs::metrics {

struct DeviceReport {
  int device_index = 0;
  std::string device_name;
  int total_sms = 0;
  int tasks_assigned = 0;
  Snapshot snapshot;
  /// Integral of granted SMs over the whole run (gpu::Executor accounting).
  double busy_sm_seconds = 0.0;
  /// busy_sm_seconds / (allocation basis * elapsed run time), where the
  /// basis is the device's SM count or, for an over-subscribed pool, its
  /// (larger) summed context allocation — an occupancy in [0, ~1].
  double utilization = 0.0;
};

struct FleetReport {
  std::vector<DeviceReport> devices;
  Snapshot fleet;
  /// SM-weighted mean of per-device utilization.
  double mean_utilization = 0.0;
  int tasks_assigned = 0;
  int tasks_rejected = 0;
  /// Rejections where device memory was the sole blocker (subset of
  /// tasks_rejected).
  int tasks_oom_rejected = 0;
};

/// Full fleet rollup from per-device reports and `fleet`, a fleet
/// snapshot taken elsewhere (a collector holding the whole fleet's
/// records): utilization and assigned tasks come from the rows.
FleetReport roll_up(std::vector<DeviceReport> devices, Snapshot fleet,
                    int tasks_rejected, int tasks_oom_rejected = 0);

/// Full fleet rollup under the semantics above; `latency_ms` is the
/// devices' latency distributions merged in device order.
FleetReport roll_up(std::vector<DeviceReport> devices,
                    const common::Histogram& latency_ms, int tasks_rejected,
                    int tasks_oom_rejected = 0);

}  // namespace sgprs::metrics
