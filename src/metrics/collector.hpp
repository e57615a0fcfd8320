// Run-time metrics: the paper's two comparison metrics — total FPS and
// Deadline Miss Rate (DMR) — plus latency distributions.
//
// Semantics (DESIGN.md §3.1):
//  * Total FPS  = frames completed per second of measured (post-warm-up)
//    simulated time, regardless of deadline. This is the only reading under
//    which the naive scheduler's FPS *degrades gradually* past the pivot
//    while its DMR explodes, as in Figs. 3/4.
//  * DMR = (late completions + dropped releases) / closed jobs.
//  * A job belongs to the measurement window iff its release time is at or
//    after the warm-up boundary.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"

namespace sgprs::metrics {

using common::SimTime;

struct TaskCounters {
  std::int64_t released = 0;
  std::int64_t dropped = 0;  // releases shed by the admission/drop policy
  std::int64_t on_time = 0;
  std::int64_t late = 0;

  std::int64_t closed() const { return dropped + on_time + late; }
  std::int64_t completed() const { return on_time + late; }
};

struct Snapshot {
  TaskCounters counts;
  double fps = 0.0;          // completed frames / measured second
  double fps_on_time = 0.0;  // deadline-meeting frames / measured second
  double dmr = 0.0;          // (late + dropped) / closed
  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double max_latency_ms = 0.0;
};

class Collector {
 public:
  /// Events for jobs released before `warmup` are ignored.
  explicit Collector(SimTime warmup = SimTime::zero()) : warmup_(warmup) {}

  void on_release(int task, SimTime release);
  void on_drop(int task, SimTime release);
  /// `release` identifies the job's window membership; `deadline` is the
  /// job's absolute deadline; `now` is the completion instant.
  void on_complete(int task, SimTime release, SimTime deadline, SimTime now);

  /// Aggregate metrics over [warmup, end].
  Snapshot aggregate(SimTime end) const;
  /// Summed job counters only — no latency merge/sort, so it is O(tasks)
  /// at any instant (the fleet time-series sampler's per-window read;
  /// a full aggregate() per window would grow with run history).
  TaskCounters total_counts() const;
  /// Aggregate over a subset of tasks (e.g. one device's share of a fleet).
  /// Ids with no recorded events contribute nothing. The subset's latency
  /// histograms are read where they lie, never copied. When `latency_ms`
  /// is given, the subset's latency distribution is merged into it as one
  /// histogram — integer bucket counts make a fleet-wide p50/p99 folded
  /// this way exact (common/histogram.hpp).
  Snapshot aggregate_tasks(const std::vector<int>& ids, SimTime end,
                           common::Histogram* latency_ms = nullptr) const;
  /// Metrics for one task over [warmup, end]; the task must has_task().
  Snapshot per_task(int task, SimTime end) const;
  /// True when `task` produced at least one in-window event.
  bool has_task(int task) const { return tasks_.count(task) != 0; }

  /// Folds another collector's per-task records into this one and leaves
  /// `other` empty: a task new to this collector moves over whole (no
  /// copy), a task both hold is merged (counter sums, Welford merge,
  /// histogram bucket-count sums). Integer bucket counts make the merge
  /// exact: the fleet runtime reduces its per-device collectors through
  /// this and every percentile read is bit-identical to a single shared
  /// collector, independent of shard count and thread scheduling. Warm-up
  /// boundaries must match (checked).
  void merge_from(Collector&& other);

  SimTime warmup() const { return warmup_; }

 private:
  struct PerTask {
    TaskCounters counts;
    common::RunningStats latency_ms;
    common::Histogram latency_hist_ms;
  };
  bool in_window(SimTime release) const { return release >= warmup_; }
  Snapshot snapshot_of(const PerTask& pt, SimTime end) const;
  /// The snapshot of records whose counters and running stats are folded
  /// into `pt` and whose latency histograms are `latency`.
  Snapshot snapshot_of(const PerTask& pt,
                       std::span<const common::Histogram* const> latency,
                       SimTime end) const;

  SimTime warmup_;
  std::map<int, PerTask> tasks_;
};

}  // namespace sgprs::metrics
