#include "metrics/collector.hpp"

#include <algorithm>
#include <tuple>

#include "common/check.hpp"

namespace sgprs::metrics {

void Collector::on_release(int task, SimTime release) {
  if (!in_window(release)) return;
  ++tasks_[task].counts.released;
}

void Collector::on_drop(int task, SimTime release) {
  if (!in_window(release)) return;
  ++tasks_[task].counts.dropped;
}

void Collector::on_complete(int task, SimTime release, SimTime deadline,
                            SimTime now) {
  if (!in_window(release)) return;
  PerTask& pt = tasks_[task];
  if (now <= deadline) {
    ++pt.counts.on_time;
  } else {
    ++pt.counts.late;
  }
  const double lat_ms = (now - release).to_ms();
  pt.latency_ms.add(lat_ms);
  pt.latency_hist_ms.add(lat_ms);
}

Snapshot Collector::snapshot_of(const PerTask& pt, SimTime end) const {
  const common::Histogram* latency = &pt.latency_hist_ms;
  return snapshot_of(pt, std::span<const common::Histogram* const>(&latency, 1),
                     end);
}

Snapshot Collector::snapshot_of(
    const PerTask& pt, std::span<const common::Histogram* const> latency,
    SimTime end) const {
  SGPRS_CHECK_MSG(end > warmup_, "measurement window is empty");
  const double window = (end - warmup_).to_sec();
  Snapshot s;
  s.counts = pt.counts;
  s.fps = static_cast<double>(pt.counts.completed()) / window;
  s.fps_on_time = static_cast<double>(pt.counts.on_time) / window;
  const auto closed = pt.counts.closed();
  s.dmr = closed == 0
              ? 0.0
              : static_cast<double>(pt.counts.late + pt.counts.dropped) /
                    static_cast<double>(closed);
  s.mean_latency_ms = pt.latency_ms.mean();
  std::tie(s.p50_latency_ms, s.p99_latency_ms) =
      common::Histogram::quantiles(latency, 0.50, 0.99);
  for (const common::Histogram* h : latency) {
    s.max_latency_ms = std::max(s.max_latency_ms, h->max());
  }
  return s;
}

namespace {

// Folds `pt`'s counters and running stats into `all`.
template <typename PerTaskT>
void merge_stats(PerTaskT& all, const PerTaskT& pt) {
  all.counts.released += pt.counts.released;
  all.counts.dropped += pt.counts.dropped;
  all.counts.on_time += pt.counts.on_time;
  all.counts.late += pt.counts.late;
  all.latency_ms.merge(pt.latency_ms);
}

template <typename PerTaskT>
void merge_into(PerTaskT& all, const PerTaskT& pt) {
  merge_stats(all, pt);
  all.latency_hist_ms.merge(pt.latency_hist_ms);
}

}  // namespace

void Collector::merge_from(Collector&& other) {
  SGPRS_CHECK_MSG(warmup_ == other.warmup_,
                  "merging collectors with different warm-up windows");
  // Node transfer for ids this collector lacks — merging into an empty
  // record would reproduce the source bit for bit, so moving it is exact.
  tasks_.merge(other.tasks_);
  for (const auto& [id, pt] : other.tasks_) merge_into(tasks_[id], pt);
  other.tasks_.clear();
}

Snapshot Collector::aggregate(SimTime end) const {
  PerTask all;
  for (const auto& [id, pt] : tasks_) {
    (void)id;
    merge_into(all, pt);
  }
  return snapshot_of(all, end);
}

TaskCounters Collector::total_counts() const {
  TaskCounters all;
  for (const auto& [id, pt] : tasks_) {
    (void)id;
    all.released += pt.counts.released;
    all.dropped += pt.counts.dropped;
    all.on_time += pt.counts.on_time;
    all.late += pt.counts.late;
  }
  return all;
}

Snapshot Collector::aggregate_tasks(const std::vector<int>& ids,
                                    SimTime end,
                                    common::Histogram* latency_ms) const {
  // Merging one record into an empty one copies it exactly, so a subset
  // of one is read where it lies. A larger one folds its counters and
  // running stats into one record and is read across its histograms.
  const PerTask* first = nullptr;
  PerTask all;  // its histogram stays empty
  std::vector<const common::Histogram*> latency;
  for (int id : ids) {
    auto it = tasks_.find(id);
    if (it == tasks_.end()) continue;
    if (!first) {
      first = &it->second;
      continue;
    }
    if (latency.empty()) {
      latency.reserve(ids.size());
      merge_stats(all, *first);
      latency.push_back(&first->latency_hist_ms);
    }
    merge_stats(all, it->second);
    latency.push_back(&it->second.latency_hist_ms);
  }
  if (latency.empty()) {
    const PerTask& subset = first ? *first : all;
    if (latency_ms) latency_ms->merge(subset.latency_hist_ms);
    return snapshot_of(subset, end);
  }
  if (latency_ms) latency_ms->merge(latency);
  return snapshot_of(all, latency, end);
}

Snapshot Collector::per_task(int task, SimTime end) const {
  auto it = tasks_.find(task);
  SGPRS_CHECK_MSG(it != tasks_.end(), "unknown task " << task);
  return snapshot_of(it->second, end);
}

}  // namespace sgprs::metrics
