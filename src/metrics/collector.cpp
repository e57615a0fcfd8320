#include "metrics/collector.hpp"

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
  s.p50_latency_ms = pt.latency_hist_ms.p50();
  s.p99_latency_ms = pt.latency_hist_ms.p99();
  s.max_latency_ms = pt.latency_hist_ms.max();
  s.latency_hist_ms = pt.latency_hist_ms;
  return s;
}

namespace {

template <typename PerTaskT>
void merge_into(PerTaskT& all, const PerTaskT& pt) {
  all.counts.released += pt.counts.released;
  all.counts.dropped += pt.counts.dropped;
  all.counts.on_time += pt.counts.on_time;
  all.counts.late += pt.counts.late;
  all.latency_ms.merge(pt.latency_ms);
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
                                    SimTime end) const {
  PerTask all;
  for (int id : ids) {
    auto it = tasks_.find(id);
    if (it != tasks_.end()) merge_into(all, it->second);
  }
  return snapshot_of(all, end);
}

Snapshot Collector::per_task(int task, SimTime end) const {
  auto it = tasks_.find(task);
  SGPRS_CHECK_MSG(it != tasks_.end(), "unknown task " << task);
  return snapshot_of(it->second, end);
}

}  // namespace sgprs::metrics
