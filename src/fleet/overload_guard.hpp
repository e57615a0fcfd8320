// OverloadGuard: a per-device scheduler decorator that sheds releases at
// the door when the device is over its in-flight ceiling.
//
// Shedding happens *before* the wrapped scheduler sees the release, so a
// shed job costs nothing downstream — no queue entry, no context choice,
// no job allocation. Priority-aware mode consults the stream's tier
// (tier 0 = protected); indiscriminate mode sheds anything. Every shed is
// counted against the stream in its device's Collector (release + drop,
// the same accounting a scheduler-level drop gets) and leaves an audit
// record.
//
// Shed state is per device (DeviceOverload): the counter, the collector
// the guard writes, and a staging buffer for audit records. Staging is the
// shard-count-invariance fix: sheds on different devices at the same
// instant used to enter the audit trail in event-execution order, which a
// sharded run cannot reproduce. Instead every shed is staged on its device
// and flushed into the trail in canonical (time, device index) order —
// i.e. (epoch, source shard, per-shard sequence) — before any later
// control-plane decision is appended. The flush points (record() of a
// control decision, flush_all() at the end of the run) land at epoch
// barriers, so staging is also what keeps the parallel shard phase free of
// writes to shared audit state. Each shard also counts the records its
// devices staged, so a flush with nothing staged skips the device walk.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fleet/policy.hpp"
#include "fleet/report.hpp"
#include "metrics/collector.hpp"
#include "obs/span.hpp"
#include "rt/scheduler.hpp"

namespace sgprs::fleet {

/// Per-device shed state. Written only by that device's guard (single
/// shard) during the parallel phase; read and drained by the control plane
/// at barriers.
struct DeviceOverload {
  /// Collector this device's scheduler stack reports into: the device's
  /// own, folded into the fleet's at the end of the run.
  metrics::Collector* collector = nullptr;
  std::int64_t jobs_shed = 0;
  /// Shed audit records awaiting canonical flush, in this device's event
  /// order (time-sorted by construction).
  std::vector<FleetDecision> staged;
  /// Staged records of every device on this device's shard.
  std::int64_t* shard_staged = nullptr;
};

/// One shard's staged-record count, on a cache line of its own: only that
/// shard's guards write it during the parallel phase.
struct alignas(64) ShardStaged {
  std::int64_t count = 0;
};

/// State shared by every device's guard (one fleet run = one instance).
struct OverloadState {
  OverloadConfig cfg;
  /// task id -> shed tier (0 = never shed under kPriority). Written by the
  /// control plane at barriers, read by guards during the parallel phase.
  std::vector<int> tier_by_task;
  std::deque<DeviceOverload> devices;  // index = device index; stable addrs
  std::deque<ShardStaged> shards;      // index = shard; stable addrs
  std::vector<FleetDecision>* audit = nullptr;
  std::int64_t* audit_truncated = nullptr;

  int tier(int task_id) const {
    return task_id < static_cast<int>(tier_by_task.size())
               ? tier_by_task[task_id]
               : 0;
  }
  void set_tier(int task_id, int tier) {
    if (task_id >= static_cast<int>(tier_by_task.size())) {
      tier_by_task.resize(task_id + 1, 0);
    }
    tier_by_task[task_id] = tier;
  }

  /// Device `index`'s state, counting its staged records on `shard`.
  DeviceOverload& device(int index, int shard) {
    while (static_cast<int>(devices.size()) <= index) {
      devices.emplace_back();
    }
    while (static_cast<int>(shards.size()) <= shard) shards.emplace_back();
    devices[index].shard_staged = &shards[shard].count;
    return devices[index];
  }

  std::int64_t total_jobs_shed() const {
    std::int64_t total = 0;
    for (const auto& d : devices) total += d.jobs_shed;
    return total;
  }

  /// Appends a control-plane decision, first flushing every staged shed
  /// from *strictly earlier* instants so the trail stays time-sorted with
  /// sheds in canonical cross-device order. Strictly earlier, not <=: a
  /// shed sharing the decision's instant has no canonical side (on one
  /// shared calendar the device event could carry a sequence number on
  /// either side of the control event), so equal-instant sheds always wait
  /// for the first strictly later flush point — after the instant's
  /// control decisions at every shard count.
  void record(FleetDecision d) {
    flush_staged(d.at);
    append(std::move(d));
  }

  /// Drains staged sheds with time < `upto` into the audit trail, sorted
  /// by (time, device index). Gathering walks devices in index order and
  /// the sort is stable, so equal-time sheds land in device order — the
  /// same order at every shard count.
  void flush_staged(common::SimTime upto) {
    std::int64_t pending = 0;
    for (const auto& shard : shards) pending += shard.count;
    if (pending == 0) return;
    std::vector<FleetDecision> batch;
    for (auto& dev : devices) {
      auto split = dev.staged.begin();
      while (split != dev.staged.end() && split->at < upto) ++split;
      if (split == dev.staged.begin()) continue;
      *dev.shard_staged -= split - dev.staged.begin();
      std::move(dev.staged.begin(), split, std::back_inserter(batch));
      dev.staged.erase(dev.staged.begin(), split);
    }
    if (batch.empty()) return;
    std::stable_sort(batch.begin(), batch.end(),
                     [](const FleetDecision& a, const FleetDecision& b) {
                       return a.at < b.at;
                     });
    for (auto& d : batch) append(std::move(d));
  }

  void flush_all() { flush_staged(common::SimTime::max()); }

 private:
  void append(FleetDecision d) {
    if (!audit) return;
    if (audit->size() >= FleetRunResult::kMaxDecisions) {
      if (audit_truncated) ++*audit_truncated;
      return;
    }
    audit->push_back(std::move(d));
  }
};

class OverloadGuard final : public rt::Scheduler {
 public:
  OverloadGuard(std::unique_ptr<rt::Scheduler> inner, int device_index,
                OverloadState* state, DeviceOverload* dev)
      : inner_(std::move(inner)),
        device_(device_index),
        state_(state),
        dev_(dev) {}

  void admit(const rt::Task& task, int slot) override {
    inner_->admit(task, slot);
  }

  void release_job(const rt::Task& task, int slot,
                   common::SimTime now) override {
    const OverloadConfig& cfg = state_->cfg;
    const bool sheddable =
        cfg.shed == ShedMode::kAll ||
        (cfg.shed == ShedMode::kPriority && state_->tier(task.id) > 0);
    if (cfg.queue_limit > 0 && sheddable &&
        inner_->jobs_in_flight() >= cfg.queue_limit) {
      dev_->collector->on_release(task.id, now);
      dev_->collector->on_drop(task.id, now);
      if (tracer_) tracer_->shed(task.id, now);
      ++dev_->jobs_shed;
      dev_->staged.push_back({now, DecisionKind::kJobShed, task.id, device_,
                              "in-flight at limit " +
                                  std::to_string(cfg.queue_limit)});
      ++*dev_->shard_staged;
      return;
    }
    inner_->release_job(task, slot, now);
  }

  int jobs_in_flight() const override { return inner_->jobs_in_flight(); }
  int abort_in_flight() override { return inner_->abort_in_flight(); }
  std::string name() const override { return inner_->name(); }
  common::SimTime next_timer() const override { return inner_->next_timer(); }
  const rt::Scheduler* unwrap() const override { return inner_->unwrap(); }

  /// Forward so the wrapped scheduler records release/dispatch/complete
  /// while the guard records its own sheds on the same device track.
  void set_tracer(obs::JobTracer* tracer) override {
    tracer_ = tracer;
    inner_->set_tracer(tracer);
  }

 private:
  std::unique_ptr<rt::Scheduler> inner_;
  int device_;
  OverloadState* state_;
  DeviceOverload* dev_;
};

}  // namespace sgprs::fleet
