#include "cluster/cluster.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <numeric>

#include "common/check.hpp"
#include "rt/analysis.hpp"

namespace sgprs::cluster {

namespace {

/// Appends `sms` to `sizes` unless it is there already.
void add_distinct(std::vector<int>& sizes, int sms) {
  if (std::find(sizes.begin(), sizes.end(), sms) == sizes.end()) {
    sizes.push_back(sms);
  }
}

}  // namespace

std::vector<int> pool_sm_sizes_for(const gpu::DeviceSpec& spec,
                                   const gpu::ContextPoolConfig& pool) {
  std::vector<int> sizes;
  for (int sms : gpu::ContextPool::sm_limits(spec.total_sms, pool)) {
    add_distinct(sizes, sms);
  }
  return sizes;
}

Cluster::Cluster(sim::Engine& engine, metrics::Collector& collector,
                 ClusterConfig cfg)
    : collector_(collector), cfg_(std::move(cfg)) {
  SGPRS_CHECK_MSG(!cfg_.devices.empty(), "cluster needs at least one device");
  SGPRS_CHECK_MSG(cfg_.shards >= 1, "shards must be >= 1");
  engines_.push_back(&engine);
  for (int s = 1; s < cfg_.shards; ++s) {
    owned_engines_.push_back(std::make_unique<sim::Engine>());
    engines_.push_back(owned_engines_.back().get());
  }
  if (cfg_.shards > 1) {
    pool_ = std::make_unique<common::ThreadPool>(cfg_.shards - 1);
  }
  memos_.resize(static_cast<std::size_t>(cfg_.shards));

  std::vector<PlacerDevice> placer_devices;
  for (const auto& spec : cfg_.devices) {
    const int type = type_of(spec);
    devices_.push_back(make_device(type, num_devices()));
    placer_devices.push_back(types_[type].placer);
  }
  placer_ = std::make_unique<Placer>(std::move(placer_devices),
                                     cfg_.placement, cfg_.admission_margin,
                                     cfg_.occupancy_threshold);
}

int Cluster::type_of(const gpu::DeviceSpec& spec) {
  for (std::size_t t = 0; t < types_.size(); ++t) {
    if (types_[t].spec == spec) return static_cast<int>(t);
  }
  // Laid out first: a spec the pool cannot be carved from adds no type.
  gpu::ContextPool pool(spec.total_sms, cfg_.pool);
  for (auto& memos : memos_) memos.emplace_back();
  std::vector<int> context_sms;  // in creation order
  for (const gpu::PooledContext& pc : pool.contexts()) {
    context_sms.push_back(pc.sm_limit);
  }
  DeviceType& type = types_.emplace_back(spec, std::move(pool));
  type.placer.mem_bytes = spec.mem_bytes;
  type.placer.total_warps = spec.total_warps();
  // Reference size for WCET lookups; profiles cover every pool size, so
  // any context works — use the first.
  type.placer.pool_sms = context_sms.front();
  type.placer.capacity = rt::pool_capacity(
      gpu::SpeedupModel::rtx2080ti(), cfg_.sharing, spec.total_sms,
      context_sms,
      cfg_.pool.high_streams_per_context + cfg_.pool.low_streams_per_context);
  // busy_sm_seconds integrates granted SMs, and an over-subscribed pool
  // grants up to its allocation (> the physical device).
  type.utilization_basis = std::max(
      spec.total_sms,
      std::accumulate(context_sms.begin(), context_sms.end(), 0));
  return static_cast<int>(types_.size() - 1);
}

Cluster::Device Cluster::make_device(int type, int index) {
  Device dev;
  dev.type = type;
  // The device's whole event surface (executor, runner) lives on its
  // shard's calendar, and its metrics on a collector of its own.
  sim::Engine& engine = device_engine(index);
  metrics::Collector& collector = collectors_.emplace_back(collector_.warmup());
  const DeviceType& t = types_[type];
  auto& memo = memos_[shard_of(index, cfg_.shards)][type];
  if (!memo) {
    memo = std::make_unique<gpu::DeviceClassMemo>(t.pool.device_class(
        t.spec.total_sms, gpu::SpeedupModel::rtx2080ti(), cfg_.sharing));
  }
  dev.exec = std::make_unique<gpu::Executor>(engine, *memo);
  dev.exec->set_input_bound([this, index] { return input_bound(index); });
  std::unique_ptr<rt::Scheduler> scheduler;
  switch (cfg_.scheduler) {
    case rt::SchedulerKind::kSgprs:
      scheduler = std::make_unique<rt::SgprsScheduler>(
          *dev.exec, t.pool, collector, cfg_.sgprs);
      break;
    case rt::SchedulerKind::kNaive:
      scheduler = std::make_unique<rt::NaiveScheduler>(
          *dev.exec, t.pool, collector, cfg_.naive);
      break;
  }
  dev.scheduler =
      cfg_.wrap_scheduler
          ? cfg_.wrap_scheduler(std::move(scheduler), index, collector)
          : std::move(scheduler);
  if (cfg_.tracer_for) {
    if (auto* tracer = cfg_.tracer_for(index)) {
      dev.scheduler->set_tracer(tracer);
    }
  }
  return dev;
}

SimTime Cluster::input_bound(int index) const {
  const Device& dev = devices_[index];
  const SimTime bound =
      std::min(dev.scheduler->next_timer(),
               engines_[shard_of(index, cfg_.shards)]->horizon());
  return dev.runner ? std::min(bound, dev.runner->next_release()) : bound;
}

int Cluster::add_device(const gpu::DeviceSpec& spec, bool active) {
  const int index = num_devices();
  const int type = type_of(spec);
  devices_.push_back(make_device(type, index));
  Device& dev = devices_.back();
  placer_->add_device(types_[type].placer, active);
  if (started_) {
    dev.runner = std::make_unique<rt::Runner>(device_engine(index),
                                              *dev.scheduler, rcfg_);
    dev.runner->start();
  }
  return index;
}

std::vector<int> Cluster::pool_sm_sizes() const {
  std::vector<int> sizes;  // types are in first-seen device order
  for (const auto& type : types_) {
    for (const gpu::PooledContext& pc : type.pool.contexts()) {
      add_distinct(sizes, pc.sm_limit);
    }
  }
  return sizes;
}

void Cluster::place(std::vector<rt::Task> tasks) {
  SGPRS_CHECK_MSG(!started_, "place() after start()");
  const auto results = placer_->place_batch(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (results[i].device) {
      devices_[*results[i].device].tasks.push_back(std::move(tasks[i]));
    } else {
      rejected_.push_back(Rejected{tasks[i].id, results[i].oom});
    }
  }
}

void Cluster::start(const rt::RunnerConfig& rcfg) {
  SGPRS_CHECK_MSG(!started_, "start() called twice");
  started_ = true;
  rcfg_ = rcfg;
  for (int i = 0; i < num_devices(); ++i) {
    Device& dev = devices_[i];
    dev.runner =
        std::make_unique<rt::Runner>(device_engine(i), *dev.scheduler, rcfg);
    for (const auto& t : dev.tasks) dev.runner->add_task(t);
    dev.runner->start();
  }
}

void Cluster::run_until(SimTime t) {
  std::vector<std::future<void>> joined;
  joined.reserve(engines_.size() - 1);
  for (std::size_t s = 1; s < engines_.size(); ++s) {
    sim::Engine* e = engines_[s];
    joined.push_back(pool_->submit([e, t] { e->run_until(t); }));
  }
  // Barrier: every shard reaches `t` before the first throw propagates.
  std::exception_ptr error;
  try {
    engines_[0]->run_until(t);
  } catch (...) {
    error = std::current_exception();
  }
  for (auto& f : joined) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

void Cluster::reduce() {
  // Canonical order, independent of shard count and thread scheduling;
  // merge_from leaves each source empty, so no second copy of the per-task
  // state is held.
  for (auto& col : collectors_) collector_.merge_from(std::move(col));
}

metrics::TaskCounters Cluster::total_counts() const {
  metrics::TaskCounters total;
  for (const auto& col : collectors_) {
    const metrics::TaskCounters c = col.total_counts();
    total.released += c.released;
    total.dropped += c.dropped;
    total.on_time += c.on_time;
    total.late += c.late;
  }
  return total;
}

std::size_t Cluster::events_processed() const {
  std::size_t total = 0;
  for (const sim::Engine* e : engines_) total += e->processed_count();
  return total;
}

std::size_t Cluster::memo_count() const {
  std::size_t total = 0;
  for (const auto& memos : memos_) {
    for (const auto& memo : memos) total += memo != nullptr;
  }
  return total;
}

const rt::Task& Cluster::admit_task(int i, rt::Task task) {
  Device& dev = devices_.at(i);
  // A stream re-placed back onto a device it moved away from is this
  // device's again.
  std::erase(dev.moved_away, task.id);
  dev.tasks.push_back(std::move(task));
  const rt::Task& stored = dev.tasks.back();
  if (started_) {
    SGPRS_CHECK(dev.runner != nullptr);
    dev.runner->add_task(stored);
  }
  return stored;
}

bool Cluster::retire_task(int i, int task_id, bool forget_metrics) {
  Device& dev = devices_.at(i);
  // Pre-start retirement would silently leave the stream armed (and its
  // placer capacity held) at start(); make the misuse loud instead.
  SGPRS_CHECK_MSG(started_ && dev.runner,
                  "retire_task() before start() is not supported");
  if (!dev.runner->retire_task(task_id)) return false;
  placer_->remove_task(i, task_id);
  if (forget_metrics) dev.moved_away.push_back(task_id);
  return true;
}

metrics::DeviceReport Cluster::device_report(int i, SimTime end) const {
  std::vector<int> ids;
  return device_row(i, end, ids, nullptr);
}

std::vector<metrics::DeviceReport> Cluster::device_reports(
    SimTime end, common::Histogram* latency_ms) const {
  std::vector<metrics::DeviceReport> reports;
  reports.reserve(devices_.size());
  std::vector<int> ids;
  for (int i = 0; i < num_devices(); ++i) {
    reports.push_back(device_row(i, end, ids, latency_ms));
  }
  return reports;
}

metrics::DeviceReport Cluster::device_row(int i, SimTime end,
                                          std::vector<int>& ids,
                                          common::Histogram* latency_ms) const {
  const Device& dev = devices_.at(i);
  const DeviceType& type = types_[dev.type];
  metrics::DeviceReport report;
  report.device_index = i;
  report.device_name = type.spec.name;
  report.total_sms = type.spec.total_sms;
  ids.clear();
  // A stream that came back holds two entries in dev.tasks: count it once.
  for (const auto& t : dev.tasks) {
    if (std::find(dev.moved_away.begin(), dev.moved_away.end(), t.id) ==
            dev.moved_away.end() &&
        std::find(ids.begin(), ids.end(), t.id) == ids.end()) {
      ids.push_back(t.id);
    }
  }
  report.tasks_assigned = static_cast<int>(ids.size());
  report.snapshot = collector_.aggregate_tasks(ids, end, latency_ms);
  report.busy_sm_seconds = dev.exec->busy_sm_seconds();
  const double denom =
      static_cast<double>(type.utilization_basis) * end.to_sec();
  report.utilization = denom > 0.0 ? report.busy_sm_seconds / denom : 0.0;
  return report;
}

metrics::FleetReport Cluster::fleet_report(SimTime end) const {
  common::Histogram latency_ms;
  std::vector<metrics::DeviceReport> reports = device_reports(end, &latency_ms);
  int oom = 0;
  for (const Rejected& r : rejected_) oom += r.oom ? 1 : 0;
  return metrics::roll_up(std::move(reports), latency_ms,
                          static_cast<int>(rejected_.size()), oom);
}

std::int64_t Cluster::releases_issued() const {
  std::int64_t total = 0;
  for (const auto& dev : devices_) {
    if (dev.runner) total += dev.runner->releases_issued();
  }
  return total;
}

std::int64_t Cluster::stage_migrations() const {
  std::int64_t total = 0;
  for (const auto& dev : devices_) {
    if (auto* s = dynamic_cast<const rt::SgprsScheduler*>(
            dev.scheduler->unwrap())) {
      total += s->stage_migrations();
    }
  }
  return total;
}

std::int64_t Cluster::medium_promotions() const {
  std::int64_t total = 0;
  for (const auto& dev : devices_) {
    if (auto* s = dynamic_cast<const rt::SgprsScheduler*>(
            dev.scheduler->unwrap())) {
      total += s->medium_promotions();
    }
  }
  return total;
}

}  // namespace sgprs::cluster
