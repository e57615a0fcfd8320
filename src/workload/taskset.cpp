#include "workload/taskset.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "dnn/builders.hpp"

namespace sgprs::workload {

std::vector<double> uunifast(int n, double total, common::Rng& rng) {
  SGPRS_CHECK(n >= 1);
  SGPRS_CHECK(total > 0.0);
  std::vector<double> u(n);
  double sum = total;
  for (int i = 0; i < n - 1; ++i) {
    const double next =
        sum * std::pow(rng.next_double(), 1.0 / static_cast<double>(n - i - 1));
    u[i] = sum - next;
    sum = next;
  }
  u[n - 1] = sum;
  return u;
}

std::vector<rt::Task> build_random_taskset(const RandomTaskSetConfig& cfg,
                                           const dnn::Profiler& profiler,
                                           const std::vector<int>& pool_sms) {
  SGPRS_CHECK(cfg.count >= 1);
  SGPRS_CHECK(!pool_sms.empty());
  SGPRS_CHECK(cfg.min_fps > 0.0 && cfg.max_fps >= cfg.min_fps);

  auto choices = cfg.network_choices;
  if (choices.empty()) {
    choices = {[] { return dnn::resnet18(); },
               [] { return dnn::mobilenet_like(); },
               [] { return dnn::lenet5(); }};
  }

  common::Rng rng(cfg.seed);
  const auto utils = uunifast(cfg.count, cfg.total_utilization, rng);

  // Share built networks across tasks that draw the same choice.
  std::vector<std::shared_ptr<const dnn::Network>> built(choices.size());

  std::vector<rt::Task> tasks;
  tasks.reserve(cfg.count);
  for (int i = 0; i < cfg.count; ++i) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(choices.size()) - 1));
    if (!built[pick]) {
      built[pick] =
          std::make_shared<const dnn::Network>(choices[pick]());
    }
    // Derive the rate from the drawn utilization: u = wcet / period.
    // Build once at a provisional rate to learn the WCET, then rebuild
    // with the final rate (task building is cheap).
    rt::TaskConfig tc;
    tc.name = "rand" + std::to_string(i);
    tc.num_stages = cfg.num_stages;
    tc.fps = 30.0;
    const rt::Task probe =
        rt::build_task(i, built[pick], tc, profiler, pool_sms);
    const double wcet = probe.wcet().total_at(pool_sms.front()).to_sec();
    double fps = utils[i] / wcet;
    fps = std::clamp(fps, cfg.min_fps, cfg.max_fps);
    tc.fps = fps;
    rt::Task t = rt::build_task(i, built[pick], tc, profiler, pool_sms);
    t.phase = common::SimTime::from_sec(rng.next_double() *
                                        t.period.to_sec());
    tasks.push_back(std::move(t));
  }
  return tasks;
}

}  // namespace sgprs::workload
