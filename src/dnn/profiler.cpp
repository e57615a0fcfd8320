#include "dnn/profiler.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "gpu/executor.hpp"
#include "sim/engine.hpp"

namespace sgprs::dnn {

std::size_t WcetTable::size_index(int sms) const {
  const auto it = std::find(sm_sizes.begin(), sm_sizes.end(), sms);
  SGPRS_CHECK_MSG(it != sm_sizes.end(),
                  "no WCET profiled for " << sms << " SMs");
  return static_cast<std::size_t>(it - sm_sizes.begin());
}

SimTime WcetTable::stage_at(int stage, int sms) const {
  SGPRS_CHECK(stage >= 0 && stage < stage_count());
  return stage_times[stage * sm_sizes.size() + size_index(sms)];
}

SimTime WcetTable::total_at(int sms) const { return totals[size_index(sms)]; }

SimTime Profiler::layer_time(const Layer& layer, int sms) const {
  SGPRS_CHECK(sms >= 1);
  const double work = cost_.work_seconds(layer);
  const double s = speedup_.speedup(layer.op, static_cast<double>(sms));
  return SimTime::from_sec(cost_.launch_overhead_sec + work / s);
}

SimTime Profiler::stage_time(const Network& net,
                             const std::vector<NodeId>& stage,
                             int sms) const {
  SimTime t = SimTime::zero();
  for (NodeId id : stage) t += layer_time(net.layer(id), sms);
  return t;
}

WcetTable Profiler::profile(const Network& net, const StagePlan& plan,
                            const std::vector<int>& sm_sizes) const {
  WcetTable table;
  for (int sms : sm_sizes) {
    auto& seen = table.sm_sizes;
    if (std::find(seen.begin(), seen.end(), sms) == seen.end()) {
      seen.push_back(sms);
    }
  }
  const std::size_t sizes = table.sm_sizes.size();
  table.stage_times.resize(plan.stages.size() * sizes);
  table.totals.assign(sizes, SimTime::zero());
  for (std::size_t k = 0; k < sizes; ++k) {
    for (int s = 0; s < plan.stage_count(); ++s) {
      const SimTime t = stage_time(net, plan.stages[s], table.sm_sizes[k]);
      table.stage_times[s * sizes + k] = t;
      table.totals[k] += t;
    }
  }
  return table;
}

SimTime Profiler::stage_time_simulated(const Network& net,
                                       const std::vector<NodeId>& stage,
                                       int sms) const {
  sim::Engine engine;
  gpu::SharingParams isolation;
  isolation.interference_gamma = 0.0;
  isolation.oversub_thrash_kappa = 0.0;
  isolation.contention_exponent = 1.0;
  gpu::Executor exec(engine, device_, speedup_, isolation);
  const auto ctx = exec.create_context(sms);
  const auto stream = exec.create_stream(ctx, gpu::StreamPriority::kHigh);
  SimTime done = SimTime::zero();
  exec.enqueue_batch(stream, stage_kernels(net, cost_, stage),
                     [&done](SimTime t) { done = t; });
  engine.run();
  return done;
}

TaskFootprint Profiler::footprint(const Network& net, int ref_sms,
                                  double period_sec) const {
  SGPRS_CHECK(ref_sms >= 1);
  SGPRS_CHECK(period_sec > 0.0);
  constexpr double kBytesPerElem = 4.0;  // fp32 weights and activations
  // Fixed per-stream runtime overhead (context, cuDNN workspace, ...).
  constexpr std::int64_t kStreamOverheadBytes = 64LL << 20;
  const double warp_cap = static_cast<double>(device_.total_warps());

  const auto order = net.topo_order();
  double weight_bytes = 0.0;
  double peak_act_elems = 0.0;
  double warp_time = 0.0;  // warp-seconds over one period
  for (NodeId id : order) {
    const Layer& l = net.layer(id);
    const double out_elems = static_cast<double>(l.out_shape.elements());
    if (l.op == gpu::OpClass::kConv || l.op == gpu::OpClass::kLinear) {
      // FLOPs count a MAC as 2, so flops / (2 * spatial positions) recovers
      // the weight element count exactly for conv (incl. depthwise/grouped)
      // and linear layers.
      const double positions = std::max<double>(
          1.0, static_cast<double>(l.out_shape.h) * l.out_shape.w);
      weight_bytes += kBytesPerElem * l.flops / (2.0 * positions);
    }
    // Live set while this layer runs: its inputs plus its output.
    double live = out_elems;
    for (NodeId p : net.preds(id)) {
      live += static_cast<double>(net.layer(p).out_shape.elements());
    }
    peak_act_elems = std::max(peak_act_elems, live);
    // One warp per 32 output elements, bounded by what the device can
    // actually keep resident.
    const double warps =
        std::min(std::ceil(out_elems / 32.0), warp_cap);
    warp_time += warps * layer_time(l, ref_sms).to_sec();
  }

  TaskFootprint fp;
  fp.mem_bytes = kStreamOverheadBytes +
                 static_cast<std::int64_t>(
                     std::llround(weight_bytes + kBytesPerElem * peak_act_elems));
  // Time-averaged resident warps over the release period: a stream that is
  // idle most of its period holds proportionally less occupancy. The
  // integral is a *solo-run* residency; on a shared device the pool's
  // concurrent kernel slots contend for the same SMs and each stream's
  // resident share shrinks accordingly, so normalize by the default pool's
  // slot count (2 contexts x 4 streams). Without this the occupancy budget
  // would just re-measure compute utilization and bind at the same stream
  // count the utilization test already guards.
  constexpr double kContendedSlots = 8.0;
  fp.warps = std::llround(warp_time / period_sec / kContendedSlots);
  return fp;
}

double Profiler::network_speedup(const Network& net, int sms) const {
  const auto order = net.topo_order();
  double t1 = 0.0;
  double tm = 0.0;
  for (NodeId id : order) {
    const Layer& l = net.layer(id);
    t1 += cost_.launch_overhead_sec + cost_.work_seconds(l);
    tm += layer_time(l, sms).to_sec();
  }
  return t1 / tm;
}

}  // namespace sgprs::dnn
