// Fault injection and failover: the impolite half of the open world.
//
// The timeline models capacity that changes *politely* — drains announce
// themselves and finish cleanly. A "faults" spec section adds devices that
// die mid-job. It has three parts:
//   * scripted events — "at t, crash device i" / "crash k devices"
//     (correlated rack-style outages) / "at t, recover device i", with an
//     optional per-crash down_s that schedules the recovery implicitly;
//   * a stochastic fault process — per-device exponential MTBF/MTTR. Every
//     draw is keyed shard-blind via common::stream_seed(fault_seed, device,
//     incident), so the schedule is a pure function of (seed, device,
//     incident index) — never of shard count, placement outcomes or event
//     interleaving. `--shards N` stays byte-identical (docs/faults.md);
//   * a failover policy — how orphaned streams are re-placed: max attempts,
//     exponential backoff with seeded per-(stream, attempt) jitter,
//     optional QoS downgrade on the final attempt, and park-and-retry on
//     the next capacity-change event when nothing fits.
//
// A crash — unlike a drain — kills the device instantly: in-flight jobs
// are aborted (counted as jobs_faulted, distinct from deadline misses),
// live streams become orphans, and the failover engine re-places them.
// Recovery restores the device after MTTR and re-admits parked orphans.
//
// docs/faults.md is the schema reference; parsing follows the same rules
// as the rest of the spec surface (unknown keys are errors, messages carry
// field paths).
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"

namespace sgprs::fleet {

/// One scripted fault event. `device >= 0` targets that device; otherwise
/// `count` picks the first `count` active devices at fire time (highest
/// index first, mirroring scale-down victim order) — a correlated outage.
struct FaultEvent {
  enum class Kind { kCrash, kRecover };
  Kind kind = Kind::kCrash;
  double at_s = 0.0;
  int device = -1;
  int count = 1;
  /// Crash only: schedule the recovery down_s seconds later (0 = stay down
  /// until an explicit recover event or the horizon).
  double down_s = 0.0;
};

/// Seeded stochastic fault process: each in-scope device fails with
/// exponential inter-failure gaps of mean `mtbf_s` and repairs after an
/// exponential downtime of mean `mttr_s` (0 = stays down).
struct FaultProcess {
  double mtbf_s = 0.0;  // 0 = no stochastic process
  double mttr_s = 0.0;
  double from_s = 0.0;
  double until_s = 0.0;  // 0 = run horizon
};

/// Upper bound on failover.max_attempts. Orphans of one crash retry at the
/// same instants, and each retry's backoff takes `attempt` steps, so a huge
/// bound with a near-zero backoff ran for minutes; 1,000 attempts run in
/// tens of milliseconds. The curated scenarios ask for at most 4.
inline constexpr int kMaxFailoverAttempts = 1000;

/// Failover retry policy for orphaned streams.
struct FailoverPolicy {
  int max_attempts = 3;
  double backoff_ms = 50.0;
  double backoff_mult = 2.0;
  /// Uniform jitter in [0, jitter_ms) added to each backoff, drawn from a
  /// per-(stream, attempt) seeded rng — shard-blind like everything else.
  double jitter_ms = 0.0;
  /// Re-try the final attempt with the downgraded (fps-scaled) prototype,
  /// mirroring admission-time QoS downgrade.
  bool qos_downgrade = false;
  /// When every attempt fails: park the orphan and retry on the next
  /// capacity-change event (device recovery / warm-up activation). False
  /// drops it instead (counted as streams_lost).
  bool park = true;
};

struct FaultSpec {
  std::uint64_t seed = 1;
  std::vector<FaultEvent> events;
  FaultProcess process;
  FailoverPolicy failover;
  /// Degraded mode: when active devices fall below this floor, the
  /// overload guard's shed path engages with `degraded_queue_limit` until
  /// capacity recovers. 0 disables.
  int min_active_devices = 0;
  int degraded_queue_limit = 1;
};

/// Parses a "faults" section. Throws workload::SpecError with field paths.
FaultSpec parse_fault_spec(const common::JsonValue& v,
                           const std::string& path);

/// Semantic validation: event targets and ranges, process and failover
/// parameter ranges; every time field must fit SimTime. A scripted event's
/// device index must lie below `num_devices`, the fleet's device count. An
/// autoscaled fleet appends device indices at run time, so it passes
/// std::nullopt and its event indices are bounded from below only.
void validate_fault_spec(const FaultSpec& spec, const std::string& path,
                         std::optional<int> num_devices);

/// The deterministic draw core of the stochastic process and the retry
/// jitter. Stateless per call: every draw builds a fresh rng from a
/// splitmix-avalanched (base, key-a, key-b) seed, so a draw depends only on
/// its keys, never on shard or event order (docs/sharding.md).
class FaultEngine {
 public:
  /// `sim_seed` is mixed into the base exactly like the churn rng mixes the
  /// timeline seed, so experiment replications decorrelate fault schedules
  /// without spec edits.
  FaultEngine(const FaultSpec& spec, std::uint64_t sim_seed)
      : spec_(spec),
        base_(spec.seed + 0x9e3779b97f4a7c15ULL * (sim_seed + 1)) {}

  const FaultSpec& spec() const { return spec_; }

  /// Exponential gap (seconds) from device `device`'s previous repair (or
  /// the process start, for incident 0) to its next failure.
  double failure_gap_s(int device, int incident) const {
    return exp_draw(device, 2 * incident, spec_.process.mtbf_s);
  }

  /// Exponential downtime (seconds) of device `device`'s `incident`-th
  /// stochastic failure.
  double repair_s(int device, int incident) const {
    return exp_draw(device, 2 * incident + 1, spec_.process.mttr_s);
  }

  /// Backoff before failover attempt `attempt` (>= 1) of stream `task_id`:
  /// backoff_ms * mult^(attempt-1) plus seeded jitter. Keyed on the task id
  /// (stable across shards), never on the orphan's position in any queue.
  double retry_backoff_ms(int task_id, int attempt) const {
    const auto& f = spec_.failover;
    double backoff = f.backoff_ms;
    for (int i = 1; i < attempt; ++i) backoff *= f.backoff_mult;
    if (f.jitter_ms > 0.0) {
      // ~base_ keeps the jitter keyspace disjoint from the MTBF/MTTR draws
      // (same (a, b) pair, different base).
      common::Rng rng(common::stream_seed(~base_, task_id, attempt));
      backoff += rng.uniform(0.0, f.jitter_ms);
    }
    return backoff;
  }

 private:
  double exp_draw(int device, int index, double mean_s) const {
    common::Rng rng(common::stream_seed(base_, device, index));
    // Inverse-CDF with the (0, 1] flip so log() never sees zero.
    double u = 1.0 - rng.next_double();
    return -mean_s * std::log(u);
  }

  FaultSpec spec_;
  std::uint64_t base_;
};

}  // namespace sgprs::fleet
