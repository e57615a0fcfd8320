#!/usr/bin/env python3
"""Benchmark for the SGPRS simulator: simulated frames per wall-second on
three workloads, with per-layer attribution. perfbench/README.md has the
workload table and the layer map.

    python3 perfbench/run.py --workload fleet_1k --seed 7919 --seconds 30 --trace 0

Builds perfbench/ (the simulator library from src/ plus the runner) into
.bench_build/ on first use, then runs the workload in batches, one process
per batch, each repeating short passes through the public path. It checks
that every pass (and, for fleet_1k, a run at --shards 4) writes
byte-identical reports, and prints the metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

# name -> spec file, shard count, measured horizon (None = the spec's own),
# set-up horizon, and the shard count whose report must equal this one's.
WORKLOADS = {
    "paper_dense": {
        "spec": "scenarios/paper_scenario1.json",
        "shards": None,
        "horizon_s": 6.0,
        # One 30 fps period: every task has released once, so the
        # closed-world report has a row per task.
        "setup_horizon_s": 0.034,
        "peer_shards": None,
    },
    "fleet_1k": {
        "spec": "perfbench/fleet_1k.json",
        "shards": 1,
        "horizon_s": None,
        "setup_horizon_s": 0.001,
        "peer_shards": 4,
    },
    "churn_faults": {
        "spec": "perfbench/churn_faults.json",
        "shards": 1,
        "horizon_s": None,
        "setup_horizon_s": 0.001,
        "peer_shards": None,
    },
}

SEED_SET = 8             # seeds derived from --seed that the batches rotate over
ROUNDS = 2               # batches per seed: a second process checks determinism
MAX_BATCH_S = 1.25       # wall-seconds of passes one process repeats
PROBE_NOMINAL_S = 0.025  # the host-speed probe's fastest time on a 4-core x86 VM


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def declared_metrics(section):
    """The metrics BENCHMARK.json declares under `section`, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[section]


def build():
    """Configures and builds perfbench/ into the build directory and
    returns the runner's path; exits 2 when the build fails."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "sgprs_perfbench"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
        except OSError as e:
            log(str(e))
            rc = 1
        if rc != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, "sgprs_perfbench")


class Runs:
    """Launches runner processes and keeps the attempted/failed tally."""

    def __init__(self, binary, workload, seed, seconds):
        self.binary = binary
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.deadline = time.perf_counter() + seconds
        self.batch_s = max(0.1, min(MAX_BATCH_S, seconds / 24.0))
        # Without --seed, every spec runs at its own sim.seed.
        self.seeds = [None] if seed is None else [
            seed * SEED_SET + i for i in range(SEED_SET)]
        self.attempted = 0
        self.failed = 0

    def args(self, shards=None, setup=False, traced=False, layers=False,
             repeat_s=None, seed=None):
        a = ["--spec", os.path.join(ROOT, self.w["spec"])]
        seed = self.seed if seed is None else seed
        if seed is not None:
            a += ["--seed", str(seed)]
        if shards is not None:
            a += ["--shards", str(shards)]
        horizon = self.w["setup_horizon_s"] if setup else self.w["horizon_s"]
        if horizon:
            a += ["--duration-s", repr(horizon)]
        if repeat_s:
            a += ["--repeat-s", repr(repeat_s)]
        if setup:
            a.append("--setup")
        if traced:
            a.append("--traced")
        if layers:
            a.append("--layers")
        return a

    def run(self, **kw):
        """One runner process. Returns its JSON result with the outside
        wall time and peak RSS added, or None when the run failed."""
        self.attempted += 1
        cmd = [self.binary] + self.args(**kw)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        outside_s = time.perf_counter() - t0
        try:
            if proc.returncode != 0:
                raise ValueError("exit code %d" % proc.returncode)
            result = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError) as e:
            self.fail("run %s failed: %s" % (" ".join(cmd), e))
            return None
        if result["pass_mismatches"]:
            self.fail("%d of %d passes of %s wrote other report bytes" % (
                result["pass_mismatches"], result["passes"], " ".join(cmd)))
        result["outside_s"] = outside_s
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
        return result

    def batch(self, **kw):
        """One process repeating passes for the batch length."""
        return self.run(shards=self.w["shards"], repeat_s=self.batch_s, **kw)

    def more(self, done, needed, batch_wall):
        """Whether another batch is still needed, or (with what precedes
        it) fits the window."""
        return done < needed or time.perf_counter() + batch_wall < self.deadline

    def fail(self, why):
        self.failed += 1
        log("perfbench: FAILED: " + why)

    def check_same(self, runs, what):
        """Every run's report bytes must hash the same as the first's."""
        runs = [r for r in runs if r is not None]
        for r in runs[1:]:
            if r["report_hash"] != runs[0]["report_hash"]:
                self.fail("%s: report %s != %s" % (
                    what, r["report_hash"], runs[0]["report_hash"]))

    def peer(self, traced=False, seed=None):
        """One run of the spec at the peer shard count, or None when the
        workload has none."""
        if self.w["peer_shards"] is None:
            return None
        return self.run(shards=self.w["peer_shards"], traced=traced, seed=seed)

    def check_peer(self, peer, reference):
        """The peer run must write the same report as the reference run
        (the sharded runtime is byte-identical by contract)."""
        if peer is not None and peer["report_hash"] != reference["report_hash"]:
            self.fail("shards %d report %s != shards %d report %s" % (
                peer["shards"], peer["report_hash"], reference["shards"],
                reference["report_hash"]))


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def fastest(runs):
    return min(runs, key=lambda r: r["wall_min_s"])


def measure_end_to_end(runs):
    # The peer run comes first, so the window's deadline covers it. Then
    # batches, each at the next seed of the seed set, alternate with set-up
    # runs at --seed until the window is spent, so both sample the whole
    # window.
    peer = runs.peer(seed=runs.seeds[0])
    setups, batches = [], []
    while runs.more(len(batches), ROUNDS * len(runs.seeds),
                    runs.batch_s + 0.5):
        setups.append(runs.run(shards=runs.w["shards"], setup=True))
        seed = runs.seeds[len(batches) % len(runs.seeds)]
        batches.append(runs.batch(seed=seed))
    runs.check_same(setups, "set-up repeat")
    by_seed = [[b for b in batches[i::len(runs.seeds)] if b is not None]
               for i in range(len(runs.seeds))]
    for seed, group in zip(runs.seeds, by_seed):
        runs.check_same(group, "batch repeat at seed %s" % seed)
    if not all(by_seed) or None in setups:
        return None
    runs.check_peer(peer, by_seed[0][0])
    firsts = [group[0] for group in by_seed]
    if any(r["frames"] <= 0 for r in firsts):
        runs.fail("no frames completed in the measured window")

    # Throughput and set-up time are quoted best-of-N over short passes
    # spread across the window: on a shared host, interference only ever
    # slows a pass down, and the fastest of many short passes moves far
    # less from window to window than any central statistic. A pass's cost
    # also depends on the seed (by ±8% on paper_dense), so throughput is the
    # median over the seed set of each seed's frames over its fastest pass
    # (README.md, "Steadiness").
    bests = [fastest(group) for group in by_seed]
    print("batches %d over %d seeds, passes %d" % (
        len(batches), len(runs.seeds), sum(r["passes"] for r in batches)))
    for seed, first, best in zip(runs.seeds, firsts, bests):
        print("  seed %s: frames %d, events %d, best pass %.4f s, report %s, "
              "dmr %.6f, p99_latency_ms %.6f" % (
                  seed, first["frames"], first["events"], best["wall_min_s"],
                  first["report_hash"], first["dmr"], first["p99_latency_ms"]))
    print("set-up runs %d, outside wall_s %s" % (
        len(setups), " ".join("%.4f" % s["outside_s"] for s in setups)))
    # The simulated statistics are exact at each seed and averaged over the
    # seed set. DMR and p99 latency are printed above but not gated
    # (README.md); the traced pass reports them as metrics.dmr /
    # metrics.p99_latency_ms.
    # The host itself drifts over minutes, and every pass drifts with it.
    # Both wall times are scaled to a reference host speed: the speed at
    # which the runner's host-speed probe takes PROBE_NOMINAL_S, using the
    # probe's fastest time in this window (README.md, "Steadiness").
    frames_per_s = median([r["frames"] / r["wall_min_s"] for r in bests])
    setup_s = min(s["outside_s"] for s in setups)
    probe_s = min(r["probe_min_s"] for r in batches)
    scale = probe_s / PROBE_NOMINAL_S
    print("host probe %.4f s (reference %.4f s): unscaled frames_per_s %.6g, "
          "setup_s %.6g" % (probe_s, PROBE_NOMINAL_S, frames_per_s, setup_s))
    return {
        "frames_per_s": frames_per_s * scale,
        "setup_s": setup_s / scale,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in batches]),
        "sim_fps": statistics.fmean(r["sim_fps"] for r in firsts),
        "on_time_ratio": 1.0 - statistics.fmean(r["dmr"] for r in firsts),
    }


def measure_per_layer(runs):
    # The traced peer run at --shards 4 supplies the sharded-runtime phases
    # and is byte-checked against the first untraced batch.
    peer = runs.peer(traced=True)
    plain, traced = [], []
    while runs.more(len(traced), ROUNDS, 2 * runs.batch_s + 0.5):
        plain.append(runs.batch())
        traced.append(runs.batch(traced=True, layers=not traced))
    runs.check_same(plain + traced, "untraced/traced repeat")
    plain = [r for r in plain if r is not None]
    traced = [r for r in traced if r is not None]
    if not plain or not traced or "layers" not in traced[0]:
        return None
    runs.check_peer(peer, plain[0])

    c = plain[0]  # counts are exact: any run gives the same
    layers = traced[0]["layers"]
    print("batches %d+%d, best pass wall_s untraced %.4f traced %.4f" % (
        len(plain), len(traced), fastest(plain)["wall_min_s"],
        fastest(traced)["wall_min_s"]))
    print("replays at %d devices, %d live streams, %d contended streams; "
          "samples: %s" % (
              c["devices"], c["live_streams"], layers["contended_streams"],
              ", ".join("%s=%d" % (k, v["samples"]) for k, v in
                        layers.items() if isinstance(v, dict))))
    print("span export %d bytes" % traced[0]["span_bytes"])
    if peer:
        print("sharded phases from the --shards %d peer run, wall_s %.4f" % (
            peer["shards"], peer["wall_min_s"]))

    # Wall-clock phases come from the fastest traced pass (best-of-N, as
    # for the end-to-end throughput); the sharded-runtime phases from the
    # traced peer run at --shards 4, where there is one.
    best = fastest(traced)
    sharded = peer or best

    def phase(name, field="total_s", run=best):
        return run["profile"][name][field]

    frames = c["frames"]
    attempts = c["streams_admitted"] + c["streams_rejected"]
    return {
        "sim.events": c["events"],
        "sim.events_per_frame": ratio(c["events"], frames),
        "sim.ns_per_event": layers["ns_per_event"]["median"],
        "gpu.ns_per_kernel_solo": layers["ns_per_kernel_solo"]["median"],
        "gpu.ns_per_kernel_contended":
            layers["ns_per_kernel_contended"]["median"],
        "rt.releases": c["releases"],
        "rt.stage_migrations": c["stage_migrations"],
        "rt.medium_promotions": c["medium_promotions"],
        "rt.jobs_shed": c["jobs_shed"],
        "rt.migrations_per_frame": ratio(c["stage_migrations"], frames),
        "dnn.stage_kernels_ns": layers["stage_kernels_ns"]["median"],
        "cluster.placements": c["streams_admitted"],
        "cluster.rejects_per_attempt": ratio(c["streams_rejected"], attempts),
        "cluster.us_per_placement": layers["us_per_placement"]["median"],
        "fleet.epochs": phase("shard_phase", "count", sharded),
        "fleet.setup_s": phase("setup"),
        "fleet.engine_run_s": phase("engine_run"),
        "fleet.shard_phase_s": phase("shard_phase", run=sharded),
        "fleet.shard_phase_max_ms":
            1e3 * phase("shard_phase", "max_s", sharded),
        "fleet.control_phase_s": phase("control_phase", run=sharded),
        "fleet.placer_batch_s": phase("placer_batch"),
        "fleet.decisions": c["decisions"],
        "fleet.failovers": c["failovers"],
        "fleet.retries_per_failover":
            ratio(c["failover_retries"], c["failovers"]),
        "fleet.devices_failed": c["devices_failed"],
        "fleet.jobs_faulted": c["jobs_faulted"],
        "fleet.streams_lost": c["streams_lost"],
        "metrics.collector_reduce_s":
            phase("collector_reduce", run=sharded),
        "metrics.ns_per_frame": layers["collector_ns_per_frame"]["median"],
        "metrics.report_write_ms": layers["report_write_ms"]["median"],
        "metrics.dmr": c["dmr"],
        "metrics.p99_latency_ms": c["p99_latency_ms"],
        "workload.spec_load_ms": layers["spec_load_ms"]["median"],
        "obs.trace_overhead_pct": 100.0 * (
            best["wall_min_s"] / fastest(plain)["wall_min_s"] - 1.0),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="RunSeeds.sim (default: the spec's own seed)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measured window, set-up and checks included")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 = per-layer metrics from a traced pass")
    args = ap.parse_args()

    spec = WORKLOADS[args.workload]["spec"]
    if not os.path.exists(os.path.join(ROOT, spec)):
        log("perfbench: missing workload input " + spec)
        sys.exit(2)
    binary = build()
    runs = Runs(binary, args.workload, args.seed, args.seconds)
    print("workload %s, seed %s, trace %d" % (
        args.workload, "spec default" if args.seed is None else args.seed,
        args.trace))
    if args.trace:
        values = measure_per_layer(runs)
    else:
        values = measure_end_to_end(runs)
    if values is None and runs.failed == 0:
        runs.fail("no complete run to measure")
    metrics = {}
    for m in declared_metrics("per_layer" if args.trace else "end_to_end"):
        if values is not None:
            name = m["name"]
            metrics[name] = {"value": values[name], "unit": m["unit"]}
            print("  %-30s %16.6g %s" % (name, values[name], m["unit"]))
    correct = runs.failed == 0
    print(json.dumps({"correct": correct, "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
