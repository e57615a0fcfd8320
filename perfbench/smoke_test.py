#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload, both passes, in a 2 s
window.

    python3 perfbench/smoke_test.py

Asserts that each run exits 0 with the correctness check passing, that the
untraced pass emits every end-to-end metric of BENCHMARK.json with its unit,
and that the traced pass emits every per-layer metric with its unit —
including each layer metric the benchmark was specified with (LAYER_NAMES).
Takes under a minute on a 4-core host; the first run also builds.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# The per-layer names the benchmark must attribute (perfbench/README.md).
LAYER_NAMES = [
    "sim.events", "sim.events_per_frame", "sim.ns_per_event",
    "gpu.ns_per_kernel_solo", "gpu.ns_per_kernel_contended",
    "rt.releases", "rt.stage_migrations", "rt.medium_promotions",
    "rt.jobs_shed", "rt.migrations_per_frame",
    "dnn.stage_kernels_ns",
    "cluster.placements", "cluster.rejects_per_attempt",
    "cluster.us_per_placement",
    "fleet.epochs", "fleet.setup_s", "fleet.engine_run_s",
    "fleet.shard_phase_s", "fleet.shard_phase_max_ms",
    "fleet.control_phase_s", "fleet.placer_batch_s",
    "fleet.decisions", "fleet.failovers", "fleet.retries_per_failover",
    "fleet.devices_failed", "fleet.jobs_faulted", "fleet.streams_lost",
    "metrics.collector_reduce_s", "metrics.ns_per_frame",
    "metrics.report_write_ms",
    "workload.spec_load_ms",
    "obs.trace_overhead_pct",
]


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "5",
           "--seconds", "2", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    assert proc.returncode == 0, "%s exited %d" % (cmd, proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result, declared, where):
    got = result["metrics"]
    assert set(got) == set(declared), "%s: metrics %s, want %s" % (
        where, sorted(got), sorted(declared))
    for name, unit in declared.items():
        assert got[name]["unit"] == unit, "%s: %s unit %r, want %r" % (
            where, name, got[name]["unit"], unit)
        assert isinstance(got[name]["value"], (int, float)), name


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    missing = [n for n in LAYER_NAMES if n not in per_layer]
    assert not missing, "per-layer metrics not declared: %s" % missing

    for w in bench["workloads"]:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            where = "%s --trace %d" % (w["name"], trace)
            result = run(w["name"], trace)
            assert result["correct"] and result["failed"] == 0, where
            assert result["attempted"] >= 2, where
            expect_metrics(result, declared, where)
            print("ok  " + where, flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
