#!/usr/bin/env python3
"""Whole-experiment benchmark of the snapshot-queries reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload lifetime --seed 1 --seconds 15 --trace 0

``--trace 0`` runs whole rounds of the workload until ``--seconds`` have
passed (at least the workload's minimum number of rounds) and prints the
end-to-end metrics.  ``--trace 1``
runs one untraced round, then one round with every layer seam wrapped
(see ``tracing.py``), and prints the per-layer metrics.  Either way the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when a correctness check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Counts that depend on host speed: checkpoints and stream records carry
#: the front end's wall-clock latency histogram, so their byte sizes vary.
HOST_DEPENDENT = frozenset({"persist.checkpoint_mb", "obs.stream_mb"})

#: Every untraced run times at least this many set-ups (extra set-ups
#: are built and discarded when fewer rounds ran).
MIN_SETUPS = 3


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = math.ceil(q * len(sorted_values) - 1e-9)
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def _fingerprint() -> dict:
    import os

    import numpy

    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    git_sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            git_sha = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            git_sha = ref
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest()[:16],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _consistency(rounds) -> list[str]:
    """Rounds of one seed repeat the same modelled outcomes and counts."""
    first = rounds[0]
    problems = []
    for index, other in enumerate(rounds[1:], start=1):
        for part in ("outcomes", "counts", "ops"):
            mine, theirs = getattr(first, part), getattr(other, part)
            for key in sorted(set(mine) | set(theirs)):
                if key not in HOST_DEPENDENT and mine.get(key) != theirs.get(key):
                    problems.append(
                        f"round {index} differs from round 0 in {key}: "
                        f"{theirs.get(key)!r} != {mine.get(key)!r}"
                    )
    return problems


def run_untraced(workload: str, seed: int, seconds: float):
    from tracing import wrapped_seams
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    rounds = []
    started = perf_counter()
    # The collector stays on during rounds, as it is when the program
    # runs; collecting the previous round's garbage before each round,
    # untimed, keeps it out of the next round's set-up time.
    while len(rounds) < spec.min_rounds or perf_counter() - started < seconds:
        gc.collect()
        rounds.append(spec.run_round(seed))
    setups = [r.setup_s for r in rounds]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        setups.append(spec.setup_only(seed))
    problems = [p for r in rounds for p in r.problems] + _consistency(rounds)
    problems += [f"untraced run carries a wrapper on {seam}" for seam in wrapped_seams()]

    latencies = sorted(latency for r in rounds for latency in r.latencies)
    outcomes = rounds[0].outcomes
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "sim_time_per_s": _metric(
            statistics.median(r.sim_time / r.measured_s for r in rounds), "1/s"
        ),
        "serve_p50_ms": _metric(_percentile(latencies, 0.50) * 1e3, "ms"),
        "serve_p99_ms": _metric(_percentile(latencies, 0.99) * 1e3, "ms"),
        "serve_qps": _metric(len(latencies) / sum(latencies), "1/s"),
        "coverage_auc": _metric(outcomes["coverage_auc"], "queries"),
        "msgs_per_node_round": _metric(outcomes["msgs_per_node_round"], "msgs"),
    }
    record = {
        "rounds": len(rounds),
        "setups": len(setups),
        "latency_samples": len(latencies),
        "outcomes": outcomes,
        "peak_rss_mb": _peak_rss_mb(),
    }
    walls = sorted(w for r in rounds for w in r.wall_latencies)
    if walls:
        record["wall_p50_ms"] = _percentile(walls, 0.50) * 1e3
        record["wall_p99_ms"] = _percentile(walls, 0.99) * 1e3
    return rounds, metrics, problems, record


def run_traced(workload: str, seed: int):
    """One untraced round (the overhead baseline), then one traced round.

    The traced round wraps the seams around its set-up and measured
    phase only; its correctness checks run after the wrappers are gone.
    """
    from tracing import SpanRecorder, traced
    from workloads import WORKLOADS

    run_round = WORKLOADS[workload].run_round
    gc.collect()
    baseline = run_round(seed)
    recorder = SpanRecorder()
    gc.collect()
    traced_round = run_round(seed, scope=traced(recorder))
    rounds = [baseline, traced_round]
    problems = [p for r in rounds for p in r.problems] + _consistency(rounds)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace-{workload}-seed{seed}.json"
    recorder.write(trace_path)

    r = recorder
    counts = traced_round.counts
    observe_time = r.total_s("models.observe") + r.total_s("models.observe_lanes")
    observations = r.count("models.observe") + r.tally["models.lanes_observed"]
    run_until_s = r.total_s("simulation.run_until")
    waits = r.dispatch_waits
    # Wall-clock serving figures come from the untraced baseline round.
    walls = baseline.wall_latencies
    offcpu = [wall - host for wall, host in zip(walls, baseline.latencies)]
    values = {
        "simulation.events": (counts["simulation.events"], "count"),
        "simulation.events_per_s": (
            counts["simulation.events"] / run_until_s if run_until_s else 0.0, "1/s"),
        "simulation.self_s": (r.self_s("simulation.run_until"), "s"),
        "network.transmissions": (counts["network.transmissions"], "count"),
        "network.receptions": (counts["network.receptions"], "count"),
        "network.dropped": (counts["network.dropped"], "count"),
        "network.delivered_ratio": (counts["network.delivered_ratio"], "ratio"),
        "network.send_s": (r.self_s("network.broadcast", "network.unicast"), "s"),
        "network.deliver_s": (r.self_s("network.deliver"), "s"),
        "energy.draws": (r.count("energy.draw"), "count"),
        "energy.spent": (counts["energy.spent"], "tx"),
        "energy.deaths": (counts["energy.deaths"], "count"),
        "energy.self_s": (r.self_s("energy.draw", "energy.charge_cpu"), "s"),
        "core.handler_s": (r.self_s("core.handler"), "s"),
        "core.router_flush_s": (r.self_s("core.router_flush"), "s"),
        "core.observations_routed": (r.tally["core.observations_routed"], "count"),
        "core.reelections": (counts["core.reelections"], "count"),
        "models.observations": (observations, "count"),
        "models.observe_s": (r.self_s("models.observe", "models.observe_lanes"), "s"),
        "models.observe_per_s": (observations / observe_time if observe_time else 0.0, "1/s"),
        "models.estimates": (r.count("models.estimate"), "count"),
        "models.estimate_s": (r.self_s("models.estimate", "models.can_represent"), "s"),
        "query.tree_builds": (r.count("query.build_tree"), "count"),
        "query.tree_build_s": (r.self_s("query.build_tree"), "s"),
        "query.execute_s": (r.self_s("query.execute"), "s"),
        "query.plan_s": (r.self_s("query.plan", "query.estimate_cost"), "s"),
        "serving.hit_ratio": (counts.get("serving.hit_ratio", 0.0), "ratio"),
        "serving.submit_s": (
            r.self_s("serving.submit", "serving.cache_get", "serving.cache_put"), "s"),
        "serving.dispatch_wait_ms": (statistics.fmean(waits) if waits else 0.0, "ms"),
        "serving.wall_p99_ms": (
            _percentile(sorted(walls), 0.99) * 1e3 if walls else 0.0, "ms"),
        "serving.offcpu_ms": (statistics.fmean(offcpu) * 1e3 if offcpu else 0.0, "ms"),
        "serving.trees_built": (counts.get("serving.trees_built", 0), "count"),
        "serving.invalidations": (counts.get("serving.invalidations", 0), "count"),
        "persist.checkpoint_mb": (counts.get("persist.checkpoint_mb", 0.0), "MB"),
        "persist.save_s": (r.self_s("persist.ring_save", "persist.save_checkpoint"), "s"),
        "persist.digest_s": (r.self_s("persist.state_digest"), "s"),
        "persist.restore_s": (r.self_s("persist.load_checkpoint"), "s"),
        "obs.stream_records": (counts.get("obs.stream_records", 0), "count"),
        "obs.stream_mb": (counts.get("obs.stream_mb", 0.0), "MB"),
        "obs.append_s": (r.self_s("obs.append"), "s"),
        "obs.report_s": (r.self_s("obs.report"), "s"),
        "fleet.self_s": (r.self_s("fleet.run_slice", "fleet.step"), "s"),
        "fleet.slo_s": (r.self_s("fleet.slo"), "s"),
        "data.value_reads": (r.count("data.value"), "count"),
        "data.generate_s": (r.self_s("data.generate"), "s"),
        "outcome.participants_per_query": (
            traced_round.outcomes["participants_per_query"], "nodes"),
        "outcome.snapshot_size": (traced_round.outcomes["snapshot_size"], "nodes"),
        "outcome.estimate_abs_err": (traced_round.outcomes["estimate_abs_err"], "value"),
        "process.peak_rss_mb": (_peak_rss_mb(), "MB"),
        "trace.slowdown": (
            (baseline.sim_time / baseline.measured_s)
            / (traced_round.sim_time / traced_round.measured_s),
            "x",
        ),
    }
    metrics = {name: _metric(value, unit) for name, (value, unit) in values.items()}
    record = {
        "rounds": 2,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "kept_spans": len(r.span_name),
        "outcomes": traced_round.outcomes,
    }
    return rounds, metrics, problems, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("lifetime", "maintenance", "deployment")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    if args.trace:
        rounds, metrics, problems, record = run_traced(args.workload, args.seed)
    else:
        rounds, metrics, problems, record = run_untraced(
            args.workload, args.seed, args.seconds
        )
    ops = sum((r.ops for r in rounds), start=type(rounds[0].ops)())
    attempted = sum(ops.values())
    failed = sum(r.failed for r in rounds)
    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "attempted": dict(ops),
            "failed": failed,
            "host": _fingerprint(),
        }
    )
    print("run-record " + json.dumps(record, sort_keys=True))
    for problem in problems[:50]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > 50:
        print(f"CHECK FAILED: ... and {len(problems) - 50} more")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    correct = not problems
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
