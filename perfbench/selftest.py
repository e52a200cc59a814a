#!/usr/bin/env python3
"""Show that every correctness check passes clean outputs and fails corrupted ones.

Run from the repository root::

    python3 perfbench/selftest.py

``maintenance`` and ``deployment`` run once on a 30-node network;
``lifetime`` runs at its benchmark size, because on a 30-node network
with batteries small enough for nodes to die within a short horizon the
snapshot network collapses and its maintenance rounds report more than
Table 2's six messages per node (22.6 with 60-unit batteries).  Every
check must pass on its clean output; then one output at a time is corrupted -- a report
value nudged, a model coefficient perturbed, an aggregate altered, a
ledger entry dropped, ... -- and the check that guards it must fail.
Exits non-zero if any expectation does not hold.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Evidence  # noqa: E402

SEED = 3

SMALL_MAINTENANCE = workloads.MaintenanceSpec(n_nodes=30, series_length=500)
SMALL_DEPLOYMENT = workloads.DeploymentSpec(
    n_nodes=30, slices=4, checkpoint_every=2, requests_per_slice=40, templates=6
)


def _replace_answer(evidence: Evidence, index: int, **changes) -> Evidence:
    """A copy of ``evidence`` with answer ``index``'s result fields changed."""
    answers = list(evidence.answers)
    answer = answers[index]
    answers[index] = dataclasses.replace(
        answer, result=dataclasses.replace(answer.result, **changes)
    )
    return dataclasses.replace(evidence, answers=answers)


def _first(evidence: Evidence, predicate) -> int:
    for index, answer in enumerate(evidence.answers):
        if predicate(answer):
            return index
    raise LookupError("no answer fits the corruption")


def nudge_report_value(evidence: Evidence) -> Evidence:
    index = _first(
        evidence,
        lambda a: not a.cached and any(not est for _, est in a.result.reports.values()),
    )
    reports = dict(evidence.answers[index].result.reports)
    origin = next(o for o, (_, est) in reports.items() if not est)
    value, _ = reports[origin]
    reports[origin] = (value + 1e-3, False)
    return _replace_answer(evidence, index, reports=reports)


def drop_matching_node(evidence: Evidence) -> Evidence:
    index = _first(evidence, lambda a: a.result.matching_all)
    matching = set(evidence.answers[index].result.matching_all)
    matching.pop()
    return _replace_answer(evidence, index, matching_all=frozenset(matching))


def drop_regular_report(evidence: Evidence) -> Evidence:
    index = _first(
        evidence,
        lambda a: a.all_alive and not a.result.query.use_snapshot and a.result.reports,
    )
    reports = dict(evidence.answers[index].result.reports)
    reports.pop(next(iter(reports)))
    return _replace_answer(evidence, index, reports=reports)


def alter_aggregate(evidence: Evidence) -> Evidence:
    index = _first(evidence, lambda a: a.result.aggregate_value is not None)
    value = evidence.answers[index].result.aggregate_value
    return _replace_answer(evidence, index, aggregate_value=value * (1 + 1e-6) + 1e-6)


def alter_cached_answer(evidence: Evidence) -> Evidence:
    index = _first(evidence, lambda a: a.cached and a.result.reports)
    reports = dict(evidence.answers[index].result.reports)
    origin = next(iter(reports))
    value, estimated = reports[origin]
    reports[origin] = (value + 1.0, estimated)
    # Recompute the aggregate so only the cache-equality check can object.
    result = evidence.answers[index].result
    aggregate = checks.expected_aggregate(
        result.query.aggregate.value, [v for v, _ in reports.values()]
    )
    return _replace_answer(evidence, index, reports=reports, aggregate_value=aggregate)


def drop_ledger_entry(evidence: Evidence) -> Evidence:
    """Forget one transmission in the ledger of a node that never ran out."""
    batteries = list(evidence.batteries)
    index = next(
        i for i, b in enumerate(batteries) if b.charge is None or b.charge > 0.0
    )
    battery = batteries[index]
    batteries[index] = dataclasses.replace(battery, ledger_total=battery.ledger_total - 1.0)
    return dataclasses.replace(evidence, batteries=batteries)


def unbalance_battery(evidence: Evidence) -> Evidence:
    batteries = list(evidence.batteries)
    index = next(i for i, b in enumerate(batteries) if b.capacity is not None)
    battery = batteries[index]
    batteries[index] = dataclasses.replace(battery, spent=battery.spent + 0.5)
    return dataclasses.replace(evidence, batteries=batteries)


def exceed_table2(evidence: Evidence) -> Evidence:
    costs = list(evidence.round_costs)
    costs[len(costs) // 2] = checks.TABLE2_BOUND + 0.01
    return dataclasses.replace(evidence, round_costs=costs)


def perturb_model(evidence: Evidence) -> Evidence:
    lines = list(evidence.model_lines)
    index = next(i for i, line in enumerate(lines) if len(line.pairs) > 2)
    line = lines[index]
    lines[index] = dataclasses.replace(line, slope=line.slope + 1e-3)
    return dataclasses.replace(evidence, model_lines=lines)


def no_deaths(evidence: Evidence) -> Evidence:
    return dataclasses.replace(evidence, deaths={**evidence.deaths, "snapshot": 0})


def reject_request(evidence: Evidence) -> Evidence:
    return dataclasses.replace(evidence, rejected=1)


def corrupt_checkpoint(evidence: Evidence) -> Evidence:
    path = evidence.checkpoint
    data = bytearray(path.read_bytes())
    data[-10] ^= 0xFF
    broken = path.with_name(path.name + ".broken")
    broken.write_bytes(bytes(data))
    return dataclasses.replace(evidence, checkpoint=broken)


#: workload -> [(corruption, the check that must catch it)]
CORRUPTIONS = {
    "lifetime": [
        (nudge_report_value, "check_report_values"),
        (drop_matching_node, "check_matching_sets"),
        (drop_regular_report, "check_regular_coverage"),
        (drop_ledger_entry, "check_energy"),
        (unbalance_battery, "check_energy"),
        (exceed_table2, "check_round_costs"),
        (no_deaths, "check_deaths"),
    ],
    "maintenance": [
        (nudge_report_value, "check_report_values"),
        (drop_matching_node, "check_matching_sets"),
        (perturb_model, "check_model_lines"),
        (drop_ledger_entry, "check_energy"),
        (exceed_table2, "check_round_costs"),
    ],
    "deployment": [
        (nudge_report_value, "check_report_values"),
        (alter_aggregate, "check_aggregates"),
        (alter_cached_answer, "check_cached_answers"),
        (drop_ledger_entry, "check_energy"),
        (reject_request, "check_no_rejections"),
        (corrupt_checkpoint, "check_checkpoint_loads"),
    ],
}


#: Each check's arguments, taken from the evidence.
CHECK_INPUTS = {
    "check_report_values": lambda e: (e.answers, e.series),
    "check_matching_sets": lambda e: (e.answers, e.positions),
    "check_regular_coverage": lambda e: (e.answers,),
    "check_aggregates": lambda e: (e.answers,),
    "check_cached_answers": lambda e: (e.answers,),
    "check_energy": lambda e: (e.batteries,),
    "check_round_costs": lambda e: (e.round_costs,),
    "check_model_lines": lambda e: (e.model_lines,),
    "check_deaths": lambda e: (e.deaths,),
    "check_no_rejections": lambda e: (e.rejected,),
    "check_checkpoint_loads": lambda e: (e.checkpoint, e.expected_slices),
}


def _rounds():
    yield "lifetime", workloads.lifetime_round(SEED, keep_evidence=True)
    yield "maintenance", workloads.maintenance_round(
        SEED, SMALL_MAINTENANCE, keep_evidence=True
    )
    yield "deployment", workloads.deployment_round(
        SEED, SMALL_DEPLOYMENT, keep_evidence=True
    )


def main() -> int:
    failures = []
    for name, round_ in _rounds():
        evidence = round_.evidence
        try:
            if round_.problems:
                failures.append(f"{name}: clean run failed its checks: {round_.problems[:3]}")
            else:
                print(f"ok    {name}: clean run passes every check")
            for corrupt, check_name in CORRUPTIONS[name]:
                corrupted = corrupt(evidence)
                problems = getattr(checks, check_name)(*CHECK_INPUTS[check_name](corrupted))
                whole = checks.verify(corrupted)
                if problems and whole:
                    print(f"ok    {name}: {check_name} rejects {corrupt.__name__}")
                else:
                    failures.append(f"{name}: {check_name} accepted {corrupt.__name__}")
        finally:
            if evidence.checkpoint is not None:
                shutil.rmtree(evidence.checkpoint.parent.parent, ignore_errors=True)

    recorder = tracing.SpanRecorder()
    if tracing.wrapped_seams():
        failures.append("a seam is wrapped outside the traced run")
    with tracing.traced(recorder):
        inside = tracing.wrapped_seams()
    if len(inside) != len(tracing.SEAMS) or tracing.wrapped_seams():
        failures.append("traced() did not wrap every seam or did not restore them")
    else:
        print(f"ok    tracing wraps all {len(inside)} seams and restores them")

    for failure in failures:
        print(f"FAIL  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
