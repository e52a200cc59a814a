"""Correctness checks computed outside the program.

Each check takes plain records the workload collected while it ran and
recomputes the expected answer from the generated inputs (the data
series and the node positions) or from first principles (a numpy
least-squares refit, the energy balance, Table 2's message bound).  A
check returns a list of problems; an empty list means it passed.  The
self-tests in ``selftest.py`` corrupt one output at a time and require
the matching check to report it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "AnswerRecord",
    "BatteryRecord",
    "Evidence",
    "LineRecord",
    "TABLE2_BOUND",
    "check_aggregates",
    "check_cached_answers",
    "check_checkpoint_loads",
    "check_deaths",
    "check_energy",
    "check_matching_sets",
    "check_model_lines",
    "check_no_rejections",
    "check_regular_coverage",
    "check_report_values",
    "check_round_costs",
    "expected_aggregate",
    "line_tolerance",
    "verify",
]

#: Table 2: at most six protocol messages per node per maintenance update.
TABLE2_BOUND = 6.0

#: Energy sums are accumulated in different orders by the ledger and the
#: batteries; they agree to far better than this.
ENERGY_RTOL = 1e-9

#: Largest allowed gap between a cached model line's fitted values and a
#: numpy least-squares refit of the line's stored pairs, relative to the
#: line's value scale, on a well-conditioned line.  The two agree to
#: ~5e-10 on the maintenance run.
MODEL_RTOL = 1e-6

#: The program fits a line from its running sums (the normal equations),
#: whose rounding error grows with the square of the condition number
#: kappa of the line's design matrix ``[x, 1]``.  A line is therefore
#: allowed ``MODEL_RTOL + FIT_EPS * kappa**2`` of its scale.  Over ten
#: maintenance seeds every line's gap stayed below MODEL_RTOL but one:
#: two pairs whose x differ by 9.3e-6 (kappa 4.2e6, seed 5), off by
#: 1.7e-5 of scale, which is 0.004 of ``FIT_EPS * kappa**2``.
FIT_EPS = float(np.finfo(float).eps)

#: Aggregates are recomputed with ``math.fsum``; the program sums in
#: report order, so the last bits may differ.
AGGREGATE_RTOL = 1e-12


@dataclass(frozen=True)
class AnswerRecord:
    """One query answer as the caller received it.

    ``sim_time`` is when the answer was computed; ``all_alive`` whether
    every node of the network was alive at that time; ``cached`` whether
    the front end replayed it from its epoch cache; ``key`` the cache key
    ``(query, sink, structure version)`` for served requests.
    """

    result: object
    sim_time: float
    all_alive: bool = False
    cached: bool = False
    key: Optional[tuple] = None


@dataclass(frozen=True)
class BatteryRecord:
    """A node's battery and ledger totals at the end of a run."""

    node_id: int
    capacity: Optional[float]
    charge: Optional[float]
    spent: float
    ledger_total: float


@dataclass(frozen=True)
class LineRecord:
    """One cached model line: its stored pairs and the model it serves."""

    node_id: int
    neighbor_id: int
    pairs: tuple[tuple[float, float], ...]
    slope: float
    intercept: float


def _series_value(series: np.ndarray, node_id: int, sim_time: float) -> float:
    """The generated sample a sensor reads at ``sim_time`` (floor, clamped)."""
    index = min(int(sim_time), series.shape[1] - 1)
    return float(series[node_id, index])


def check_report_values(
    answers: Iterable[AnswerRecord], series: np.ndarray
) -> list[str]:
    """Every non-estimated report equals the generated series at its time."""
    problems = []
    for answer in answers:
        if answer.cached:
            continue  # computed earlier; check_cached_answers covers it
        for origin, (value, estimated) in answer.result.reports.items():
            if estimated:
                continue
            expected = _series_value(series, origin, answer.sim_time)
            if value != expected:
                problems.append(
                    f"node {origin} reported {value!r} at t={answer.sim_time}, "
                    f"series holds {expected!r}"
                )
    return problems


def check_matching_sets(
    answers: Iterable[AnswerRecord], positions: np.ndarray
) -> list[str]:
    """Each query's matching set is exactly the nodes inside its square."""
    problems = []
    xs, ys = positions[:, 0], positions[:, 1]
    for answer in answers:
        region = answer.result.query.region
        inside = (
            (region.x_low <= xs) & (xs <= region.x_high)
            & (region.y_low <= ys) & (ys <= region.y_high)
        )
        expected = frozenset(int(node) for node in np.flatnonzero(inside))
        if answer.result.matching_all != expected:
            problems.append(
                f"query over {region} matched {sorted(answer.result.matching_all)}, "
                f"positions put {sorted(expected)} inside"
            )
    return problems


def check_regular_coverage(answers: Iterable[AnswerRecord]) -> list[str]:
    """A regular query answered while every node is alive covers everything.

    Holds on a lossless, connected network: the flood reaches every node
    and every matching node reports.
    """
    problems = []
    for answer in answers:
        result = answer.result
        if result.query.use_snapshot or not answer.all_alive:
            continue
        if result.coverage() != 1.0:
            problems.append(
                f"regular query at t={answer.sim_time} covered "
                f"{result.coverage():.3f} with every node alive"
            )
    return problems


def expected_aggregate(name: str, values: Sequence[float]) -> Optional[float]:
    """The aggregate ``name`` (an ``Aggregate`` value) of ``values``."""
    if name == "count":
        return float(len(values))
    if not values:
        return None
    if name == "sum":
        return math.fsum(values)
    if name == "avg":
        return math.fsum(values) / len(values)
    if name == "min":
        return min(values)
    return max(values)


def check_aggregates(answers: Iterable[AnswerRecord]) -> list[str]:
    """Each aggregate answer equals the aggregate of its own reports."""
    problems = []
    for answer in answers:
        result = answer.result
        if result.query.aggregate is None:
            continue
        values = [value for value, _ in result.reports.values()]
        expected = expected_aggregate(result.query.aggregate.value, values)
        got = result.aggregate_value
        if expected is None or got is None:
            ok = expected is None and got is None
        else:
            ok = abs(got - expected) <= AGGREGATE_RTOL * max(1.0, abs(expected))
        if not ok:
            problems.append(
                f"{result.query.aggregate.value} answer {got!r} != {expected!r} "
                f"recomputed from {len(values)} reports"
            )
    return problems


def check_cached_answers(answers: Iterable[AnswerRecord]) -> list[str]:
    """Every cached answer equals the fresh answer first served for its key."""
    problems = []
    fresh: dict[tuple, object] = {}
    for answer in answers:
        if answer.key is None:
            continue
        if not answer.cached:
            fresh.setdefault(answer.key, answer.result)
            continue
        first = fresh.get(answer.key)
        if first is None:
            problems.append(f"cache hit for {answer.key[1:]} with no fresh answer before it")
        elif answer.result != first:
            problems.append(
                f"cached answer for sink {answer.key[1]} at version {answer.key[2]} "
                f"differs from the fresh answer"
            )
    return problems


def check_energy(batteries: Iterable[BatteryRecord]) -> list[str]:
    """capacity - charge = spent, and the ledger matches every live battery."""
    problems = []
    for battery in batteries:
        scale = max(1.0, battery.spent)
        if battery.capacity is not None:
            drawn = battery.capacity - battery.charge
            if abs(drawn - battery.spent) > ENERGY_RTOL * scale:
                problems.append(
                    f"node {battery.node_id}: capacity - charge = {drawn!r} "
                    f"but the battery spent {battery.spent!r}"
                )
            if battery.charge <= 0.0:
                # The final draw was clamped, so the ledger books more
                # than the battery could give.
                continue
        if abs(battery.ledger_total - battery.spent) > ENERGY_RTOL * scale:
            problems.append(
                f"node {battery.node_id}: ledger charged {battery.ledger_total!r}, "
                f"battery spent {battery.spent!r}"
            )
    return problems


def check_round_costs(costs: Sequence[float]) -> list[str]:
    """Every maintenance round costs at most Table 2's six messages per node."""
    if not costs:
        return ["no maintenance round completed"]
    return [
        f"round {index} cost {cost!r} messages per node (bound {TABLE2_BOUND:g})"
        for index, cost in enumerate(costs)
        if not 0.0 <= cost <= TABLE2_BOUND
    ]


def line_tolerance(line: LineRecord) -> float:
    """How far ``line``'s fitted values may sit from a least-squares refit."""
    pairs = np.asarray(line.pairs, dtype=float)
    x, y = pairs[:, 0], pairs[:, 1]
    scale = max(1.0, float(np.max(np.abs(y))))
    if np.all(x == x[0]):
        # Constant x: the fit is the mean of y, computed directly.
        return MODEL_RTOL * scale
    singular = np.linalg.svd(np.column_stack([x, np.ones_like(x)]), compute_uv=False)
    kappa = float(singular[0] / singular[-1])
    return (MODEL_RTOL + FIT_EPS * kappa * kappa) * scale


def check_model_lines(lines: Iterable[LineRecord]) -> list[str]:
    """Each cached model is the least-squares line of its stored pairs.

    Compares fitted values at the stored ``x`` (unique even when the
    pairs are rank deficient, unlike the coefficients), within
    :func:`line_tolerance`.
    """
    problems = []
    checked = 0
    for line in lines:
        pairs = np.asarray(line.pairs, dtype=float)
        x, y = pairs[:, 0], pairs[:, 1]
        design = np.column_stack([x, np.ones_like(x)])
        coefficients, *_ = np.linalg.lstsq(design, y, rcond=None)
        expected = design @ coefficients
        served = line.slope * x + line.intercept
        gap = float(np.max(np.abs(served - expected)))
        tolerance = line_tolerance(line)
        checked += 1
        if gap > tolerance:
            problems.append(
                f"node {line.node_id}'s model of {line.neighbor_id} is off its "
                f"least-squares refit by {gap:.3g} (allowed {tolerance:.3g})"
            )
    if not checked:
        problems.append("no cached model line to check")
    return problems


def check_deaths(deaths: dict[str, int]) -> list[str]:
    """At least one node died in each network."""
    return [
        f"no node died in the {network} network"
        for network, count in sorted(deaths.items())
        if count < 1
    ]


def check_no_rejections(rejected: int) -> list[str]:
    """The front end admitted every request."""
    return [] if rejected == 0 else [f"{rejected} request(s) rejected at admission"]


def check_checkpoint_loads(path, expected_slices: int) -> list[str]:
    """The newest ring checkpoint loads with digest verification on."""
    from repro.persist.checkpoint import CheckpointError, load_checkpoint

    if path is None:
        return ["the checkpoint ring is empty"]
    try:
        state = load_checkpoint(path, verify=True)
    except (CheckpointError, OSError) as error:
        return [f"newest checkpoint {path.name} does not load: {error}"]
    if state.slices_done != expected_slices:
        return [
            f"newest checkpoint holds {state.slices_done} slices, "
            f"expected {expected_slices}"
        ]
    return []


@dataclass
class Evidence:
    """Everything a round hands to the checks; absent parts are skipped."""

    #: The generated ``(nodes, time)`` series every node reads.
    series: Optional[np.ndarray] = None
    #: ``(nodes, 2)`` node positions from the topology.
    positions: Optional[np.ndarray] = None
    answers: list[AnswerRecord] = field(default_factory=list)
    batteries: list[BatteryRecord] = field(default_factory=list)
    round_costs: Optional[list[float]] = None
    model_lines: Optional[list[LineRecord]] = None
    deaths: Optional[dict[str, int]] = None
    rejected: Optional[int] = None
    checkpoint: Optional[Path] = None
    expected_slices: int = 0


def verify(evidence: Evidence) -> list[str]:
    """Run every check whose inputs the round collected."""
    problems = []
    if evidence.answers:
        problems += check_report_values(evidence.answers, evidence.series)
        problems += check_matching_sets(evidence.answers, evidence.positions)
        problems += check_regular_coverage(evidence.answers)
        problems += check_aggregates(evidence.answers)
        problems += check_cached_answers(evidence.answers)
    if evidence.batteries:
        problems += check_energy(evidence.batteries)
    if evidence.round_costs is not None:
        problems += check_round_costs(evidence.round_costs)
    if evidence.model_lines is not None:
        problems += check_model_lines(evidence.model_lines)
    if evidence.deaths is not None:
        problems += check_deaths(evidence.deaths)
    if evidence.rejected is not None:
        problems += check_no_rejections(evidence.rejected)
    if evidence.expected_slices:
        problems += check_checkpoint_loads(evidence.checkpoint, evidence.expected_slices)
    return problems
