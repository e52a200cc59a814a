"""The three benchmark workloads, each one whole paper-scale experiment.

A workload runs in *rounds*.  A round builds the network from the seed
(the timed set-up), runs the measured phase to a fixed horizon, runs the
correctness checks and returns a :class:`Round`.  Every round of one seed
repeats the same operations, so modelled outcomes and counts are
identical between rounds and between runs.

* ``lifetime``    -- both curves of Fig. 10 (regular, then snapshot).
* ``maintenance`` -- the section 6.3 run behind Figs. 14-15.
* ``deployment``  -- a live fleet: sliced maintenance with checkpoints, a
  JSONL stream and a rolling reconfiguration, serving a closed-loop
  client between slices.

The make-up of each workload (sizes, ranges, loss, batteries, horizon,
request mix) is in the constants below and in README.md.  The two
``*Spec`` dataclasses hold only the sizes the self-test shrinks.

The collector stays on throughout, as it is when the program runs.
Each round runs its set-up, and then its measured phase with the set-up
network frozen out of collections (:func:`_network_frozen`).  The checks
run after both, outside the ``scope`` a caller passes in (the traced run
passes ``tracing.traced``), so their own calls into the program are
neither timed nor traced.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, ContextManager, Optional

import numpy as np

import checks
from checks import AnswerRecord, BatteryRecord, Evidence, LineRecord

__all__ = [
    "Round",
    "Workload",
    "WORKLOADS",
    "MaintenanceSpec",
    "DeploymentSpec",
]

#: Seed of every workload's deployment: node placement and sensor data.
#: ``--seed`` draws everything else -- the query and request streams and
#: the runtime's random streams (sinks, loss, heartbeat stagger, snooping,
#: rule-4 waits).  With the placement drawn from ``--seed`` as well, each
#: seed was a different network: lifetime's participants per query spread
#: 0.41 of its median over five seeds, 0.12 on this fixed one (README.md).
NETWORK_SEED = 2005

#: The host-time clock of every timed region: CPU seconds of the whole
#: process (both threads), which leaves out time the hypervisor steals
#: from this virtual machine.  Timing a fixed loop twelve times here, the
#: wall clock spread 0.156 of its median and this clock 0.063.
host_time = process_time

#: Where the deployment workload keeps its checkpoint ring and stream.
WORK_ROOT = Path(__file__).resolve().parent / "out"

#: Every workload: 100 nodes, transmission range 0.7, and drill-through
#: queries over random squares of area 0.1 (lifetime, maintenance).
N_NODES = 100
TRANSMISSION_RANGE = 0.7
QUERY_AREA = 0.1

#: Fig. 10: the paper's 500-unit batteries; queries per network.
LIFETIME_BATTERY = 500.0
LIFETIME_QUERIES = 1500

#: Section 6.3: a maintenance update every 100 units, a query every 5.
UPDATE_PERIOD = 100.0
QUERY_INTERVAL = 5.0

#: The deployment: four data classes on lossy links, loss raised by the
#: rolling reconfiguration half way through; a short heartbeat period.
N_CLASSES = 4
LOSS = 0.1
RECONFIGURED_LOSS = 0.15
HEARTBEAT_PERIOD = 10.0
SLICE_LENGTH = 10.0
#: Template regions are large, so the planner always prefers the snapshot.
TEMPLATE_AREAS = (0.5, 0.75, 1.0)
#: Requests per slice the planner must run regularly: tiny regions, and
#: averages over the centre square asking for a tighter threshold than
#: the snapshot's.  The rest cycle through the template pool.
TINY_PER_SLICE = 8
TIGHT_PER_SLICE = 4
TINY_AREA = 1e-4


@dataclass
class Round:
    """What one round of a workload measured, counted and checked."""

    setup_s: float
    sim_time: float
    measured_s: float
    #: Host seconds from issuing each query or request to its answer.
    latencies: list[float]
    #: Operations attempted, by kind (queries, requests, slices).
    ops: Counter
    failed: int
    #: Modelled outcomes: bit-identical for a seed, whatever the host.
    outcomes: dict[str, float]
    #: Per-layer counts read from the program's own counters.
    counts: dict[str, float]
    problems: list[str] = field(default_factory=list)
    #: Wall-clock seconds of each front-end request, in the order of
    #: ``latencies``: beyond its host time, a request also waits while
    #: neither the client nor the dispatcher thread runs.
    wall_latencies: list[float] = field(default_factory=list)
    #: The checks' inputs, kept only when the caller asks (self-tests).
    evidence: Optional[Evidence] = None


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def _random_walk(n_nodes: int, n_classes: int, length: int):
    from repro.data import random_walk

    rng = np.random.default_rng(NETWORK_SEED ^ 0x5EED)
    dataset, _ = random_walk.generate_random_walk(
        random_walk.RandomWalkConfig(n_nodes=n_nodes, n_classes=n_classes, length=length),
        rng,
    )
    return dataset


def _weather(n_nodes: int, length: int):
    from repro.data import weather

    rng = np.random.default_rng(NETWORK_SEED ^ 0xEA7)
    dataset, _ = weather.generate_weather(
        weather.WeatherConfig(n_series=n_nodes, length=length), rng
    )
    return dataset


def _build(setup, dataset, seed: int):
    """A runtime on the fixed placement, its random streams rooted at ``seed``."""
    from repro.experiments.harness import build_runtime
    from repro.network.topology import uniform_random_topology

    topology = uniform_random_topology(
        setup.n_nodes, setup.transmission_range, np.random.default_rng(NETWORK_SEED)
    )
    return build_runtime(setup, dataset, seed, topology=topology)


def _positions(runtime) -> np.ndarray:
    topology = runtime.topology
    return np.array([topology.position(node) for node in sorted(topology.node_ids)])


def _batteries(runtime) -> list[BatteryRecord]:
    ledger = runtime.ledger
    records = []
    for node_id, device in sorted(runtime.radio.nodes.items()):
        battery = device.battery
        records.append(
            BatteryRecord(
                node_id=node_id,
                capacity=battery.capacity,
                charge=battery.charge,
                spent=battery.spent,
                ledger_total=ledger.node_total(node_id),
            )
        )
    return records


def _model_lines(runtime) -> list[LineRecord]:
    lines = []
    for node_id in sorted(runtime.nodes):
        policy = runtime.nodes[node_id].store.policy
        for neighbor_id in policy.known_neighbors():
            line = policy.line(neighbor_id)
            if line is None or len(line) == 0:
                continue
            slope, intercept = line.model_coefficients()
            lines.append(
                LineRecord(
                    node_id=node_id,
                    neighbor_id=neighbor_id,
                    pairs=tuple(tuple(pair) for pair in line.pairs),
                    slope=slope,
                    intercept=intercept,
                )
            )
    return lines


def _deaths(runtime) -> int:
    return sum(1 for device in runtime.radio.nodes.values() if not device.alive)


def _estimate_errors(answers: list[AnswerRecord], series: np.ndarray) -> list[float]:
    """|estimate - ground truth| for every model-estimated report."""
    errors = []
    for answer in answers:
        if answer.cached:
            continue
        for origin, (value, estimated) in answer.result.reports.items():
            if estimated:
                index = min(int(answer.sim_time), series.shape[1] - 1)
                errors.append(abs(value - float(series[origin, index])))
    return errors


def _layer_counts(runtimes: list) -> dict[str, float]:
    """Counts every round reads from the program's own accounting."""
    sent = delivered = dropped = 0
    events = reelections = deaths = 0
    spent = 0.0
    for runtime in runtimes:
        stats = runtime.stats
        sent += sum(stats.sent.values())
        delivered += sum(stats.delivered.values())
        dropped += sum(stats.dropped.values())
        events += runtime.simulator.events_processed
        reelections += sum(node.reelections for node in runtime.nodes.values())
        deaths += _deaths(runtime)
        spent += runtime.ledger.total()
    return {
        "simulation.events": events,
        "network.transmissions": sent,
        "network.receptions": delivered,
        "network.dropped": dropped,
        "network.delivered_ratio": delivered / (delivered + dropped) if delivered else 0.0,
        "energy.spent": spent,
        "energy.deaths": deaths,
        "core.reelections": reelections,
    }


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


@contextlib.contextmanager
def _network_frozen():
    """The measured phase, with the set-up network exempt from collections.

    The set-up's garbage is collected (untimed) and its survivors -- the
    network, which lives until the round ends -- are frozen, so the full
    collections the measured phase triggers scan only what it allocates
    itself rather than every node, model line and queued event again.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


# ----------------------------------------------------------------------
# lifetime: Fig. 10
# ----------------------------------------------------------------------


def _lifetime_setup(seed: int):
    """Fig. 10: K = T = 1, range 0.7, 500-unit batteries."""
    from repro.experiments.harness import NetworkSetup

    setup = NetworkSetup(
        n_nodes=N_NODES,
        transmission_range=TRANSMISSION_RANGE,
        threshold=1.0,
        battery_capacity=LIFETIME_BATTERY,
        heartbeat_period=100.0,
        energy_resign_fraction=0.1,
        # The paper's lifetime run does not snoop on query traffic.
        snoop_probability=0.0,
    )
    # Covers the election's settle delay (~121 units) plus the horizon.
    length = int(setup.election_time) + 200 + LIFETIME_QUERIES
    dataset = _random_walk(N_NODES, 1, length)
    regular = _build(setup, dataset, seed)
    regular.advance_to(setup.election_time)
    snapshot = _build(setup, dataset, seed)
    snapshot.train(duration=setup.train_duration)
    snapshot.advance_to(setup.election_time)
    snapshot.run_election()
    snapshot.start_maintenance()
    return setup, dataset, regular, snapshot


def lifetime_round(
    seed: int, keep_evidence: bool = False, scope: Optional[ContextManager] = None
) -> Round:
    from repro.query.ast import Query
    from repro.query.executor import QueryExecutor
    from repro.query.spatial import random_square

    latencies: list[float] = []
    answers = {"regular": [], "snapshot": []}
    sizes: list[int] = []
    failed = 0
    sim_time = 0.0
    with scope or contextlib.nullcontext():
        t0 = host_time()
        setup, dataset, regular, snapshot = _lifetime_setup(seed)
        setup_s = host_time() - t0
        series = dataset.values.copy()
        with _network_frozen():
            t1 = host_time()
            for name, runtime in (("regular", regular), ("snapshot", snapshot)):
                use_snapshot = name == "snapshot"
                executor = QueryExecutor(runtime)
                query_rng = np.random.default_rng(seed ^ 0xF16)
                start = runtime.now
                for step in range(LIFETIME_QUERIES):
                    runtime.advance_to(start + step + 1)
                    if use_snapshot and (step + 1) % int(setup.heartbeat_period) == 0:
                        sizes.append(runtime.snapshot().size)
                    all_alive = len(runtime.alive_ids()) == N_NODES
                    query = Query(
                        region=random_square(QUERY_AREA, query_rng),
                        use_snapshot=use_snapshot,
                    )
                    issued = host_time()
                    try:
                        result = executor.execute(query)
                    except RuntimeError:
                        failed += 1
                        continue
                    latencies.append(host_time() - issued)
                    answers[name].append(AnswerRecord(result, runtime.now, all_alive=all_alive))
                sim_time += runtime.now - start
            measured_s = host_time() - t1

    snapshot_answers = answers["snapshot"]
    evidence = Evidence(
        series=series,
        positions=_positions(regular),
        answers=answers["regular"] + snapshot_answers,
        batteries=_batteries(regular) + _batteries(snapshot),
        round_costs=snapshot.maintenance.round_message_costs(),
        deaths={"regular": _deaths(regular), "snapshot": _deaths(snapshot)},
    )
    outcomes = {
        "coverage_auc": sum(a.result.coverage() for a in snapshot_answers),
        "participants_per_query": _mean(a.result.n_participants for a in snapshot_answers),
        "msgs_per_node_round": _mean(snapshot.maintenance.round_message_costs()),
        "snapshot_size": _mean(sizes),
        "estimate_abs_err": _mean(_estimate_errors(snapshot_answers, series)),
        "regular_coverage_auc": sum(a.result.coverage() for a in answers["regular"]),
    }
    return Round(
        setup_s=setup_s,
        sim_time=sim_time,
        measured_s=measured_s,
        latencies=latencies,
        ops=Counter(queries=2 * LIFETIME_QUERIES),
        failed=failed,
        outcomes=outcomes,
        counts=_layer_counts([regular, snapshot]),
        problems=checks.verify(evidence),
        evidence=evidence if keep_evidence else None,
    )


def lifetime_setup_only(seed: int) -> float:
    t0 = host_time()
    _lifetime_setup(seed)
    return host_time() - t0


# ----------------------------------------------------------------------
# maintenance: Figs. 14-15
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MaintenanceSpec:
    """Section 6.3's sizes: the network and the weather series' length."""

    n_nodes: int = N_NODES
    series_length: int = 3000


def _maintenance_setup(spec: MaintenanceSpec, seed: int):
    """Section 6.3: weather data, range 0.7, T = 0.1, 5% snooping."""
    from repro.experiments.harness import NetworkSetup

    setup = NetworkSetup(
        n_nodes=spec.n_nodes,
        transmission_range=TRANSMISSION_RANGE,
        threshold=0.1,
        snoop_probability=0.05,
        heartbeat_period=UPDATE_PERIOD,
    )
    dataset = _weather(spec.n_nodes, spec.series_length)
    runtime = _build(setup, dataset, seed)
    runtime.train(duration=setup.train_duration)
    runtime.advance_to(setup.election_time)
    runtime.run_election()
    runtime.start_maintenance()
    return dataset, runtime


def maintenance_round(
    seed: int,
    spec: MaintenanceSpec = MaintenanceSpec(),
    keep_evidence: bool = False,
    scope: Optional[ContextManager] = None,
) -> Round:
    from repro.query.ast import Query
    from repro.query.executor import QueryExecutor
    from repro.query.spatial import random_square

    query_rng = np.random.default_rng(seed ^ 0x514)
    latencies: list[float] = []
    answers: list[AnswerRecord] = []
    sizes: list[int] = []
    failed = attempted = 0
    with scope or contextlib.nullcontext():
        t0 = host_time()
        dataset, runtime = _maintenance_setup(spec, seed)
        setup_s = host_time() - t0
        series = dataset.values.copy()
        executor = QueryExecutor(runtime)
        start = clock = runtime.now
        end = float(spec.series_length)
        next_update = start + UPDATE_PERIOD
        with _network_frozen():
            t1 = host_time()
            while clock < end:
                clock = min(clock + QUERY_INTERVAL, end)
                runtime.advance_to(clock)
                if clock >= next_update:
                    sizes.append(runtime.snapshot().size)
                    next_update += UPDATE_PERIOD
                    continue
                query = Query(region=random_square(QUERY_AREA, query_rng), use_snapshot=True)
                attempted += 1
                issued = host_time()
                try:
                    result = executor.execute(query)
                except RuntimeError:
                    failed += 1
                    continue
                latencies.append(host_time() - issued)
                answers.append(AnswerRecord(result, runtime.now))
            measured_s = host_time() - t1
        runtime.maintenance.stop()

    costs = runtime.maintenance.round_message_costs()
    evidence = Evidence(
        series=series,
        positions=_positions(runtime),
        answers=answers,
        batteries=_batteries(runtime),
        round_costs=costs,
        model_lines=_model_lines(runtime),
    )
    outcomes = {
        "coverage_auc": sum(a.result.coverage() for a in answers),
        "participants_per_query": _mean(a.result.n_participants for a in answers),
        "msgs_per_node_round": _mean(costs),
        "snapshot_size": _mean(sizes),
        "estimate_abs_err": _mean(_estimate_errors(answers, series)),
    }
    return Round(
        setup_s=setup_s,
        sim_time=runtime.now - start,
        measured_s=measured_s,
        latencies=latencies,
        ops=Counter(queries=attempted),
        failed=failed,
        outcomes=outcomes,
        counts=_layer_counts([runtime]),
        problems=checks.verify(evidence),
        evidence=evidence if keep_evidence else None,
    )


def maintenance_setup_only(seed: int) -> float:
    t0 = host_time()
    _maintenance_setup(MaintenanceSpec(), seed)
    return host_time() - t0


# ----------------------------------------------------------------------
# deployment: a live fleet serving a closed-loop client
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DeploymentSpec:
    """The deployment's sizes: network, slices, checkpoints and requests."""

    n_nodes: int = N_NODES
    slices: int = 8
    checkpoint_every: int = 4
    requests_per_slice: int = 375
    templates: int = 8


def _deployment_setup(spec: DeploymentSpec, seed: int, workdir: Path):
    """A lossy fleet, sliced, checkpointed and serving."""
    from repro.experiments.harness import NetworkSetup
    from repro.fleet import FleetRunner, FleetState, SLOConfig
    from repro.serving.frontend import QueryFrontEnd

    setup = NetworkSetup(
        n_nodes=spec.n_nodes,
        transmission_range=TRANSMISSION_RANGE,
        loss_probability=LOSS,
        threshold=1.0,
        heartbeat_period=HEARTBEAT_PERIOD,
    )
    length = int(setup.election_time) + 200 + int(spec.slices * SLICE_LENGTH)
    dataset = _random_walk(spec.n_nodes, N_CLASSES, length)
    runtime = _build(setup, dataset, seed)
    runtime.train(duration=setup.train_duration)
    runtime.advance_to(setup.election_time)
    runtime.run_election()
    runtime.start_maintenance()
    # Only sim-time objectives: a wall-clock p99 objective would make the
    # checkpointed monitor state depend on host speed.
    state = FleetState(
        runtime,
        slo=SLOConfig(coverage_floor=0.5, max_messages_per_node_per_round=checks.TABLE2_BOUND),
        probe_area=0.4,
    )
    frontend = QueryFrontEnd(runtime).start()
    runner = FleetRunner(
        state,
        SLICE_LENGTH,
        workdir,
        checkpoint_every=spec.checkpoint_every,
        keep_checkpoints=2,
        frontend=frontend,
    )
    return setup, dataset, frontend, runner


def _request_stream(spec: DeploymentSpec, seed: int, threshold: float) -> list:
    """The seeded closed-loop client's requests, in order.

    The template regions belong to the deployment (``NETWORK_SEED``);
    ``seed`` draws which request comes next and every tiny region.
    """
    from repro.query.ast import Aggregate, Query
    from repro.query.spatial import Rect, random_square

    pool_rng = np.random.default_rng(NETWORK_SEED ^ 0xD3B)
    aggregates = list(Aggregate)
    pool = [
        Query(
            aggregate=aggregates[index % len(aggregates)],
            region=random_square(TEMPLATE_AREAS[index % len(TEMPLATE_AREAS)], pool_rng),
            use_snapshot=True,
        )
        for index in range(spec.templates)
    ]
    # Tighter than the snapshot's threshold, so answered regularly; over
    # one fixed square, so every such request costs about the same.
    tight = Query(
        aggregate=Aggregate.AVG,
        region=Rect(0.25, 0.25, 0.75, 0.75),
        use_snapshot=True,
        snapshot_threshold=threshold / 2,
    )
    rng = np.random.default_rng(seed ^ 0xD3B)
    requests = []
    for _ in range(spec.slices):
        # Every slice serves the same mix; only its order and the tiny
        # regions are drawn, so each seed offers the same load.
        burst = [tight] * TIGHT_PER_SLICE
        burst += [
            Query(
                aggregate=Aggregate.AVG,
                region=random_square(TINY_AREA, rng),
                use_snapshot=True,
            )
            for _ in range(TINY_PER_SLICE)
        ]
        burst += [
            pool[index % len(pool)]
            for index in range(spec.requests_per_slice - len(burst))
        ]
        requests += [burst[index] for index in rng.permutation(len(burst))]
    return requests


def _workdir(seed: int) -> Path:
    import os

    path = WORK_ROOT / f"fleet-{os.getpid()}-{seed}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def deployment_round(
    seed: int,
    spec: DeploymentSpec = DeploymentSpec(),
    keep_evidence: bool = False,
    scope: Optional[ContextManager] = None,
) -> Round:
    """One deployment round; ``keep_evidence`` also keeps its fleet directory."""
    workdir = _workdir(seed)
    try:
        return _deployment_round(seed, spec, workdir, keep_evidence, scope)
    finally:
        if not keep_evidence:
            shutil.rmtree(workdir, ignore_errors=True)


def _deployment_round(
    seed: int,
    spec: DeploymentSpec,
    workdir: Path,
    keep_evidence: bool,
    scope: Optional[ContextManager],
) -> Round:
    from repro.serving.frontend import AdmissionRejected

    latencies: list[float] = []
    wall_latencies: list[float] = []
    answers: list[AnswerRecord] = []
    sizes: list[int] = []
    failed = 0
    slice_s = 0.0
    with scope or contextlib.nullcontext():
        t0 = host_time()
        setup, dataset, frontend, runner = _deployment_setup(spec, seed, workdir)
        setup_s = host_time() - t0
        try:
            series = dataset.values.copy()
            requests = iter(_request_stream(spec, seed, setup.threshold))
            sim_start = runner.state.runtime.now
            with _network_frozen():
                for index in range(spec.slices):
                    if index == spec.slices // 2:
                        runner.request_reconfigure({"loss": RECONFIGURED_LOSS})
                    began = host_time()
                    runner.run_slice()
                    slice_s += host_time() - began
                    runtime = runner.state.runtime
                    sizes.append(runtime.snapshot().size)
                    for _ in range(spec.requests_per_slice):
                        query = next(requests)
                        version = runtime.structure_version()
                        issued, issued_wall = host_time(), perf_counter()
                        try:
                            served = frontend.submit(query).result(timeout=60.0)
                        except (AdmissionRejected, RuntimeError, ValueError):
                            failed += 1
                            continue
                        wall_latencies.append(perf_counter() - issued_wall)
                        latencies.append(host_time() - issued)
                        answers.append(
                            AnswerRecord(
                                served.result,
                                runtime.now,
                                cached=served.cached,
                                key=(query, served.result.sink, version),
                            )
                        )
            runtime = runner.state.runtime
            sim_time = runtime.now - sim_start
            stats = frontend.stats()
        finally:
            frontend.stop()
            runner.stop()

    costs = runtime.maintenance.round_message_costs()
    fresh_snapshot = [
        a for a in answers if not a.cached and a.result.query.use_snapshot
    ]
    checkpoints = runner.ring.paths()
    evidence = Evidence(
        series=series,
        positions=_positions(runtime),
        answers=answers,
        batteries=_batteries(runtime),
        round_costs=costs,
        rejected=stats["rejected_queue"] + stats["rejected_cost"],
        checkpoint=runner.ring.latest(),
        expected_slices=spec.slices,
    )
    outcomes = {
        # Every served answer, in whichever mode the planner chose: the
        # coverage curve the client sees.
        "coverage_auc": sum(a.result.coverage() for a in answers),
        "participants_per_query": _mean(a.result.n_participants for a in fresh_snapshot),
        "msgs_per_node_round": _mean(costs),
        "snapshot_size": _mean(sizes),
        "estimate_abs_err": _mean(_estimate_errors(fresh_snapshot, series)),
    }
    counts = _layer_counts([runtime])
    hits, misses = stats["cache_hits"], stats["cache_misses"]
    stream_files = runner.stream.segment_paths()
    counts.update(
        {
            "serving.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serving.trees_built": stats["trees_built"],
            "serving.invalidations": stats["cache_invalidations"],
            "persist.checkpoint_mb": _mean(p.stat().st_size for p in checkpoints) / 1e6,
            "obs.stream_records": runner.stream.records_written,
            "obs.stream_mb": sum(p.stat().st_size for p in stream_files) / 1e6,
        }
    )
    return Round(
        setup_s=setup_s,
        sim_time=sim_time,
        measured_s=slice_s,
        latencies=latencies,
        ops=Counter(requests=spec.slices * spec.requests_per_slice, slices=spec.slices),
        failed=failed,
        outcomes=outcomes,
        counts=counts,
        problems=checks.verify(evidence),
        wall_latencies=wall_latencies,
        evidence=evidence if keep_evidence else None,
    )


def deployment_setup_only(seed: int) -> float:
    workdir = _workdir(seed)
    try:
        t0 = host_time()
        _, _, frontend, runner = _deployment_setup(DeploymentSpec(), seed, workdir)
        elapsed = host_time() - t0
        frontend.stop()
        runner.stop()
        return elapsed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    #: ``run_round(seed, scope=...)``; see the module docstring.
    run_round: Callable[..., Round]
    setup_only: Callable[[int], float]
    #: Fewest rounds an untraced run measures.  One round gives a p99
    #: at least ten samples beyond it on ``lifetime`` (3,000 queries)
    #: and ``deployment`` (3,000 requests), two on ``maintenance`` (~530
    #: queries a round).  More rounds average over more of the host's
    #: fast and slow spells (README.md): 2, 3 and 2 rounds take about
    #: 35, 30 and 35 s.
    min_rounds: int


WORKLOADS: dict[str, Workload] = {
    "lifetime": Workload(lifetime_round, lifetime_setup_only, min_rounds=2),
    "maintenance": Workload(maintenance_round, maintenance_setup_only, min_rounds=3),
    "deployment": Workload(deployment_round, deployment_setup_only, min_rounds=2),
}
