"""serve_read and serve_feedback: four tenants on a 4-shard cluster.

The tenants (ceb 3133, stack 6191, job 113 and dsb 1040 rows, 25% of their
non-default cells observed) live on a 4-shard ``ServingCluster`` behind a
``ClusterIngress`` with the default ``IngressConfig``.  All load comes from
one asyncio event loop in this process: each open-loop arrival is its own
client coroutine, fired at its due time and timed from that due time, and a
closed loop is a fixed set of client coroutines that each send their next
request when the last one is answered.  Shed or failed requests count as
+inf latency.

* serve_read: read-only (no journal, no controller).  Open loop at 1,000
  then 5,000 req/s, then a closed loop of 512 clients.
* serve_feedback: journaled shards and a ``ClusterAdaptationController``.
  Open loop at 500 req/s; the ground-truth latency of every decision is
  fed back in batches of 256 through ``ClusterIngress.record_measured``
  and ``ServingCluster.observe_batch``, and halfway through 60% of the ceb
  and stack rows drift.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
from metrics import Outcome, busy_per_op, percentile_ms, span_layer_metrics
from spans import Instrumentation, SpanRecorder
from repro.adaptive.cluster import ClusterAdaptationController
from repro.cluster.cluster import ServingCluster
from repro.config import IngressConfig
from repro.experiments.cluster import populate_cluster
from repro.ingress.ingress import ClusterIngress

N_SHARDS = 4
SETUP_REPEATS = 5
CLOSED_CLIENTS = 512
CLOSED_STREAM = 1 << 16
FEEDBACK_BATCH = 256
#: serve_feedback's offered rate.  At 2,000 req/s an adaptation tick that
#: blocked the loop for 2.8 s overflowed the 4,096-request admission queue
#: and shed requests.  At 1,000 req/s refresh ticks kept the loop busy about
#: half the time even before the drift, so the median request sat on the
#: knee between "waited for a tick" and "did not" and spread 0.6 across
#: seeds.  At 500 req/s the pre-drift median is steady.
FEEDBACK_RATE = 500.0
FEEDBACK_LABEL = "500"
#: serve_read's schedule: label, offered rate (None: closed loop), share of
#: --seconds.  Short closed-loop bursts alternate with the open-loop phases,
#: so they sample the whole run.  Capacity is the fastest burst's completion
#: rate: on the machine the benchmark was written on, the CPU switches
#: between two speeds ~1.6x apart for seconds at a time, and the share of a
#: run spent in the slow one decides any average over bursts.
READ_ROUNDS = 8
READ_PHASES = tuple(
    phase
    for _ in range(READ_ROUNDS)
    for phase in (
        ("1k", 1000.0, 0.0375),
        ("closed", None, 0.025),
        ("5k", 5000.0, 0.0375),
        ("closed", None, 0.025),
    )
)
#: The first arrival of a phase is due this long after the phase starts.
LEAD_S = 0.005

clock = time.perf_counter


# -- deployment -------------------------------------------------------------------


@dataclass
class Deployment:
    cluster: ServingCluster
    names: List[str]
    truth: Dict[str, np.ndarray]
    controller: Optional[ClusterAdaptationController] = None
    directory: Optional[str] = None

    @property
    def default_hint(self) -> int:
        return self.cluster.default_hint

    def close(self) -> None:
        self.cluster.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


def deploy(seed: int, scale: float, work_dir: Optional[str], adaptive: bool) -> Deployment:
    """Generate the tenants and bring the cluster up, ready to serve."""
    tenants = inputs.tenants(seed, scale)
    directory = tempfile.mkdtemp(prefix="wal-", dir=work_dir) if work_dir else None
    first = next(iter(tenants.values()))
    cluster = ServingCluster(N_SHARDS, first.matrix.n_hints, durability_dir=directory)
    for name, tenant in tenants.items():
        populate_cluster(cluster, name, tenant.matrix)
    cluster.drain_refreshes()
    for name in tenants:
        cluster.serve_all(name)  # builds every shard's decision snapshot
    truth = {name: tenant.truth for name, tenant in tenants.items()}
    deployment = Deployment(cluster, list(tenants), truth, directory=directory)
    if adaptive:

        def cell_lookup(key: str, hint: int) -> float:
            # populate_cluster names tenant rows "q<index>".
            tenant, name = key.split("/", 1)
            return float(deployment.truth[tenant][int(name[1:]), hint])

        deployment.controller = ClusterAdaptationController(cluster, cell_lookup)
    return deployment


def timed_setup(seed: int, scale: float, work_dir: Optional[str], adaptive: bool):
    """Set up ``SETUP_REPEATS`` times; keep the last deployment."""
    times: List[float] = []
    deployment = None
    for _ in range(SETUP_REPEATS):
        if deployment is not None:
            deployment.close()
        t0 = clock()
        deployment = deploy(seed, scale, work_dir, adaptive)
        times.append(clock() - t0)
    return deployment, statistics.median(times)


def sizes_of(deployment: Deployment) -> np.ndarray:
    return np.asarray([deployment.truth[n].shape[0] for n in deployment.names])


# -- load generation ----------------------------------------------------------------


@dataclass
class Phase:
    """Everything one load phase observed, per arrival where it applies."""

    label: str
    arrivals: inputs.Arrivals
    default_hint: int
    latency: np.ndarray
    hints: np.ndarray
    used_default: np.ndarray
    expected: np.ndarray
    answered: np.ndarray
    late: np.ndarray = field(default_factory=lambda: np.zeros(0))
    wall: float = 0.0
    completed: int = 0
    non_default: int = 0
    shed: int = 0
    errors: int = 0
    ingress: Optional[object] = None
    ticker_errors: int = 0

    @property
    def attempted(self) -> int:
        return self.completed + self.shed + self.errors

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.wall if self.wall > 0 else 0.0


def _phase(label: str, arrivals: inputs.Arrivals, default_hint: int) -> Phase:
    n = len(arrivals)
    return Phase(
        label=label,
        arrivals=arrivals,
        default_hint=default_hint,
        latency=np.full(n, np.inf),
        hints=np.full(n, default_hint, dtype=np.int64),
        used_default=np.ones(n, dtype=bool),
        expected=np.full(n, np.inf),
        answered=np.zeros(n, dtype=bool),
        late=np.zeros(arrivals.due.size),
    )


def _record(phase: Phase, i: int, decision) -> None:
    phase.hints[i] = decision.hint
    phase.used_default[i] = decision.used_default
    phase.expected[i] = decision.expected_latency
    phase.answered[i] = True
    if decision.shed:
        phase.shed += 1
    else:
        phase.completed += 1
        phase.non_default += decision.hint != phase.default_hint


async def open_loop(
    ingress: ClusterIngress,
    phase: Phase,
    names: Sequence[str],
    on_decision: Optional[Callable[[int, object], None]] = None,
    before_fire: Optional[Callable[[int], None]] = None,
) -> None:
    """Fire each arrival at its due time, as its own client coroutine."""
    arrivals = phase.arrivals
    tenants = [names[t] for t in arrivals.tenant.tolist()]
    queries = arrivals.query.tolist()
    loop = asyncio.get_running_loop()

    async def request(i: int, due: float) -> None:
        try:
            decision = await ingress.serve(tenants[i], queries[i])
        except Exception:  # a failed request is counted, never fatal
            phase.errors += 1
            return
        if not decision.shed:
            phase.latency[i] = clock() - due
        _record(phase, i, decision)
        if on_decision is not None:
            on_decision(i, decision)

    start = clock() + LEAD_S
    due = (start + arrivals.due).tolist()
    tasks = []
    i, n = 0, len(due)
    while i < n:
        now = clock()
        if due[i] > now:
            await asyncio.sleep(due[i] - now)
            continue
        while i < n and due[i] <= now:
            if before_fire is not None:
                before_fire(i)
            phase.late[i] = now - due[i]
            tasks.append(loop.create_task(request(i, due[i])))
            i += 1
    await asyncio.gather(*tasks)
    phase.wall = clock() - start


async def closed_loop(
    ingress: ClusterIngress, phase: Phase, names: Sequence[str], duration: float
) -> None:
    """``CLOSED_CLIENTS`` clients, each awaiting its answer before the next."""
    arrivals = phase.arrivals
    tenants = [names[t] for t in arrivals.tenant.tolist()]
    queries = arrivals.query.tolist()
    size = len(queries)
    cursor = 0
    latencies: List[float] = []

    async def client() -> None:
        nonlocal cursor
        while clock() < stop:
            j = cursor % size
            cursor += 1
            t0 = clock()
            try:
                decision = await ingress.serve(tenants[j], queries[j])
            except Exception:  # a failed request is counted, never fatal
                phase.errors += 1
                continue
            if not decision.shed:
                latencies.append(clock() - t0)
            _record(phase, j, decision)

    start = clock()
    stop = start + duration
    await asyncio.gather(*(client() for _ in range(CLOSED_CLIENTS)))
    phase.wall = clock() - start
    phase.latency = np.asarray(latencies)


# -- the measured windows -------------------------------------------------------------


@dataclass
class Window:
    phases: List[Phase]
    wall: float
    idle: float = 0.0
    feedback_observations: int = 0


async def _windowed(body, recorder: Optional[SpanRecorder], instrumentation) -> Window:
    if instrumentation is not None:
        instrumentation.watch_selector(asyncio.get_running_loop())
    if recorder is not None:
        recorder.begin_window()
    start = clock()
    window = await body()
    window.wall = clock() - start
    if recorder is not None:
        recorder.end_window()
    return window


def read_window(deployment: Deployment, streams: List[inputs.Arrivals], seconds: float):
    async def body() -> Window:
        phases = []
        for (label, rate, share), arrivals in zip(READ_PHASES, streams):
            phase = _phase(label, arrivals, deployment.default_hint)
            async with ClusterIngress(deployment.cluster, IngressConfig()) as ingress:
                if rate is None:
                    await closed_loop(ingress, phase, deployment.names, share * seconds)
                else:
                    await open_loop(ingress, phase, deployment.names)
            phase.ingress = ingress.stats()
            phase.ticker_errors = sum(t.errors for t in ingress.tickers)
            phases.append(phase)
        return Window(phases, 0.0)

    return body


def feedback_window(
    deployment: Deployment,
    arrivals: inputs.Arrivals,
    drift_index: int,
    drifted: Dict[str, np.ndarray],
):
    async def body() -> Window:
        cluster = deployment.cluster
        phase = _phase(FEEDBACK_LABEL, arrivals, deployment.default_hint)
        batch: List[object] = []
        measured: List[float] = []
        observed = [0]

        def flush() -> None:
            ingress.record_measured(batch, measured)
            tenant = np.asarray([deployment.names.index(d.tenant) for d in batch])
            query = np.asarray([d.query for d in batch], dtype=np.int64)
            hint = np.asarray([d.hint for d in batch], dtype=np.int64)
            latency = np.asarray(measured)
            for t in np.unique(tenant):
                rows = tenant == t
                cluster.observe_batch(deployment.names[t], query[rows], hint[rows], latency[rows])
            observed[0] += len(batch)
            batch.clear()
            measured.clear()

        def on_decision(i: int, decision) -> None:
            batch.append(decision)
            measured.append(float(deployment.truth[decision.tenant][decision.query, decision.hint]))
            if len(batch) >= FEEDBACK_BATCH:
                flush()

        def before_fire(i: int) -> None:
            if i == drift_index:
                deployment.truth.update(drifted)

        ingress = ClusterIngress(cluster, IngressConfig(), controller=deployment.controller)
        async with ingress:
            await open_loop(ingress, phase, deployment.names, on_decision, before_fire)
        if batch:
            flush()
        phase.ingress = ingress.stats()
        phase.ticker_errors = sum(t.errors for t in ingress.tickers)
        return Window([phase], 0.0, feedback_observations=observed[0])

    return body


def measure(body, recorder=None, instrumentation=None) -> Window:
    return asyncio.run(_windowed(body, recorder, instrumentation))


def measure_idle(body) -> Window:
    """Run a window untraced except for the loop's selector waits."""
    recorder = SpanRecorder(clock)
    window = measure(body, recorder, Instrumentation(recorder))
    window.idle = recorder.summarize().idle
    return window


# -- checks -------------------------------------------------------------------------


def exported(cluster: ServingCluster, names: Sequence[str]) -> Dict[str, bytes]:
    out = {}
    for name in names:
        m = cluster.export_tenant_matrix(name)
        out[name] = b"".join(
            np.ascontiguousarray(a).tobytes()
            for a in (m.values, m.mask, m.censored_mask, m.timeout_matrix)
        )
    return out


def never_worse_than_default(
    cluster: ServingCluster, names: Sequence[str], tenant, query, hints
) -> bool:
    """Every non-default hint served is observed no slower than the default."""
    default = cluster.default_hint
    ok = True
    for t, name in enumerate(names):
        rows = (tenant == t) & (hints != default)
        if not rows.any():
            continue
        matrix = cluster.export_tenant_matrix(name)
        values, mask = matrix.values, matrix.mask > 0
        q, h = query[rows], hints[rows]
        ok &= bool(
            np.all(mask[q, h] & mask[q, default] & (values[q, h] <= values[q, default]))
        )
    return ok


def latency_ratio(truth: Dict[str, np.ndarray], names, tenant, query, hints, default: int) -> float:
    served = sum(
        float(truth[name][query[tenant == t], hints[tenant == t]].sum())
        for t, name in enumerate(names)
    )
    baseline = sum(
        float(truth[name][query[tenant == t], default].sum()) for t, name in enumerate(names)
    )
    return served / baseline


# -- workloads ------------------------------------------------------------------------


def _ingress_totals(phases: Sequence[Phase]) -> Dict[str, float]:
    """``ClusterIngress.stats()`` of several phases, taken together."""
    stats = [p.ingress for p in phases]
    served = sum(s.served for s in stats)
    batches = sum(s.flushed_batches for s in stats)
    return {
        "served": served,
        "batches": batches,
        "mean_batch_size": served / max(batches, 1),
        "mean_queue_wait_ms": sum(s.mean_queue_wait_s * s.served for s in stats)
        / max(served, 1)
        * 1e3,
        "max_queue_wait_ms": max(s.max_queue_wait_s for s in stats) * 1e3,
        "shed": sum(s.shed for s in stats),
    }


@dataclass
class Load:
    """Every phase of one label taken together (serve_read repeats them)."""

    label: str
    latency: np.ndarray
    late: np.ndarray
    completed: int
    wall: float
    ingress: Dict[str, float]

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.wall

    @property
    def open_loop(self) -> bool:
        return self.late.size > 0


def loads(phases: Sequence[Phase]) -> Dict[str, Load]:
    out: Dict[str, Load] = {}
    for label in dict.fromkeys(p.label for p in phases):
        mine = [p for p in phases if p.label == label]
        out[label] = Load(
            label=label,
            latency=np.concatenate([p.latency for p in mine]),
            late=np.concatenate([p.late for p in mine]),
            completed=sum(p.completed for p in mine),
            wall=sum(p.wall for p in mine),
            ingress=_ingress_totals(mine),
        )
    return out


def _loadgen_layers(window: "Window") -> Dict[str, float]:
    out: Dict[str, float] = {}
    for load in loads(window.phases).values():
        if load.open_loop:
            out[f"loadgen.late_p99_ms_{load.label}"] = percentile_ms(load.late, 99)
            out[f"loadgen.achieved_rps_{load.label}"] = load.achieved_rps
    return out


def _cluster_counters(deployment: Deployment) -> Dict[str, float]:
    stats = deployment.cluster.stats()
    journals = [s.journal for s in deployment.cluster.shards.values() if s.journal is not None]
    return {
        "routed": stats.routed_batches,
        "fan_out_total": stats.fan_out * stats.routed_batches,
        "refreshes": deployment.cluster.scheduler.refreshes,
        "wal_records": sum(j.appended_records for j in journals),
        "wal_bytes": sum(j.appended_bytes for j in journals),
    }


def _load_report(load: Load) -> List[Tuple[str, float, str, int]]:
    n, label, ingress = load.latency.size, load.label, load.ingress
    rows = [
        (f"p50_ms_{label}", percentile_ms(load.latency, 50), "ms", n),
        (f"p99_ms_{label}", percentile_ms(load.latency, 99), "ms", n),
    ]
    if load.open_loop:
        rows.append((f"late_p99_ms_{label}", percentile_ms(load.late, 99), "ms", n))
    return rows + [
        (f"achieved_rps_{label}", load.achieved_rps, "1/s", load.completed),
        (f"mean_batch_{label}", ingress["mean_batch_size"], "count", ingress["batches"]),
        (f"mean_queue_wait_ms_{label}", ingress["mean_queue_wait_ms"], "ms", ingress["served"]),
    ]


def _failures(out: Outcome, phases: Sequence[Phase]) -> None:
    out.attempted = sum(p.attempted for p in phases)
    out.failed = sum(p.shed + p.errors for p in phases)
    out.check("background_ticks_never_failed", sum(p.ticker_errors for p in phases) == 0)


def traced_pass(out: Outcome, body_factory, deployment_factory, untraced: Window) -> None:
    """Measure a fresh deployment with tracing installed; fill ``out.layers``."""
    recorder = SpanRecorder(clock)
    instrumentation = Instrumentation(recorder)
    instrumentation.install()
    try:
        deployment = deployment_factory()
        before = _cluster_counters(deployment)
        window = measure(body_factory(deployment), recorder, instrumentation)
    finally:
        instrumentation.remove()
    summary = recorder.summarize()
    window.idle = summary.idle
    after = _cluster_counters(deployment)
    delta = {k: after[k] - before[k] for k in after}
    phases = window.phases
    controller = deployment.controller
    report = controller.report() if controller is not None else None
    layers = span_layer_metrics(summary, recorder)
    totals = _ingress_totals(phases)
    layers.update({f"ingress.{k}": totals[k] for k in (
        "batches", "mean_batch_size", "mean_queue_wait_ms", "max_queue_wait_ms", "shed")})
    layers.update(_loadgen_layers(window))
    # p99 repeats too poorly to gate; it is reported from the untraced pass.
    for load in loads(untraced.phases).values():
        if load.open_loop:
            layers[f"loadgen.p99_ms_{load.label}"] = percentile_ms(load.latency, 99)
    ops = sum(p.completed for p in phases)
    untraced_ops = sum(p.completed for p in untraced.phases)
    layers.update(
        {
            "cluster.fan_out_mean": delta["fan_out_total"] / max(delta["routed"], 1),
            "cluster.refreshes": delta["refreshes"],
            "wal.records": delta["wal_records"],
            "wal.bytes_per_observation": delta["wal_bytes"] / max(window.feedback_observations, 1),
            "adaptive.responses": report.responses if report else 0,
            "adaptive.explored_cells": report.explored_cells if report else 0,
            "adaptive.invalidated_rows": report.invalidated_rows if report else 0,
            "serving.non_default_share": sum(p.non_default for p in phases) / max(ops, 1),
            "trace.overhead_ratio": busy_per_op(window.wall, window.idle, ops)
            / busy_per_op(untraced.wall, untraced.idle, untraced_ops),
        }
    )
    out.layers = layers
    out.recorder = recorder
    deployment.close()


def read_streams(seed: int, seconds: float, sizes: np.ndarray) -> List[inputs.Arrivals]:
    streams = []
    for index, (_, rate, share) in enumerate(READ_PHASES):
        rng = inputs.stream(seed, 10 + index)
        if rate is None:
            streams.append(inputs.closed(rng, CLOSED_STREAM, sizes))
        else:
            streams.append(inputs.poisson(rng, rate, share * seconds, sizes))
    return streams


def run_read(seed: int, seconds: float, scale: float, traced: bool, work_dir: str) -> Outcome:
    out = Outcome()
    deployment, setup_s = timed_setup(seed, scale, None, adaptive=False)
    streams = read_streams(seed, seconds, sizes_of(deployment))
    body = read_window(deployment, streams, seconds)
    window = measure_idle(body) if traced else measure(body)
    phases = window.phases
    cluster, names = deployment.cluster, deployment.names

    # Byte-identical replay of every answered arrival through the sync path.
    replay_ok = True
    for p in phases:
        rows = np.flatnonzero(p.answered)
        tenants = [names[t] for t in p.arrivals.tenant[rows].tolist()]
        replay = cluster.serve_mixed(list(zip(tenants, p.arrivals.query[rows].tolist())))
        replay_ok &= (
            replay.hints.tobytes() == p.hints[rows].tobytes()
            and replay.used_default.tobytes() == p.used_default[rows].tobytes()
            and replay.expected_latency.tobytes() == p.expected[rows].tobytes()
        )
    out.check("decisions_match_sync_replay", replay_ok)
    out.check(
        "never_worse_than_default",
        all(
            never_worse_than_default(
                cluster,
                names,
                p.arrivals.tenant[p.answered],
                p.arrivals.query[p.answered],
                p.hints[p.answered],
            )
            for p in phases
        ),
    )
    _failures(out, phases)

    open_phases = [p for p in phases if p.late.size]
    by_label = loads(phases)
    capacity = max(p.achieved_rps for p in phases if p.label == "closed")
    latency = np.concatenate([p.latency for p in open_phases])
    quality = latency_ratio(
        deployment.truth,
        names,
        np.concatenate([p.arrivals.tenant for p in open_phases]),
        np.concatenate([p.arrivals.query for p in open_phases]),
        np.concatenate([p.hints for p in open_phases]),
        deployment.default_hint,
    )
    out.metrics = {
        "setup_s": setup_s,
        "latency_ms": percentile_ms(latency, 50),
        "throughput_per_s": capacity,
        "quality_ratio": quality,
    }
    out.report = [row for load in by_label.values() for row in _load_report(load)]
    out.report += [
        ("p50_ms_open_loop", out.metrics["latency_ms"], "ms", latency.size),
        ("capacity_rps", capacity, "1/s", READ_ROUNDS * 2),
        ("served_latency_ratio", quality, "ratio", latency.size),
        ("setup_s", setup_s, "s", SETUP_REPEATS),
    ]
    deployment.close()
    if traced:
        traced_pass(
            out,
            lambda d: read_window(d, streams, seconds),
            lambda: deploy(seed, scale, None, adaptive=False),
            window,
        )
    return out


def feedback_inputs(seed: int, seconds: float, deployment: Deployment):
    arrivals = inputs.poisson(inputs.stream(seed, 20), FEEDBACK_RATE, seconds, sizes_of(deployment))
    drift_index = int(np.searchsorted(arrivals.due, seconds / 2.0))
    rng = inputs.stream(seed, 21)
    drifted = {name: inputs.drift(deployment.truth[name], rng) for name in inputs.DRIFT_TENANTS}
    return arrivals, drift_index, drifted


def run_feedback(seed: int, seconds: float, scale: float, traced: bool, work_dir: str) -> Outcome:
    out = Outcome()
    deployment, setup_s = timed_setup(seed, scale, work_dir, adaptive=True)
    arrivals, drift_index, drifted = feedback_inputs(seed, seconds, deployment)
    body = feedback_window(deployment, arrivals, drift_index, drifted)
    window = measure_idle(body) if traced else measure(body)
    phase = window.phases[0]
    cluster, names = deployment.cluster, deployment.names

    # The serving rule on the final state: every tenant's decisions vs its matrix.
    final_ok = True
    for t, name in enumerate(names):
        decisions = cluster.serve_all(name)
        n = decisions.hints.shape[0]
        final_ok &= never_worse_than_default(
            cluster, names, np.full(n, t), decisions.queries, decisions.hints
        )
    out.check("never_worse_than_default", final_ok)
    before = exported(cluster, names)
    cluster.kill_shard(0)
    cluster.restart_shard(0)
    out.check("restart_leaves_matrices_identical", exported(cluster, names) == before)
    _failures(out, [phase])

    post = slice(drift_index, None)
    quality = latency_ratio(
        deployment.truth,
        names,
        arrivals.tenant[post],
        arrivals.query[post],
        phase.hints[post],
        deployment.default_hint,
    )
    report = deployment.controller.report()
    # Before the drift the loop runs feedback, WAL appends and warm refreshes;
    # after it, adaptation responses block the loop for up to seconds.  The
    # whole-window median sits on the knee between those two regimes and
    # does not repeat, so the gated p50 is the pre-drift one.
    steady, adapting = phase.latency[:drift_index], phase.latency[post]
    out.metrics = {
        "setup_s": setup_s,
        "latency_ms": percentile_ms(steady, 50),
        "throughput_per_s": phase.achieved_rps,
        "quality_ratio": quality,
    }
    out.report = _load_report(loads([phase])[FEEDBACK_LABEL]) + [
        ("p50_ms_steady", out.metrics["latency_ms"], "ms", steady.size),
        ("p50_ms_adapting", percentile_ms(adapting, 50), "ms", adapting.size),
        ("p99_ms_adapting", percentile_ms(adapting, 99), "ms", adapting.size),
        ("post_drift_latency_ratio", quality, "ratio", adapting.size),
        ("adaptive_responses", report.responses, "count", report.ticks),
        ("feedback_observations", window.feedback_observations, "count", 1),
        ("setup_s", setup_s, "s", SETUP_REPEATS),
    ]
    deployment.close()
    if traced:
        traced_pass(
            out,
            lambda d: feedback_window(d, arrivals, drift_index, drifted),
            lambda: deploy(seed, scale, work_dir, adaptive=True),
            window,
        )
    return out
