"""explore_als and explore_tcnn: Algorithm 1 run to an exploration budget.

One *loop* is one ``ExplorationSimulator.run`` of a fresh policy on one
seeded workload until the simulated exploration time reaches ``BUDGET`` x
the default workload time (the simulator's clock, so the loop's work is
fixed by the seed).  A pass runs the ``LOOPS`` fixed loops on the seed's
first workloads, then further loops on the seed's next workloads until
``--seconds`` of loop wall time have passed.

* explore_als: LimeQO (censored ALS) on a CEB-shaped 3133 x 49 matrix.
* explore_tcnn: LimeQO+ (transductive TCNN) on a JOB-shaped 113 x 49 matrix.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import List

import numpy as np

import inputs
from metrics import Outcome, busy_per_op, span_layer_metrics
from spans import Instrumentation, SpanRecorder
from repro.core.policies import ExplorationPolicy, LimeQOPolicy
from repro.core.simulation import ExplorationSimulator, ExplorationTrace
from repro.core.workload_matrix import WorkloadMatrix
from repro.experiments.runner import make_policy
from repro.workloads.spec import CEB_SPEC, JOB_SPEC

BUDGET = 2.0
SPECS = {"explore_als": CEB_SPEC, "explore_tcnn": JOB_SPEC}
#: Every pass runs at least this many loops, each on its own workload; the
#: quality figures average exactly these, so they are a fixed function of
#: the seed.  Loop times vary with the workload, so the short TCNN loops
#: pool more workloads.
LOOPS = {"explore_als": 2, "explore_tcnn": 4}
#: One set-up sample builds all ``LOOPS`` fixed loops.  This many samples
#: are taken before every loop, so they spread over the run as the loops
#: do (the machine's speed drifts over seconds); ``setup_s`` is their median.
SETUP_SAMPLES = {"explore_als": 2, "explore_tcnn": 5}

clock = time.perf_counter


@dataclass
class Built:
    simulator: ExplorationSimulator
    policy: ExplorationPolicy
    matrix: WorkloadMatrix


def build(workload_name: str, seed: int, index: int, scale: float) -> Built:
    """Generate loop ``index``'s workload and the exploration state for it."""
    workload = inputs.exploration_workload(SPECS[workload_name], seed, index, scale)
    simulator = ExplorationSimulator(workload.true_latencies)
    if workload_name == "explore_als":
        policy = LimeQOPolicy()
    else:
        policy = make_policy("limeqo+", workload)
    return Built(simulator, policy, simulator.initial_matrix())


def build_fixed(workload_name: str, seed: int, scale: float) -> List[Built]:
    return [build(workload_name, seed, i, scale) for i in range(LOOPS[workload_name])]


@dataclass
class Loop:
    wall: float
    trace: ExplorationTrace
    cells: int
    censored: int

    @property
    def steps(self) -> int:
        return len(self.trace.times) - 1

    @property
    def overhead(self) -> float:
        """The policy's model overhead over the whole loop (seconds)."""
        return float(self.trace.overheads[-1])


def explore(built: Built) -> Loop:
    """One ``ExplorationSimulator.run`` to the budget, timed as a whole."""
    simulator, matrix = built.simulator, built.matrix
    start = clock()
    trace = simulator.run(
        built.policy, time_budget=BUDGET * simulator.default_latency, matrix=matrix
    )
    wall = clock() - start
    # The run starts from the default column alone; every other known cell
    # was executed by the loop, censored or not.
    censored = int(matrix.censored_mask.sum())
    cells = int(matrix.mask.sum()) + censored - matrix.n_queries
    return Loop(wall=wall, trace=trace, cells=cells, censored=censored)


def run_pass(workload_name: str, seed: int, seconds: float, scale: float):
    """The fixed loops, then loops on the next workloads until time is up.

    Returns the loops and the set-up times sampled before each of them.
    """
    setup_s: List[float] = []

    def set_up() -> List[Built]:
        for _ in range(SETUP_SAMPLES[workload_name]):
            t0 = clock()
            fixed = build_fixed(workload_name, seed, scale)
            setup_s.append(clock() - t0)
        return fixed

    fixed = set_up()
    loops = [explore(fixed[0])]
    while len(loops) < len(fixed) or sum(loop.wall for loop in loops) < seconds:
        set_up()
        index = len(loops)
        built = fixed[index] if index < len(fixed) else build(workload_name, seed, index, scale)
        loops.append(explore(built))
    return loops, setup_s


def ratio_at(loop: Loop, factor: float) -> float:
    trace = loop.trace
    return trace.latency_at(factor * trace.default_latency) / trace.default_latency


def run(workload_name: str, seed: int, seconds: float, scale: float, traced: bool) -> Outcome:
    out = Outcome()
    loops, setup_s = run_pass(workload_name, seed, seconds, scale)

    for i, loop in enumerate(loops):
        latencies = loop.trace.latencies
        out.check(f"loop{i}.latency_never_rises", bool(np.all(np.diff(latencies) <= 0)))
        out.check(f"loop{i}.ends_at_or_below_default", latencies[-1] <= loop.trace.default_latency)
    fixed_loops = loops[: LOOPS[workload_name]]
    steps = sum(loop.steps for loop in loops)
    wall = sum(loop.wall for loop in loops)
    cells = sum(loop.cells for loop in fixed_loops)
    overhead = sum(loop.overhead for loop in loops)
    out.attempted = steps
    # The loop's time splits into the model and the rest, and each gated
    # figure covers one part: latency_ms is the paper's model overhead
    # (Figures 7 and 13), the predictor time per step from the policy's own
    # clock; throughput_per_s is steps per second of everything else
    # (selection, execution through the oracle, matrix bookkeeping).
    out.metrics = {
        "setup_s": statistics.median(setup_s),
        "latency_ms": overhead / steps * 1e3,
        "throughput_per_s": steps / (wall - overhead),
        "quality_ratio": float(np.mean([ratio_at(loop, BUDGET) for loop in fixed_loops])),
    }
    out.report = [
        ("explore_wall_s", statistics.median(loop.wall for loop in loops), "s", len(loops)),
        (
            "latency_ratio_half",
            float(np.mean([ratio_at(loop, 0.5) for loop in fixed_loops])),
            "ratio",
            len(fixed_loops),
        ),
        ("latency_ratio_end", out.metrics["quality_ratio"], "ratio", len(fixed_loops)),
        ("steps", sum(loop.steps for loop in fixed_loops), "count", len(fixed_loops)),
        ("cells", cells, "count", len(fixed_loops)),
        (
            "censored_share",
            sum(loop.censored for loop in fixed_loops) / max(cells, 1),
            "share",
            cells,
        ),
        ("overhead_per_step_ms", out.metrics["latency_ms"], "ms", steps),
        ("loop_steps_per_s_outside_model", out.metrics["throughput_per_s"], "1/s", steps),
        ("step_mean_ms", wall / steps * 1e3, "ms", steps),
        ("setup_s", out.metrics["setup_s"], "s", len(setup_s)),
    ]
    if traced:
        traced_pass(out, workload_name, seed, scale, loops)
    return out


def traced_pass(
    out: Outcome, workload_name: str, seed: int, scale: float, untraced: List[Loop]
) -> None:
    """Re-run the fixed loops with every layer call traced.

    Only the ``LOOPS`` fixed loops run, so every count in the breakdown is a
    fixed function of the seed.
    """
    recorder = SpanRecorder(clock)
    instrumentation = Instrumentation(recorder)
    instrumentation.install()
    try:
        fixed = build_fixed(workload_name, seed, scale)
        recorder.begin_window()
        loops = [explore(built) for built in fixed]
        recorder.end_window()
    finally:
        instrumentation.remove()
    summary = recorder.summarize()
    out.recorder = recorder
    out.check(
        "tracing_leaves_exploration_unchanged",
        all(
            np.array_equal(a.trace.latencies, b.trace.latencies)
            for a, b in zip(loops, untraced)
        ),
    )
    cells = sum(loop.cells for loop in loops)
    steps = sum(loop.steps for loop in loops)
    untraced_steps = sum(loop.steps for loop in untraced)
    layers = span_layer_metrics(summary, recorder)
    layers.update(
        {
            "core.steps": steps,
            "core.cells": cells,
            "core.censored_share": sum(loop.censored for loop in loops) / max(cells, 1),
            "trace.overhead_ratio": busy_per_op(summary.wall, 0.0, steps)
            / busy_per_op(sum(loop.wall for loop in untraced), 0.0, untraced_steps),
        }
    )
    out.layers = layers
