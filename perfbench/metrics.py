"""The benchmark's metric catalogue and the span-derived layer metrics.

``END_TO_END`` is printed by every untraced run and ``PER_LAYER`` by every
traced run, on every workload (``BENCHMARK.json`` lists the same names and
units; the smoke test checks they agree).  What each end-to-end metric
measures on each workload is in ``perfbench/README.md``.  A per-layer
metric of a layer a workload does not use reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from spans import LAYERS, SpanRecorder, SpanSummary

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
    "quality_ratio": "ratio",
}

#: Open-loop phases, by offered rate, that report load-generator metrics.
PHASES = ("1k", "5k", "500")

PER_LAYER: Dict[str, str] = {
    "core.als_solve_s": "s",
    "core.als_cold_solves": "count",
    "core.als_warm_solves": "count",
    "core.select_self_s": "s",
    "core.oracle_s": "s",
    "core.matrix_s": "s",
    "core.steps": "count",
    "core.cells": "count",
    "core.censored_share": "share",
    "nn.fit_s": "s",
    "nn.epochs": "count",
    "nn.predict_full_s": "s",
    "ingress.batches": "count",
    "ingress.mean_batch_size": "count",
    "ingress.mean_queue_wait_ms": "ms",
    "ingress.max_queue_wait_ms": "ms",
    "ingress.shed": "count",
    "cluster.serve_mixed_s": "s",
    "cluster.serve_mixed_calls": "count",
    "router.split_s": "s",
    "shard.serve_local_s": "s",
    "cluster.fan_out_mean": "count",
    "cluster.observe_batch_s": "s",
    "cluster.tick_s": "s",
    "cluster.tick_max_ms": "ms",
    "cluster.refreshes": "count",
    "wal.log_s": "s",
    "wal.records": "count",
    "wal.bytes_per_observation": "B",
    "adaptive.record_s": "s",
    "adaptive.tick_s": "s",
    "adaptive.tick_max_ms": "ms",
    "adaptive.responses": "count",
    "adaptive.explored_cells": "count",
    "adaptive.invalidated_rows": "count",
    "serving.non_default_share": "share",
    **{f"loadgen.p99_ms_{phase}": "ms" for phase in PHASES},
    **{f"loadgen.late_p99_ms_{phase}": "ms" for phase in PHASES},
    **{f"loadgen.achieved_rps_{phase}": "1/s" for phase in PHASES},
    "loop.background_share": "share",
    "loop.idle_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_share": "share",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``report`` rows are ``(name, value, unit, samples)`` for the human-
    readable table: the workload's own end-to-end figures under the names
    the paper's plots use, with their sample counts.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    report: List[Tuple[str, float, str, int]] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: The traced run's spans, written out when the run ends.
    recorder: Optional[SpanRecorder] = None

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed)


def busy_per_op(wall: float, idle: float, ops: int) -> float:
    """Loop time not spent waiting, per completed operation."""
    return (wall - idle) / max(ops, 1)


def span_layer_metrics(summary: SpanSummary, recorder: SpanRecorder) -> Dict[str, float]:
    """Every per-layer metric that comes straight from the traced spans."""
    s = summary
    wall = s.wall
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(
        {
            "core.als_solve_s": s.total("core.als_cold", "core.als_warm"),
            "core.als_cold_solves": s.calls("core.als_cold"),
            "core.als_warm_solves": s.calls("core.als_warm"),
            "core.select_self_s": s.self_time("core.select"),
            "core.oracle_s": s.total("core.oracle"),
            "core.matrix_s": s.total("core.matrix"),
            "nn.fit_s": s.total("nn.fit"),
            "nn.epochs": recorder.counts.get("nn.epochs", 0),
            "nn.predict_full_s": s.total("nn.predict_full"),
            "cluster.serve_mixed_s": s.total("cluster.serve_mixed"),
            "cluster.serve_mixed_calls": s.calls("cluster.serve_mixed"),
            "router.split_s": s.total("router.split"),
            "shard.serve_local_s": s.total("shard.serve_local"),
            "cluster.observe_batch_s": s.total("cluster.observe_batch"),
            "cluster.tick_s": s.total("cluster.tick"),
            "cluster.tick_max_ms": s.longest("cluster.tick") * 1e3,
            "wal.log_s": s.total("wal.log"),
            "adaptive.record_s": s.total("adaptive.record"),
            "adaptive.tick_s": s.total("adaptive.tick"),
            "adaptive.tick_max_ms": s.longest("adaptive.tick") * 1e3,
            "loop.background_share": s.total("cluster.tick", "adaptive.tick") / wall,
            "loop.idle_s": s.idle,
            "trace.wall_s": wall,
            "trace.unattributed_s": s.unattributed,
            "trace.unattributed_share": s.unattributed / wall,
        }
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = s.layer_self[layer]
        out[f"{layer}.calls"] = s.layer_calls[layer]
    return out


def percentile_ms(seconds: np.ndarray, q: float) -> float:
    """A latency percentile in ms; failed requests are +inf and count."""
    return float(np.percentile(seconds, q)) * 1e3 if seconds.size else float("inf")
