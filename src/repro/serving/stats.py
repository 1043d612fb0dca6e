"""Serving-side report: throughput, hit rate, refresh and shed counts.

The counters behind it live in the metrics registry: each service (or
cluster shard) resolves one set of :class:`~repro.telemetry.ServingMetrics`
children at construction and bumps them once per batch.
:class:`ServingStats` is the immutable view :meth:`ServingStats.of` reads
from those children, so both memory and report cost stay constant over
any uptime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Union

from ..telemetry.runtime import ServingMetrics


@dataclass(frozen=True)
class ServingStats:
    """A point-in-time report over everything the service has served.

    Attributes
    ----------
    decisions / batches:
        Total queries answered and the number of batches they arrived in.
    wall_seconds:
        Total decision time (excludes caller think-time between batches).
    throughput_qps:
        ``decisions / wall_seconds``.
    non_default_fraction:
        Fraction of decisions answered with a verified non-default plan --
        the regression-guarantee hit rate (every non-default answer carries
        the no-regression guarantee).
    refreshes:
        How many model/cache refreshes ran (incremental ALS updates).
    shed:
        Arrivals answered with the default plan by admission control
        (:mod:`repro.ingress` load-shedding) instead of the decision
        arrays.  Shed answers are valid decisions -- the no-regression
        guarantee is anchored on the default plan -- but they never touch
        the snapshot, so they are counted here and *not* in ``decisions``.
    """

    decisions: int
    batches: int
    wall_seconds: float
    throughput_qps: float
    non_default_fraction: float
    refreshes: int
    shed: int = 0

    @classmethod
    def _from_counts(
        cls,
        decisions: int,
        batches: int,
        wall: float,
        non_default: int,
        refreshes: int,
        shed: int,
    ) -> "ServingStats":
        if decisions == 0:
            throughput = 0.0
        else:
            throughput = decisions / wall if wall > 0 else float("inf")
        return cls(
            decisions=int(decisions),
            batches=int(batches),
            wall_seconds=float(wall),
            throughput_qps=throughput,
            non_default_fraction=non_default / decisions if decisions else 0.0,
            refreshes=int(refreshes),
            shed=int(shed),
        )

    @classmethod
    def of(cls, metrics: ServingMetrics) -> "ServingStats":
        """Read the report from one label's registry children."""
        return cls._from_counts(
            decisions=int(metrics.decisions.value),
            batches=int(metrics.batches.value),
            wall=metrics.wall_seconds.value,
            non_default=int(metrics.non_default.value),
            refreshes=int(metrics.refreshes.value),
            shed=int(metrics.shed.value),
        )

    @classmethod
    def merge(cls, parts: Iterable["ServingStats"]) -> "ServingStats":
        """Fold per-shard reports into one cluster-wide report.

        Every field is a counter sum; throughput and the hit rate are
        recomputed from the summed counters.
        """
        parts = list(parts)
        return cls._from_counts(
            decisions=sum(p.decisions for p in parts),
            batches=sum(p.batches for p in parts),
            wall=sum(p.wall_seconds for p in parts),
            non_default=sum(
                round(p.non_default_fraction * p.decisions) for p in parts
            ),
            refreshes=sum(p.refreshes for p in parts),
            shed=sum(p.shed for p in parts),
        )

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """Plain dictionary for dashboards and log lines.

        Counters (``decisions``, ``batches``, ``refreshes``, ``shed``) stay
        integers; only the genuinely continuous fields are floats.
        """
        return {
            "decisions": int(self.decisions),
            "batches": int(self.batches),
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "non_default_fraction": self.non_default_fraction,
            "refreshes": int(self.refreshes),
            "shed": int(self.shed),
        }

    def __str__(self) -> str:
        return (
            f"ServingStats({self.decisions} decisions in {self.batches} batches, "
            f"{self.throughput_qps:,.0f} qps, "
            f"hit_rate={self.non_default_fraction:.1%}, "
            f"refreshes={self.refreshes}, "
            f"shed={self.shed})"
        )
