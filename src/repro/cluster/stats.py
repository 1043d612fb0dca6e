"""Cluster-wide telemetry: per-shard reports plus routing counters.

Every figure is read from the registry's counters by
:meth:`ServingCluster.stats`.  Two views of the same traffic:

* ``cluster`` -- the fold of every shard's :class:`ServingStats` through
  :meth:`ServingStats.merge` (counter sums);
* ``parallel_qps`` -- the distributed-parallel reading of throughput:
  shards are independent units, so a deployment's wall-clock for a fanned-
  out batch is its slowest shard, and aggregate throughput is total
  decisions over the *maximum* per-shard busy time (the in-process
  ``cluster.throughput_qps`` divides by the sum instead and is the
  conservative serial reading).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from ..serving.stats import ServingStats


@dataclass(frozen=True)
class ClusterStats:
    """Point-in-time report over the whole cluster.

    Attributes
    ----------
    n_shards / n_tenants / total_rows:
        Topology: shard count, registered tenants, rows across all shards.
    per_shard:
        Each shard's own :class:`ServingStats`.
    cluster:
        The merged report (per-shard counter sums).
    parallel_qps:
        Total decisions over the maximum per-shard busy time -- the
        throughput of the same shards deployed as parallel units.
    routed_batches / fan_out:
        Batches routed through the cluster and the average number of
        per-shard sub-batches each one split into.
    degraded_decisions:
        Arrivals answered with the default plan because their shard was
        down.
    shed_decisions:
        Arrivals answered with the default plan by ingress admission
        control before reaching any shard (:meth:`ServingCluster.record_shed`).
    rebalanced_rows:
        Rows migrated between shards by topology changes so far.
    scheduler_ticks / scheduler_refreshes:
        Background refresh activity.
    crashes / restarts:
        Shard processes lost (operator kill or injected fault) and shards
        recovered from their journals.
    queued_feedback / replayed_feedback:
        Observations addressed to a crashed shard that waited in the
        outage queue, and how many of them have been applied by restarts.
    """

    n_shards: int
    n_tenants: int
    total_rows: int
    per_shard: Dict[int, ServingStats]
    cluster: ServingStats
    parallel_qps: float
    routed_batches: int
    fan_out: float
    degraded_decisions: int
    rebalanced_rows: int
    scheduler_ticks: int
    scheduler_refreshes: int
    shed_decisions: int = 0
    crashes: int = 0
    restarts: int = 0
    queued_feedback: int = 0
    replayed_feedback: int = 0

    def as_dict(self) -> Dict[str, Union[int, float, Dict]]:
        """Plain nested dictionary for dashboards and benchmark JSON."""
        return {
            "n_shards": self.n_shards,
            "n_tenants": self.n_tenants,
            "total_rows": self.total_rows,
            "per_shard": {
                str(sid): stats.as_dict() for sid, stats in self.per_shard.items()
            },
            "cluster": self.cluster.as_dict(),
            "parallel_qps": self.parallel_qps,
            "routed_batches": self.routed_batches,
            "fan_out": self.fan_out,
            "degraded_decisions": self.degraded_decisions,
            "shed_decisions": self.shed_decisions,
            "rebalanced_rows": self.rebalanced_rows,
            "scheduler_ticks": self.scheduler_ticks,
            "scheduler_refreshes": self.scheduler_refreshes,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "queued_feedback": self.queued_feedback,
            "replayed_feedback": self.replayed_feedback,
        }

    def __str__(self) -> str:
        return (
            f"ClusterStats({self.n_shards} shards, {self.total_rows} rows, "
            f"{self.cluster.decisions} decisions, "
            f"parallel {self.parallel_qps:,.0f} qps, "
            f"degraded={self.degraded_decisions}, "
            f"shed={self.shed_decisions}, "
            f"rebalanced={self.rebalanced_rows})"
        )


def parallel_throughput_qps(per_shard: Dict[int, ServingStats]) -> float:
    """Total decisions over the slowest shard's busy time (parallel model)."""
    active = [s for s in per_shard.values() if s.decisions > 0]
    if not active:
        return 0.0
    slowest = max(s.wall_seconds for s in active)
    total = sum(s.decisions for s in active)
    return total / slowest if slowest > 0 else float("inf")
