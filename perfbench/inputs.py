"""Seeded benchmark inputs: workload matrices and arrival streams.

Everything the program under test receives is made here from the run's
``--seed``: ground-truth latency matrices of the paper's Table-1 shapes
(x 49 hint sets), the partly explored matrices the serving cluster starts
from, Poisson arrival schedules and the mid-run data drift.  The same seed
always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.workload_matrix import WorkloadMatrix
from repro.experiments.serving import explored_matrix
from repro.workloads.matrices import SyntheticWorkload, generate_workload
from repro.workloads.shift import shift_latencies
from repro.workloads.spec import CEB_SPEC, DSB_SPEC, JOB_SPEC, STACK_SPEC, WorkloadSpec

#: The serving tenants, in the order their seeds are derived.
TENANT_SPECS = (CEB_SPEC, STACK_SPEC, JOB_SPEC, DSB_SPEC)
#: Share of non-default cells a tenant's matrix has observed when serving starts.
OBSERVED_FRACTION = 0.25
#: Data drift on serve_feedback: which tenants, what share of their rows.
DRIFT_TENANTS = ("ceb", "stack")
DRIFT_FRACTION = 0.6
DRIFT_GROWTH = 1.0


def stream(seed: int, *labels: int) -> np.random.Generator:
    """An independent random stream for one purpose of one seeded run."""
    return np.random.default_rng([seed, *labels])


def _spec(spec: WorkloadSpec, scale: float) -> WorkloadSpec:
    return spec if scale >= 1.0 else spec.scaled(scale)


def _derived_seed(seed: int, index: int) -> int:
    return int(stream(seed, 1000 + index).integers(0, 2**31 - 1))


def exploration_workload(
    spec: WorkloadSpec, seed: int, index: int, scale: float
) -> SyntheticWorkload:
    """The ``index``-th exploration workload of a seeded run."""
    return generate_workload(_spec(spec, scale), seed=_derived_seed(seed, index))


@dataclass
class Tenant:
    """One serving tenant: its ground truth and its starting matrix."""

    name: str
    truth: np.ndarray
    matrix: WorkloadMatrix


def tenants(seed: int, scale: float) -> Dict[str, Tenant]:
    """The four serving tenants (ceb, stack, job, dsb) of a seeded run."""
    out: Dict[str, Tenant] = {}
    for index, spec in enumerate(TENANT_SPECS):
        tenant_seed = _derived_seed(seed, 100 + index)
        workload = generate_workload(_spec(spec, scale), seed=tenant_seed)
        matrix = explored_matrix(
            workload, observed_fraction=OBSERVED_FRACTION, seed=tenant_seed
        )
        out[spec.name] = Tenant(spec.name, workload.true_latencies.copy(), matrix)
    return out


@dataclass
class Arrivals:
    """A request stream: tenant index and tenant-global query per arrival.

    ``due`` holds each arrival's offset in seconds from the phase start
    (open loop); a closed-loop stream has none.
    """

    tenant: np.ndarray
    query: np.ndarray
    due: np.ndarray

    def __len__(self) -> int:
        return int(self.tenant.shape[0])


def _draw(rng: np.random.Generator, n: int, sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # Tenants are drawn in proportion to their size, so every batch mixes
    # tenants and fans out across shards.
    tenant = rng.choice(sizes.shape[0], size=n, p=sizes / sizes.sum())
    query = np.minimum((rng.random(n) * sizes[tenant]).astype(np.int64), sizes[tenant] - 1)
    return tenant, query


def poisson(rng: np.random.Generator, rate: float, duration: float, sizes: np.ndarray) -> Arrivals:
    """Open-loop Poisson arrivals at ``rate`` per second for ``duration``."""
    n = max(1, int(round(rate * duration)))
    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
    tenant, query = _draw(rng, n, sizes)
    return Arrivals(tenant, query, due)


def closed(rng: np.random.Generator, n: int, sizes: np.ndarray) -> Arrivals:
    """A closed-loop request sequence (clients take the next one in turn)."""
    tenant, query = _draw(rng, n, sizes)
    return Arrivals(tenant, query, np.zeros(0))


def drift(truth: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Ground truth after the mid-run data drift of one tenant."""
    shifted, _ = shift_latencies(truth, DRIFT_FRACTION, DRIFT_GROWTH, rng)
    return shifted
