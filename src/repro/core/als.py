"""Censored Alternating Least Squares (paper Algorithm 2).

Completes the workload matrix ``W ≈ Q Hᵀ`` under a rank constraint, a ridge
penalty, non-negativity projection of the factors, and the *censored*
technique: predictions for timed-out entries are clamped up to their
timeout lower bound between factor updates, so the solver is penalised for
under-estimating a censored latency but never for (potentially correct)
over-estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..config import ALSConfig
from ..errors import CompletionError


@dataclass
class CensoredALSResult:
    """Output of :func:`censored_als`.

    Attributes
    ----------
    completed:
        The completed matrix: observed values where known, ``Q Hᵀ``
        predictions elsewhere (clamped to censored lower bounds).
    query_factors / hint_factors:
        The ``n x r`` and ``k x r`` factor matrices (``Q`` and ``H``).
    objective_trace:
        Masked squared-error objective after each iteration; useful for
        convergence diagnostics and tests.
    """

    completed: np.ndarray
    query_factors: np.ndarray
    hint_factors: np.ndarray
    objective_trace: np.ndarray

    @property
    def low_rank_estimate(self) -> np.ndarray:
        """The pure ``Q Hᵀ`` product without observed-value substitution."""
        return self.query_factors @ self.hint_factors.T

    @property
    def factors(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(Q, H)`` pair, ready to pass as ``warm_start`` to the next solve."""
        return (self.query_factors, self.hint_factors)


def _baseline_factors(
    observed: np.ndarray,
    mask: np.ndarray,
    known: np.ndarray,
    obs_vals: np.ndarray,
    rank: int,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cold-start ``(Q, H)``: the rank-1 multiplicative baseline plus noise.

    The first factor pair encodes the rank-1 multiplicative baseline (per-row
    scale x per-column ratio-to-row-mean), which is what collaborative
    filtering systems use as their bias term.  The remaining factors start
    near zero and learn residual structure.  This makes the fill-in
    iteration useful even when only a few percent of the matrix is observed
    (the cold-start regime of offline exploration).
    """
    n, k = observed.shape
    rng = np.random.default_rng(seed)
    observed_filled = np.where(known, observed, 0.0)
    mean_value = float(obs_vals.mean())
    row_counts = mask.sum(axis=1)
    row_means = np.where(
        row_counts > 0,
        (observed_filled * mask).sum(axis=1) / np.maximum(row_counts, 1.0),
        mean_value,
    )
    ratio_matrix = np.where(
        known, observed_filled / np.maximum(row_means[:, None], 1e-9), 0.0
    )
    column_counts = mask.sum(axis=0)
    column_ratios = np.where(
        column_counts > 0,
        ratio_matrix.sum(axis=0) / np.maximum(column_counts, 1.0),
        1.0,
    )
    query_factors = rng.random((n, rank)) * 1e-2
    hint_factors = rng.random((k, rank)) * 1e-2
    query_factors[:, 0] = np.maximum(row_means, 1e-9)
    hint_factors[:, 0] = np.maximum(column_ratios, 1e-9)
    return query_factors, hint_factors


def _checked_warm_start(
    warm_start: Tuple[np.ndarray, np.ndarray], n: int, k: int, rank: int
) -> Tuple[np.ndarray, np.ndarray]:
    warm_q, warm_h = (np.asarray(f, dtype=float) for f in warm_start)
    if warm_q.ndim != 2 or warm_h.ndim != 2:
        raise CompletionError("warm_start factors must be 2-D arrays")
    if warm_q.shape[1] != rank or warm_h.shape[1] != rank:
        raise CompletionError(
            f"warm_start rank {warm_q.shape[1]}x{warm_h.shape[1]} does not "
            f"match solver rank {rank}"
        )
    if warm_q.shape[0] > n or warm_h.shape[0] > k:
        raise CompletionError(
            "warm_start factors have more rows than the matrix; shrinkage "
            "is not supported"
        )
    return warm_q, warm_h


def censored_als(
    observed: np.ndarray,
    mask: np.ndarray,
    timeouts: Optional[np.ndarray] = None,
    config: Optional[ALSConfig] = None,
    warm_start: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    iterations: Optional[int] = None,
) -> CensoredALSResult:
    """Run Algorithm 2 and return the completed matrix and factors.

    Parameters
    ----------
    observed:
        ``n x k`` matrix; entries where ``mask == 1`` must be finite
        latencies, other entries are ignored (may be ``inf``).
    mask:
        ``n x k`` 0/1 matrix of completed observations.
    timeouts:
        ``n x k`` matrix of censored lower bounds (0 where not censored);
        positive entries must be finite.  Ignored when ``config.censored``
        is False.
    config:
        Hyper-parameters; defaults to ``ALSConfig()``: the paper's ``r=5``
        and ``λ=0.2`` with 15 iterations (see :class:`~repro.config.ALSConfig`).
    warm_start:
        Optional ``(Q, H)`` factor pair from a previous solve (see
        :attr:`CensoredALSResult.factors`).  Rows beyond the warm factors'
        extent (queries that arrived since) keep the cold-start baseline
        initialisation, so the workload may have grown in between.  A warm
        start that covers every row and every column skips the baseline
        initialisation altogether (its result would be overwritten), so
        such a solve depends neither on ``config.seed`` nor on unobserved
        entries.  Warm starts are what make incremental serving-time
        refreshes cheap: a few fill-in iterations recover the optimum
        instead of a full solve.
    iterations:
        Optional override of ``config.iterations`` (used by incremental
        refreshes without rebuilding the config).
    """
    config = config or ALSConfig()
    observed = np.asarray(observed, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if observed.ndim != 2:
        raise CompletionError(f"observed matrix must be 2-D, got shape {observed.shape}")
    if mask.shape != observed.shape:
        raise CompletionError(
            f"mask shape {mask.shape} does not match observed shape {observed.shape}"
        )
    if timeouts is not None:
        timeouts = np.asarray(timeouts, dtype=float)
        if timeouts.shape != observed.shape:
            raise CompletionError(
                f"timeout shape {timeouts.shape} does not match observed shape "
                f"{observed.shape}"
            )

    # The observed and censored index sets are fixed for the whole solve.
    # Flat (row-major) indices let every fill-in be two 1-D scatters into the
    # completed matrix -- no full n x k temporaries.  The mask is interpreted
    # as binary (any positive entry means observed), which is the contract
    # every caller already follows.
    known = mask > 0
    obs_flat = np.flatnonzero(known)
    if obs_flat.size == 0:
        raise CompletionError("cannot run ALS with an empty observation mask")
    obs_vals = np.ravel(observed).take(obs_flat)
    if not np.isfinite(obs_vals).all():
        raise CompletionError("observed entries must be finite where mask == 1")
    if timeouts is None or not config.censored:
        cen_flat = np.empty(0, dtype=np.intp)
        cen_vals = np.empty(0)
    else:
        cen_flat = np.flatnonzero(timeouts > 0)
        cen_vals = np.ravel(timeouts).take(cen_flat)
        if not np.isfinite(cen_vals).all():
            raise CompletionError("censored lower bounds must be finite where timeouts > 0")

    n, k = observed.shape
    rank = min(config.rank, n, k)
    n_iterations = config.iterations if iterations is None else int(iterations)
    if n_iterations < 1:
        raise CompletionError(f"iterations must be >= 1, got {n_iterations}")

    warm = None if warm_start is None else _checked_warm_start(warm_start, n, k, rank)
    if warm is not None and warm[0].shape[0] == n and warm[1].shape[0] == k:
        # A full-extent warm start would overwrite the whole baseline.  The
        # copies are C-ordered like the baseline arrays, so every BLAS call
        # sees the operand layouts it always has.
        query_factors, hint_factors = (np.array(f, order="C") for f in warm)
    else:
        query_factors, hint_factors = _baseline_factors(
            observed, mask, known, obs_vals, rank, config.seed
        )
        if warm is not None:
            query_factors[: warm[0].shape[0]] = warm[0]
            hint_factors[: warm[1].shape[0]] = warm[1]

    reg = config.regularization * np.eye(rank)
    objective_trace = []

    # Every ``Q Hᵀ`` product is written straight into ``completed`` and then
    # filled in place through its flat view.
    completed = np.empty((n, k))
    completed_flat = completed.reshape(-1)

    def _fill_in() -> None:
        """``completed`` <- observed values where known, censored-clamped
        ``Q Hᵀ`` elsewhere (Algorithm 2 lines 4-5 and 9-10)."""
        completed_flat[obs_flat] = obs_vals
        if cen_flat.size:
            completed_flat[cen_flat] = np.maximum(
                completed_flat.take(cen_flat), cen_vals
            )

    np.matmul(query_factors, hint_factors.T, out=completed)
    for _ in range(n_iterations):
        _fill_in()
        gram_h = hint_factors.T @ hint_factors + reg
        # ``A @ inv(G)`` for symmetric G is ``solve(G, A.T).T``: one
        # Cholesky/LU factorisation instead of a full matrix inverse.
        query_factors = np.linalg.solve(gram_h, (completed @ hint_factors).T).T
        if config.nonnegative:
            np.maximum(query_factors, 0.0, out=query_factors)

        np.matmul(query_factors, hint_factors.T, out=completed)
        _fill_in()
        gram_q = query_factors.T @ query_factors + reg
        hint_factors = np.linalg.solve(gram_q, (completed.T @ query_factors).T).T
        if config.nonnegative:
            np.maximum(hint_factors, 0.0, out=hint_factors)

        # The product for the objective doubles as the next iteration's
        # (and the final) fill-in estimate; the objective reads it before
        # the fill overwrites the observed cells.
        np.matmul(query_factors, hint_factors.T, out=completed)
        residual = obs_vals - completed_flat.take(obs_flat)
        objective = float((residual ** 2).sum())
        objective_trace.append(objective)
        if config.tol > 0 and len(objective_trace) >= 2:
            previous = objective_trace[-2]
            if previous <= 0:
                break
            if (previous - objective) / previous < config.tol:
                break

    _fill_in()
    return CensoredALSResult(
        completed=completed,
        query_factors=query_factors,
        hint_factors=hint_factors,
        objective_trace=np.asarray(objective_trace),
    )
