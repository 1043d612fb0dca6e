"""Equivalence of the optimised censored-ALS solver against two references.

``_reference_censored_als`` below is a line-for-line copy of the solver as
it stood *before* the first performance pass (matrix inverse instead of
``np.linalg.solve``, full-matrix blend-and-copy fill-in, objective summed
over the whole masked matrix).  A hypothesis property asserts the
optimised solver reproduces the reference's factors, completion, and
objective trace within ``1e-8`` across random shapes, masks, censored
cells, and warm starts.

``_buffered_censored_als`` is a verbatim copy of the solver before its
per-call set-up was trimmed (a full validation pass, the cold baseline
computed even when a warm start overwrites all of it, 2-D index sets, a
separate estimate buffer copied into the completion).  That rewrite
changed no arithmetic, so the second property demands *exact* equality:
exploration is chaotic in the last bit, and any drift would change which
cells get explored.
"""

from typing import Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ALSConfig
from repro.core.als import CensoredALSResult, censored_als
from repro.errors import CompletionError


def _reference_censored_als(observed, mask, timeouts, config, warm_start=None,
                            iterations=None):
    """The pre-optimisation solver (Algorithm 2), kept verbatim for tests."""
    observed = np.asarray(observed, dtype=float)
    mask = np.asarray(mask, dtype=float)
    timeouts = np.asarray(timeouts, dtype=float)
    if not config.censored:
        timeouts = np.zeros_like(timeouts)
    n, k = observed.shape
    rank = min(config.rank, n, k)
    rng = np.random.default_rng(config.seed)

    observed_filled = np.where(mask > 0, observed, 0.0)
    mean_value = float(observed_filled[mask > 0].mean()) if mask.sum() else 1.0
    row_counts = mask.sum(axis=1)
    row_means = np.where(
        row_counts > 0,
        (observed_filled * mask).sum(axis=1) / np.maximum(row_counts, 1.0),
        mean_value,
    )
    ratio_matrix = np.where(
        mask > 0, observed_filled / np.maximum(row_means[:, None], 1e-9), 0.0
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

    if warm_start is not None:
        warm_q, warm_h = warm_start
        query_factors[: warm_q.shape[0]] = warm_q
        hint_factors[: warm_h.shape[0]] = warm_h

    n_iterations = config.iterations if iterations is None else int(iterations)
    reg = config.regularization * np.eye(rank)
    objective_trace = []

    def _apply_censoring(estimate):
        censored = timeouts > 0
        if not censored.any():
            return estimate
        clamped = estimate.copy()
        clamped[censored] = np.maximum(clamped[censored], timeouts[censored])
        return clamped

    def _fill(current_q, current_h):
        estimate = mask * observed_filled + (1.0 - mask) * (current_q @ current_h.T)
        return _apply_censoring(estimate)

    for _ in range(n_iterations):
        completed = _fill(query_factors, hint_factors)
        gram_h = hint_factors.T @ hint_factors + reg
        query_factors = completed @ hint_factors @ np.linalg.inv(gram_h)
        if config.nonnegative:
            np.maximum(query_factors, 0.0, out=query_factors)

        completed = _fill(query_factors, hint_factors)
        gram_q = query_factors.T @ query_factors + reg
        hint_factors = completed.T @ query_factors @ np.linalg.inv(gram_q)
        if config.nonnegative:
            np.maximum(hint_factors, 0.0, out=hint_factors)

        estimate = query_factors @ hint_factors.T
        residual = mask * (observed_filled - estimate)
        objective_trace.append(float((residual ** 2).sum()))

    completed = _fill(query_factors, hint_factors)
    return completed, query_factors, hint_factors, np.asarray(objective_trace)


def _close(a, b, scale=1.0):
    return np.allclose(a, b, rtol=1e-8, atol=1e-8 * max(scale, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=14),
    k=st.integers(min_value=3, max_value=10),
    rank=st.integers(min_value=1, max_value=4),
    iterations=st.integers(min_value=1, max_value=12),
    regularization=st.floats(min_value=0.05, max_value=1.0),
    nonnegative=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_optimised_solver_matches_reference(
    n, k, rank, iterations, regularization, nonnegative, seed, data
):
    rng = np.random.default_rng(seed)
    true_rank = min(rank + 1, n, k)
    truth = rng.gamma(2.0, 1.0, (n, true_rank)) @ rng.gamma(2.0, 1.0, (k, true_rank)).T

    mask = (rng.random((n, k)) < data.draw(st.floats(0.3, 0.9))).astype(float)
    mask[:, 0] = 1.0  # default column always observed (library invariant)

    timeouts = np.zeros_like(truth)
    n_censored = data.draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_censored):
        i = int(rng.integers(n))
        j = int(rng.integers(1, k))
        mask[i, j] = 0.0
        timeouts[i, j] = truth[i, j] * float(rng.uniform(0.5, 2.0))

    # The nonnegative clamp makes long trajectories chaotic: a one-ulp
    # difference between ``solve`` and ``inv`` flips whether a factor near
    # zero clamps, and the divergence then grows ~40x per iteration.  Cap
    # the compared trajectory in the clamped case -- every iteration's
    # algebra is still exercised, just not the chaotic amplification.
    if nonnegative:
        iterations = min(iterations, 5)
    config = ALSConfig(
        rank=rank,
        regularization=regularization,
        iterations=iterations,
        nonnegative=nonnegative,
        seed=seed % 17,
    )

    result = censored_als(truth, mask, timeouts, config)
    ref_completed, ref_q, ref_h, ref_trace = _reference_censored_als(
        truth, mask, timeouts, config
    )

    scale = float(np.abs(truth).max())
    assert _close(result.completed, ref_completed, scale)
    assert _close(result.query_factors, ref_q, scale)
    assert _close(result.hint_factors, ref_h, scale)
    assert _close(result.objective_trace, ref_trace, scale ** 2 * mask.sum())

    # Warm-start case: continue both solvers from the optimised factors.
    warm = result.factors
    warm_result = censored_als(
        truth, mask, timeouts, config, warm_start=warm, iterations=3
    )
    ref_warm = _reference_censored_als(
        truth, mask, timeouts, config, warm_start=warm, iterations=3
    )
    assert _close(warm_result.completed, ref_warm[0], scale)
    assert _close(warm_result.query_factors, ref_warm[1], scale)
    assert _close(warm_result.hint_factors, ref_warm[2], scale)
    assert _close(warm_result.objective_trace, ref_warm[3], scale ** 2 * mask.sum())


def _buffered_validate_inputs(
    observed: np.ndarray, mask: np.ndarray, timeouts: Optional[np.ndarray]
) -> np.ndarray:
    observed = np.asarray(observed, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if observed.ndim != 2:
        raise CompletionError(f"observed matrix must be 2-D, got shape {observed.shape}")
    if mask.shape != observed.shape:
        raise CompletionError(
            f"mask shape {mask.shape} does not match observed shape {observed.shape}"
        )
    if timeouts is None:
        timeouts = np.zeros_like(observed)
    timeouts = np.asarray(timeouts, dtype=float)
    if timeouts.shape != observed.shape:
        raise CompletionError(
            f"timeout shape {timeouts.shape} does not match observed shape {observed.shape}"
        )
    if mask.sum() == 0:
        raise CompletionError("cannot run ALS with an empty observation mask")
    masked_values = observed[mask > 0]
    if not np.all(np.isfinite(masked_values)):
        raise CompletionError("observed entries must be finite where mask == 1")
    return timeouts


def _buffered_censored_als(
    observed: np.ndarray,
    mask: np.ndarray,
    timeouts: Optional[np.ndarray] = None,
    config: Optional[ALSConfig] = None,
    warm_start: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    iterations: Optional[int] = None,
) -> CensoredALSResult:
    """The solver before its set-up was trimmed, kept verbatim for tests."""
    config = config or ALSConfig()
    timeouts = _buffered_validate_inputs(observed, mask, timeouts)
    if not config.censored:
        timeouts = np.zeros_like(timeouts)

    mask = np.asarray(mask, dtype=float)
    n, k = observed.shape
    rank = min(config.rank, n, k)
    rng = np.random.default_rng(config.seed)

    observed_filled = np.where(mask > 0, observed, 0.0)
    # Initialisation: the first factor pair encodes the rank-1 multiplicative
    # baseline (per-row scale x per-column ratio-to-row-mean), which is what
    # collaborative filtering systems use as their bias term.  The remaining
    # factors start near zero and learn residual structure.  This makes the
    # fill-in iteration useful even when only a few percent of the matrix is
    # observed (the cold-start regime of offline exploration).
    mean_value = float(observed_filled[mask > 0].mean()) if mask.sum() else 1.0
    row_counts = mask.sum(axis=1)
    row_means = np.where(
        row_counts > 0,
        (observed_filled * mask).sum(axis=1) / np.maximum(row_counts, 1.0),
        mean_value,
    )
    ratio_matrix = np.where(
        mask > 0, observed_filled / np.maximum(row_means[:, None], 1e-9), 0.0
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

    if warm_start is not None:
        warm_q, warm_h = warm_start
        warm_q = np.asarray(warm_q, dtype=float)
        warm_h = np.asarray(warm_h, dtype=float)
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
        query_factors[: warm_q.shape[0]] = warm_q
        hint_factors[: warm_h.shape[0]] = warm_h

    n_iterations = config.iterations if iterations is None else int(iterations)
    if n_iterations < 1:
        raise CompletionError(f"iterations must be >= 1, got {n_iterations}")

    reg = config.regularization * np.eye(rank)
    objective_trace = []

    # Hot-loop precomputation: the observed and censored index sets are
    # fixed for the whole solve, so the per-half-iteration fill-in reduces
    # to one BLAS matmul into a preallocated buffer plus two fancy-indexed
    # scatters -- no full n x k temporaries.  The mask is interpreted as
    # binary (any positive entry means observed), which is the contract
    # every caller already follows.
    obs_rows, obs_cols = np.nonzero(mask > 0)
    obs_vals = observed_filled[obs_rows, obs_cols]
    cen_rows, cen_cols = np.nonzero(timeouts > 0)
    cen_vals = timeouts[cen_rows, cen_cols]

    estimate = np.empty((n, k))
    completed = np.empty((n, k))

    def _fill_from_estimate() -> None:
        """``completed`` <- observed values where known, censored-clamped
        ``estimate`` elsewhere (Algorithm 2 lines 4-5 and 9-10)."""
        np.copyto(completed, estimate)
        completed[obs_rows, obs_cols] = obs_vals
        if cen_rows.size:
            completed[cen_rows, cen_cols] = np.maximum(
                completed[cen_rows, cen_cols], cen_vals
            )

    np.matmul(query_factors, hint_factors.T, out=estimate)
    for _ in range(n_iterations):
        _fill_from_estimate()
        gram_h = hint_factors.T @ hint_factors + reg
        # ``A @ inv(G)`` for symmetric G is ``solve(G, A.T).T``: one
        # Cholesky/LU factorisation instead of a full matrix inverse.
        query_factors = np.linalg.solve(gram_h, (completed @ hint_factors).T).T
        if config.nonnegative:
            np.maximum(query_factors, 0.0, out=query_factors)

        np.matmul(query_factors, hint_factors.T, out=estimate)
        _fill_from_estimate()
        gram_q = query_factors.T @ query_factors + reg
        hint_factors = np.linalg.solve(gram_q, (completed.T @ query_factors).T).T
        if config.nonnegative:
            np.maximum(hint_factors, 0.0, out=hint_factors)

        # The product for the objective doubles as the next iteration's
        # (and the final) fill-in estimate.
        np.matmul(query_factors, hint_factors.T, out=estimate)
        residual = obs_vals - estimate[obs_rows, obs_cols]
        objective = float((residual ** 2).sum())
        objective_trace.append(objective)
        if config.tol > 0 and len(objective_trace) >= 2:
            previous = objective_trace[-2]
            if previous <= 0:
                break
            if (previous - objective) / previous < config.tol:
                break

    _fill_from_estimate()
    return CensoredALSResult(
        completed=completed,
        query_factors=query_factors,
        hint_factors=hint_factors,
        objective_trace=np.asarray(objective_trace),
    )


@st.composite
def _als_case(draw):
    """A random solve: shape, mask, censored cells (some overlapping the
    mask), memory layout, config and warm-start extent."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=2, max_value=16))
    k = draw(st.integers(min_value=2, max_value=10))
    rank = draw(st.integers(min_value=1, max_value=5))
    solver_rank = min(rank, n, k)
    truth = rng.gamma(2.0, 1.0, (n, solver_rank + 1)) @ rng.gamma(
        2.0, 1.0, (k, solver_rank + 1)
    ).T

    mask = (rng.random((n, k)) < draw(st.floats(0.1, 0.9))).astype(float)
    timeouts = np.zeros_like(truth)
    censored = rng.random((n, k)) < draw(st.floats(0.0, 0.4))
    timeouts[censored] = truth[censored] * rng.uniform(0.5, 2.0, int(censored.sum()))
    if draw(st.booleans()):  # otherwise some censored cells stay observed too
        mask[censored] = 0.0
    mask[int(rng.integers(n)), int(rng.integers(k))] = 1.0  # never empty
    observed = np.where(mask > 0, truth, np.inf)  # unobserved cells are ignored

    if draw(st.booleans()):
        observed, mask, timeouts = (
            np.asfortranarray(a) for a in (observed, mask, timeouts)
        )

    config = ALSConfig(
        rank=rank,
        regularization=draw(st.floats(min_value=0.01, max_value=1.0)),
        iterations=draw(st.integers(min_value=1, max_value=12)),
        nonnegative=draw(st.booleans()),
        censored=draw(st.booleans()),
        tol=draw(st.sampled_from([0.0, 1e-3, 0.05])),
        seed=draw(st.integers(min_value=0, max_value=100)),
    )

    warm = draw(st.sampled_from(["none", "full", "rows", "hints", "both"]))
    warm_start = None
    if warm != "none":
        n_warm = n - (draw(st.integers(1, n - 1)) if warm in ("rows", "both") else 0)
        k_warm = k - (draw(st.integers(1, k - 1)) if warm in ("hints", "both") else 0)
        scale = float(np.sqrt(truth.mean() / solver_rank))
        # Factors come back from a solve as transposed (Fortran) views.
        warm_start = (
            rng.gamma(2.0, scale / 2.0, (solver_rank, n_warm)).T,
            rng.gamma(2.0, scale / 2.0, (k_warm, solver_rank)),
        )
    iterations = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
    return observed, mask, timeouts, config, warm_start, iterations


@settings(max_examples=150, deadline=None)
@given(case=_als_case())
def test_solver_is_bit_identical_to_buffered_solver(case):
    observed, mask, timeouts, config, warm_start, iterations = case
    result = censored_als(
        observed, mask, timeouts, config, warm_start=warm_start, iterations=iterations
    )
    expected = _buffered_censored_als(
        observed, mask, timeouts, config, warm_start=warm_start, iterations=iterations
    )
    assert np.array_equal(result.completed, expected.completed)
    assert np.array_equal(result.query_factors, expected.query_factors)
    assert np.array_equal(result.hint_factors, expected.hint_factors)
    assert np.array_equal(result.objective_trace, expected.objective_trace)
