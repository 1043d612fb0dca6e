"""Tests for censored alternating least squares (Algorithm 2)."""

import numpy as np
import pytest

from repro.config import ALSConfig
from repro.core.als import censored_als
from repro.errors import CompletionError


def low_rank_matrix(n=30, k=12, rank=3, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.gamma(2.0, 1.0, size=(n, rank))
    h = rng.gamma(2.0, 1.0, size=(k, rank))
    return q @ h.T


def random_mask(shape, fill, seed=0):
    rng = np.random.default_rng(seed)
    mask = (rng.random(shape) < fill).astype(float)
    mask[:, 0] = 1.0  # default column always observed
    return mask


def test_completes_exactly_observed_entries():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    result = censored_als(truth, mask, config=ALSConfig(rank=3, iterations=30))
    observed = mask > 0
    assert np.allclose(result.completed[observed], truth[observed])


def test_recovers_unobserved_entries_of_low_rank_matrix():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.6, seed=1)
    result = censored_als(truth, mask, config=ALSConfig(rank=3, iterations=40))
    unobserved = mask == 0
    rel_err = np.abs(result.completed[unobserved] - truth[unobserved]) / truth[unobserved]
    assert np.median(rel_err) < 0.3


def test_factors_have_requested_rank_and_are_nonnegative():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    config = ALSConfig(rank=4, iterations=10)
    result = censored_als(truth, mask, config=config)
    assert result.query_factors.shape == (truth.shape[0], 4)
    assert result.hint_factors.shape == (truth.shape[1], 4)
    assert (result.query_factors >= 0).all()
    assert (result.hint_factors >= 0).all()
    assert result.low_rank_estimate.shape == truth.shape


def test_nonnegativity_can_be_disabled():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    config = ALSConfig(rank=3, iterations=10, nonnegative=False)
    result = censored_als(truth, mask, config=config)
    # Without the projection, at least some factor entries may go negative;
    # the completion must still reproduce observed entries.
    assert np.allclose(result.completed[mask > 0], truth[mask > 0])


def test_censored_entries_respect_lower_bounds():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.4, seed=2)
    timeouts = np.zeros_like(truth)
    censored_cells = [(1, 3), (5, 7), (10, 2)]
    for i, j in censored_cells:
        mask[i, j] = 0.0
        timeouts[i, j] = truth[i, j] * 2.0  # a bound above the natural value
    result = censored_als(truth, mask, timeouts, ALSConfig(rank=3, iterations=20))
    for i, j in censored_cells:
        assert result.completed[i, j] >= timeouts[i, j] - 1e-9


def test_censoring_disabled_ignores_timeouts():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.4, seed=2)
    timeouts = np.zeros_like(truth)
    timeouts[2, 2] = truth[2, 2] * 10
    mask[2, 2] = 0.0
    config = ALSConfig(rank=3, iterations=20, censored=False)
    result = censored_als(truth, mask, timeouts, config)
    assert result.completed[2, 2] < timeouts[2, 2]


def test_objective_trace_is_recorded_and_mostly_decreasing():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    result = censored_als(truth, mask, config=ALSConfig(rank=3, iterations=15))
    trace = result.objective_trace
    assert len(trace) == 15
    assert trace[-1] <= trace[0]


def test_shape_validation():
    truth = low_rank_matrix()
    with pytest.raises(CompletionError):
        censored_als(truth, np.ones((3, 3)))
    with pytest.raises(CompletionError):
        censored_als(truth, np.zeros_like(truth))
    with pytest.raises(CompletionError):
        censored_als(truth, np.ones_like(truth), np.zeros((2, 2)))


def test_observed_entries_must_be_finite():
    truth = low_rank_matrix()
    truth[0, 0] = np.inf
    with pytest.raises(CompletionError):
        censored_als(truth, np.ones_like(truth))


def test_rank_capped_by_matrix_dimensions():
    truth = low_rank_matrix(n=6, k=4, rank=2)
    mask = np.ones_like(truth)
    result = censored_als(truth, mask, config=ALSConfig(rank=10, iterations=5))
    assert result.query_factors.shape[1] == 4


def test_reproducible_for_fixed_seed():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    config = ALSConfig(rank=3, iterations=10, seed=123)
    a = censored_als(truth, mask, config=config)
    b = censored_als(truth, mask, config=config)
    assert np.allclose(a.completed, b.completed)


def test_tol_early_stop_shortens_trace():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    full = censored_als(truth, mask, config=ALSConfig(rank=3, iterations=40))
    early = censored_als(
        truth, mask, config=ALSConfig(rank=3, iterations=40, tol=0.05)
    )
    assert len(early.objective_trace) < len(full.objective_trace)
    # The factor trajectory up to the stopping point is identical.
    stop = len(early.objective_trace)
    assert np.allclose(early.objective_trace, full.objective_trace[:stop])


def test_tol_zero_never_stops_early():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    result = censored_als(truth, mask, config=ALSConfig(rank=3, iterations=25))
    assert len(result.objective_trace) == 25


def test_tol_validation():
    with pytest.raises(Exception):
        ALSConfig(tol=-0.1)


def test_warm_start_with_fewer_iterations_refines_cold_result():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    config = ALSConfig(rank=3, iterations=30)
    cold = censored_als(truth, mask, config=config)
    warm = censored_als(
        truth, mask, config=config, warm_start=cold.factors, iterations=2
    )
    assert len(warm.objective_trace) == 2
    # Restarting from converged factors must not blow the objective back up.
    assert warm.objective_trace[-1] <= cold.objective_trace[-1] * 1.05


def test_full_extent_warm_start_ignores_seed_and_unobserved_cells():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    timeouts = np.zeros_like(truth)
    timeouts[3, 4] = truth[3, 4] * 2.0
    mask[3, 4] = 0.0
    warm = censored_als(truth, mask, timeouts, ALSConfig(rank=3, iterations=5)).factors

    def solve(observed, seed):
        config = ALSConfig(rank=3, iterations=5, seed=seed)
        return censored_als(observed, mask, timeouts, config, warm_start=warm, iterations=3)

    expected = solve(truth, seed=0)
    variants = [solve(truth, seed=1)]
    for fill in (np.inf, np.nan):
        observed = np.where(mask > 0, truth, fill)
        variants += [solve(observed, seed=0), solve(observed, seed=1)]
    for result in variants:
        assert np.array_equal(result.completed, expected.completed)
        assert np.array_equal(result.query_factors, expected.query_factors)
        assert np.array_equal(result.hint_factors, expected.hint_factors)
        assert np.array_equal(result.objective_trace, expected.objective_trace)


def test_input_validation_holds_with_a_warm_start():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    config = ALSConfig(rank=3, iterations=5)
    warm = censored_als(truth, mask, config=config).factors
    non_finite = truth.copy()
    non_finite[0, 0] = np.nan
    bad_calls = [
        (truth, np.zeros_like(truth), None),  # empty mask
        (truth, np.ones((3, 3)), None),
        (truth, mask, np.zeros((2, 2))),
        (non_finite, mask, None),  # mask[:, 0] is always observed
    ]
    for observed, bad_mask, timeouts in bad_calls:
        with pytest.raises(CompletionError):
            censored_als(observed, bad_mask, timeouts, config, warm_start=warm)


def test_infinite_censored_bound_is_rejected():
    truth = low_rank_matrix()
    mask = random_mask(truth.shape, 0.5)
    timeouts = np.zeros_like(truth)
    mask[2, 3] = 0.0
    timeouts[2, 3] = np.inf
    config = ALSConfig(rank=3, iterations=5)
    with pytest.raises(CompletionError):
        censored_als(truth, mask, timeouts, config)
    warm = censored_als(truth, mask, config=config).factors
    with pytest.raises(CompletionError):
        censored_als(truth, mask, timeouts, config, warm_start=warm)
    # With censoring off the bounds are ignored, infinite or not.
    result = censored_als(truth, mask, timeouts, ALSConfig(rank=3, iterations=5, censored=False))
    assert np.isfinite(result.completed).all()
