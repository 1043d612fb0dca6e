"""The tape-free inference kernel against the autograd tape forward.

:func:`repro.nn.tcnn.infer` promises the *same bits* as
``model(batch, query_idx, hint_idx).data`` with dropout off: exploration
is chaotic in the last bit, so any drift would change which cells get
explored.  The property below checks exact equality over random binary
trees (left and right children), padding widths, both model classes, the
default and the benchmark's fast shapes, grown query tables and batch
sizes on both sides of the trainer's 512-plan chunk.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TCNNConfig
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import NeuralNetworkError
from repro.experiments.runner import FAST_TCNN_CONFIG
from repro.nn.tcnn import TCNNModel, TransductiveTCNN, infer
from repro.nn.trainer import TCNNTrainer
from repro.plans.featurize import NODE_FEATURE_DIM, SyntheticPlanFeatureStore, TreeBatch

SHAPES = {
    "default": replace(TCNNConfig(), dropout=0.0),
    "fast": replace(FAST_TCNN_CONFIG, dropout=0.0),
}
N_QUERIES, N_HINTS = 12, 9


def random_batch(rng, size, max_real, extra_padding):
    """``size`` random binary trees, padded ``extra_padding`` nodes wider."""
    counts = rng.integers(1, max_real + 1, size=size) + 1  # + the null node
    width = int(counts.max()) + extra_padding
    nodes = np.zeros((size, width, NODE_FEATURE_DIM))
    left = np.zeros((size, width), dtype=np.int64)
    right = np.zeros((size, width), dtype=np.int64)
    mask = np.zeros((size, width))
    for b, count in enumerate(counts):
        nodes[b, 1:count] = rng.normal(size=(count - 1, NODE_FEATURE_DIM))
        mask[b, 1:count] = 1.0
        # Node i hangs off a random earlier node's free left or right slot.
        for i in range(2, count):
            while True:
                parent = int(rng.integers(1, i))
                side = left if rng.random() < 0.5 else right
                if side[b, parent] == 0:
                    side[b, parent] = i
                    break
    return TreeBatch(nodes=nodes, left=left, right=right, mask=mask)


def random_model(rng, transductive, shape, grow):
    config = replace(SHAPES[shape], seed=int(rng.integers(0, 1000)))
    if transductive:
        model = TransductiveTCNN(N_QUERIES, N_HINTS, config)
        if grow:
            model.grow_queries(N_QUERIES + grow)
    else:
        model = TCNNModel(config)
    # Trained weights, not the zero-bias initialisation.
    for param in model.parameters():
        param.data = param.data + rng.normal(0.0, 0.1, param.data.shape)
    return model


def tape_forward(model, batch, query_idx, hint_idx):
    return model(batch, query_idx, hint_idx).data


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31 - 1),
    size=st.one_of(st.sampled_from([1, 511, 512, 513]), st.integers(1, 40)),
    max_real=st.integers(1, 15),
    extra_padding=st.integers(0, 4),
    transductive=st.booleans(),
    shape=st.sampled_from(sorted(SHAPES)),
    grow=st.sampled_from([0, 0, 5]),
)
def test_kernel_is_bit_identical_to_the_tape_forward(
    seed, size, max_real, extra_padding, transductive, shape, grow
):
    rng = np.random.default_rng(seed)
    model = random_model(rng, transductive, shape, grow)
    batch = random_batch(rng, size, max_real, extra_padding)
    n_queries = model.n_queries if transductive else N_QUERIES
    query_idx = rng.integers(0, n_queries, size=size)
    hint_idx = rng.integers(0, N_HINTS, size=size)
    expected = tape_forward(model, batch, query_idx, hint_idx)
    got = infer(model, batch, query_idx, hint_idx)
    assert got.shape == (size,)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("n_queries,n_hints", [(7, 73), (8, 64), (9, 57)])
@pytest.mark.parametrize("transductive", [False, True])
def test_chunked_predict_full_matches_one_tape_pass(n_queries, n_hints, transductive):
    """511, 512 and 513 cells: chunking at 512 plans changes no bit."""
    rng = np.random.default_rng(n_queries)
    store = SyntheticPlanFeatureStore(
        rng.random((n_queries, 3)), rng.random((n_hints, 3)), seed=n_queries
    )
    config = replace(FAST_TCNN_CONFIG, use_embeddings=transductive, dropout=0.0)
    trainer = TCNNTrainer(store, n_queries, n_hints, config)
    for param in trainer.model.parameters():
        param.data = param.data + rng.normal(0.0, 0.1, param.data.shape)
    matrix = WorkloadMatrix(n_queries, n_hints)
    full = trainer.predict_full(matrix)

    query_idx = np.repeat(np.arange(n_queries), n_hints)
    hint_idx = np.tile(np.arange(n_hints), n_queries)
    tape = tape_forward(trainer.model, store.full_batch(), query_idx, hint_idx)
    expected = np.clip(np.expm1(tape), 0.0, None).reshape(n_queries, n_hints)
    assert np.array_equal(full, expected)


def _error_cases():
    rng = np.random.default_rng(0)
    batch = random_batch(rng, 4, 5, 1)
    empty = replace(batch, mask=batch.mask.copy())
    empty.mask[2] = 0.0
    ok_q, ok_h = np.arange(4), np.arange(4)
    return {
        "short query ids": (batch, ok_q[:3], ok_h),
        "short hint ids": (batch, ok_q, ok_h[:2]),
        "query id too large": (batch, np.array([0, 1, N_QUERIES, 2]), ok_h),
        "negative query id": (batch, np.array([0, -1, 1, 2]), ok_h),
        "hint id too large": (batch, ok_q, np.array([0, N_HINTS, 1, 2])),
        "negative hint id": (batch, ok_q, np.array([0, 1, -1, 2])),
        "plan without real nodes": (empty, ok_q, ok_h),
    }


@pytest.mark.parametrize("case", sorted(_error_cases()))
def test_kernel_raises_the_tape_forwards_errors(case):
    batch, query_idx, hint_idx = _error_cases()[case]
    model = TransductiveTCNN(N_QUERIES, N_HINTS, SHAPES["fast"])
    with pytest.raises(NeuralNetworkError) as tape_error:
        tape_forward(model, batch, query_idx, hint_idx)
    with pytest.raises(NeuralNetworkError) as kernel_error:
        infer(model, batch, query_idx, hint_idx)
    assert str(kernel_error.value) == str(tape_error.value)


def test_plain_model_rejects_a_plan_without_real_nodes():
    batch, query_idx, hint_idx = _error_cases()["plan without real nodes"]
    model = TCNNModel(replace(SHAPES["fast"], use_embeddings=False))
    with pytest.raises(NeuralNetworkError) as tape_error:
        tape_forward(model, batch, query_idx, hint_idx)
    with pytest.raises(NeuralNetworkError) as kernel_error:
        infer(model, batch, None, None)
    assert str(kernel_error.value) == str(tape_error.value)
