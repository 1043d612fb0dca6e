"""The TCNN and transductive TCNN models (paper Section 4.3.2).

``TCNNModel`` is the Bao-style architecture: tree convolution over plan
features, dynamic pooling, fully connected layers, one scalar output per
plan.  ``TransductiveTCNN`` adds two embedding tables -- one per query
(matrix row) and one per hint (matrix column) -- whose vectors are
concatenated with the pooled plan representation before the fully connected
head.  The embeddings are isomorphic to the ALS factors ``Q`` and ``H``,
which is how the model exploits the workload matrix's low-rank structure.

The modules' ``forward`` methods build the autograd tape and serve training
only.  Inference goes through :func:`infer`, a tape-free kernel over the
same weights that reproduces the tape forward bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..config import TCNNConfig
from ..errors import NeuralNetworkError
from ..plans.featurize import NODE_FEATURE_DIM, TreeBatch
from .autograd import Tensor
from .layers import Dropout, Embedding, Linear, Module, ReLU, Sequential
from .treeconv import TreeConvStack


def _build_head(in_features: int, hidden_units: Sequence[int], dropout: float,
                seed: int) -> Sequential:
    """Fully connected head ending in a single latency output."""
    modules = []
    previous = in_features
    for i, width in enumerate(hidden_units):
        modules.append(Linear(previous, int(width), seed=seed + 100 + i))
        modules.append(ReLU())
        if dropout > 0:
            modules.append(Dropout(dropout, seed=seed + 200 + i))
        previous = int(width)
    modules.append(Linear(previous, 1, seed=seed + 300))
    return Sequential(modules)


class TCNNModel(Module):
    """Plain tree convolutional network over plan features."""

    def __init__(self, config: Optional[TCNNConfig] = None,
                 node_feature_dim: int = NODE_FEATURE_DIM) -> None:
        super().__init__()
        self.config = config or TCNNConfig(use_embeddings=False)
        self.tree_conv = self.register_module(
            "tree_conv",
            TreeConvStack(node_feature_dim, self.config.channels, seed=self.config.seed),
        )
        self.dropout = self.register_module(
            "dropout", Dropout(self.config.dropout, seed=self.config.seed + 11)
        )
        self.head = self.register_module(
            "head",
            _build_head(
                self.tree_conv.out_channels,
                self.config.hidden_units,
                self.config.dropout,
                self.config.seed,
            ),
        )

    def forward(self, batch: TreeBatch, query_idx=None, hint_idx=None) -> Tensor:
        """Predict one latency per plan in ``batch`` (query/hint ids ignored)."""
        nodes = Tensor(batch.nodes)
        pooled = self.tree_conv(nodes, batch.left, batch.right, batch.mask)
        pooled = self.dropout(pooled)
        out = self.head(pooled)
        return out.reshape(batch.batch_size)


class TransductiveTCNN(Module):
    """Tree convolution plus query/hint embeddings (the LimeQO+ model)."""

    def __init__(
        self,
        n_queries: int,
        n_hints: int,
        config: Optional[TCNNConfig] = None,
        node_feature_dim: int = NODE_FEATURE_DIM,
    ) -> None:
        super().__init__()
        if n_queries < 1 or n_hints < 1:
            raise NeuralNetworkError("TransductiveTCNN needs positive matrix dimensions")
        self.config = config or TCNNConfig(use_embeddings=True)
        rank = self.config.embedding_rank
        self.tree_conv = self.register_module(
            "tree_conv",
            TreeConvStack(node_feature_dim, self.config.channels, seed=self.config.seed),
        )
        self.query_embedding = self.register_module(
            "query_embedding", Embedding(n_queries, rank, seed=self.config.seed + 1)
        )
        self.hint_embedding = self.register_module(
            "hint_embedding", Embedding(n_hints, rank, seed=self.config.seed + 2)
        )
        self.dropout = self.register_module(
            "dropout", Dropout(self.config.dropout, seed=self.config.seed + 11)
        )
        self.head = self.register_module(
            "head",
            _build_head(
                self.tree_conv.out_channels + 2 * rank,
                self.config.hidden_units,
                self.config.dropout,
                self.config.seed,
            ),
        )

    @property
    def n_queries(self) -> int:
        """Current size of the query embedding table."""
        return self.query_embedding.num_embeddings

    @property
    def n_hints(self) -> int:
        """Current size of the hint embedding table."""
        return self.hint_embedding.num_embeddings

    def grow_queries(self, new_count: int) -> None:
        """Extend the query embedding table when new queries arrive."""
        self.query_embedding.grow(new_count, seed=self.config.seed + 17)

    def forward(self, batch: TreeBatch, query_idx, hint_idx) -> Tensor:
        """Predict one latency per (plan, query id, hint id) triple."""
        query_idx = np.asarray(query_idx, dtype=np.int64)
        hint_idx = np.asarray(hint_idx, dtype=np.int64)
        if query_idx.shape[0] != batch.batch_size or hint_idx.shape[0] != batch.batch_size:
            raise NeuralNetworkError("query/hint index length must match the batch size")
        nodes = Tensor(batch.nodes)
        pooled = self.tree_conv(nodes, batch.left, batch.right, batch.mask)
        query_vectors = self.query_embedding(query_idx)
        hint_vectors = self.hint_embedding(hint_idx)
        combined = pooled.concat(query_vectors, axis=-1).concat(hint_vectors, axis=-1)
        combined = self.dropout(combined)
        out = self.head(combined)
        return out.reshape(batch.batch_size)


def infer(model, batch: TreeBatch, query_idx=None, hint_idx=None) -> np.ndarray:
    """Tape-free forward pass of a :class:`TCNNModel` or :class:`TransductiveTCNN`.

    Returns ``model(batch, query_idx, hint_idx).data`` without dropout, bit
    for bit, but records no autograd tape.  Every tree-convolution layer
    works on the flattened ``(plans * nodes, channels)`` array: the node
    rows are multiplied by ``W_self``, ``W_left`` and ``W_right``, and the
    children's rows are gathered from the *products* through flat child
    indices.  A GEMM computes each output row from its input row alone, so
    gathering after the product gives the same values as the tape's
    gather-then-multiply, and the in-place sum keeps the tape's order
    ``self + left + right + bias``.  Dynamic pooling is a masked max, which
    is exact.  The input checks raise the same :class:`NeuralNetworkError` s
    as the tape forward.
    """
    size = batch.batch_size
    transductive = isinstance(model, TransductiveTCNN)
    if transductive:
        query_idx = np.asarray(query_idx, dtype=np.int64)
        hint_idx = np.asarray(hint_idx, dtype=np.int64)
        if query_idx.shape[0] != size or hint_idx.shape[0] != size:
            raise NeuralNetworkError("query/hint index length must match the batch size")
    real = np.asarray(batch.mask, dtype=float) > 0
    if not real.any(axis=1).all():
        # Without this an empty plan would pool to -inf.
        raise NeuralNetworkError("every sample needs at least one unmasked node")

    n_nodes = batch.max_nodes
    offsets = np.arange(size, dtype=np.int64)[:, None] * n_nodes
    left = (np.asarray(batch.left, dtype=np.int64) + offsets).ravel()
    right = (np.asarray(batch.right, dtype=np.int64) + offsets).ravel()
    keep = np.asarray(batch.mask, dtype=float).reshape(-1, 1)
    hidden = np.asarray(batch.nodes, dtype=float).reshape(size * n_nodes, -1)
    for layer in model.tree_conv.layers:
        # Three GEMMs into contiguous arrays: one GEMM against the
        # concatenated weights is as exact, but its column slices are
        # strided and made the gathers and adds ~3x slower.
        combined = hidden @ layer.weight_self.data
        combined += np.take(hidden @ layer.weight_left.data, left, axis=0)
        combined += np.take(hidden @ layer.weight_right.data, right, axis=0)
        combined += layer.bias.data
        combined *= combined > 0
        combined *= keep
        hidden = combined
    pooled = np.where(real.reshape(-1, 1), hidden, -np.inf)
    pooled = pooled.reshape(size, n_nodes, -1).max(axis=1)

    if transductive:
        query_vectors = model.query_embedding.weight.data[
            model.query_embedding.check(query_idx)
        ]
        hint_vectors = model.hint_embedding.weight.data[
            model.hint_embedding.check(hint_idx)
        ]
        pooled = np.concatenate([pooled, query_vectors, hint_vectors], axis=-1)
    for module in model.head:
        if isinstance(module, Linear):
            pooled = pooled @ module.weight.data + module.bias.data
        elif isinstance(module, ReLU):
            pooled = pooled * (pooled > 0)
        # Dropout is the identity at inference.
    return pooled.reshape(size)
