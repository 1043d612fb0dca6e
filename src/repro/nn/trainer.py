"""Training loop for the (transductive) TCNN.

Follows the paper's protocol (Section 5, "Techniques and tests"):

* Adam with batch size 32,
* at most 100 epochs, stopping early when the training loss decreases by
  less than 1% over 10 epochs,
* warm start -- each offline-exploration step re-trains the model starting
  from the previous step's weights,
* censored loss for timed-out observations (Equation 8).

Targets are trained in ``log1p`` space so the heavy-tailed latency
distribution does not destabilise the small network; predictions are mapped
back with ``expm1`` and clipped to be non-negative.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import TCNNConfig
from ..core.workload_matrix import WorkloadMatrix
from ..errors import NeuralNetworkError
from .losses import censored_mse_loss, mse_loss
from .optim import Adam
from .tcnn import TCNNModel, TransductiveTCNN, infer


class TCNNTrainer:
    """Trains a TCNN (with or without embeddings) on observed matrix cells."""

    def __init__(
        self,
        feature_store,
        n_queries: int,
        n_hints: int,
        config: Optional[TCNNConfig] = None,
    ) -> None:
        self.feature_store = feature_store
        self.config = config or TCNNConfig()
        self.n_queries = int(n_queries)
        self.n_hints = int(n_hints)
        if self.config.use_embeddings:
            self.model = TransductiveTCNN(self.n_queries, self.n_hints, self.config)
        else:
            self.model = TCNNModel(self.config)
        self.optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)
        self._rng = np.random.default_rng(self.config.seed)
        self.loss_history: List[float] = []

    # -- workload growth -----------------------------------------------------
    def grow_queries(self, new_count: int) -> None:
        """Handle new rows appearing in the workload matrix."""
        if new_count <= self.n_queries:
            return
        self.n_queries = int(new_count)
        if isinstance(self.model, TransductiveTCNN):
            self.model.grow_queries(self.n_queries)

    # -- training data ---------------------------------------------------------
    def _training_cells(
        self, matrix: WorkloadMatrix
    ) -> Tuple[List[Tuple[int, int]], np.ndarray, np.ndarray]:
        """Collect (cell, target, threshold) triples from the matrix.

        One vectorised pass over the matrix views; cells come out in the
        same row-major order (completed observations taking priority over
        censored ones) as the historical per-cell double loop.
        """
        observed = matrix.mask > 0
        keep = observed
        if self.config.censored:
            keep = observed | matrix.censored_mask
        rows, cols = np.nonzero(keep)
        if rows.size == 0:
            raise NeuralNetworkError("no observed cells to train on")
        values = matrix.values[rows, cols]
        timeouts = matrix.timeout_matrix[rows, cols]
        observed_here = observed[rows, cols]
        targets = np.where(observed_here, values, timeouts)
        thresholds = np.where(observed_here, 0.0, timeouts)
        cells = list(zip(rows.tolist(), cols.tolist()))
        return cells, targets, thresholds

    # -- fitting ------------------------------------------------------------------
    def fit(self, matrix: WorkloadMatrix) -> List[float]:
        """Train on the matrix's observed cells; returns per-epoch losses."""
        cells, targets, thresholds = self._training_cells(matrix)
        log_targets = np.log1p(targets)
        log_thresholds = np.where(thresholds > 0, np.log1p(thresholds), 0.0)

        # Featurise and pad the whole training set once; every epoch's
        # mini-batches are cheap row slices of the packed arrays instead of
        # a fresh featurise-and-pad pass (the tree convolution is padding-
        # width invariant, so the losses are identical).
        packed = self.feature_store.batch(cells)
        all_query_idx = np.array([c[0] for c in cells], dtype=np.int64)
        all_hint_idx = np.array([c[1] for c in cells], dtype=np.int64)

        epoch_losses: List[float] = []
        order = np.arange(len(cells))
        for epoch in range(self.config.max_epochs):
            self._rng.shuffle(order)
            batch_losses = []
            for start in range(0, len(order), self.config.batch_size):
                batch_idx = order[start:start + self.config.batch_size]
                batch = packed.take(batch_idx)
                query_idx = all_query_idx[batch_idx]
                hint_idx = all_hint_idx[batch_idx]
                predictions = self.model(batch, query_idx, hint_idx)
                if self.config.censored and (log_thresholds[batch_idx] > 0).any():
                    loss = censored_mse_loss(
                        predictions, log_targets[batch_idx], log_thresholds[batch_idx]
                    )
                else:
                    loss = mse_loss(predictions, log_targets[batch_idx])
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                batch_losses.append(loss.item())
            epoch_loss = float(np.mean(batch_losses))
            epoch_losses.append(epoch_loss)
            self.loss_history.append(epoch_loss)
            if self._converged(epoch_losses):
                break
        return epoch_losses

    def _converged(self, losses: Sequence[float]) -> bool:
        """Paper criterion: < ``convergence_threshold`` decrease over the window."""
        window = self.config.convergence_window
        if len(losses) <= window:
            return False
        previous = losses[-window - 1]
        current = losses[-1]
        if previous <= 0:
            return True
        improvement = (previous - current) / abs(previous)
        return improvement < self.config.convergence_threshold

    # -- inference -------------------------------------------------------------------
    def predict_batch(self, batch, query_idx, hint_idx) -> np.ndarray:
        """One tape-free forward pass over an already-packed padded tree batch.

        Every prediction goes through here and the inference kernel
        :func:`repro.nn.tcnn.infer`.  Callers that keep a pre-packed
        ``(batch, nodes, features)`` tensor around (see
        :class:`repro.serving.service.BatchedLatencyEstimator`) skip the
        per-cell featurise-and-pad work entirely and pay only for the tree
        convolution's GEMMs.  Returns latencies in seconds (``expm1`` of the
        model's log-space output, clipped at 0).
        """
        out = infer(self.model, batch, query_idx, hint_idx)
        return np.clip(np.expm1(out), 0.0, None)

    def predict_cells(
        self, cells: Sequence[Tuple[int, int]], batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Predicted latencies (seconds) for specific matrix cells."""
        if batch_size is None:
            batch_size = max(self.config.batch_size, 64)
        if batch_size < 1:
            raise NeuralNetworkError(f"batch_size must be >= 1, got {batch_size}")
        if not cells:
            return np.zeros(0)
        predictions = np.zeros(len(cells))
        for start in range(0, len(cells), batch_size):
            chunk = list(cells[start:start + batch_size])
            batch = self.feature_store.batch(chunk)
            query_idx = np.array([c[0] for c in chunk])
            hint_idx = np.array([c[1] for c in chunk])
            predictions[start:start + len(chunk)] = self.predict_batch(
                batch, query_idx, hint_idx
            )
        return predictions

    def predict_full(self, matrix: WorkloadMatrix) -> np.ndarray:
        """Predicted latencies for every cell of the matrix.

        When the feature store caches a pre-packed full-matrix batch
        (:meth:`~repro.plans.featurize.PlanFeatureStore.full_batch`), the
        whole pass is array slices and tape-free forward passes -- no
        per-cell Python loop, no repeated padding.  Each plan's prediction
        depends on that plan alone, so chunk boundaries do not affect the
        predictions; the 512-plan chunks keep each layer's working set in
        cache (one chunk of the whole matrix ran about 2x slower).
        """
        n, k = matrix.n_queries, matrix.n_hints
        full_batch = getattr(self.feature_store, "full_batch", None)
        if full_batch is None or self.feature_store.shape != (n, k):
            cells = [(i, j) for i in range(n) for j in range(k)]
            return self.predict_cells(cells).reshape(n, k)

        packed = full_batch()
        query_idx = np.repeat(np.arange(n, dtype=np.int64), k)
        hint_idx = np.tile(np.arange(k, dtype=np.int64), n)
        predictions = np.empty(n * k)
        chunk = max(self.config.batch_size, 512)
        for start in range(0, n * k, chunk):
            stop = min(start + chunk, n * k)
            window = slice(start, stop)
            predictions[window] = self.predict_batch(
                packed.take(window), query_idx[window], hint_idx[window]
            )
        return predictions.reshape(n, k)
