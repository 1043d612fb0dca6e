"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small tape-based autograd: every :class:`Tensor` records the
operation that produced it and a closure that propagates gradients to its
parents.  Only the operations needed by the tree convolutional network are
implemented (matmul, broadcasting add/mul, relu, gather, masked max,
concatenation, reductions, dropout masking), each with a hand-written
backward pass.

Gradient flow follows the micrograd convention: calling
:meth:`Tensor.backward` on a scalar loss walks the recorded graph in
reverse topological order, each node's closure accumulating gradients into
its parents' ``.grad`` attributes.  Leaf tensors created with
``requires_grad=True`` (model parameters) keep their gradients for the
optimizer; intermediate gradients are also stored but are simply discarded
when the graph is garbage collected.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import NeuralNetworkError


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=float)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = tuple(parents)
        self._backward = backward
        self.name = name

    # -- basics --------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    def item(self) -> float:
        """Scalar value (for losses)."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing the same values but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers --------------------------------------------
    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @staticmethod
    def _track(*tensors: "Tensor") -> bool:
        """True when any input participates in a gradient graph."""
        return any(t.requires_grad or t._backward is not None for t in tensors)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=float, copy=True)
        else:
            self.grad = self.grad + grad

    def _make(self, data, parents, backward, name) -> "Tensor":
        if not self._track(*parents):
            return Tensor(data, name=name)
        return Tensor(data, requires_grad=False, parents=parents,
                      backward=backward, name=name)

    # -- arithmetic ---------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.data.shape))
            other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (self._wrap(other) * -1.0)

    def __rsub__(self, other) -> "Tensor":
        return self._wrap(other) + (self * -1.0)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data ** 2), other.data.shape)
            )

        return self._make(out_data, (self, other), backward, "div")

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise NeuralNetworkError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward, "pow")

    # -- linear algebra --------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product; supports (..., M, K) @ (K, N)."""
        other = self._wrap(other)
        out_data = np.matmul(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            grad_self = np.matmul(grad, np.swapaxes(other.data, -1, -2))
            self._accumulate(_unbroadcast(grad_self, self.data.shape))
            grad_other = np.matmul(np.swapaxes(self.data, -1, -2), grad)
            other._accumulate(_unbroadcast(grad_other, other.data.shape))

        return self._make(out_data, (self, other), backward, "matmul")

    __matmul__ = matmul

    # -- nonlinearities ----------------------------------------------------------------
    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward, "relu")

    def sigmoid(self) -> "Tensor":
        """Logistic sigmoid."""
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward, "sigmoid")

    # -- reductions ----------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (or everything when ``axis`` is None)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape).copy())

        return self._make(out_data, (self,), backward, "sum")

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (or everything when ``axis`` is None)."""
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape manipulation ----------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Reshape, keeping the graph."""
        out_data = self.data.reshape(*shape)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return self._make(out_data, (self,), backward, "reshape")

    def concat(self, other: "Tensor", axis: int = -1) -> "Tensor":
        """Concatenate two tensors along ``axis``."""
        other = self._wrap(other)
        out_data = np.concatenate([self.data, other.data], axis=axis)
        split = self.data.shape[axis]

        def backward(grad: np.ndarray) -> None:
            grad_self, grad_other = np.split(grad, [split], axis=axis)
            self._accumulate(grad_self)
            other._accumulate(grad_other)

        return self._make(out_data, (self, other), backward, "concat")

    # -- gathers (used by embeddings and tree convolution) -------------------------------------
    def gather_rows(self, indices) -> "Tensor":
        """Row lookup: ``self`` is (V, D), result is (len(indices), D)."""
        indices = np.asarray(indices, dtype=np.int64)
        if self.data.ndim != 2:
            raise NeuralNetworkError("gather_rows expects a 2-D tensor")
        out_data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, indices, grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward, "gather_rows")

    def gather_nodes(self, indices) -> "Tensor":
        """Per-sample node lookup for tree convolution.

        ``self`` is (B, N, F), ``indices`` is (B, N); the result at
        ``[b, n, :]`` is ``self[b, indices[b, n], :]``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if self.data.ndim != 3 or indices.ndim != 2:
            raise NeuralNetworkError(
                "gather_nodes expects a (B, N, F) tensor and (B, N) indices"
            )
        batch_index = np.arange(self.data.shape[0])[:, None]
        # take_along_axis compiles to one contiguous gather; the advanced-
        # indexing spelling allocated an intermediate index broadcast.
        out_data = np.take_along_axis(self.data, indices[:, :, None], axis=1)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, (batch_index, indices), grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward, "gather_nodes")

    def masked_max(self, mask, axis: int = 1) -> "Tensor":
        """Max over ``axis`` considering only positions where ``mask`` is 1.

        Used for dynamic pooling over plan-tree nodes: ``self`` is
        (B, N, F), ``mask`` is (B, N), the result is (B, F).
        """
        mask = np.asarray(mask, dtype=bool)
        if self.data.ndim != 3 or mask.ndim != 2 or axis != 1:
            raise NeuralNetworkError(
                "masked_max currently supports (B, N, F) tensors pooled over axis 1"
            )
        if not mask.any(axis=1).all():
            raise NeuralNetworkError("every sample needs at least one unmasked node")
        masked = np.where(mask[:, :, None], self.data, -np.inf)
        argmax = masked.argmax(axis=1)  # (B, F)
        out_data = np.take_along_axis(self.data, argmax[:, None, :], axis=1)[:, 0, :]
        batch_index = np.arange(self.data.shape[0])[:, None]
        feature_index = np.arange(self.data.shape[2])[None, :]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, (batch_index, argmax, feature_index), grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward, "masked_max")

    def apply_mask(self, mask) -> "Tensor":
        """Element-wise multiply by a constant mask (dropout, padding)."""
        mask = np.asarray(mask, dtype=float)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward, "apply_mask")

    # -- backprop -----------------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise NeuralNetworkError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=float))
        for node in self._topological_order():
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> List["Tensor"]:
        """Nodes ordered so every tensor appears before its parents."""
        seen = set()
        postorder: List[Tensor] = []
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                postorder.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        postorder.reverse()
        return postorder


def parameter(data, name: str = "") -> Tensor:
    """Create a trainable (leaf) tensor."""
    return Tensor(data, requires_grad=True, name=name)
