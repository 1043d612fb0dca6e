"""In-memory span tracing for the benchmark's traced runs.

Nothing under ``src/`` is instrumented.  The traced run wraps, from this
file, the public calls the benchmark attributes to each layer (a class
method, or a module-level function name the caller resolves at call time)
and, for the serving workloads, every event-loop callback and every wait of
the loop's selector.  Each span records its name, start, end and parent;
spans are kept in flat arrays and written out when the run ends.

Attribution rules:

* a span's *self time* is its duration minus the durations of its direct
  children;
* a layer's self time is the summed self time of its spans (``router.*``
  and ``shard.*`` belong to ``cluster``, ``wal.*`` to ``durability``);
* event-loop callbacks become root spans named after the layer whose code
  the callback runs: an ingress flush callback is ``ingress``, a step of a
  benchmark client coroutine is ``loadgen``, asyncio's own helpers are
  ``loop`` (not a layer: they count as unattributed);
* selector waits are ``loop.idle``.

So for any traced window ``wall = sum(layer self) + idle + unattributed``
holds exactly, with ``unattributed`` the remainder.
"""

from __future__ import annotations

import asyncio
import asyncio.events
import functools
import importlib
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

#: The layers the breakdown reports, in display order.
LAYERS = (
    "core",
    "nn",
    "ingress",
    "cluster",
    "serving",
    "durability",
    "adaptive",
    "loadgen",
)

#: Span-name prefixes that belong to another layer's module.
_PREFIX_LAYER = {"router": "cluster", "shard": "cluster", "wal": "durability"}

IDLE = "loop.idle"

SpanName = Union[str, Callable[[tuple, dict], str]]


def layer_of(name: str) -> Optional[str]:
    """The layer a span name belongs to (None for loop machinery)."""
    prefix = name.split(".", 1)[0]
    prefix = _PREFIX_LAYER.get(prefix, prefix)
    return prefix if prefix in LAYERS else None


def _als_span(args: tuple, kwargs: dict) -> str:
    return "core.als_warm" if kwargs.get("warm_start") is not None else "core.als_cold"


#: ``(module, attribute path, span name)`` for every traced public call.
#: Every target must exist: ``Instrumentation.install`` raises otherwise, so
#: a renamed or inlined call cannot silently drop out of the breakdown.
TARGETS: Tuple[Tuple[str, str, SpanName], ...] = (
    ("repro.core.simulation", "ExplorationSimulator.run", "core.run"),
    ("repro.core.explorer", "OfflineExplorer.step", "core.step"),
    ("repro.core.explorer", "MatrixOracle.execute_many", "core.oracle"),
    ("repro.core.policies", "LimeQOPolicy.select", "core.select"),
    ("repro.core.predictors", "Predictor.predict", "core.predict"),
    ("repro.core.matrix_completion", "ALSCompleter.complete_result", _als_span),
    ("repro.serving.refresh", "censored_als", _als_span),
    ("repro.core.workload_matrix", "WorkloadMatrix.observe_batch", "core.matrix"),
    ("repro.core.workload_matrix", "WorkloadMatrix.observe_censored", "core.matrix"),
    ("repro.core.workload_matrix", "WorkloadMatrix.workload_latency", "core.matrix"),
    ("repro.nn.trainer", "TCNNTrainer.fit", "nn.fit"),
    ("repro.nn.trainer", "TCNNTrainer.predict_full", "nn.predict_full"),
    ("repro.ingress.coalescer", "CoalescerCore.submit", "ingress.submit"),
    ("repro.ingress.ingress", "ClusterIngress.record_measured", "ingress.record_measured"),
    ("repro.cluster.cluster", "ServingCluster.serve_mixed", "cluster.serve_mixed"),
    ("repro.cluster.cluster", "ServingCluster.observe_batch", "cluster.observe_batch"),
    ("repro.cluster.cluster", "ServingCluster.tick", "cluster.tick"),
    ("repro.cluster.cluster", "split_batch", "router.split"),
    ("repro.adaptive.cluster", "split_batch", "router.split"),
    ("repro.cluster.shard", "ClusterShard.serve_local", "shard.serve_local"),
    ("repro.serving.service", "ServingService.serve_batch", "serving.serve_batch"),
    ("repro.durability.journal", "ShardJournal.log", "wal.log"),
    ("repro.adaptive.cluster", "ClusterAdaptationController.record", "adaptive.record"),
    ("repro.adaptive.cluster", "ClusterAdaptationController.tick", "adaptive.tick"),
)


class SpanRecorder:
    """Flat in-memory span store with a call stack for parent links."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        #: Work counts taken from traced calls' results (``nn.epochs``).
        self.counts: Dict[str, int] = {}
        self.active = False
        self.window: Tuple[float, float] = (0.0, 0.0)

    def open(self, name: str) -> int:
        """Start a span as a child of the innermost open span."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End the innermost span (which must be ``index``)."""
        self.end[index] = self.clock()
        self._stack.pop()

    def begin_window(self) -> None:
        self.active = True
        self.window = (self.clock(), 0.0)

    def end_window(self) -> None:
        self.active = False
        self.window = (self.window[0], self.clock())

    @property
    def wall(self) -> float:
        return self.window[1] - self.window[0]

    def summarize(self) -> "SpanSummary":
        """Per-name and per-layer totals over every recorded span."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        duration = end - start
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        own = duration - covered
        n_names = len(self.names)
        longest = np.zeros(n_names)
        np.maximum.at(longest, name_id, duration)
        return SpanSummary(
            names=list(self.names),
            total=np.bincount(name_id, weights=duration, minlength=n_names),
            self_time=np.bincount(name_id, weights=own, minlength=n_names),
            calls=np.bincount(name_id, minlength=n_names),
            longest=longest,
            wall=self.wall,
        )

    def write(self, path: str) -> None:
        """Write every span (name, start, end, parent) as one ``.npz`` file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            window=np.asarray(self.window),
        )


class SpanSummary:
    """Aggregates of one traced window."""

    def __init__(self, names, total, self_time, calls, longest, wall) -> None:
        self._index = {name: i for i, name in enumerate(names)}
        self._total = total
        self._self = self_time
        self._calls = calls
        self._longest = longest
        self.wall = wall
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.layer_calls = {layer: 0 for layer in LAYERS}
        for name, i in self._index.items():
            layer = layer_of(name)
            if layer is not None:
                self.layer_self[layer] += float(self_time[i])
                self.layer_calls[layer] += int(calls[i])
        self.idle = self.total(IDLE)
        self.unattributed = self.wall - sum(self.layer_self.values()) - self.idle

    def _get(self, values, names: Tuple[str, ...]) -> float:
        return float(sum(values[self._index[n]] for n in names if n in self._index))

    def total(self, *names: str) -> float:
        """Summed duration of every span with one of ``names``."""
        return self._get(self._total, names)

    def self_time(self, *names: str) -> float:
        """Summed self time of every span with one of ``names``."""
        return self._get(self._self, names)

    def calls(self, *names: str) -> int:
        return int(self._get(self._calls, names))

    def longest(self, *names: str) -> float:
        present = [self._longest[self._index[n]] for n in names if n in self._index]
        return float(max(present)) if present else 0.0


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Instrumentation:
    """Installs span wrappers around the traced calls; undone by ``remove``.

    Install before the program objects are built: some of them capture
    bound methods at construction (the ingress keeps ``cluster.tick`` and
    ``controller.tick`` for its background tickers).
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patches: List[Tuple[object, str, object]] = []
        self._layer_cache: Dict[object, str] = {}

    def install(self) -> None:
        for module_name, path, name in TARGETS:
            owner, attr = _resolve(module_name, path)
            # Class attributes are read from the class's own dict so a
            # staticmethod or classmethod is never unwrapped by accident.
            original = vars(owner).get(attr)
            if not callable(original):
                raise RuntimeError(f"traced call {module_name}.{path} is missing")
            self._patch(owner, attr, original, self._wrap(original, name))
        run = asyncio.events.Handle._run
        self._patch(asyncio.events.Handle, "_run", run, self._wrap_handle(run))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, original, name: SpanName):
        recorder = self.recorder
        fixed = name if isinstance(name, str) else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            index = recorder.open(fixed or name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if fixed == "nn.fit":
                # fit returns one loss per epoch trained.
                recorder.counts["nn.epochs"] = recorder.counts.get("nn.epochs", 0) + len(result)
            return result

        return traced

    def _wrap_handle(self, original):
        recorder = self.recorder
        layer_for = self._callback_layer

        def _run(handle):
            if not recorder.active:
                return original(handle)
            index = recorder.open(layer_for(handle._callback))
            try:
                return original(handle)
            finally:
                recorder.close(index)

        return _run

    def _callback_layer(self, callback) -> str:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, asyncio.Task):
            key = getattr(owner.get_coro(), "cr_code", None)
        elif owner is not None:
            key = type(owner)
        else:
            key = getattr(callback, "__code__", type(callback))
        name = self._layer_cache.get(key)
        if name is None:
            name = self._layer_cache[key] = _layer_of_file(_source_file(key)) + ".callback"
        return name

    def watch_selector(self, loop: asyncio.AbstractEventLoop) -> None:
        """Record every selector wait of ``loop`` as ``loop.idle``."""
        selector = loop._selector  # type: ignore[attr-defined]
        original = selector.select
        recorder = self.recorder

        def select(timeout=None):
            if not recorder.active:
                return original(timeout)
            index = recorder.open(IDLE)
            try:
                return original(timeout)
            finally:
                recorder.close(index)

        selector.select = select


def _source_file(key) -> str:
    """The file defining a class or a code object ("" when there is none)."""
    if isinstance(key, type):
        return getattr(sys.modules.get(key.__module__), "__file__", None) or ""
    return getattr(key, "co_filename", "")


def _layer_of_file(filename: str) -> str:
    path = os.path.abspath(filename) if filename else ""
    if path.startswith(HERE + os.sep):
        return "loadgen"
    marker = os.sep + "repro" + os.sep
    if marker in path:
        package = path.split(marker, 1)[1].split(os.sep, 1)[0]
        if package in LAYERS:
            return package
    return "loop"
