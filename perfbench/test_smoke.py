"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced on a few rows for half a second.
The test checks that each run prints exactly the metrics ``BENCHMARK.json``
names, with their units; that the traced breakdown adds up to the traced
wall time; that a run changes no file of the checkout (WAL segments live in
a temporary directory, no ``BENCH_*``/``TELEMETRY_*`` file is written);
that without the program's sources the command fails without a result; and
that a traced call missing from the program is an error.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SKIP_DIRS = {".git", ".perfbench-out", "__pycache__", ".pytest_cache", ".hypothesis"}


def _tree_digest(root):
    digest = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                digest[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return digest


def _run(workload, trace, cwd=ROOT):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--scale", "0.03",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    before = _tree_digest(ROOT)
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _run(workload, trace)
            assert done.returncode == 0, done.stdout + done.stderr
            out[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    after = _tree_digest(ROOT)
    return before, after, out


def test_runs_leave_the_checkout_untouched(results):
    before, after, _ = results
    # Covers every file outside .perfbench-out: no BENCH_* or TELEMETRY_*
    # artifact is written or rewritten, and WAL segments never land there.
    assert after == before
    leftovers = [p for p in os.listdir(OUT_DIR) if not p.startswith("spans-")]
    assert leftovers == []


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(results, trace, section):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in WORKLOADS:
        result = results[2][workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared, workload
        for name, metric in result["metrics"].items():
            assert math.isfinite(metric["value"]), (workload, name)
            if trace == 0:
                assert metric["value"] > 0, (workload, name)


def test_traced_breakdown_adds_up_to_the_wall(results):
    layers = [m["name"][: -len(".self_s")] for m in SPEC["per_layer"] if m["name"].endswith(".self_s")]
    for workload in WORKLOADS:
        m = {k: v["value"] for k, v in results[2][workload, 1]["metrics"].items()}
        parts = sum(m[f"{layer}.self_s"] for layer in layers) + m["loop.idle_s"] + m["trace.unattributed_s"]
        assert parts == pytest.approx(m["trace.wall_s"], rel=1e-9), workload
        assert os.path.exists(os.path.join(OUT_DIR, f"spans-{workload}-seed3.npz"))


def test_fails_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path)
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()



def test_a_missing_traced_call_is_an_error(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import spans

    missing = ("repro.core.explorer", "OfflineExplorer.no_such_call", "core.none")
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (missing,))
    instrumentation = spans.Instrumentation(spans.SpanRecorder())
    try:
        with pytest.raises(RuntimeError, match="no_such_call"):
            instrumentation.install()
    finally:
        instrumentation.remove()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
