"""The benchmark's own tests: python3 -m pytest benchmark"""

import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import tracing
from gframes import core

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tiny_pass_over_every_workload(name, trace):
    outcome = harness.run_workload(name, seed=3, seconds=0.3, trace=trace, tiny=True)
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0, outcome["details"]["problems"]
    assert result["attempted"] >= 1
    units = harness.PER_LAYER_UNITS if trace else harness.E2E_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(outcome["details"]["inputs_digest"]) == 64


def test_inputs_depend_only_on_the_seed():
    wl = harness.WORKLOADS["near_threshold"](tiny=True)

    def digest(seed):
        items = wl.generate(np.random.default_rng(seed))
        wl.certify(items)
        return wl.digest(items)

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_planted_non_dual_companion_is_counted_as_failed(monkeypatch):
    honest = core.canonical_dual

    def wrong_dual(frame):
        return core.scale_blocks(honest(frame), [1.01] * frame.n_blocks)

    monkeypatch.setattr(core, "canonical_dual", wrong_dual)
    result = harness.run_workload("wide_frames", seed=3, seconds=0.2, trace=False,
                                  tiny=True)["result"]
    assert not result["correct"]
    assert result["failed"] >= 1


def _bindings():
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "gframes" or n.startswith("gframes.")
                                     or n.startswith("numpy.linalg"))]
    out = {}
    for module in modules:
        for attr, value in list(vars(module).items()):
            out[(module.__name__, attr)] = value
            post = vars(value).get("__post_init__") if isinstance(value, type) else None
            if post is not None:
                out[(module.__name__, attr, "__post_init__")] = post
    return out


def test_traced_run_restores_every_wrapped_name():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert core.classify is not before[("gframes.core", "classify")]
        assert np.linalg.svd is not before[("numpy.linalg", "svd")]
        assert tracing.wrapped_names()
    finally:
        tracer.uninstall()
    assert tracing.wrapped_names() == []

    harness.run_workload("square_spectral", seed=3, seconds=0.2, trace=True, tiny=True)
    after = _bindings()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []
    assert tracing.wrapped_names() == []


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "wide_frames", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
