"""The benchmark must keep running against the package.

The benchmark scripts live outside the test suite, so pruning the public
API or changing a result's fields could otherwise turn every benchmark op
into an ImportError or a failed op unseen. Besides the imports, the
in-process workloads run a few tiny inputs through their op and check,
with tracing off and on (on runs the probe calls too).
"""

import ast
import importlib
import itertools
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cubelike":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_perfbench_imports_resolve():
    found = list(_package_imports())
    assert found, f"no 'from cubelike ... import' found under {PERFBENCH}"
    missing = [
        f"{name}: from {module} import {attr}"
        for name, module, attr in found
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, "benchmark imports names the package lacks:\n" + "\n".join(missing)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", ["large_spectrum", "verify_dense", "sweep_small"])
def test_perfbench_workload_ops_pass_their_checks(perfbench, name, traced):
    workloads = perfbench("workloads")
    workload = workloads.WORKLOADS[name]
    tracer, margins = perfbench("tracing").Tracer(traced), workloads.Margins()
    for x in itertools.islice(workload.stream(np.random.default_rng(0), True), 6):
        workload.check(x, workload.op(x, tracer), margins)


def test_perfbench_vector_probes_run(perfbench):
    for probe in perfbench("probe_sweep").vector_probes(2, np.random.default_rng(0)).values():
        probe()
