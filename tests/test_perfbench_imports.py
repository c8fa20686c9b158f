"""Every name the benchmark imports from the package must exist.

The benchmark scripts live outside the test suite, so pruning the public
API could otherwise turn every benchmark op into an ImportError unseen.
"""

import ast
import importlib
from pathlib import Path

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
