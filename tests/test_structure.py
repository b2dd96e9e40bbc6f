"""Module structure: imports at module level only, the sequence theory in
`rates` depends on no analysis module, and every package export is
declared in the `__all__` of the module it comes from."""

import ast
import importlib
from pathlib import Path

import pytest

import circdeconv

SRC = Path(circdeconv.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    lazy = [
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert lazy == []


def test_rates_depends_on_no_analysis_module():
    imported = set()
    for node in ast.walk(_tree(SRC / "rates.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name.split(".")[-1] for a in node.names)
    forbidden = {"estimation", "testing", "lowerbounds", "harness", "cli"}
    assert imported & forbidden == set()


def test_package_exports_declared_in_home_module():
    missing = []
    for node in _tree(SRC / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            home = importlib.import_module(f"circdeconv.{node.module}")
            missing += [
                f"{node.module}.{a.name}" for a in node.names if a.name not in home.__all__
            ]
    assert missing == []
