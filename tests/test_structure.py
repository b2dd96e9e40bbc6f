"""Module structure: imports at module level only and none of scipy, the
sequence theory in `rates` and the constructions in `lowerbounds` depend
on no analysis module, the package exports exactly the names in its
modules' `__all__` lists and no name is in two of them, every module
attribute the benchmark tracer wraps still exists, every module-level
private name is used, and every exported name is called by the program or
is one of the paper's results."""

import ast
import importlib
import inspect
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


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("rates", {"estimation", "testing", "lowerbounds", "harness", "cli"}),
        ("lowerbounds", {"sampling", "estimation", "testing", "harness", "cli"}),
        ("estimation", {"sampling", "testing", "lowerbounds", "harness", "cli"}),
        ("testing", {"sampling", "lowerbounds", "harness", "cli"}),
        # numpy, the stdlib and .errors only
        ("ingest", {"fourier", "rates", "estimation", "sampling", "testing", "lowerbounds",
                    "harness", "cli"}),
    ],
    ids=["rates", "lowerbounds", "estimation", "testing", "ingest"],
)
def test_depends_on_no_analysis_module(module, forbidden):
    imported = set()
    for node in ast.walk(_tree(SRC / f"{module}.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name.split(".")[-1] for a in node.names)
    assert imported & forbidden == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    # numpy is the only runtime dependency
    imported = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []


# The modules with an __all__, each star-imported by __init__.py (every
# module but cli).
EXPORTING = [
    module
    for module in (importlib.import_module(f"circdeconv.{path.stem}") for path in MODULES)
    if module is not circdeconv and hasattr(module, "__all__")
]


def test_package_exports_exactly_the_module_alls():
    exported = {name: getattr(module, name) for module in EXPORTING for name in module.__all__}
    # each the same object as in its home module
    assert sorted(
        name for name, obj in exported.items() if getattr(circdeconv, name, None) is not obj
    ) == []
    public = {
        name
        for name, obj in vars(circdeconv).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert sorted(public ^ exported.keys()) == []


def test_no_name_in_two_module_alls():
    # a star import would let the later module silently shadow the earlier
    homes = {}
    for module in EXPORTING:
        for name in module.__all__:
            homes.setdefault(name, []).append(module.__name__)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


# The names perfbench/launch.py wraps, by the module it looks them up in.
# A missing one would leave its per-layer metric silently empty.
TRACED = {
    "harness": [
        "sample_batch",
        "estimate_q_batch",
        "optimal_dim_est",
        "calibrate",
        "build_hypercube",
        "optimal_two_point_freq",
        "build_two_point",
    ],
    "estimation": ["empirical_coeffs_batch"],
    "cli": [
        "estimate_q",
        "run_test",
        "ingest_circular_data",
        "emit_report",
        "_write_out",
        "calibrate",
    ],
    "testing": ["estimate_q"],
    "rates": ["base_term"],
}


def test_traced_names_exist():
    missing = [
        f"{module}.{name}"
        for module, names in TRACED.items()
        for name in names
        if not hasattr(importlib.import_module(f"circdeconv.{module}"), name)
    ]
    assert missing == []


@pytest.mark.parametrize("module", ["rates", "lowerbounds", "fourier"])
def test_no_caller_set_window(module):
    # scan windows and series truncations are derived from the model
    window_args = {"k_max", "m_max", "truncation"}
    found = [
        f"{fn.name}({arg.arg})"
        for fn in ast.walk(_tree(SRC / f"{module}.py"))
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if arg.arg in window_args
    ]
    assert found == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    # a module-level function, class or assignment target with a leading
    # underscore (not a dunder) is private: one its own module never loads
    # is code nothing calls
    tree = _tree(path)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    dunder = {name for name in defined if name.startswith("__") and name.endswith("__")}
    private = {name for name in defined - dunder if name.startswith("_")}
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(private - loaded) == []


# Exports nothing in the program calls: the paper's stated results, kept
# as the package's API for the reader to evaluate.
PAPER_RESULTS = {
    "truncated_functional",
    "chi2_mixture_bound",
    "exact_mixture_chi2",
    "hellinger_reduction_bound",
    "testing_to_estimation_lb",
    "risk_upper_bound",
    "fit_log_rate",
}


def test_every_export_is_called_or_a_paper_result():
    # an exported name that no module of the program loads is code only the
    # tests call, which belongs in tests/oracles.py, unless it is listed
    program = [path for path in MODULES if path.name != "__init__.py"]
    loaded = {
        node.id
        for path in program
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    uncalled = {
        f"{path.stem}.{name}": name
        for path in program
        for name in getattr(importlib.import_module(f"circdeconv.{path.stem}"), "__all__", [])
        if name not in loaded
    }
    assert sorted(key for key, name in uncalled.items() if name not in PAPER_RESULTS) == []
    # the list holds no name the program calls or no longer exports
    assert sorted(PAPER_RESULTS - set(uncalled.values())) == []
