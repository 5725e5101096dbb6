"""Every module of the package imports cleanly when it is the first one imported,
and every private function of the package is used by the package.

``import sympetf.x`` always runs the package ``__init__`` first, which hides
an import cycle behind ``__init__``'s fixed order.  So each module is
loaded in a fresh interpreter under a bare package whose ``__init__`` has
not run, and the package itself is imported the usual way.  A private
function that only tests call is a test oracle and belongs under tests/.
A public function takes a ``tol`` only where some caller sets one.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "sympetf").glob("*.py") if p.stem != "__main__")

FIRST_IMPORT = """\
import importlib, sys, types
name, src = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
if name != "__init__":
    package = types.ModuleType("sympetf")
    package.__path__ = [src + "/sympetf"]
    sys.modules["sympetf"] = package
importlib.import_module("sympetf" if name == "__init__" else "sympetf." + name)
"""


def test_every_module_is_found():
    assert {"__init__", "frames", "hadamard", "tournaments", "skewlinalg"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(name):
    proc = subprocess.run([sys.executable, "-c", FIRST_IMPORT, name, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_the_package_does_not_import_scipy():
    # scipy.linalg adds about 0.25 s of import and 23 MB of peak memory to each CLI call
    proc = subprocess.run([sys.executable, "-c", "import sys, sympetf; print('scipy' in sys.modules)"],
                          capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stdout == "False\n", proc.stderr


def _names(node):
    """Every name a node reads, as a bare name, an attribute or an imported name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_function_is_used_by_the_package():
    statements = [(path.stem, stmt) for path in sorted((SRC / "sympetf").glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    unused = [
        f"{module}.{stmt.name}"
        for module, stmt in statements
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")
        and not any(stmt.name in _names(other) for _, other in statements if other is not stmt)
    ]
    assert unused == []


SETS_TOL = {  # each is passed a tol by the CLI's --tol or by a tolerance study in tests/
    "check_skew", "is_tight", "is_equiangular", "etf_to_conference", "certify_etf",
    "etf_to_hadamard_square", "etf_core_to_hadamard", "double_frame", "lift_square",
    "lift_core", "signature_check",
}


def test_tol_is_a_parameter_only_where_a_caller_sets_it():
    from sympetf.skewlinalg import ToleranceProfile

    takes_tol = set()
    for name in MODULES:
        if name == "__init__":
            continue
        module = importlib.import_module("sympetf." + name)
        takes_tol |= {attr for attr, obj in vars(module).items()
                      if not attr.startswith("_") and inspect.isfunction(obj)
                      and obj.__module__ == module.__name__ and "tol" in inspect.signature(obj).parameters}
    assert takes_tol == SETS_TOL
    # the rank threshold is the constant skewlinalg.RANK_REL_TOL, not a setting
    assert [f.name for f in dataclasses.fields(ToleranceProfile)] == ["residual_rel_tol", "entry_tol"]
