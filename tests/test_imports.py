"""Every module of the package imports cleanly when it is the first one imported.

``import sympetf.x`` always runs the package ``__init__`` first, which hides
an import cycle behind ``__init__``'s fixed order.  So each module is
loaded in a fresh interpreter under a bare package whose ``__init__`` has
not run, and the package itself is imported the usual way.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "sympetf").glob("*.py") if p.stem != "__main__")

FIRST_IMPORT = """\
import importlib, sys, types
name, src = sys.argv[1], sys.argv[2]
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
