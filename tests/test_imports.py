"""Every module of the package imports cleanly when it is the first one imported,
every private function of the package is used by the package, and every public
name is used by the package or by a user's code.

``import sympetf.x`` always runs the package ``__init__`` first, which hides
an import cycle behind ``__init__``'s fixed order.  So each module is
loaded in a fresh interpreter under a bare package whose ``__init__`` has
not run, and the package itself is imported the usual way.  A private
function that only tests call is a test oracle and belongs under tests/.
A name that ``__init__`` exports is read by some other module of the
package, a demo, the acceptance test or the benchmark: one that only the
unit tests read is dead code with a test of its own.
A public function takes a ``tol`` only where some caller sets one, and
no value it can read off its arguments.  ``__init__`` is the one export
list: a module marks a name public by its missing underscore, and every
public function or class of a module is read like an exported name.  The rank
threshold is read by the one rank rule alone, which only the rank counts read
(``frames.is_tight`` decides by an identity and reads no spectrum), the symplectic Gram has the one
kernel ``skewlinalg._gram``, omega acts on rows through the one kernel
``skewlinalg._omega_rows`` and the doubling's B is an odd-row flip, so the dense
omega matrix is built for users alone and no dense B is built,
``hadamard._round_seidel`` is the one float-to-integer rounding, and
``tournaments._unit_gram`` is the one kernel of the exact +-1 identities: its
residual is the only float32 array, and no identity is decided by comparing a
product with a built identity matrix.  ``hadamard`` works on conference matrices:
each skew Hadamard input becomes C = H - I in one step, and I is added back
only to a skew Hadamard output.
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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = sorted((SRC / "sympetf").glob("*.py"))
MODULES = sorted(p.stem for p in PACKAGE if p.stem != "__main__")
# the code that reads the public names: the package past its export list, and its users
USERS = ([p for p in PACKAGE if p.stem != "__init__"] + sorted((ROOT / "demos").glob("*.py"))
         + [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "bench").glob("*.py")))

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


def _statements(paths):
    """(module, top-level statement) over every file of ``paths``."""
    return [(path.stem, stmt) for path in paths for stmt in ast.parse(path.read_text()).body]


def test_every_private_function_is_used_by_the_package():
    statements = _statements(PACKAGE)
    unused = [
        f"{module}.{stmt.name}"
        for module, stmt in statements
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")
        and not any(stmt.name in _names(other) for _, other in statements if other is not stmt)
    ]
    assert unused == []


def _defines(stmt, name):
    """Whether a top-level statement is the definition of ``name``."""
    targets = getattr(stmt, "targets", [])
    return getattr(stmt, "name", None) == name or any(getattr(t, "id", None) == name for t in targets)


def test_every_public_name_is_read_outside_its_definition_and_the_export_list():
    exported = [alias.asname or alias.name for _, stmt in _statements([SRC / "sympetf" / "__init__.py"])
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names]
    defined = [stmt.name for _, stmt in _statements(PACKAGE)
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")]
    statements = _statements(USERS)
    unread = [name for name in dict.fromkeys(exported + defined)
              if not any(name in _names(stmt) for _, stmt in statements if not _defines(stmt, name))]
    assert unread == []


def test_no_module_declares_an_export_list():
    assert [module for module, stmt in _statements(PACKAGE) if "__all__" in _names(stmt)] == []


def test_the_rank_threshold_is_read_only_by_its_definition_and_the_rank_rule():
    readers = [(module, getattr(stmt, "name", type(stmt).__name__)) for module, stmt in _statements(PACKAGE)
               if "RANK_REL_TOL" in _names(stmt)]
    assert readers == [("skewlinalg", "Assign"), ("skewlinalg", "_rank")]


def test_the_rank_rule_serves_the_rank_counts_and_is_tight_reads_no_spectrum():
    # is_tight decides tightness and rank by the one identity d h^3 + ||h||^2 h = 0, so it takes
    # no SVD and counts no rank; the rank rule is read where a rank is counted
    readers = [f"{module}.{stmt.name}" for module, stmt in _statements(PACKAGE)
               if isinstance(stmt, ast.FunctionDef) and "_rank" in _names(stmt) and not _defines(stmt, "_rank")]
    assert readers == ["complex_lift.synthesis_from_signature", "search.gerzon_oracle",
                       "skewlinalg.rank_by_sv", "skewlinalg._blocks"]
    is_tight = next(stmt for module, stmt in _statements(PACKAGE) if module == "frames" and _defines(stmt, "is_tight"))
    assert {"svd", "_rank", "rank_by_sv"} & set(_names(is_tight)) == set()


def test_skewlinalg_alone_defines_the_gram_kernel():
    assert [module for module, stmt in _statements(PACKAGE)
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "_gram"] == ["skewlinalg"]


def test_no_function_takes_an_omega_matrix():
    # omega acts as a signed swap of row pairs, so no kernel is handed the dense d x d matrix
    takes_om = [f"{module}.{node.name}" for module, stmt in _statements(PACKAGE) for node in ast.walk(stmt)
                if isinstance(node, ast.FunctionDef) and "om" in [a.arg for a in ast.walk(node.args)
                                                                  if isinstance(a, ast.arg)]]
    assert takes_om == []


def test_the_dense_omega_is_read_only_by_the_export_list():
    readers = [(module, getattr(stmt, "name", type(stmt).__name__)) for module, stmt in _statements(PACKAGE)
               if "omega" in _names(stmt) and not _defines(stmt, "omega")]
    assert readers == [("__init__", "ImportFrom")]


def test_skewlinalg_alone_defines_the_omega_row_kernel():
    assert [module for module, stmt in _statements(PACKAGE)
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "_omega_rows"] == ["skewlinalg"]


def test_frames_potentials_and_hadamard_build_no_dense_omega_or_b():
    # omega is applied by _omega_rows and the doubling's B = diag(1, -1, ...) by flipping odd rows,
    # so past omega's own definition no statement builds either d x d matrix to multiply by
    builders = [(module, getattr(stmt, "name", type(stmt).__name__)) for module, stmt in _statements(PACKAGE)
                if module in ("frames", "potentials", "hadamard") and not _defines(stmt, "omega")
                and {"omega", "diag", "default_b_matrix"} & set(_names(stmt))]
    assert builders == []


def test_hadamard_alone_rounds_floats_to_seidel_entries():
    # every float -> +-1 step of the package is the one rounding kernel beside the ETF gate
    readers = [(module, getattr(stmt, "name", type(stmt).__name__)) for module, stmt in _statements(PACKAGE)
               if "rint" in _names(stmt)]
    assert readers == [("hadamard", "_round_seidel")]


def test_unit_gram_alone_forms_the_exact_identities():
    # each exact a a^T = alpha I + beta J reads the residual of the one float32 kernel, so float32 is
    # read nowhere else and no statement compares against a target built from an identity matrix
    readers = [(module, getattr(stmt, "name", type(stmt).__name__)) for module, stmt in _statements(PACKAGE)
               if "float32" in _names(stmt)]
    assert readers == [("tournaments", "_unit_gram")]
    built_targets = [(module, getattr(stmt, "name", type(stmt).__name__)) for module, stmt in _statements(PACKAGE)
                     if {"array_equal", "eye"} <= set(_names(stmt))]
    assert built_targets == []


def test_hadamard_forms_h_minus_i_once_per_input_and_adds_i_only_on_output():
    # checks, conversions and constructions all read C: the identity is built only where an H
    # becomes C (the doubling [[C, C + I], [C - I, -C]] sets its two block diagonals by index),
    # and set on the diagonal only where an H is returned
    def readers(name):
        return [getattr(stmt, "name", type(stmt).__name__) for module, stmt in _statements(PACKAGE)
                if module == "hadamard" and name in _names(stmt)]

    assert readers("eye") == ["_conference_of"]
    assert readers("_conference_of") == ["is_skew_hadamard", "_check_skew_hadamard"]
    assert readers("fill_diagonal") == ["_etf_to_hadamard", "double_hadamard", "seed_hadamard"]


def test_tournaments_imports_only_the_error_types_from_the_package():
    tree = ast.parse((SRC / "sympetf" / "tournaments.py").read_text())
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert imported == ["errors"]


# each is passed a tol by the CLI's --tol, by a tolerance study in tests/, or, for
# certify_etf, by the continuous search's rounding profile search._ROUNDING_ONLY
SETS_TOL = {
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


def test_the_search_budget_is_its_only_setting_and_the_potentials_read_n_off_the_gram():
    from sympetf.potentials import normalize_nuclear
    from sympetf.search import SearchConfig

    # the first step and the stop margin are constants, read as cfg.step and cfg.target_residual
    assert [f.name for f in dataclasses.fields(SearchConfig)] == ["seed", "restarts", "max_iters"]
    assert (SearchConfig.step, SearchConfig.target_residual) == (0.05, 1e-6)
    assert SearchConfig().target_residual == 1e-6
    assert list(inspect.signature(normalize_nuclear).parameters) == ["g", "d"]
