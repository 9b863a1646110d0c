"""Every module-level import in the package is used, and the oracle's space
interpolation rule and the least-squares fit each have their homes.

Stdlib-``ast`` checks, so they need no linter: for each module except the
re-exporting ``__init__.py``, every name bound by a top-level ``import`` or
``from ... import`` must be read somewhere in that module; and across the
package ``PchipInterpolator`` is constructed in exactly one function and
``fit_least_squares`` is called only by the step's projection and the
diagnostics' tail-sum regression.  A fresh interpreter that imports the
package and runs a small convergence study never loads ``scipy.stats``, nor
``scipy.interpolate`` and the subpackages that it pulls in.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qrbsde"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Optional\n"
                           "x: Optional[int] = None\n") == ["line 1: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(path.read_text()) == []


def _callers(source: str, name: str, prefix: str = "") -> list:
    """Qualified names of the functions that call ``name``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", getattr(child.func, "attr", None))
                    == name):
                found.append(prefix + ".".join(scope or ["<module>"]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_checker_finds_every_pchip_builder():
    source = ("from scipy.interpolate import PchipInterpolator\n"
              "class A:\n    def f(self):\n        return PchipInterpolator(1, 2)\n"
              "def g():\n    return [scipy.interpolate.PchipInterpolator(x, y)]\n")
    assert _callers(source, "PchipInterpolator") == ["A.f", "g"]


HOMES = {
    "PchipInterpolator": ["oracle.SpaceGrid.interpolate"],
    "fit_least_squares": ["lab.run_diagnostics", "scheme.z_projection_step"],
}


@pytest.mark.parametrize("name", HOMES)
def test_one_home(name):
    callers = [c for path in MODULES
               for c in _callers(path.read_text(), name, path.stem + ".")]
    assert callers == HOMES[name]


_COLD_START = """
import sys
import qrbsde, qrbsde.cli
loaded = ["scipy.stats" in sys.modules]
qrbsde.run_convergence(qrbsde.build_preset("P1-pure-quadratic"), [4, 8, 16, 32],
                       qrbsde.MCConfig(n_paths=2000, seed=0))
loaded.append("scipy.stats" in sys.modules)
print(loaded)
"""


def test_import_and_convergence_do_not_load_scipy_stats():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", _COLD_START],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False]"


# loaded by ``import scipy.interpolate``, which the package does not need
_INTERPOLATE_STACK = ("scipy.interpolate", "scipy.sparse", "scipy.spatial",
                      "scipy.optimize", "scipy.fft")


def test_import_and_convergence_do_not_load_scipy_interpolate():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    script = (_COLD_START + "print([m for m in %r if m in sys.modules])\n"
              % (_INTERPOLATE_STACK,))
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", script],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
