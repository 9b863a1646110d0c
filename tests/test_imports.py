"""Every module-level import in the package is used, and the oracle's space
interpolation rule, the least-squares fit and the backward loop each have
their homes.

Stdlib-``ast`` checks, so they need no linter: for each module except the
re-exporting ``__init__.py``, every name bound by a top-level ``import`` or
``from ... import`` must be read somewhere in that module; and across the
package ``PchipInterpolator`` is constructed in exactly one function,
``fit_least_squares`` is called only by the step's projection and the
diagnostics' tail-sum regression, ``localize_basis`` and ``build_basis``
only by a backward step's state half, ``factor_design`` only by that state
half and by a fit given no factor, ``z_projection_step`` only by the
one backward-step kernel, ``backward_steps`` only by the solve, the
convergence cell, the stability legs (the base leg in each of the two
kinds, the second leg in the one coupled-leg helper) and the diagnostics,
``estimate_Mz_auto``, the one auto radius rule, only by the one Monte Carlo
set-up, ``solve_backward`` only by the CLI's solve, and ``_deltas`` only by
the one coupled stability leg, ``_ahead``, the one call that starts a
helper thread, only by the draw-and-step pass, the backward loop, the
convergence study and the convergence cell, ``helper_pays`` only by
``_ahead``, which asks it for every stage, and by the backward loop, which
sizes its design blocks by it, the Euler step only by the
draw-and-step pass, and the h_n rule, ``truncate_rows``, only by the public
truncation function and the backward step of each engine: the path loop,
the lattice and the tree.  The callers are read with ``_callers`` below.

The package runs on numpy alone: no module imports scipy, at module level
or inside a function.  A fresh interpreter that imports the package and runs
a small convergence study never loads ``scipy.stats``, ``scipy.linalg``
(each least-squares fit makes one numpy ``eigh``), nor ``scipy.interpolate``
and the subpackages that it pulls in.  One that imports the package and the
CLI, builds every preset and runs a small ``solve`` loads no scipy module at
all, and neither does one that runs small ``converge``, ``stability``
(drift-shift), ``reflect-sweep``, ``diagnose``, ``oracle`` and ``validate``
jobs through the CLI.
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


def _scipy_imports(source: str) -> list:
    """Line and module of every import of scipy, at any level."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names
                  if n.split(".")[0] == "scipy"]
    return found


def test_checker_flags_a_scipy_import_at_any_level():
    source = ("import os, scipy.stats as st\n"
              "def f():\n    from scipy.special import stdtrit\n"
              "    from . import scipyish\n"
              "class A:\n    def g(self):\n        import scipy\n")
    assert _scipy_imports(source) == ["line 1: scipy.stats",
                                      "line 3: scipy.special", "line 7: scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert _scipy_imports(path.read_text()) == []


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
    # one place localizes, builds and factors the basis that both
    # regressions above read: a backward step's state half; the fit factors
    # a design only when it is given no factor
    "localize_basis": ["scheme.step_state"],
    "build_basis": ["scheme.step_state"],
    "factor_design": ["regress.fit_least_squares", "scheme.step_state"],
    # the backward loop has one home: a second copy, such as a separate pilot
    # loop, would be a second caller
    "z_projection_step": ["scheme.backward_steps"],
    # every consumer reads the one backward loop as its steps are yielded:
    # the convergence cell, the second stability leg, each stability kind's
    # base leg, the diagnostics and the solve
    "backward_steps": ["lab._convergence_cell", "lab._coupled_cell",
                       "lab.run_stability", "lab.run_stability",
                       "lab.run_diagnostics", "scheme.solve_backward"],
    # one auto radius rule, read where the set-up sizes the radius: a
    # second rule, such as one sized off a walk, would be a second caller
    "estimate_Mz_auto": ["lab._mc_setup"],
    # the only caller of the solve that records each step is the CLI's solve
    "solve_backward": ["cli._run_solve"],
    "_deltas": ["lab._coupled_cell"],
    # the one helper thread: two of every three steps' draws, the next
    # step's state half, a convergence study's one draw beside its lattice
    # solves, and the convergence cell's whole walk (inside it, the walk and
    # its state halves stay on that one helper)
    "_ahead": ["forward._forward_pass", "lab._convergence_cell",
               "lab.run_convergence", "scheme.backward_steps"],
    # _ahead asks whether a helper pays for every stage, so no stage can
    # start one at any path count or on a helper; the backward loop asks
    # only to size its design blocks
    "helper_pays": ["forward._ahead", "scheme.backward_steps"],
    # one Euler step, in the one draw-and-step pass that serves
    # sample_and_simulate, sample_increments and euler_simulate alike
    "_euler_step": ["forward._forward_pass"],
    # h_n and its 1 + 4 eps edge have one home, read by the public
    # truncation function and by every engine's backward step: the path
    # step's one-norm truncation and the lattice's and the tree's
    "truncate_rows": ["model.smooth_truncation", "oracle.exact_scheme_solve",
                      "oracle.brute_force_tiny", "scheme.backward_steps"],
}


def _package_callers(name: str) -> list:
    return [c for path in MODULES
            for c in _callers(path.read_text(), name, path.stem + ".")]


@pytest.mark.parametrize("name", HOMES)
def test_one_home(name):
    assert _package_callers(name) == HOMES[name]


_COLD_START = """
import sys
import qrbsde, qrbsde.cli
loaded = ["scipy.stats" in sys.modules]
qrbsde.run_convergence(qrbsde.build_preset("P1-pure-quadratic"), [4, 8, 16, 32],
                       qrbsde.MCConfig(n_paths=2000, seed=0))
loaded.append("scipy.stats" in sys.modules)
print(loaded)
"""


def _run_fresh(script: str) -> list:
    """The printed lines of ``script`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", script],
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


@pytest.fixture(scope="module")
def cold_start():
    """One run of ``_COLD_START``: its scipy.stats flags and the names it
    leaves in ``sys.modules``."""
    lines = _run_fresh(_COLD_START + "print(sorted(sys.modules))\n")
    return lines[-2], set(ast.literal_eval(lines[-1]))


def test_import_and_convergence_do_not_load_scipy_stats(cold_start):
    assert cold_start[0] == "[False, False]"


# loaded by ``import scipy.interpolate``, which the package does not need
_INTERPOLATE_STACK = ("scipy.interpolate", "scipy.sparse", "scipy.spatial",
                      "scipy.optimize", "scipy.fft")


def test_import_and_convergence_do_not_load_scipy_interpolate(cold_start):
    assert [m for m in _INTERPOLATE_STACK if m in cold_start[1]] == []


def test_import_and_convergence_do_not_load_scipy_linalg(cold_start):
    # the least-squares fit decomposes its Gram with numpy's eigh
    assert "scipy.linalg" not in cold_start[1]


_COLD_SOLVE = """
import json, sys, tempfile
import qrbsde, qrbsde.cli
for name in qrbsde.model.PRESET_NAMES:
    qrbsde.build_preset(name)
config = {"grid": {"N": 8}, "mc": {"paths": 2000, "basis": {"degree": 3}}}
with tempfile.TemporaryDirectory() as out:
    code = qrbsde.cli.main(["solve", "--config", json.dumps(config),
                            "--out", out])
print([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
"""


def test_import_and_solve_load_no_scipy():
    assert ast.literal_eval(_run_fresh(_COLD_SOLVE)[-1]) == [0, []]


_COLD_JOBS = """
import json, sys, tempfile
import qrbsde.cli
small = {"mc": {"paths": 2000, "basis": {"degree": 3}}}
jobs = [("converge", {"experiment": {"Ns": [4, 8, 16, 32]}}),
        ("stability", {"problem": {"preset": "P2-mixed-quadratic"},
                       "grid": {"N": 8},
                       "experiment": {"perturbation": "drift-shift"}}),
        ("reflect-sweep", {"experiment": {"N": 16, "kappas": [2, 4, 8]}}),
        ("diagnose", {"grid": {"N": 8}}),
        ("oracle", {"grid": {"N": 8}}),
        ("validate", {"problem": {"preset": "P2-mixed-quadratic",
                                  "overrides": {"m": 2}}})]
codes = []
with tempfile.TemporaryDirectory() as out:
    for kind, config in jobs:
        codes.append(qrbsde.cli.main([kind, "--config", json.dumps(dict(small, **config)),
                                      "--out", f"{out}/{kind}"]))
print([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
"""


def test_every_cli_kind_loads_no_scipy():
    codes, scipy = ast.literal_eval(_run_fresh(_COLD_JOBS)[-1])
    assert codes == [0] * len(codes)
    assert scipy == []
