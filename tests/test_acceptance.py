"""End-to-end acceptance runs at desk scale.

Each test prints one PASS/FAIL line (unbuffered past pytest's capture) with
the measured quantity and its tolerance, then asserts.  Budgets are generous
relative to the observed runtimes; the heavyweight solves are shared through
module-scoped fixtures.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from qrbsde import lab
from qrbsde.cli import main as cli_main
from qrbsde.forward import euler_simulate, make_grid, sample_increments
from qrbsde.model import (TruncationRadius, build_preset, smooth_truncation)
from qrbsde.oracle import (build_space_grid, exact_scheme_solve,
                           snell_cole_hopf)
from qrbsde.regress import BasisSpec
from qrbsde.scheme import estimate_Mz_auto, solve_backward

pytestmark = pytest.mark.filterwarnings(
    "ignore:quadrature points left the space grid")


@pytest.fixture(scope="module")
def report():
    lines = []

    def _report(tag, ok, detail):
        line = f"[acceptance {tag}] {'PASS' if ok else 'FAIL'} — {detail}"
        lines.append(line)
        print(line)
        return ok

    yield _report
    print()
    for line in lines:
        print(line)


@pytest.fixture(scope="module")
def p1():
    return build_preset("P1-pure-quadratic")


@pytest.fixture(scope="module")
def p2():
    return build_preset("P2-mixed-quadratic")


@pytest.fixture(scope="module")
def p1_reference_solve(p1):
    """The pinned production-scale solve: N=64, P=5*10^4, degree-6, seed 42."""
    grid, sched = make_grid(64, p1.T, "all")
    bundle = euler_simulate(p1, sample_increments(grid, 50_000, 42, p1.m))
    basis = BasisSpec(degree=6)
    radius = estimate_Mz_auto(p1, grid, sched, bundle, basis)
    sol = solve_backward(p1, grid, sched, bundle, basis, radius)
    return grid, sched, bundle, basis, radius, sol


def test_01_oracle_cross_agreement(p1, report):
    space = build_space_grid(p1)
    gaps = []
    for N in (64, 128, 256):
        grid, sched = make_grid(N, p1.T, "all")
        a = exact_scheme_solve(p1, grid, sched, space)
        b = snell_cole_hopf(p1, grid, sched, space)
        gaps.append(abs(a.y0 - b.y0))
    ok = gaps[0] <= 1e-3 and gaps[1] < gaps[0] and gaps[2] < gaps[1]
    assert report("01 oracle cross-agreement", ok,
                  f"|exact-scheme - snell| at N=64/128/256 = "
                  f"{gaps[0]:.2e}/{gaps[1]:.2e}/{gaps[2]:.2e} (need <= 1e-3, shrinking)")


def test_02_scheme_vs_oracle(p1, p1_reference_solve, report):
    grid, sched, bundle, basis, radius, sol = p1_reference_solve
    space = build_space_grid(p1)
    y0_star = snell_cole_hopf(p1, grid, sched, space).y0
    tol = max(3.0 * sol.y0_se, 0.01)
    diff = abs(sol.y0_fit - y0_star)
    assert report("02 scheme vs oracle", diff <= tol,
                  f"|Y0 - snell| = {diff:.5f} vs tol {tol:.5f} "
                  f"(Y0={sol.y0_fit:.5f}, snell={y0_star:.5f}, SE={sol.y0_se:.1e})")


def test_03_convergence_rate(p1, report):
    mc = lab.MCConfig(n_paths=50_000, seed=42, basis=BasisSpec(degree=6))
    rep = lab.run_convergence(p1, [8, 16, 32, 64, 128], mc)
    errs = [c["y0_err"] for c in rep.cells]
    mono = all(b < a for a, b in zip(errs, errs[1:]))
    sy = rep.slopes["y0_err"].slope
    sz = rep.slopes["z_err"].slope
    ok = mono and sy >= 0.2 and sz >= 0.2
    assert report("03 convergence rate", ok,
                  f"Y0-error slope {sy:.2f}, Z-error slope {sz:.2f} "
                  f"(need >= 0.2 each), monotone={mono}")


def test_04_discrete_reflection_rate(p1, report):
    rep = lab.run_discrete_reflection_sweep(p1, 256, [4, 8, 16, 32, 64])
    ys = [c["y0"] for c in rep.cells]
    mono = all(b >= a - 1e-10 for a, b in zip(ys, ys[1:]))
    slope = rep.slopes["gap"].slope
    ok = mono and slope >= 0.25
    assert report("04 discrete-reflection rate", ok,
                  f"gap slope {slope:.2f} (need >= 0.25), "
                  f"monotone under refinement={mono}")


def test_05_stability_boundedness(p2, report):
    mc = lab.MCConfig(n_paths=20_000, seed=42, basis=BasisSpec(degree=6))
    rep = lab.run_stability(p2, "drift-shift", [0.4, 0.2, 0.1, 0.05], mc, N=64)
    cells = rep.rows()
    mono = all(
        all(b[k] < a[k] for a, b in zip(cells, cells[1:]))
        for k in ("D_Y", "D_Z", "D_K"))
    ratios = [c["ratio_Y"] for c in cells]
    bounded = max(ratios) <= 2.0 * ratios[0]
    assert report("05 stability boundedness", mono and bounded,
                  f"D monotone={mono}, max ratio {max(ratios):.4f} vs "
                  f"2x ratio(0.4) = {2 * ratios[0]:.4f}")


def test_06_euler_perturbation_stability(p2, report):
    mc = lab.MCConfig(n_paths=20_000, seed=42, basis=BasisSpec(degree=6))
    rep = lab.run_stability(p2, "euler-vs-exact", [8, 16, 32, 64], mc)
    sx = rep.slopes["dx_proxy"].slope
    sy = rep.slopes["D_Y"].slope
    ok = sx >= 0.45 and sy >= 0.45
    assert report("06 euler-perturbation stability", ok,
                  f"||dX|| slope {sx:.2f}, D_Y slope {sy:.2f} (need >= 0.45 each)")


def test_07_a_priori_bound(p1, report):
    mc = lab.MCConfig(n_paths=20_000, seed=42, basis=BasisSpec(degree=6))
    rep1 = lab.run_diagnostics(p1, 64, mc)
    ok = rep1.tail_sum_max <= 7.390
    details = [f"P1 tail-sum {rep1.tail_sum_max:.4f} <= 7.390"]
    for name in ("P2-mixed-quadratic", "P3-lipschitz"):
        rep = lab.run_diagnostics(build_preset(name), 64, mc)
        ok = ok and rep.flags["within_bound"]
        details.append(f"{name.split('-')[0]} {rep.tail_sum_max:.4f} <= "
                       f"{rep.bound_value:.1f}")
    assert report("07 a priori bound", ok, ", ".join(details))


def test_08_truncation_contract(p1, report, stacked):
    rng = np.random.default_rng(12345)
    n = 1.3
    z = rng.normal(scale=4.0, size=(10 ** 5, 1))
    zp = z + rng.normal(scale=2.0, size=z.shape)
    h, hp = smooth_truncation(z, n), smooth_truncation(zp, n)
    inside = np.abs(z[:, 0]) <= n
    identity = bool(np.all(h[inside] == z[inside]))
    bounded = bool(np.all(np.abs(h) <= n + 1.0 + 1e-12))
    lipschitz = bool(np.all(np.abs(h - hp) <= np.abs(z - zp) * (1 + 1e-10)))

    grid, sched = make_grid(16, p1.T, "all")
    bundle = euler_simulate(p1, sample_increments(grid, 5000, 42, 1))
    basis = BasisSpec(degree=6)
    sol_r = stacked(p1, grid, sched, bundle, basis, TruncationRadius(8.0))
    big_enough = float(np.max(np.abs(sol_r[1]))) + 1.0 <= 8.0
    sol_10r = stacked(p1, grid, sched, bundle, basis, TruncationRadius(80.0))
    noop = all(np.array_equal(a, b) for a, b in zip(sol_r, sol_10r))
    ok = identity and bounded and lipschitz and big_enough and noop
    assert report("08 truncation contract", ok,
                  f"identity={identity}, |h|<=n+1={bounded}, "
                  f"1-Lipschitz={lipschitz}, R/10R bit-identical={noop}")


def test_09_discrete_skorokhod(p1, p1_reference_solve, report):
    grid, sched, bundle, basis, radius, sol = p1_reference_solve
    flags = sol.skorokhod
    # also on a sparse schedule
    grid2, sched2 = make_grid(32, p1.T, ("every", 4))
    bundle2 = euler_simulate(p1, sample_increments(grid2, 5000, 7, 1))
    sol2 = solve_backward(p1, grid2, sched2, bundle2, BasisSpec(degree=6),
                          TruncationRadius(5.0))
    flags2 = sol2.skorokhod
    ok = flags["all"] and flags2["all"]
    assert report("09 discrete skorokhod", ok,
                  f"dense schedule {flags}, sparse schedule {flags2}")


def test_10_determinism(tmp_path, report):
    config = json.dumps({
        "problem": {"preset": "P1-pure-quadratic"},
        "grid": {"N": 16},
        "mc": {"paths": 4000},
    })
    outs = []
    for threads, name in ((1, "a"), (8, "b"), (1, "c")):
        out = tmp_path / name
        code = cli_main(["solve", "--config", config, "--out", str(out),
                         "--threads", str(threads)])
        assert code == 0
        outs.append((out / "summary.json").read_bytes()
                    + (out / "steps.csv").read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    assert report("10 determinism", ok,
                  "reruns across thread counts 1/8 bit-identical" if ok
                  else "outputs differ across reruns")
