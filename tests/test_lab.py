import dataclasses
import hashlib
import math
import re
import threading
import time
import weakref

import numpy as np
import pytest
from scipy import stats
from scipy.special import stdtrit

from qrbsde import forward, lab, oracle, regress, scheme
from qrbsde.forward import (euler_simulate, exact_simulate, make_grid,
                            sample_increments)
from qrbsde.model import build_preset, truncation_active
from qrbsde.regress import BasisSpec
from qrbsde.scheme import (SKOROKHOD_CONDITIONS, backward_steps, skorokhod_check,
                           y0_estimates)

pytestmark = pytest.mark.filterwarnings(
    "ignore:quadrature points left the space grid")

SMALL_MC = lab.MCConfig(n_paths=2000, seed=0, basis=BasisSpec(degree=3))


# ---------------------------------------------------------------------------
# slope fitting

def test_slope_fit_recovers_planted_exponents():
    hs = [0.4, 0.2, 0.1, 0.05]
    assert lab.slope_fit([(h, h) for h in hs]).slope == pytest.approx(1.0, abs=1e-12)
    fit = lab.slope_fit([(h, 3.0 * h ** 0.25) for h in hs])
    assert fit.slope == pytest.approx(0.25, abs=1e-12)
    assert fit.band95 == pytest.approx(0.0, abs=1e-9)


def test_slope_fit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lab.slope_fit([(0.1, 1.0), (0.2, 2.0)])           # too few points
    with pytest.raises(ValueError):
        lab.slope_fit([(0.1, 1.0), (0.2, 0.0), (0.4, 2.0)])  # zero error
    with pytest.raises(ValueError):
        lab.slope_fit([(0.1, 1.0), (0.1, 1.0), (0.1, 1.0)])  # degenerate h


def test_slope_fit_band_uses_the_student_t_quantile_bit_for_bit():
    rng = np.random.default_rng(1)
    for n in range(3, 9):
        hs = np.logspace(-3, -1, n)
        errs = hs ** 0.5 * np.exp(0.05 * rng.normal(size=n))
        lx, ly = np.log(hs), np.log(errs)
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
        resid = ly - (float(ly.mean() - slope * lx.mean()) + slope * lx)
        s2 = float(np.sum(resid ** 2) / (n - 2))
        want = float(stats.t.ppf(0.975, n - 2) * np.sqrt(s2 / sxx))
        assert lab.slope_fit(list(zip(hs, errs))).band95 == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1])
def test_slope_fit_rejects_non_finite_points_by_name(bad, where):
    points = [(0.1, 1.0), (0.2, 2.0), (0.4, 3.0), (0.8, 4.0)]
    pair = [0.4, 3.0]
    pair[where] = bad
    points[2] = tuple(pair)
    points[3] = (math.nan, math.nan)     # only the first bad pair is named
    with pytest.raises(ValueError, match=re.escape(repr(tuple(pair)))):
        lab.slope_fit(points)


def test_slopes_reports_none_for_a_key_with_an_infinite_cell():
    cells = [{"h": 0.4, "a": 4.0, "b": 0.4}, {"h": 0.2, "a": 2.0, "b": math.inf},
             {"h": 0.1, "a": 1.0, "b": 0.1}, {"h": 0.05, "a": 0.5, "b": 0.05}]
    slopes = lab._slopes(cells, "h", ("a", "b"))
    assert slopes["a"].slope == pytest.approx(1.0, abs=1e-12)
    assert slopes["b"] is None


def test_slopes_reports_none_for_a_key_with_a_nan_cell_and_skips_zeros():
    cells = [{"h": 0.4, "a": 4.0, "b": 0.4}, {"h": 0.2, "a": math.nan, "b": 0.0},
             {"h": 0.1, "a": 1.0, "b": 0.1}, {"h": 0.05, "a": 0.5, "b": 0.05}]
    slopes = lab._slopes(cells, "h", ("a", "b"))
    assert slopes["a"] is None
    assert slopes["b"].n_points == 3     # an exact 0 is a noise floor, skipped
    assert slopes["b"].slope == pytest.approx(1.0, abs=1e-12)


def test_mc_config_rejects_a_non_finite_radius_by_name():
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="M_z must be a finite positive"):
            lab.MCConfig(M_z=bad)


def test_tabled_student_t_quantiles_are_stdtrit_bit_for_bit():
    assert len(lab._T975) == 30
    for nu in range(1, 31):
        assert lab._t975(nu) == float(stdtrit(nu, 0.975)), nu


def test_computed_student_t_quantiles_match_stdtrit():
    nus = np.arange(31, 1001)
    got = np.array([lab._t975(int(nu)) for nu in nus])
    np.testing.assert_allclose(got, stdtrit(nus, 0.975), rtol=1e-13, atol=0)
    for nu in (2000, 5000, 10_000):
        assert lab._t975(nu) == pytest.approx(float(stdtrit(nu, 0.975)),
                                              rel=1e-12, abs=0), nu


def test_slope_fit_band_covers_noisy_truth():
    rng = np.random.default_rng(0)
    hs = np.logspace(-3, -1, 12)
    errs = hs ** 0.5 * np.exp(0.05 * rng.normal(size=12))
    fit = lab.slope_fit(list(zip(hs, errs)))
    assert abs(fit.slope - 0.5) <= 2.0 * fit.band95


# ---------------------------------------------------------------------------
# convergence runner

def test_convergence_validates_inputs():
    spec = build_preset("P1-pure-quadratic")
    with pytest.raises(ValueError):
        lab.run_convergence(spec, [8, 16, 32], SMALL_MC)
    with pytest.raises(ValueError):
        lab.run_convergence(spec, [8, 16, 16, 32], SMALL_MC)
    with pytest.raises(ValueError):
        lab.run_convergence(spec, [7, 8, 16, 32], SMALL_MC)   # 7 no divisor
    with pytest.raises(ValueError):
        lab.run_convergence(build_preset("P3-lipschitz"), [8, 16, 32, 64],
                            SMALL_MC, oracle="snell")


@pytest.mark.parametrize("Ns", [[0, 1, 2, 4], [-4, 1, 2, 4]])
def test_convergence_rejects_grid_sizes_below_one_before_any_solve(Ns, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the grid sizes")

    monkeypatch.setattr(lab, "exact_scheme_solve", no_solve)
    monkeypatch.setattr(lab, "snell_cole_hopf", no_solve)
    with pytest.raises(ValueError, match=f"grid sizes must be >= 1, got N={Ns[0]}"):
        lab.run_convergence(build_preset("P1-pure-quadratic"), Ns, SMALL_MC)


def test_convergence_rejects_non_integer_grid_sizes_by_name(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the grid sizes")

    monkeypatch.setattr(lab, "exact_scheme_solve", no_solve)
    monkeypatch.setattr(lab, "snell_cole_hopf", no_solve)
    with pytest.raises(ValueError, match="grid sizes N must be integers, got 4.5"):
        lab.run_convergence(build_preset("P1-pure-quadratic"), [4.5, 8, 16, 32], SMALL_MC)


def test_convergence_evaluates_each_oracle_step_once(monkeypatch):
    # one PCHIP evaluation on the path cloud per step: Y and Z of the
    # reference and of the same-N oracle are columns of one interpolant
    mc = lab.MCConfig(n_paths=1000, seed=0, basis=BasisSpec(degree=3))
    Ns = [4, 8, 16, 32]
    evals = []
    original = oracle.SpaceGrid.interpolate

    def counted(self, values, x):
        if np.size(x) == mc.n_paths:
            evals.append(1)
        return original(self, values, x)

    monkeypatch.setattr(oracle.SpaceGrid, "interpolate", counted)
    lab.run_convergence(build_preset("P1-pure-quadratic"), Ns, mc)
    assert len(evals) == sum(Ns)


def test_convergence_stores_no_path_solution(monkeypatch):
    def no_stored_solve(*args, **kwargs):
        raise AssertionError("run_convergence reached a stored path solve")

    monkeypatch.setattr(lab, "solve_backward", no_stored_solve)
    monkeypatch.setattr(lab, "_solve_mc", no_stored_solve)
    rep = lab.run_convergence(build_preset("P1-pure-quadratic"), [4, 8, 16, 32],
                              lab.MCConfig(n_paths=500, seed=0, basis=BasisSpec(degree=2)))
    assert [c["N"] for c in rep.cells] == [4, 8, 16, 32]


def _whole_array_cell(stacked, spec, N, mc, space, ref, stride, y0_ref):
    """A convergence cell from the stacked solve, its columns read in
    ascending time order."""
    grid, sched, bundle, radius = lab._mc_setup(spec, N, mc)
    Ybar, Zbar, _ = stacked(spec, grid, sched, bundle, mc.basis, radius)
    y0_fit, y0_se = y0_estimates(Ybar[:, 0], Ybar[:, 1])
    X = bundle.X_euler
    orc = oracle.exact_scheme_solve(spec, grid, sched, space)
    sup_y = mc_sup_y = 0.0
    z_terms, mc_z_terms = np.zeros(mc.n_paths), np.zeros(mc.n_paths)
    for i in range(N):
        v = space.interpolate(np.column_stack(
            [ref.y[stride * i], orc.y[i], ref.z[stride * i], orc.z[i]]), X[:, i])
        y_ref_i, y_orc_i, z_ref_i, z_orc_i = v[:, 0], v[:, 1], v[:, 2:3], v[:, 3:]
        sup_y = max(sup_y, float(np.sqrt(np.mean((y_orc_i - y_ref_i) ** 2))))
        mc_sup_y = max(mc_sup_y,
                       float(np.sqrt(np.mean((Ybar[:, i] - y_orc_i) ** 2))))
        z_terms += np.sum((z_orc_i - z_ref_i) ** 2, axis=-1) * grid.dt[i]
        mc_z_terms += np.sum((Zbar[:, i, :] - z_orc_i) ** 2, axis=-1) * grid.dt[i]
    return {
        "N": N, "mesh": grid.mesh, "y0_scheme": y0_fit, "y0_se": y0_se,
        "y0_oracle": orc.y0, "y0_ref": y0_ref, "y0_err": abs(orc.y0 - y0_ref),
        "y_sup_err": sup_y, "z_err": float(np.mean(z_terms)),
        "mc_y0_gap": abs(y0_fit - orc.y0), "mc_y_sup_err": mc_sup_y,
        "mc_z_gap": float(np.mean(mc_z_terms)), "M_z": radius.M_z,
        "trunc_active_frac":
            np.count_nonzero(truncation_active(Zbar, radius.M_z)) / (N * mc.n_paths),
    }


@pytest.mark.parametrize("M_z", [None, 2.0, 0.05])
def test_streamed_convergence_cell_matches_the_stored_solve(M_z, stacked):
    # the cell reads each backward step as it is yielded, so its z sums add
    # in descending time order: only those two may move, in the last bits
    spec = build_preset("P1-pure-quadratic")
    mc = lab.MCConfig(n_paths=1500, seed=3, basis=BasisSpec(degree=3), M_z=M_z)
    N = 8
    space = oracle.build_space_grid(spec)
    grid_ref, sched_ref = make_grid(2 * N, spec.T, "all")
    ref = oracle.exact_scheme_solve(spec, grid_ref, sched_ref, space)
    args = (spec, N, mc, space, ref, 2, ref.y0)
    got, _ = lab._convergence_cell(*args)
    want = _whole_array_cell(stacked, *args)
    assert list(got) == list(want)
    for key in ("z_err", "mc_z_gap"):
        assert got.pop(key) == pytest.approx(want.pop(key), rel=1e-12, abs=0)
    assert got == want


def test_convergence_is_bit_identical_to_the_serial_walk(monkeypatch):
    # the worker thread changes only where the path recursion runs
    spec = build_preset("P1-pure-quadratic")
    threaded = lab.run_convergence(spec, [4, 8, 16, 32], SMALL_MC).to_dict()
    monkeypatch.setattr(lab, "_ahead", iter)
    assert lab.run_convergence(spec, [4, 8, 16, 32], SMALL_MC).to_dict() == threaded


def _convergence_raises(error, match):
    """Run a small convergence study that must raise ``error``; afterwards
    no thread it started may be left."""
    before = set(threading.enumerate())
    with pytest.raises(error, match=match):
        lab.run_convergence(build_preset("P1-pure-quadratic"), [4, 8, 16, 32],
                            lab.MCConfig(n_paths=500, seed=0, basis=BasisSpec(degree=2)))
    assert set(threading.enumerate()) == before


def test_convergence_raises_a_failing_path_walk_as_it_was(monkeypatch):
    steps = lab.backward_steps

    def failing(*args):
        for k, step in enumerate(steps(*args)):
            if k == 2:
                raise RuntimeError("walk failed at its third step")
            yield step

    monkeypatch.setattr(lab, "backward_steps", failing)
    _convergence_raises(RuntimeError, "^walk failed at its third step$")


def test_convergence_joins_the_walk_when_a_lookup_fails(monkeypatch):
    # the third lookup on the path cloud fails while the worker walks
    original, calls = oracle.SpaceGrid.interpolate, []

    def failing(self, values, x):
        if np.size(x) == 500:
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("lookup failed")
        return original(self, values, x)

    monkeypatch.setattr(oracle.SpaceGrid, "interpolate", failing)
    _convergence_raises(ValueError, "^lookup failed$")
    assert len(calls) == 3


def test_ahead_walks_in_the_callers_errstate():
    def overflowing():
        yield np.float64(1.0)
        yield np.float64(1e308) * 10.0

    before = threading.active_count()
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            list(lab._ahead(overflowing()))
    assert threading.active_count() == before


def test_ahead_runs_one_item_ahead_and_closes_the_walk_on_early_exit():
    made, closed = [], []

    def counting():
        try:
            for k in range(10):
                made.append(k)
                yield k
        finally:
            closed.append(True)

    before = threading.active_count()
    steps = counting()   # held here, so only an explicit close ends it
    walk = lab._ahead(steps)
    for k in walk:
        deadline = time.monotonic() + 5.0
        while len(made) < k + 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.01)   # time for a worker that ran further to show it
        assert len(made) == k + 2
        if k == 3:
            break
    walk.close()
    assert closed == [True] and len(made) == 5
    assert threading.active_count() == before


def test_convergence_small_run_shapes_and_monotonicity():
    spec = build_preset("P1-pure-quadratic")
    rep = lab.run_convergence(spec, [4, 8, 16, 32], SMALL_MC)
    assert [c["N"] for c in rep.cells] == [4, 8, 16, 32]
    errs = [c["y0_err"] for c in rep.cells]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert rep.slopes["y0_err"].slope > 0.2
    assert rep.slopes["z_err"].slope > 0.2
    assert rep.reference["y0_oracle"] == "snell"
    # the reference, its Snell twin and one oracle per N, at 401 nodes x 15 points
    count, total = rep.reference["off_grid"]
    assert 0 < count < total == (64 + 64 + 4 + 8 + 16 + 32) * 401 * 15
    d = rep.to_dict()
    assert d["kind"] == "grid-refinement" and len(d["cells"]) == 4


def test_convergence_lipschitz_first_order():
    """Classical behaviour for the Lipschitz preset: the noise-free rate sits
    near first order in the mesh."""
    spec = build_preset("P3-lipschitz")
    rep = lab.run_convergence(spec, [4, 8, 16, 32], SMALL_MC, oracle="exact-scheme")
    # coarse grids overshoot first order a little; anything in [0.8, 2] is
    # the classical regime rather than a stalled rate
    assert 0.8 <= rep.slopes["y0_err"].slope <= 2.0


def test_convergence_flags_noise_floor():
    spec = dataclasses.replace(
        build_preset("P1-pure-quadratic"),
        generator=lambda t, x, y, z: np.zeros(np.shape(y)),
        pure_quadratic=False)
    rep = lab.run_convergence(spec, [4, 8, 16, 32], SMALL_MC)
    assert rep.floor_limited


# ---------------------------------------------------------------------------
# reflection sweep

def test_reflection_sweep_p1():
    spec = build_preset("P1-pure-quadratic")
    rep = lab.run_discrete_reflection_sweep(spec, 64, [4, 8, 16, 32, 64])
    gaps = {c["kappa"]: c["gap"] for c in rep.cells}
    assert gaps[64] == 0.0                       # kappa = N is the reference
    assert rep.reference["monotone_nondecreasing"]
    assert rep.slopes["gap"].slope >= 0.25


def test_reflection_sweep_rejects_nondivisor():
    spec = build_preset("P1-pure-quadratic")
    with pytest.raises(ValueError):
        lab.run_discrete_reflection_sweep(spec, 64, [3])


def test_reflection_sweep_rejects_empty_kappas():
    # zero cells would otherwise report a monotone, passing sweep
    with pytest.raises(ValueError, match="kappas must not be empty"):
        lab.run_discrete_reflection_sweep(build_preset("P1-pure-quadratic"), 8, [])


def test_reflection_sweep_rejects_non_integer_kappas_by_name(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the kappas")

    spec = build_preset("P1-pure-quadratic")
    with monkeypatch.context() as patched:
        patched.setattr(lab, "build_space_grid", no_solve)
        with pytest.raises(ValueError, match="kappas must be integers, got 4.9"):
            lab.run_discrete_reflection_sweep(spec, 16, [4.9, 8])
    # integral floats name the same kappas
    rep = lab.run_discrete_reflection_sweep(spec, 16, [4.0, 8.0])
    assert [c["kappa"] for c in rep.cells] == [4, 8]


def test_reflection_sweep_exact_scheme_engine():
    spec = build_preset("P3-lipschitz")
    rep = lab.run_discrete_reflection_sweep(spec, 32, [4, 8, 16])
    assert rep.reference["engine"] == "exact-scheme"
    assert all(c["gap"] >= -1e-10 for c in rep.cells)


@pytest.mark.parametrize("engine", ["snell", "exact-scheme"])
def test_reflection_sweep_off_grid_sums_every_lattice_solve(engine):
    spec = build_preset("P1-pure-quadratic")
    N, kappas = 16, [2, 4, 8]
    rep = lab.run_discrete_reflection_sweep(spec, N, kappas, engine=engine)
    solve = oracle.snell_cole_hopf if engine == "snell" else oracle.exact_scheme_solve
    space = oracle.build_space_grid(spec)
    per_solve = [solve(spec, *make_grid(N, spec.T, r), space).off_grid
                 for r in ["all"] + [("every", N // k) for k in kappas]]
    assert rep.reference["off_grid"] == [sum(c[0] for c in per_solve),
                                         sum(c[1] for c in per_solve)]
    assert rep.reference["off_grid"][1] == (1 + len(kappas)) * N * space.J * space.quad_order
    assert rep.reference["off_grid"][0] > 0


# ---------------------------------------------------------------------------
# stability runner

def test_stability_drift_shift_scaling():
    spec = build_preset("P2-mixed-quadratic")
    rep = lab.run_stability(spec, "drift-shift", [0.4, 0.2, 0.1], SMALL_MC, N=16)
    cells = rep.rows()
    for key in ("D_Y", "D_Z", "D_K", "dx_proxy"):
        vals = [c[key] for c in cells]
        assert all(b < a for a, b in zip(vals, vals[1:])), (key, vals)
    # first-power bound: the D/||dX|| ratio peaks at the largest eps
    ratios = [c["ratio_Y"] for c in cells]
    assert max(ratios) <= 2.0 * ratios[0]
    assert rep.dw_checksum


@pytest.mark.parametrize("kind, levels, Ns", [
    ("drift-shift", [0.2, 0.1], [8]),
    ("euler-vs-exact", [4, 8, 16], [4, 8, 16]),
])
def test_stability_checksum_hashes_every_level_in_order(kind, levels, Ns):
    # drift-shift's legs share one bundle: its checksum is that dW's sha256
    spec = build_preset("P2-mixed-quadratic")
    mc = lab.MCConfig(n_paths=300, seed=0, basis=BasisSpec(degree=2), M_z=2.0)
    rep = lab.run_stability(spec, kind, levels, mc, N=8)
    want = hashlib.sha256()
    for n in Ns:
        grid, _ = make_grid(n, spec.T)
        want.update(sample_increments(grid, 300, 0, spec.m).dW.tobytes())
    assert rep.dw_checksum == want.hexdigest()


def test_stability_zero_perturbation_is_exact_zero():
    spec = build_preset("P2-mixed-quadratic")
    rep = lab.run_stability(spec, "drift-shift", [0.1, 0.0], SMALL_MC, N=8)
    c0 = [c for c in rep.cells if c["eps"] == 0.0][0]
    assert c0["dx_proxy"] == 0.0
    assert c0["D_Y"] == 0.0 and c0["D_Z"] == 0.0 and c0["D_K"] == 0.0
    assert [c0[k] for k in ("ratio_Y", "C_Y", "C_Z", "C_K")] == [0.0] * 4


def test_stability_drift_shift_raises_unless_legs_share_increments(monkeypatch):
    # the report hashes dW once, which covers the shifted legs only when
    # they hold the very same increments object
    original = lab.euler_simulate

    def copying(spec, bundle):
        out = original(spec, bundle)
        return dataclasses.replace(out, dW=out.dW.copy())

    monkeypatch.setattr(lab, "euler_simulate", copying)
    with pytest.raises(RuntimeError, match="increments"):
        lab.run_stability(build_preset("P2-mixed-quadratic"), "drift-shift",
                          [0.1], lab.MCConfig(n_paths=200, seed=0), N=4)


def _whole_array_deltas(grid, XA, XB, legA, legB):
    """The coupled differences of two stacked legs (Ybar, Zbar, dK), from
    whole-array reductions."""
    (YA, ZA, KA), (YB, ZB, KB) = legA, legB
    return {
        "dx_proxy": float(np.mean(np.max(np.square(np.square(XA - XB)),
                                         axis=1))) ** 0.25,
        "D_Y": float(np.mean(np.max((YA - YB) ** 2, axis=1))),
        "D_Z": float(np.mean(np.sum(np.sum((ZA - ZB) ** 2, axis=-1)
                                    * grid.dt[None, :], axis=1))),
        "D_K": float(np.mean((np.sum(KA, axis=1) - np.sum(KB, axis=1)) ** 2)),
    }


def _descending_deltas(grid, XA, XB, legA, legB):
    """The same differences with the sums of D_Z and of each K_T added
    one time column at a time from i = N-1 down to 0, as the steps come."""
    (YA, ZA, KA), (YB, ZB, KB) = legA, legB
    dZ, kA, kB = (np.zeros(XA.shape[0]) for _ in range(3))
    for i in range(grid.N - 1, -1, -1):
        dZ += np.sum((ZA[:, i, :] - ZB[:, i, :]) ** 2, axis=1) * grid.dt[i]
        kA += KA[:, i]
        kB += KB[:, i]
    return dict(_whole_array_deltas(grid, XA, XB, legA, legB),
                D_Z=float(np.mean(dZ)), D_K=float(np.mean((kA - kB) ** 2)))


@pytest.mark.parametrize("m", [1, 2])
def test_deltas_match_the_whole_array_formulas_bit_for_bit(m, stacked):
    # the maxima are bit for bit; D_Z and D_K add in descending i, bit for
    # bit against that order and within 1e-12 of the whole-array sums
    spec = build_preset("P2-mixed-quadratic", {"m": m})
    mc = lab.MCConfig(n_paths=1500, seed=3, basis=BasisSpec(degree=3), M_z=2.0)
    grid, sched, bundle, radius = lab._mc_setup(spec, 8, mc)
    bundle = exact_simulate(spec, bundle)
    legs = [(spec, grid, sched, dataclasses.replace(bundle, X_euler=X), mc.basis, radius)
            for X in (bundle.X_euler, bundle.X_exact)]
    XA, XB = bundle.X_euler, bundle.X_exact
    got, truncated = lab._deltas(grid, XA, XB, *(backward_steps(*leg) for leg in legs))
    arrays = [stacked(*leg) for leg in legs]
    assert got == _descending_deltas(grid, XA, XB, *arrays)
    # the count of path-steps that h_{M_z} moved, over both walked legs
    assert truncated == sum(np.count_nonzero(truncation_active(Zbar, radius.M_z))
                            for _, Zbar, _ in arrays)
    want = _whole_array_deltas(grid, XA, XB, *arrays)
    for key in ("dx_proxy", "D_Y"):
        assert got.pop(key) == want.pop(key)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert all(v > 0 for v in want.values())


@pytest.mark.parametrize("kind, level", [("drift-shift", 0.2), ("euler-vs-exact", 8)])
def test_stability_cell_is_the_direct_second_leg_solve_bit_for_bit(kind, level, stacked):
    # the second leg solved here by hand, on the base leg's increments, grid,
    # schedule and (auto) radius, against the base leg
    spec = build_preset("P2-mixed-quadratic")
    mc = lab.MCConfig(n_paths=1500, seed=3, basis=BasisSpec(degree=3))
    N = 8
    grid, sched, bundle, radius = lab._mc_setup(spec, N, mc)
    if kind == "drift-shift":
        spec_b = dataclasses.replace(
            spec, drift=lambda t, x: np.asarray(spec.drift(t, x), dtype=float) + level)
        XB = euler_simulate(spec_b, dataclasses.replace(bundle, X_euler=None)).X_euler
        tail = {"eps": level}
    else:
        spec_b = spec
        XB = exact_simulate(spec, bundle).X_exact
        tail = {"N": N, "mesh": grid.mesh}
    legA = stacked(spec, grid, sched, bundle, mc.basis, radius)
    legB = stacked(spec_b, grid, sched, dataclasses.replace(bundle, X_euler=XB),
                   mc.basis, radius)
    want = {**_descending_deltas(grid, bundle.X_euler, XB, legA, legB), **tail}
    dx = want["dx_proxy"]
    want["ratio_Y"] = want["D_Y"] / dx
    want.update({f"C_{k}": want[f"D_{k}"] / dx ** 2 for k in "YZK"})

    cell = lab.run_stability(spec, kind, [level], mc, N=N).cells[0]
    assert list(cell.items()) == list(want.items())
    assert all(want[k] > 0 for k in ("dx_proxy", "D_Y", "D_Z", "D_K"))


def test_stability_constants_are_d_over_dx_proxy_squared():
    # C_Y, C_Z and C_K are D_Y, D_Z and D_K over dx_proxy**2, bit for bit,
    # beside ratio_Y = D_Y / dx_proxy, whose meaning stays
    rep = lab.run_stability(build_preset("P2-mixed-quadratic"), "drift-shift",
                            [0.4, 0.2, 0.1], SMALL_MC, N=8)
    for c in rep.rows():
        assert c["ratio_Y"] == c["D_Y"] / c["dx_proxy"]
        for k in "YZK":
            assert c[f"C_{k}"] == c[f"D_{k}"] / c["dx_proxy"] ** 2


@pytest.mark.parametrize("kind, levels, live", [
    ("drift-shift", [0.4, 0.2, 0.1], [(0, 1)] + [(4, 2)] * 3),
    ("euler-vs-exact", [4, 8, 16], [(0, 1)] * 6),
])
def test_stability_holds_one_leg_at_a_time(kind, levels, live, monkeypatch):
    # at each leg's start, the earlier legs' yielded steps and the Euler
    # states still alive: only the drift-shift base leg's 4 stored steps may
    # be, besides the states the legs are about to read; the states come
    # from the set-up's one draw-and-step pass and, for each shifted
    # drift-shift leg, from euler_simulate
    kept, states, seen = [], [], []
    steps = lab.backward_steps

    def alive(refs):
        return sum(ref() is not None for ref in refs)

    def tracked(simulate):
        def tracked_euler(*args):
            out = simulate(*args)
            states.append(weakref.ref(out.X_euler))
            return out
        return tracked_euler

    def tracked_steps(*args):
        seen.append((alive(kept), alive(states)))

        def walk():
            for step in steps(*args):
                kept.append(weakref.ref(step.y))
                yield step
        return walk()

    for name in ("euler_simulate", "sample_and_simulate"):
        monkeypatch.setattr(lab, name, tracked(getattr(lab, name)))
    monkeypatch.setattr(lab, "backward_steps", tracked_steps)
    mc = lab.MCConfig(n_paths=300, seed=0, basis=BasisSpec(degree=2), M_z=2.0)
    lab.run_stability(build_preset("P2-mixed-quadratic"), kind, levels, mc, N=4)
    assert seen == live


def test_drift_shift_keeps_no_base_leg_push_ups_or_obstacle_values(monkeypatch):
    # the base leg's K_T is folded as it is walked: at each shifted leg's
    # start none of its dk (or g) arrays is alive, while its y's are
    base, seen = [], []
    steps = lab.backward_steps

    def tracked_steps(*args):
        seen.append([sum(ref() is not None for ref in refs) for refs in zip(*base)]
                    if base else None)

        def walk():
            for step in steps(*args):
                if len(seen) == 1:   # the first walk is the base leg's
                    base.append((weakref.ref(step.y), weakref.ref(step.dk),
                                 weakref.ref(step.g)))
                yield step
        return walk()

    monkeypatch.setattr(lab, "backward_steps", tracked_steps)
    mc = lab.MCConfig(n_paths=300, seed=0, basis=BasisSpec(degree=2), M_z=2.0)
    lab.run_stability(build_preset("P2-mixed-quadratic"), "drift-shift",
                      [0.4, 0.2, 0.1], mc, N=4)
    assert seen == [None] + [[4, 0, 0]] * 3


@pytest.mark.parametrize("m", [1, 2])
def test_block_wise_increment_digest_is_the_whole_array_sha256(m):
    P = 2 * lab.DW_HASH_BLOCK + 37    # the last block is a short one
    grid, _ = make_grid(5, 1.0)
    dW = sample_increments(grid, P, 11, m).dW
    h = hashlib.sha256()
    lab._hash_increments(h, dW)
    assert h.hexdigest() == hashlib.sha256(dW.tobytes()).hexdigest()


def test_stability_euler_vs_exact():
    spec = build_preset("P2-mixed-quadratic")
    rep = lab.run_stability(spec, "euler-vs-exact", [4, 8, 16, 32], SMALL_MC)
    assert rep.slopes["dx_proxy"].slope >= 0.45
    assert rep.slopes["D_Y"].slope >= 0.45


def test_stability_validates_levels():
    spec = build_preset("P2-mixed-quadratic")
    with pytest.raises(ValueError):
        lab.run_stability(spec, "drift-shift", [0.1, 0.2], SMALL_MC)
    with pytest.raises(ValueError):
        lab.run_stability(spec, "euler-vs-exact", [16, 8], SMALL_MC)
    with pytest.raises(ValueError):
        lab.run_stability(spec, "resampling", [1.0], SMALL_MC)


@pytest.mark.parametrize("kind", ["drift-shift", "euler-vs-exact"])
def test_stability_rejects_empty_levels_before_any_solve(kind, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the levels")

    monkeypatch.setattr(lab, "_mc_setup", no_solve)
    monkeypatch.setattr(lab, "_mc_paths", no_solve)
    with pytest.raises(ValueError, match="levels must not be empty"):
        lab.run_stability(build_preset("P2-mixed-quadratic"), kind, [], SMALL_MC)


def test_stability_rejects_non_integer_levels_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the levels")

    with monkeypatch.context() as patched:
        patched.setattr(lab, "_mc_paths", no_solve)
        with pytest.raises(ValueError, match="N levels must be integers"):
            lab.run_stability(build_preset("P2-mixed-quadratic"), "euler-vs-exact",
                              [4.9, 8, 16, 32], SMALL_MC)
    # integral floats name the same grid sizes
    rep = lab.run_stability(build_preset("P2-mixed-quadratic"), "euler-vs-exact",
                            [4.0, 8.0, 16.0], lab.MCConfig(n_paths=300, seed=0, M_z=2.0))
    assert [c["N"] for c in rep.cells] == [4, 8, 16]


def test_stability_euler_vs_exact_simulates_each_level_once(monkeypatch):
    # the coupling check reads the first level's bundle, simulating none;
    # each level's bundle comes from one draw-and-step pass
    simulated, simulate = [], lab.sample_and_simulate

    def recorded(spec, grid, P, seed):
        simulated.append(grid.N)
        return simulate(spec, grid, P, seed)

    monkeypatch.setattr(lab, "sample_and_simulate", recorded)
    lab.run_stability(build_preset("P2-mixed-quadratic"), "euler-vs-exact",
                      [4, 8, 16], lab.MCConfig(n_paths=300, seed=0, M_z=2.0))
    assert simulated == [4, 8, 16]


def test_stability_rejects_a_degenerate_exact_coupling_before_any_solve(monkeypatch):
    # P1's drift is constant in x, so its exact transition is the Euler step
    # and every euler-vs-exact difference would be exactly 0
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the coupling")

    monkeypatch.setattr(lab, "_mc_setup", no_solve)
    monkeypatch.setattr(lab, "backward_steps", no_solve)
    with pytest.raises(ValueError, match="coupling is degenerate"):
        lab.run_stability(build_preset("P1-pure-quadratic"), "euler-vs-exact",
                          [4, 8, 16], SMALL_MC)


# ---------------------------------------------------------------------------
# pass flags, read off hand-built reports

def _stability_report(**columns):
    """A two-cell drift-shift report whose every flag holds unless columns
    replace one; ratio_Y's second cell sits on its bound."""
    cols = {"D_Y": (2.0, 1.0), "D_Z": (2.0, 1.0), "D_K": (2.0, 1.0),
            "ratio_Y": (1.0, 2.0), **columns}
    cells = tuple({k: v[j] for k, v in cols.items()} for j in range(2))
    return lab.StabilityReport(kind="drift-shift", x_name="eps", cells=cells,
                               slopes={}, M_z=1.0, truncation_active=False)


@pytest.mark.parametrize("column, values, flag", [
    ("D_Y", (1.0, 1.0), "D_Y_decreasing"),
    ("D_Z", (1.0, 3.0), "D_Z_decreasing"),
    ("D_K", (1.0, 1.5), "D_K_decreasing"),
    ("ratio_Y", (1.0, 2.5), "ratio_bounded"),
])
def test_stability_flags(column, values, flag):
    held = {"D_Y_decreasing": True, "D_Z_decreasing": True,
            "D_K_decreasing": True, "ratio_bounded": True}
    assert _stability_report().flags == held
    assert _stability_report(**{column: values}).flags == dict(held, **{flag: False})


def _convergence_report(y0_err=(0.2, 0.1), z_slope=lab.SlopeFit(1.0, 0.0, 0.1, 3)):
    cells = tuple({"mesh": h, "y0_err": e} for h, e in zip((0.5, 0.25), y0_err))
    return lab.ConvergenceReport(
        kind="grid-refinement", x_name="mesh", cells=cells,
        slopes={"y0_err": lab.SlopeFit(1.0, 0.0, 0.1, 3), "z_err": z_slope},
        reference={})


def test_convergence_flags():
    assert _convergence_report().flags == {"y0_err_monotone": True,
                                           "slopes_fitted": True}
    assert _convergence_report(y0_err=(0.1, 0.1)).flags == {
        "y0_err_monotone": False, "slopes_fitted": True}
    assert _convergence_report(z_slope=None).flags == {
        "y0_err_monotone": True, "slopes_fitted": False}


@pytest.mark.parametrize("monotone", [True, False])
def test_reflection_sweep_flags_read_the_reference(monotone):
    # the y0 column falls here: the flag is the reference's, not a new rule
    cells = ({"reflection_mesh": 0.5, "y0": 0.2}, {"reflection_mesh": 0.25, "y0": 0.1})
    rep = lab.ConvergenceReport(kind="reflection-sweep", x_name="reflection_mesh",
                                cells=cells, slopes={"gap": None},
                                reference={"monotone_nondecreasing": monotone})
    assert rep.flags == {"monotone_nondecreasing": monotone}


@pytest.mark.parametrize("passed", [True, False])
def test_diagnostics_flags(passed):
    rep = lab.DiagnosticsReport(tail_sum_max=1.0 if passed else 2.0, bound_value=1.5,
                                moments={}, skorokhod={"all": True}, grid_N=4,
                                n_paths=10, seed=0, M_z=1.0, truncation_active=False)
    assert rep.flags == {"within_bound": passed, "skorokhod": True}
    assert "flags" not in rep.to_dict()


# ---------------------------------------------------------------------------
# diagnostics

def test_bound_value_closed_forms():
    import math
    assert lab.bmo_bound_value(build_preset("P1-pure-quadratic")) == \
        pytest.approx(math.e ** 2, abs=1e-12)
    spec = build_preset("P2-mixed-quadratic")
    M = math.exp(0.2) * 0.7
    want = math.exp(4 * 1.2 * M) / 1.2 ** 2 * (1 + 2 * 1.2 * 0.2 * (1 + M))
    assert lab.bmo_bound_value(spec) == pytest.approx(want, rel=1e-12)


def test_diagnostics_p1_small():
    spec = build_preset("P1-pure-quadratic")
    rep = lab.run_diagnostics(spec, 16, SMALL_MC)
    assert rep.flags["within_bound"] and rep.tail_sum_max <= rep.bound_value
    assert set(rep.moments) == {"sumZ2", "K_T"}
    for d in rep.moments.values():
        assert set(d) == {1, 2, 4}
        assert all(np.isfinite(v) and v >= 0 for v in d.values())


def test_diagnostics_zero_driver_constant_obstacle():
    spec = dataclasses.replace(
        build_preset("P1-pure-quadratic"),
        generator=lambda t, x, y, z: np.zeros(np.shape(y)),
        obstacle=lambda x: np.full(np.shape(x), 0.2),
        pure_quadratic=False)
    rep = lab.run_diagnostics(spec, 8, SMALL_MC)
    # the true Z is zero, so the tail sum is squared regression noise of
    # order N * (M_g / sqrt(P dt))^2 * dt ~ 1e-3 at this budget
    assert rep.tail_sum_max <= 1e-2
    assert rep.moments["K_T"][1] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("m", [1, 2])
def test_tail_sums_match_the_reversed_cumsum_bit_for_bit(m, stacked, monkeypatch):
    # the targets that run_diagnostics regresses, step by step
    spec = build_preset("P2-mixed-quadratic", {"m": m})
    mc = lab.MCConfig(n_paths=1500, seed=4, basis=BasisSpec(degree=3), M_z=2.0)
    setup = lab._mc_setup(spec, 8, mc)
    grid = setup[0]
    Zbar = stacked(spec, *setup[:3], mc.basis, setup[3])[1]
    step2 = np.sum(Zbar ** 2, axis=-1) * grid.dt[None, :]
    want = np.cumsum(step2[:, ::-1], axis=1)[:, ::-1]
    got, fit = [], lab.fit_least_squares

    def recorded(phi, xs, ys, **kwargs):
        got.append(ys.tobytes())
        return fit(phi, xs, ys, **kwargs)

    monkeypatch.setattr(lab, "fit_least_squares", recorded)
    lab.run_diagnostics(spec, 8, mc, setup=setup)
    assert got == [want[:, i].tobytes() for i in range(grid.N - 1, -1, -1)]


def _diagnostics_reference(spec, N, mc, setup):
    """run_diagnostics with each tail sum regressed on a basis it localizes,
    builds and factors itself, apart from the walk's own."""
    grid, sched, bundle, radius = setup
    X = bundle.X_euler
    tail_max = 0.0
    S, K = np.zeros(bundle.n_paths), np.zeros(bundle.n_paths)
    flags = dict.fromkeys(SKOROKHOD_CONDITIONS, True)
    active = False
    for step in backward_steps(spec, grid, sched, bundle, mc.basis, radius):
        xs = X[:, step.i]
        active |= bool(np.any(truncation_active(step.z, radius.M_z)))
        S += np.sum(step.z ** 2, axis=-1) * grid.dt[step.i]
        phi = regress.build_basis(regress.localize_basis(mc.basis, xs), xs)
        fitted = regress.fit_least_squares(phi, xs, S).fitted
        tail_max = max(tail_max, float(np.quantile(fitted, 0.99)))
        K += step.dk
        skorokhod_check(flags, sched, step)
    flags["all"] = all(flags.values())
    moments = {"sumZ2": {p: float(np.mean(S ** p)) for p in (1, 2, 4)},
               "K_T": {p: float(np.mean(K ** p)) for p in (1, 2, 4)}}
    return lab.DiagnosticsReport(
        tail_sum_max=tail_max, bound_value=lab.bmo_bound_value(spec),
        moments=moments, skorokhod=flags, grid_N=grid.N,
        n_paths=bundle.n_paths, seed=bundle.seed, M_z=radius.M_z,
        truncation_active=active)


_DIAGNOSE_CASES = {
    "P1": ("P1-pure-quadratic", {}, "all", BasisSpec(degree=4)),
    "P2-m2": ("P2-mixed-quadratic", {"m": 2}, "all", BasisSpec(degree=4)),
    "P1-every-3": ("P1-pure-quadratic", {}, ("every", 3), BasisSpec(degree=4)),
    "P1-piecewise": ("P1-pure-quadratic", {}, "all",
                     BasisSpec(kind="piecewise-constant", cells=20)),
}


def _diagnose_setup(case):
    name, overrides, reflection, basis = _DIAGNOSE_CASES[case]
    spec = build_preset(name, overrides)
    mc = lab.MCConfig(n_paths=2000, seed=11, basis=basis, M_z=2.0)
    return spec, mc, lab._mc_setup(spec, 9, mc, reflection)


@pytest.mark.parametrize("min_paths", [0, 10 ** 9], ids=["ahead", "serial"])
@pytest.mark.parametrize("case", list(_DIAGNOSE_CASES))
def test_diagnostics_fit_on_the_walks_basis_is_the_separate_fit(case, min_paths,
                                                                 monkeypatch):
    # the walk's localized basis and factor, read off each yielded step, give
    # the report a basis localized, built and factored apart gives, bit for bit
    spec, mc, setup = _diagnose_setup(case)
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", min_paths)
    got = lab.run_diagnostics(spec, 9, mc, setup=setup).to_dict()
    assert got == _diagnostics_reference(spec, 9, mc, setup).to_dict()


@pytest.mark.parametrize("min_paths", [0, 10 ** 9], ids=["ahead", "serial"])
def test_diagnostics_evaluate_one_design_per_step(min_paths, monkeypatch):
    # the tail-sum fit reads the step's design before the next step is
    # requested, so its block still holds it, on either walk
    spec, mc, setup = _diagnose_setup("P2-m2")
    want = _diagnostics_reference(spec, 9, mc, setup).to_dict()
    calls, design = [], regress.DesignEvaluator.__call__

    def counted(self, x, out=None):
        calls.append(1)
        return design(self, x, out)

    monkeypatch.setattr(regress.DesignEvaluator, "__call__", counted)
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", min_paths)
    got = lab.run_diagnostics(spec, 9, mc, setup=setup).to_dict()
    assert len(calls) == 9
    assert repr(got) == repr(want)


@pytest.mark.parametrize("M_z, active", [(None, False), (0.05, True)])
def test_every_report_carries_the_truncation_signal(M_z, active):
    # off at the auto radius, on at M_z = 0.05, read off each step's count
    mc = lab.MCConfig(n_paths=1000, seed=2, basis=BasisSpec(degree=3), M_z=M_z)
    p1, p2 = build_preset("P1-pure-quadratic"), build_preset("P2-mixed-quadratic")
    reports = {
        p1: [lab.run_diagnostics(p1, 4, mc)],
        p2: [lab.run_stability(p2, "drift-shift", [0.2, 0.1], mc, N=4),
             lab.run_stability(p2, "euler-vs-exact", [2, 4], mc)],
    }
    for spec, reps in reports.items():
        grid, sched = make_grid(4, spec.T)
        radius = M_z or scheme.estimate_Mz_auto(spec, grid, sched, None, None).M_z
        for rep in reps:
            assert (rep.M_z, rep.truncation_active) == (radius, active)
            assert {"M_z", "truncation_active"} <= rep.to_dict().keys()
    cells = lab.run_convergence(p1, [2, 4, 8, 16], mc).cells
    fracs = [c["trunc_active_frac"] for c in cells]
    assert all(0.0 < f < 1.0 for f in fracs) if active else fracs == [0.0] * 4


def test_diagnostics_factor_each_step_once(monkeypatch):
    # one Gram eigh per step, the walk's; the tail-sum fit reuses it
    spec, mc, setup = _diagnose_setup("P2-m2")
    calls, factor = [], regress.factor_design

    def counted(*args):
        calls.append(1)
        return factor(*args)

    monkeypatch.setattr(regress, "factor_design", counted)
    monkeypatch.setattr(scheme, "factor_design", counted)
    lab.run_diagnostics(spec, 9, mc, setup=setup)
    assert len(calls) == 9


def test_diagnostics_moments_seed_stable():
    spec = build_preset("P1-pure-quadratic")
    mc_a = lab.MCConfig(n_paths=20000, seed=0, basis=BasisSpec(degree=4))
    mc_b = dataclasses.replace(mc_a, seed=1)
    m1 = lab.run_diagnostics(spec, 16, mc_a).moments["sumZ2"][1]
    m2 = lab.run_diagnostics(spec, 16, mc_b).moments["sumZ2"][1]
    assert abs(m1 - m2) <= 0.3 * max(m1, m2)
