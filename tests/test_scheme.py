import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import cho_factor, cho_solve

from qrbsde.forward import (euler_simulate, exact_simulate, make_grid,
                            sample_increments)
from qrbsde.model import (AffineInY, TruncationRadius, build_preset, clip_obstacle,
                          y_bound)
from qrbsde import scheme
from qrbsde.regress import BasisSpec, DesignEvaluator, build_basis
from qrbsde.scheme import (estimate_Mz_auto, implicit_y_step, reflect_step,
                           solve_backward, z_projection_step)


def _p1():
    return build_preset("P1-pure-quadratic")


def _zero_driver(spec):
    return dataclasses.replace(
        spec, generator=lambda t, x, y, z: np.zeros(np.shape(y)),
        pure_quadratic=False)


def _solved(spec, N=8, P=4000, seed=0, reflection="all", radius=None,
            basis=None):
    grid, sched = make_grid(N, spec.T, reflection)
    bundle = euler_simulate(spec, sample_increments(grid, P, seed, spec.m))
    basis = basis or BasisSpec(degree=3)
    radius = radius or TruncationRadius(5.0)
    return grid, sched, bundle, solve_backward(spec, grid, sched, bundle, basis, radius)


# ---------------------------------------------------------------------------
# individual steps

def test_z_projection_recovers_linear_coefficient():
    rng = np.random.default_rng(0)
    P, dt = 200000, 0.1
    dW = rng.normal(scale=math.sqrt(dt), size=(P, 1))
    a, b = 0.3, 1.4
    y_next = a + b * dW[:, 0]
    xs = np.full(P, 1.0)
    phi = build_basis(BasisSpec(degree=0, ridge=0.0), xs)
    z = z_projection_step(y_next, dW, dt, phi, xs).fitted
    se = 4.0 * (abs(a) + abs(b)) / math.sqrt(P * dt)
    assert abs(z[0, 0] - b) <= se


def test_z_projection_constant_integrand_vanishes():
    rng = np.random.default_rng(1)
    P, dt = 100000, 0.05
    dW = rng.normal(scale=math.sqrt(dt), size=(P, 1))
    xs = np.full(P, 1.0)
    phi = build_basis(BasisSpec(degree=0, ridge=0.0), xs)
    z = z_projection_step(np.full(P, 0.8), dW, dt, phi, xs).fitted
    assert abs(z[0, 0]) <= 4.0 * 0.8 / math.sqrt(P * dt)


def test_z_projection_component_separation():
    rng = np.random.default_rng(2)
    P, dt = 100000, 0.1
    dW = rng.normal(scale=math.sqrt(dt), size=(P, 2))
    xs = np.full(P, 0.0)
    phi = build_basis(BasisSpec(degree=0, ridge=0.0), xs)
    z = z_projection_step(dW[:, 0], dW, dt, phi, xs).fitted
    assert abs(z[0, 0] - 1.0) < 0.05 and abs(z[0, 1]) < 0.05


@pytest.mark.parametrize("m", [1, 2])
def test_z_projection_fitted_columns_are_contiguous(m):
    # the backward loop clips the Z block and the mean column straight out of
    # fitted; each column must be one contiguous block
    rng = np.random.default_rng(3)
    xs = rng.normal(size=1000)
    dW = rng.normal(scale=0.1, size=(1000, m))
    phi = build_basis(BasisSpec(degree=4, ridge=0.0), xs)
    fitted = z_projection_step(np.sin(xs) + dW[:, 0], dW, 0.01, phi, xs).fitted
    assert fitted.shape == (1000, m + 1)
    for j in range(m + 1):
        assert fitted[:, j].flags.contiguous


def test_implicit_step_constant_driver():
    spec = dataclasses.replace(_p1(), generator=lambda t, x, y, z: np.full(np.shape(y), 3.0))
    y, k = implicit_y_step(np.array([0.1]), np.zeros((1, 1)), spec, 0.0,
                           np.array([1.0]), 0.1, TruncationRadius(5.0), M=10.0)
    assert y[0] == pytest.approx(0.1 + 0.1 * 3.0)
    assert k <= 2


def test_implicit_step_linear_driver_fixed_point():
    L = 0.9
    spec = dataclasses.replace(_p1(), generator=lambda t, x, y, z: -L * np.asarray(y))
    e = np.array([0.4])
    y, _ = implicit_y_step(e, np.zeros((1, 1)), spec, 0.0, np.array([1.0]),
                           0.5, TruncationRadius(5.0), M=10.0)
    assert y[0] == pytest.approx(0.4 / (1.0 + L * 0.5), abs=1e-11)


def test_implicit_step_p1_single_iteration_formula():
    spec = _p1()
    zbar = np.array([[0.7]])
    y, k = implicit_y_step(np.array([0.2]), zbar, spec, 0.0, np.array([1.0]),
                           0.25, TruncationRadius(5.0), M=10.0)
    assert y[0] == pytest.approx(0.2 + 0.25 * 0.7 ** 2 / 2.0, abs=1e-14)


def _plain(f):
    """The same driver as a plain callable, which takes the Picard path."""
    return lambda t, x, y, z: f(t, x, y, z)


@given(st.floats(-1.0, 1.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.floats(-0.4, 0.4), st.floats(1e-3, 1.0))
@settings(max_examples=200, deadline=None)
def test_closed_form_equals_picard_on_the_plain_driver(e, z, x, a_dt, dt):
    # a drawn through a*dt, so that |a|*dt <= 0.4 and Picard converges
    spec = build_preset("P2-mixed-quadratic")
    affine = dataclasses.replace(spec, generator=AffineInY(a_dt / dt,
                                                           spec.generator.f0))
    plain = dataclasses.replace(affine, generator=_plain(affine.generator))
    args = (np.array([e]), np.array([[z]]), 0.3, np.array([x]), dt,
            TruncationRadius(2.0), 10.0)
    y, k = implicit_y_step(args[0], args[1], affine, *args[2:])
    y_picard, _ = implicit_y_step(args[0], args[1], plain, *args[2:])
    assert k == 1
    np.testing.assert_allclose(y, y_picard, rtol=0, atol=1e-12)


def test_closed_form_is_bit_identical_to_picard_on_p1():
    spec = _p1()
    rng = np.random.default_rng(4)
    e, zbar, x = rng.normal(size=500), rng.normal(size=(500, 1)), rng.normal(size=500)
    y, k = implicit_y_step(e, zbar, spec, 0.2, x, 1 / 64, TruncationRadius(0.5), 10.0)
    plain = dataclasses.replace(spec, generator=_plain(spec.generator))
    y_picard, k_picard = implicit_y_step(e, zbar, plain, 0.2, x, 1 / 64,
                                         TruncationRadius(0.5), 10.0)
    assert (k, k_picard) == (1, 2)
    assert y.tobytes() == y_picard.tobytes()


@pytest.mark.parametrize("a", [2.5, -2.5, 4.0, -4.0])
def test_closed_form_raises_without_contraction(a):
    # dt = 0.4: |a|*dt is exactly 1 at |a| = 2.5, where Picard cannot converge
    spec = dataclasses.replace(_p1(), generator=AffineInY(a, _p1().generator.f0))
    with pytest.raises(RuntimeError, match="contract"):
        implicit_y_step(np.array([0.1]), np.zeros((1, 1)), spec, 0.0,
                        np.array([1.0]), 0.4, None, 10.0)


def test_closed_form_raises_on_non_finite_f0():
    spec = dataclasses.replace(_p1(), generator=AffineInY(
        -0.1, lambda t, x, z: np.where(np.asarray(x) > 0, np.inf, 0.0)))
    with pytest.raises(FloatingPointError):
        implicit_y_step(np.zeros(2), np.zeros((2, 1)), spec, 0.0,
                        np.array([-1.0, 1.0]), 0.1, None, 10.0)


def test_replaced_generator_takes_the_picard_path():
    # replacing the generator drops the declaration: the P3 coefficient no
    # longer applies, and the y-dependent driver is iterated
    spec = dataclasses.replace(build_preset("P3-lipschitz"),
                               generator=lambda t, x, y, z: -0.5 * np.asarray(y))
    y, k = implicit_y_step(np.array([0.4]), np.zeros((1, 1)), spec, 0.0,
                           np.array([1.0]), 0.5, None, 10.0)
    assert k > 1
    assert y[0] == pytest.approx(0.4 / 1.25, abs=1e-11)


def test_reflect_step_cases():
    y, dk = reflect_step(np.array([0.5]), np.array([0.7]), True)
    assert (y[0], dk[0]) == (0.7, pytest.approx(0.2))
    y, dk = reflect_step(np.array([0.9]), np.array([0.7]), True)
    assert (y[0], dk[0]) == (0.9, 0.0)
    y, dk = reflect_step(np.array([0.5]), np.array([0.7]), False)
    assert (y[0], dk[0]) == (0.5, 0.0)


# ---------------------------------------------------------------------------
# full backward solve

def test_single_step_terminal_expectation():
    """N=1, f=0: Y0 is the plain regressed mean of g(X_T); independent
    1-D Gauss-Hermite quadrature as oracle.  T=0.5 so a single step still
    satisfies the L*dt < 1 contraction gate."""
    spec = _zero_driver(build_preset("P1-pure-quadratic", {"T": 0.5}))
    _, _, _, sol = _solved(spec, N=1, P=200000, seed=3, basis=BasisSpec(degree=0))
    h, w = hermgauss(60)
    g = clip_obstacle(1.0 + 0.3 * math.sqrt(0.5) * h * math.sqrt(2.0))
    want = float(g @ w / math.sqrt(math.pi))
    assert sol.y0_fit == pytest.approx(want, abs=4.0 * sol.y0_se)


def test_constant_obstacle_constant_solution():
    spec = _zero_driver(_p1())
    spec = dataclasses.replace(spec, obstacle=lambda x: np.full(np.shape(x), 0.3))
    grid, sched, bundle, sol = _solved(spec, N=6, P=20000, seed=4,
                                       basis=BasisSpec(degree=0))
    np.testing.assert_allclose(sol.Ybar, 0.3, atol=1e-10)
    np.testing.assert_allclose(sol.dK, 0.0, atol=1e-10)
    # Z is pure regression noise: the projection of 0.3*dW/dt has standard
    # error 0.3 / sqrt(P*dt) per step under the constant basis
    noise = 0.3 / math.sqrt(20000 * grid.dt[0])
    assert float(np.max(np.abs(sol.Zbar))) < 5.0 * noise


def test_skorokhod_conditions_exact():
    spec = _p1()
    grid, sched, bundle, sol = _solved(spec, N=16, P=3000, seed=5,
                                       reflection=("every", 4))
    flags = sol.skorokhod_flags(spec, bundle.X_euler)
    assert flags["all"], flags
    refl = np.zeros(grid.N + 1, dtype=bool)
    refl[sched.indices] = True
    assert np.all(sol.dK[:, ~refl] == 0.0)


def _skorokhod_reference(sol, spec, X):
    # the whole-array form of the four conditions
    refl = sol.schedule.mask
    g = np.asarray(spec.obstacle(X), dtype=float)
    flags = {
        "dK_nonnegative": bool(np.all(sol.dK >= 0.0)),
        "dK_zero_off_schedule": bool(np.all(sol.dK[:, ~refl] == 0.0)),
        "Ybar_above_obstacle": bool(np.all(sol.Ybar[:, refl] >= g[:, refl])),
        "flat_off": bool(np.all(sol.dK[:, refl] * (sol.Ybar - g)[:, refl] == 0.0)),
    }
    flags["all"] = all(flags.values())
    return flags


def test_skorokhod_flags_each_violation_matches_whole_array_reference():
    spec = _p1()
    grid, sched, bundle, sol = _solved(spec, N=8, P=500, seed=5,
                                       reflection=("every", 2))
    X = bundle.X_euler
    g = np.asarray(spec.obstacle(X), dtype=float)
    on = int(np.flatnonzero(sched.mask[:-1])[-1])
    off = int(np.flatnonzero(~sched.mask)[0])
    above = int(np.flatnonzero(sol.Ybar[:, on] > g[:, on])[0])

    def edited(name, p, i, value):
        arr = getattr(sol, name).copy(order="K")
        arr[p, i] = value
        return dataclasses.replace(sol, **{name: arr})

    cases = {
        None: sol,
        "dK_nonnegative": edited("dK", above, on, -1e-3),
        "dK_zero_off_schedule": edited("dK", 0, off, 1e-3),
        "Ybar_above_obstacle": edited("Ybar", above, on, g[above, on] - 1e-3),
        "flat_off": edited("dK", above, on, 1e-3),
    }
    for broken, case in cases.items():
        flags = case.skorokhod_flags(spec, X)
        assert flags == _skorokhod_reference(case, spec, X), broken
        assert flags["all"] == (broken is None)
        if broken is not None:
            assert not flags[broken]


def test_contraction_precondition_enforced():
    spec = build_preset("P1-pure-quadratic", {"L": 3.0, "T": 1.0})
    grid, sched = make_grid(2, spec.T)
    bundle = euler_simulate(spec, sample_increments(grid, 100, 0, 1))
    with pytest.raises(ValueError):
        solve_backward(spec, grid, sched, bundle, BasisSpec(degree=1),
                       TruncationRadius(5.0))


def test_truncation_noop_bit_identical():
    spec = _p1()
    grid, sched = make_grid(8, spec.T)
    bundle = euler_simulate(spec, sample_increments(grid, 4000, 6, 1))
    basis = BasisSpec(degree=3)
    sol_a = solve_backward(spec, grid, sched, bundle, basis, TruncationRadius(8.0))
    assert float(np.max(np.abs(sol_a.Zbar))) + 1.0 <= 8.0
    sol_b = solve_backward(spec, grid, sched, bundle, basis, TruncationRadius(80.0))
    np.testing.assert_array_equal(sol_a.Ybar, sol_b.Ybar)
    np.testing.assert_array_equal(sol_a.Zbar, sol_b.Zbar)
    np.testing.assert_array_equal(sol_a.dK, sol_b.dK)


def test_obstacle_monotonicity_statistical():
    spec = _zero_driver(_p1())
    lifted = dataclasses.replace(
        spec, obstacle=lambda x: clip_obstacle(x) + 0.05)
    _, _, _, lo = _solved(spec, N=8, P=5000, seed=7)
    _, _, _, hi = _solved(lifted, N=8, P=5000, seed=7)
    assert np.all(hi.Ybar >= lo.Ybar - 1e-12)


def test_determinism_same_inputs():
    spec = _p1()
    _, _, _, a = _solved(spec, N=8, P=2000, seed=8)
    _, _, _, b = _solved(spec, N=8, P=2000, seed=8)
    np.testing.assert_array_equal(a.Ybar, b.Ybar)
    assert a.y0_fit == b.y0_fit


def test_y_clamped_by_bound():
    spec = _p1()
    _, _, _, sol = _solved(spec, N=8, P=2000, seed=9)
    assert float(np.max(np.abs(sol.Ybar))) <= 0.5 + 1e-12   # M = M_g for P1


def test_mz_auto_floor_and_passthrough():
    spec = _zero_driver(_p1())
    const = dataclasses.replace(spec, obstacle=lambda x: np.full(np.shape(x), 0.2))
    grid, sched = make_grid(4, spec.T)
    # constant basis + a large pilot keep the pilot Z estimate (pure noise
    # here) well under the floor
    bundle = euler_simulate(const, sample_increments(grid, 20000, 10, 1))
    radius = estimate_Mz_auto(const, grid, sched, bundle, BasisSpec(degree=0))
    assert radius.M_z == pytest.approx(0.1)       # floor: Z vanishes
    assert radius.provenance == "auto-estimated"


def test_mz_auto_stable_across_seeds():
    # the radius is a 2x-safety-factored tail quantile of the pilot fit, so
    # the contract is order-of-magnitude stability, not tight agreement
    spec = _p1()
    grid, sched = make_grid(16, spec.T)
    vals = []
    for seed in (0, 1):
        bundle = euler_simulate(spec, sample_increments(grid, 20000, seed, 1))
        vals.append(estimate_Mz_auto(spec, grid, sched, bundle, BasisSpec(degree=6)).M_z)
    assert max(vals) <= 2.0 * min(vals)


@pytest.mark.parametrize("name, m", [("P1-pure-quadratic", 1),
                                     ("P2-mixed-quadratic", 2)])
def test_mz_auto_is_the_pilot_solve_quantile_rule_bit_for_bit(name, m, monkeypatch):
    spec = build_preset(name, {"m": m})
    grid, sched = make_grid(16, spec.T)
    bundle = euler_simulate(spec, sample_increments(grid, 20000, 24, m))
    basis = BasisSpec(degree=4)
    P_pilot = int(bundle.n_paths * scheme.MZ_PILOT_FRACTION)
    pilot = dataclasses.replace(bundle, n_paths=P_pilot, dW=bundle.dW[:P_pilot],
                                X_euler=bundle.X_euler[:P_pilot])
    sol = solve_backward(spec, grid, sched, pilot, basis,
                         TruncationRadius(1e9))
    per_step = np.quantile(np.linalg.norm(sol.Zbar, axis=2), 0.999, axis=0)
    want = max(scheme.MZ_AUTO_FLOOR, 2.0 * float(np.max(per_step)))

    def no_solve(*args):
        raise AssertionError("the pilot stored a full solution")

    monkeypatch.setattr(scheme, "solve_backward", no_solve)
    radius = estimate_Mz_auto(spec, grid, sched, bundle, basis)
    assert radius.M_z == want and radius.provenance == "auto-estimated"


def test_mz_pilot_builds_no_path_array():
    # the pilot keeps one quantile per step, so its traced peak stays below
    # one (P_pilot, N) float64 array
    spec = _p1()
    grid, sched = make_grid(64, spec.T)
    bundle = euler_simulate(spec, sample_increments(grid, 20000, 25, 1))
    basis = BasisSpec(degree=6)
    estimate_Mz_auto(spec, grid, sched, bundle, basis)     # warm-up
    tracemalloc.start()
    try:
        estimate_Mz_auto(spec, grid, sched, bundle, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < int(bundle.n_paths * scheme.MZ_PILOT_FRACTION) * grid.N * 8


def test_picard_counts_small_for_smooth_drivers():
    spec = build_preset("P2-mixed-quadratic")
    _, _, _, sol = _solved(spec, N=8, P=3000, seed=11)
    assert int(np.max(sol.picard_counts)) <= 10


@pytest.mark.parametrize("m", [1, 2])
def test_one_design_and_one_fit_per_step(monkeypatch, m):
    calls = {"design": 0, "fit": 0, "z_projection_step": 0}
    design, fit = DesignEvaluator.__call__, scheme.fit_least_squares
    projection = scheme.z_projection_step

    def counted_design(self, x):
        calls["design"] += 1
        return design(self, x)

    def counted_fit(*args, **kwargs):
        calls["fit"] += 1
        return fit(*args, **kwargs)

    def counted_projection(*args, **kwargs):
        calls["z_projection_step"] += 1
        return projection(*args, **kwargs)

    monkeypatch.setattr(DesignEvaluator, "__call__", counted_design)
    monkeypatch.setattr(scheme, "fit_least_squares", counted_fit)
    monkeypatch.setattr(scheme, "z_projection_step", counted_projection)
    spec = build_preset("P1-pure-quadratic", {"m": m})
    _, _, _, sol = _solved(spec, N=6, P=2000, seed=12)
    assert sol.Zbar.shape == (2000, 6, m)
    assert calls == {"design": 6, "fit": 6, "z_projection_step": 6}


@pytest.mark.parametrize("m", [1, 2])
def test_every_time_slice_is_contiguous(m):
    # the backward loop reads and writes one time slice per step; each must
    # be one contiguous block, not P strided reads
    spec = build_preset("P1-pure-quadratic", {"m": m})
    grid, sched = make_grid(6, spec.T)
    bundle = sample_increments(grid, 500, 13, m)
    bundle = exact_simulate(spec, euler_simulate(spec, bundle))
    sol = solve_backward(spec, grid, sched, bundle, BasisSpec(degree=3),
                         TruncationRadius(5.0))
    for i in range(grid.N + 1):
        for X in (bundle.X_euler, bundle.X_exact, sol.Ybar, sol.dK):
            assert X[:, i].flags.contiguous
    for i in range(grid.N):
        for dW_or_Z in (bundle.dW, sol.Zbar):
            assert dW_or_Z[:, i, :].flags.f_contiguous


def _reference_backward(spec, grid, sched, bundle, basis, radius):
    """The backward recursion with the earlier projection kernel spelled out:
    np.quantile localization, np.vander design, A.T @ A Gram, column_stack
    targets; Picard and reflection are the shared scheme steps."""
    X = bundle.X_euler
    P, N, m = bundle.n_paths, grid.N, bundle.m
    M = y_bound(spec)
    Ybar, dK = np.zeros((P, N + 1)), np.zeros((P, N + 1))
    Zbar = np.zeros((P, N, m))
    picard = np.zeros(N, dtype=int)
    Ybar[:, N] = spec.obstacle(X[:, N])
    for i in range(N - 1, -1, -1):
        xs, dti = X[:, i], grid.dt[i]
        if np.ptp(xs) == 0:
            A = np.ones((P, 1))
        else:
            lo, hi = np.quantile(xs, [0.005, 0.995])
            u = (np.clip(xs, lo, hi) - np.mean(xs)) / np.std(xs)
            A = np.vander(u, basis.degree + 1, increasing=True)
        ys = np.column_stack([Ybar[:, i + 1][:, None] * bundle.dW[:, i, :] / dti,
                              Ybar[:, i + 1]])
        G = A.T @ A
        G[np.diag_indices(A.shape[1])] += basis.ridge
        factor = cho_factor(G)
        coef = cho_solve(factor, A.T @ ys)
        coef += cho_solve(factor, A.T @ (ys - A @ coef) - basis.ridge * coef)
        fitted = A @ coef
        Zbar[:, i, :] = np.clip(fitted[:, :m], -(radius.M_z + 1.0), radius.M_z + 1.0)
        ytilde, picard[i] = implicit_y_step(
            np.clip(fitted[:, m], -M, M), Zbar[:, i, :], spec, grid.times[i], xs,
            dti, radius, M)
        Ybar[:, i], dK[:, i] = reflect_step(ytilde, spec.obstacle(xs),
                                            bool(sched.mask[i]))
    return Ybar, Zbar, dK, picard


@pytest.mark.parametrize("degree", [6, 12])
def test_backward_matches_the_reference_kernel(degree):
    spec = _p1()
    basis = BasisSpec(degree=degree)
    grid, sched, bundle, sol = _solved(spec, N=16, P=3000, seed=21, basis=basis,
                                       radius=TruncationRadius(2.0))
    Ybar, Zbar, dK, picard = _reference_backward(
        spec, grid, sched, bundle, basis, sol.radius)
    for got, want in ((sol.Ybar, Ybar), (sol.Zbar, Zbar), (sol.dK, dK)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(sol.picard_counts, picard)


def test_solution_keeps_only_the_reflected_value_z_and_push_up():
    P = 1500
    _, _, _, sol = _solved(_p1(), N=6, P=P, seed=23)
    path_arrays = {f.name for f in dataclasses.fields(sol)
                   if np.shape(getattr(sol, f.name))[:1] == (P,)}
    assert path_arrays == {"Ybar", "Zbar", "dK"}
    assert "y0_path_mean" not in sol.summary()


def test_summary_max_abs_z_is_the_whole_array_maximum():
    spec = build_preset("P1-pure-quadratic", {"m": 2})
    _, _, _, sol = _solved(spec, N=6, P=1500, seed=22)
    assert sol.summary()["max_abs_z_per_step"] == \
        np.max(np.abs(sol.Zbar), axis=(0, 2)).tolist()
