import dataclasses
import math
import sys
import threading
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
                          truncation_active, y_bound)
from qrbsde import forward, scheme
from qrbsde.oracle import build_space_grid, exact_scheme_solve
from qrbsde.regress import BasisSpec, DesignEvaluator, build_basis
from qrbsde.scheme import (estimate_Mz_auto, implicit_y_step, reflect_step,
                           solve_backward, z_projection_step)


def _p1():
    return build_preset("P1-pure-quadratic")


def _zero_driver(spec):
    return dataclasses.replace(
        spec, generator=lambda t, x, y, z: np.zeros(np.shape(y)),
        pure_quadratic=False)


def _inputs(spec, N=8, P=4000, seed=0, reflection="all", radius=None,
            basis=None):
    """solve_backward's arguments: spec, grid, schedule, bundle, basis, radius."""
    grid, sched = make_grid(N, spec.T, reflection)
    bundle = euler_simulate(spec, sample_increments(grid, P, seed, spec.m))
    return (spec, grid, sched, bundle, basis or BasisSpec(degree=3),
            radius or TruncationRadius(5.0))


def _solved(spec, **kwargs):
    args = _inputs(spec, **kwargs)
    return args[1], args[2], args[3], solve_backward(*args)


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


def test_constant_obstacle_constant_solution(stacked):
    spec = _zero_driver(_p1())
    spec = dataclasses.replace(spec, obstacle=lambda x: np.full(np.shape(x), 0.3))
    args = _inputs(spec, N=6, P=20000, seed=4, basis=BasisSpec(degree=0))
    Ybar, Zbar, dK = stacked(*args)
    np.testing.assert_allclose(Ybar, 0.3, atol=1e-10)
    np.testing.assert_allclose(dK, 0.0, atol=1e-10)
    # Z is pure regression noise: the projection of 0.3*dW/dt has standard
    # error 0.3 / sqrt(P*dt) per step under the constant basis
    noise = 0.3 / math.sqrt(20000 * args[1].dt[0])
    assert float(np.max(np.abs(Zbar))) < 5.0 * noise


def test_skorokhod_conditions_exact(stacked):
    args = _inputs(_p1(), N=16, P=3000, seed=5, reflection=("every", 4))
    _, grid, sched = args[:3]
    flags = solve_backward(*args).skorokhod
    assert flags["all"], flags
    refl = np.zeros(grid.N + 1, dtype=bool)
    refl[sched.indices] = True
    assert np.all(stacked(*args)[2][:, ~refl] == 0.0)


def _skorokhod_reference(Ybar, dK, refl, spec, X):
    # the whole-array form of the four conditions
    g = np.asarray(spec.obstacle(X), dtype=float)
    flags = {
        "dK_nonnegative": bool(np.all(dK >= 0.0)),
        "dK_zero_off_schedule": bool(np.all(dK[:, ~refl] == 0.0)),
        "Ybar_above_obstacle": bool(np.all(Ybar[:, refl] >= g[:, refl])),
        "flat_off": bool(np.all(dK[:, refl] * (Ybar - g)[:, refl] == 0.0)),
    }
    flags["all"] = all(flags.values())
    return flags


def test_skorokhod_flags_each_violation_matches_whole_array_reference(
        stacked, monkeypatch):
    # each case edits one entry of the stacked arrays, and solve_backward
    # reads the edited arrays back as the steps of its one walk
    args = _inputs(_p1(), N=8, P=500, seed=5, reflection=("every", 2))
    spec, grid, sched, bundle = args[:4]
    X = bundle.X_euler
    arrays = dict(zip(("Ybar", "Zbar", "dK"), stacked(*args)))
    g = np.asarray(spec.obstacle(X), dtype=float)
    on = int(np.flatnonzero(sched.mask[:-1])[-1])
    off = int(np.flatnonzero(~sched.mask)[0])
    above = int(np.flatnonzero(arrays["Ybar"][:, on] > g[:, on])[0])

    def edited(name, p, i, value):
        arr = arrays[name].copy(order="K")
        arr[p, i] = value
        return dict(arrays, **{name: arr})

    def steps_of(case):
        Y, Z, K = case["Ybar"], case["Zbar"], case["dK"]
        return lambda *a: (scheme.BackwardStep(i, Y[:, i + 1], Z[:, i, :], Y[:, i],
                                               K[:, i], g[:, i], 1, 1.0, 0.0, 0, None, None,
                                               None)
                           for i in range(grid.N - 1, -1, -1))

    cases = {
        None: arrays,
        "dK_nonnegative": edited("dK", above, on, -1e-3),
        "dK_zero_off_schedule": edited("dK", 0, off, 1e-3),
        "Ybar_above_obstacle": edited("Ybar", above, on, g[above, on] - 1e-3),
        "flat_off": edited("dK", above, on, 1e-3),
    }
    for broken, case in cases.items():
        monkeypatch.setattr(scheme, "backward_steps", steps_of(case))
        flags = solve_backward(*args).skorokhod
        assert flags == _skorokhod_reference(case["Ybar"], case["dK"], sched.mask,
                                             spec, X), broken
        assert flags["all"] == (broken is None)
        if broken is not None:
            assert not flags[broken]


def test_a_solve_evaluates_the_obstacle_once_per_time_column():
    # N columns in the walk and X_N before it; the Skorokhod check reads
    # the values each step was reflected on
    spec = _p1()
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return spec.obstacle(x)

    args = _inputs(dataclasses.replace(spec, obstacle=counted), N=8, P=500, seed=5)
    assert solve_backward(*args).skorokhod["all"]
    assert calls == [(500,)] * 9


def test_contraction_precondition_enforced():
    spec = build_preset("P1-pure-quadratic", {"L": 3.0, "T": 1.0})
    grid, sched = make_grid(2, spec.T)
    bundle = euler_simulate(spec, sample_increments(grid, 100, 0, 1))
    with pytest.raises(ValueError):
        solve_backward(spec, grid, sched, bundle, BasisSpec(degree=1),
                       TruncationRadius(5.0))


def test_truncation_noop_bit_identical(stacked):
    args = _inputs(_p1(), N=8, P=4000, seed=6, radius=TruncationRadius(8.0))
    Ybar_a, Zbar_a, dK_a = stacked(*args)
    assert float(np.max(np.abs(Zbar_a))) + 1.0 <= 8.0
    Ybar_b, Zbar_b, dK_b = stacked(*args[:-1], TruncationRadius(80.0))
    np.testing.assert_array_equal(Ybar_a, Ybar_b)
    np.testing.assert_array_equal(Zbar_a, Zbar_b)
    np.testing.assert_array_equal(dK_a, dK_b)


def test_obstacle_monotonicity_statistical(stacked):
    spec = _zero_driver(_p1())
    lifted = dataclasses.replace(
        spec, obstacle=lambda x: clip_obstacle(x) + 0.05)
    lo = stacked(*_inputs(spec, N=8, P=5000, seed=7))[0]
    hi = stacked(*_inputs(lifted, N=8, P=5000, seed=7))[0]
    assert np.all(hi >= lo - 1e-12)


def test_determinism_same_inputs(stacked):
    spec = _p1()
    a, b = (_inputs(spec, N=8, P=2000, seed=8) for _ in range(2))
    np.testing.assert_array_equal(stacked(*a)[0], stacked(*b)[0])
    assert solve_backward(*a).y0_fit == solve_backward(*b).y0_fit


def test_y_clamped_by_bound(stacked):
    Ybar = stacked(*_inputs(_p1(), N=8, P=2000, seed=9))[0]
    assert float(np.max(np.abs(Ybar))) <= 0.5 + 1e-12   # M = M_g for P1


# the declared auto radius, max|sigma| L e^{2LT}: 0.3 e^2 on the presets
_RULE = 0.3 * math.exp(2.0)


@pytest.mark.parametrize("name", ["P1-pure-quadratic", "P2-mixed-quadratic",
                                  "P3-lipschitz"])
def test_mz_auto_rule_bounds_the_lattice_z(name):
    # noise-free: the rule sits above the exact scheme's max |Z| on the
    # space grid at every step, from a coarse grid to a fine one
    spec = build_preset(name)
    space = build_space_grid(spec)
    for N in (8, 32, 128, 256):
        grid, sched = make_grid(N, spec.T)
        radius = estimate_Mz_auto(spec, grid, sched, None, None)
        assert radius.M_z == pytest.approx(_RULE, rel=1e-15)
        z = exact_scheme_solve(spec, grid, sched, space).z
        assert max(float(np.max(np.linalg.norm(zi, axis=-1))) for zi in z) < radius.M_z


def test_mz_auto_reads_no_path_and_names_its_rule():
    spec = _p1()
    grid, sched = make_grid(16, spec.T)
    bundle = euler_simulate(spec, sample_increments(grid, 500, 3, 1))
    radius = estimate_Mz_auto(spec, grid, sched, bundle, BasisSpec(degree=3))
    assert radius == estimate_Mz_auto(spec, grid, sched, None, None)
    assert radius.provenance == "auto: max|sigma| * L * exp(2 L T)"
    big = dataclasses.replace(spec, L=400.0)
    with pytest.raises(ValueError, match="auto M_z overflows"):
        estimate_Mz_auto(big, grid, sched, None, None)


@pytest.mark.parametrize("name, m", [("P1-pure-quadratic", 1),
                                     ("P2-mixed-quadratic", 2)])
def test_auto_radius_solve_is_the_untruncated_solve_bit_for_bit(name, m, stacked):
    # where every |Z| stays below the rule, h_{M_z} is the identity and the
    # clip at M_z + 1 takes nothing: the truncated solve is the untruncated one
    spec = build_preset(name, {"m": m})
    grid, sched = make_grid(16, spec.T)
    bundle = euler_simulate(spec, sample_increments(grid, 3000, 24, m))
    basis = BasisSpec(degree=4)
    radius = estimate_Mz_auto(spec, grid, sched, bundle, basis)
    auto = stacked(spec, grid, sched, bundle, basis, radius)
    free = stacked(spec, grid, sched, bundle, basis, None)
    assert float(np.max(np.linalg.norm(free[1], axis=2))) < radius.M_z
    for got, want in zip(auto, free):
        assert got.tobytes() == want.tobytes()
    sol = solve_backward(spec, grid, sched, bundle, basis, radius)
    assert sol.summary()["truncation_active"] is False
    np.testing.assert_array_equal(sol.trunc_active_frac, 0.0)


def test_trunc_active_frac_counts_the_paths_that_h_moves(stacked):
    args = _inputs(_p1(), N=8, P=2000, seed=5, radius=TruncationRadius(0.05))
    sol = solve_backward(*args)
    Zbar = stacked(*args)[1]
    want = np.mean(np.linalg.norm(Zbar, axis=2) > 0.05, axis=0)
    np.testing.assert_array_equal(sol.trunc_active_frac, want)
    assert np.any((want > 0.0) & (want < 1.0))
    assert sol.summary()["truncation_active"] is True


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("M_z", [None, 5.0, 0.05])
def test_each_step_counts_the_paths_that_h_moves_and_carries_its_design(M_z, m):
    radius = None if M_z is None else TruncationRadius(M_z)
    args = _inputs(build_preset("P1-pure-quadratic", {"m": m}), N=8, P=2000,
                   seed=5)[:-1] + (radius,)
    X, counts = args[3].X_euler, []
    for step in scheme.backward_steps(*args):
        want = 0 if M_z is None else np.count_nonzero(truncation_active(step.z, M_z))
        assert step.truncated == want
        counts.append(step.truncated)
        # until the next step is requested, A is the state half's design
        assert step.A.tobytes() == step.phi(X[:, step.i]).tobytes()
    assert any(counts) == (M_z == 0.05)


def test_picard_counts_small_for_smooth_drivers():
    spec = build_preset("P2-mixed-quadratic")
    _, _, _, sol = _solved(spec, N=8, P=3000, seed=11)
    assert int(np.max(sol.picard_counts)) <= 10


@pytest.mark.parametrize("m", [1, 2])
def test_one_design_and_one_fit_per_step(monkeypatch, m):
    calls = {"design": 0, "fit": 0, "z_projection_step": 0}
    design, fit = DesignEvaluator.__call__, scheme.fit_least_squares
    projection = scheme.z_projection_step

    def counted_design(self, x, out=None):
        calls["design"] += 1
        return design(self, x, out)

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
    _, _, bundle, sol = _solved(spec, N=6, P=2000, seed=12)
    assert bundle.dW.shape == (2000, 6, m) and sol.max_abs_z.shape == (6,)
    assert calls == {"design": 6, "fit": 6, "z_projection_step": 6}


@pytest.mark.parametrize("m", [1, 2])
def test_every_time_slice_is_contiguous(m):
    # the backward loop reads and writes one time slice per step; each must
    # be one contiguous block, not P strided reads
    spec = build_preset("P1-pure-quadratic", {"m": m})
    grid, sched = make_grid(6, spec.T)
    bundle = sample_increments(grid, 500, 13, m)
    bundle = exact_simulate(spec, euler_simulate(spec, bundle))
    for i in range(grid.N + 1):
        for X in (bundle.X_euler, bundle.X_exact):
            assert X[:, i].flags.contiguous
    for i in range(grid.N):
        assert bundle.dW[:, i, :].flags.f_contiguous
    # each yielded step's slices too
    for step in scheme.backward_steps(spec, grid, sched, bundle, BasisSpec(degree=3),
                                      TruncationRadius(5.0)):
        assert step.y.flags.contiguous and step.dk.flags.contiguous
        assert step.z.flags.f_contiguous


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
def test_backward_matches_the_reference_kernel(degree, stacked):
    args = _inputs(_p1(), N=16, P=3000, seed=21, basis=BasisSpec(degree=degree),
                   radius=TruncationRadius(2.0))
    Ybar, Zbar, dK, picard = _reference_backward(*args)
    for got, want in zip(stacked(*args), (Ybar, Zbar, dK)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(solve_backward(*args).picard_counts, picard)


def test_solution_keeps_only_the_reflected_value_z_and_push_up():
    # the name predates the streamed solve: now no field is path-sized
    P = 1500
    _, _, _, sol = _solved(_p1(), N=6, P=P, seed=23)
    path_arrays = {f.name for f in dataclasses.fields(sol)
                   if np.shape(getattr(sol, f.name))[:1] == (P,)}
    assert path_arrays == set()
    assert "y0_path_mean" not in sol.summary()


def test_summary_max_abs_z_is_the_whole_array_maximum(stacked):
    args = _inputs(build_preset("P1-pure-quadratic", {"m": 2}), N=6, P=1500, seed=22)
    assert solve_backward(*args).summary()["max_abs_z_per_step"] == \
        np.max(np.abs(stacked(*args)[1]), axis=(0, 2)).tolist()


@pytest.mark.parametrize("reflection", ["all", ("every", 2)])
def test_step_records_match_the_whole_arrays(reflection, stacked):
    # each recorded column and the K_T statistics, against the stacked
    # arrays: K_T adds its steps in descending i, the rest is bit for bit
    args = _inputs(_p1(), N=8, P=1500, seed=26, reflection=reflection)
    Ybar, Zbar, dK = stacked(*args)
    sol = solve_backward(*args)
    N, P = args[1].N, args[3].n_paths
    np.testing.assert_array_equal(sol.mean_dK, [np.mean(dK[:, i]) for i in range(N)])
    np.testing.assert_array_equal(sol.reflected_frac,
                                  np.count_nonzero(dK[:, :N] > 0, axis=0) / P)
    kT = np.sum(dK, axis=1)
    want = {"mean": np.mean(kT), "std": np.std(kT), "max": np.max(kT)}
    assert sol.K_T.keys() == want.keys()
    for k, v in want.items():
        assert sol.K_T[k] == pytest.approx(v, rel=1e-12, abs=0.0), k
    assert (sol.y0_fit, sol.y0_se) == scheme.y0_estimates(Ybar[:, 0], Ybar[:, 1])


def test_solve_builds_no_path_array():
    # the solve keeps per-step scalars and one running (P,) sum, so its
    # traced peak stays below one (P, N+1) float64 array
    args = _inputs(_p1(), N=16, P=2000, seed=27)
    solve_backward(*args)     # warm-up
    tracemalloc.start()
    try:
        solve_backward(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 17 * 8


def test_a_walk_holds_at_most_d_plus_10_path_arrays():
    # at a reflection date dK takes ytilde's buffer, and the step's fit
    # writes its last residual into its targets: beside the d columns of its
    # design block and the 5 (P,) arrays of the step before, a serial walk
    # holds at most 5 more (z, e and the implicit step's three), where each
    # of the two took one more
    P, basis = 2000, BasisSpec(degree=6)
    args = _inputs(_p1(), N=16, P=P, seed=27, basis=basis)

    def walk():
        for _ in scheme.backward_steps(*args):
            pass

    walk()     # warm-up
    tracemalloc.start()
    try:
        walk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (basis.dimension + 11) * P * 8


def test_a_prefetched_walk_holds_at_most_2d_plus_13_path_arrays(monkeypatch):
    # the serial walk's d + 11 and a second design block, which the helper
    # fills with the next step's state half while this thread runs the value
    # half, plus two (P,) arrays for the two halves overlapping: the state
    # half's scaling holds one temporary (np.std), and in some interleavings
    # the value half's peak meets it; 60 walks held 25.0 to 26.2 arrays
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", 0)
    P, basis = 2000, BasisSpec(degree=6)
    args = _inputs(_p1(), N=16, P=P, seed=27, basis=basis)

    def walk():
        for _ in scheme.backward_steps(*args):
            pass

    walk()     # warm-up
    tracemalloc.start()
    try:
        walk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 * basis.dimension + 13) * P * 8


# ---------------------------------------------------------------------------
# the state half of the next step on a helper thread

def _walk_inputs(m):
    spec = build_preset("P1-pure-quadratic", {"m": m})
    return _inputs(spec, N=9, P=2000, seed=31, reflection=("every", 3),
                   basis=BasisSpec(degree=4))


def _fields(step):
    """A step's bytes: its arrays and scalars, phi's attributes (its basis
    spec and frozen scaling) and the bytes of the factor's (lam, V)."""
    *values, phi, factor = step
    return ([np.asarray(v).tobytes() for v in values], vars(phi),
            [f.tobytes() for f in factor])


@pytest.mark.parametrize("m", [1, 2])
def test_prefetched_walk_is_bit_identical_to_the_serial_walk(monkeypatch, m):
    args = _walk_inputs(m)
    serial = [_fields(s) for s in scheme.backward_steps(*args)]
    on_main, state = [], scheme.step_state

    def recorded(*a):
        on_main.append(threading.current_thread() is threading.main_thread())
        return state(*a)

    monkeypatch.setattr(scheme, "step_state", recorded)
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", 0)
    before = set(threading.enumerate())
    assert [_fields(s) for s in scheme.backward_steps(*args)] == serial
    assert on_main == [False] * 9    # every state half ran on the helper
    assert set(threading.enumerate()) == before


def test_concurrent_prefetched_walks_under_fast_switching(monkeypatch):
    # three walks at once, each with its own helper, and the interpreter
    # switching threads every 10 us: a design block read after the helper
    # refilled it would change a step
    args = _walk_inputs(2)
    serial = [_fields(s) for s in scheme.backward_steps(*args)]
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", 0)
    got = {}

    def walk(k):
        got[k] = [_fields(s) for s in scheme.backward_steps(*args)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=walk, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {k: serial for k in range(3)}


@pytest.mark.parametrize("min_paths", [0, 10 ** 9])
def test_state_half_failure_is_raised_after_the_same_steps(monkeypatch, min_paths):
    state = scheme.step_state

    def failing(basis, X, i, block):
        if i == 5:
            raise RuntimeError("state half failed at step 5")
        return state(basis, X, i, block)

    monkeypatch.setattr(scheme, "step_state", failing)
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", min_paths)
    before, yielded = set(threading.enumerate()), []
    with pytest.raises(RuntimeError, match="^state half failed at step 5$"):
        for step in scheme.backward_steps(*_walk_inputs(1)):
            yielded.append(step.i)
    assert yielded == [8, 7, 6]
    assert set(threading.enumerate()) == before


def test_early_close_of_a_prefetched_walk_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", 0)
    before = set(threading.enumerate())
    walk = scheme.backward_steps(*_walk_inputs(2))
    next(walk)
    assert len(set(threading.enumerate()) - before) == 1
    walk.close()
    assert set(threading.enumerate()) == before


def test_a_walk_on_a_helper_starts_no_second_helper(monkeypatch):
    counts, state = [], scheme.step_state

    def counted(*a):
        counts.append(threading.active_count())
        return state(*a)

    monkeypatch.setattr(scheme, "step_state", counted)
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", 0)
    before = threading.active_count()
    steps = list(forward._ahead(scheme.backward_steps(*_walk_inputs(1))))
    assert [s.i for s in steps] == list(range(8, -1, -1))
    assert counts == [before + 1] * 9
    assert threading.active_count() == before
