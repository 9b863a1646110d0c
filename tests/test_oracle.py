import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial.hermite import hermgauss

from scipy.interpolate import PchipInterpolator

from qrbsde import oracle
from qrbsde.forward import make_grid
from qrbsde.model import build_preset, clip_obstacle
from qrbsde.oracle import (SpaceGrid, _std_normal_quadrature, _transition_points,
                           brute_force_tiny, build_space_grid,
                           exact_scheme_solve, snell_cole_hopf)

pytestmark = pytest.mark.filterwarnings(
    "ignore:quadrature points left the space grid")


def _p1():
    return build_preset("P1-pure-quadratic")


def _zero_driver(spec):
    return dataclasses.replace(
        spec, generator=lambda t, x, y, z: np.zeros(np.shape(y)),
        pure_quadratic=False)


def test_space_grid_validation():
    with pytest.raises(ValueError):
        SpaceGrid(nodes=np.linspace(0, 1, 10), quad_order=15)
    with pytest.raises(ValueError):
        SpaceGrid(nodes=np.linspace(0, 1, 60), quad_order=3)
    space = build_space_grid(_p1())
    assert space.nodes[0] <= 1.0 - 6 * 0.3 and space.nodes[-1] >= 1.0 + 6 * 0.3


def test_space_grid_rejects_unevenly_spaced_nodes():
    nodes = np.linspace(0.0, 1.0, 60)
    SpaceGrid(nodes=nodes, quad_order=15)
    for uneven in (np.linspace(0.0, 1.0, 60) ** 2, np.r_[nodes[:30], nodes[30:] + 1e-3]):
        with pytest.raises(ValueError, match="evenly spaced"):
            SpaceGrid(nodes=uneven, quad_order=15)


def test_constant_data_fixed_point():
    spec = _zero_driver(_p1())
    spec = dataclasses.replace(spec, obstacle=lambda x: np.full(np.shape(x), 0.3))
    grid, sched = make_grid(8, spec.T)
    sol = exact_scheme_solve(spec, grid, sched, build_space_grid(spec))
    np.testing.assert_allclose(sol.y, 0.3, atol=1e-12)
    np.testing.assert_allclose(sol.z, 0.0, atol=1e-12)


def test_lattice_solution_keeps_only_y_and_z():
    spec = _p1()
    grid, sched = make_grid(4, spec.T)
    sol = exact_scheme_solve(spec, grid, sched, build_space_grid(spec, J=51))
    assert {f.name for f in dataclasses.fields(sol)
            if isinstance(getattr(sol, f.name), np.ndarray)} == {"y", "z"}


def test_single_step_matches_direct_quadrature():
    # smooth payoff so quadrature + pchip resolve well below the tolerance;
    # the clipped obstacle's kink would dominate the comparison otherwise
    spec = dataclasses.replace(_zero_driver(_p1()),
                               obstacle=lambda x: 0.5 * np.exp(-np.asarray(x, float) ** 2))
    grid, sched = make_grid(1, spec.T)
    sol = exact_scheme_solve(spec, grid, sched, build_space_grid(spec, J=801, quad_order=40))
    h, w = hermgauss(80)
    xT = 1.0 + 0.3 * math.sqrt(2.0) * h
    want = float((0.5 * np.exp(-xT ** 2)) @ w / math.sqrt(math.pi))
    assert sol.y0 == pytest.approx(want, abs=1e-8)


def test_terminal_slice_is_obstacle():
    spec = _p1()
    grid, sched = make_grid(4, spec.T)
    space = build_space_grid(spec)
    for solver in (exact_scheme_solve, snell_cole_hopf):
        sol = solver(spec, grid, sched, space)
        np.testing.assert_allclose(sol.y[-1], clip_obstacle(space.nodes), atol=1e-12)


def test_self_convergence_in_space_resolution():
    spec = _p1()
    grid, sched = make_grid(64, spec.T)
    a = exact_scheme_solve(spec, grid, sched, build_space_grid(spec, J=401, quad_order=15))
    b = exact_scheme_solve(spec, grid, sched, build_space_grid(spec, J=801, quad_order=30))
    # the kink in the clipped obstacle caps the attainable resolution here
    assert abs(a.y0 - b.y0) <= 1e-5


def test_snell_requires_pure_quadratic():
    spec = build_preset("P2-mixed-quadratic")
    grid, sched = make_grid(4, spec.T)
    with pytest.raises(ValueError):
        snell_cole_hopf(spec, grid, sched, build_space_grid(spec))


def test_snell_constant_obstacle():
    spec = dataclasses.replace(_p1(), obstacle=lambda x: np.full(np.shape(x), 0.25))
    grid, sched = make_grid(8, spec.T)
    sol = snell_cole_hopf(spec, grid, sched, build_space_grid(spec))
    np.testing.assert_allclose(sol.y, 0.25, atol=1e-12)


def test_snell_terminal_only_is_exponential_moment():
    # smooth convex payoff: with reflection only at the endpoints the value
    # collapses to log E[exp(g(X_T))], which an 80-point rule pins down;
    # convexity (Jensen) keeps the initial reflection max(g(x0), .) inactive
    g = lambda x: 0.2 * (np.asarray(x, float) - 1.0) ** 2
    spec = dataclasses.replace(_p1(), obstacle=g)
    grid, sched = make_grid(16, spec.T, [1.0])   # reflect at endpoints only
    sol = snell_cole_hopf(spec, grid, sched, build_space_grid(spec, J=801, quad_order=30))
    h, w = hermgauss(80)
    xT = 1.0 + 0.3 * math.sqrt(2.0) * h
    want = math.log(float(np.exp(g(xT)) @ w / math.sqrt(math.pi)))
    assert sol.y0 == pytest.approx(want, abs=1e-6)


def test_snell_monotone_in_schedule_refinement():
    spec = _p1()
    space = build_space_grid(spec)
    prev = None
    for stride in (8, 4, 2, 1):
        grid, sched = make_grid(32, spec.T, ("every", stride))
        y = snell_cole_hopf(spec, grid, sched, space).y
        if prev is not None:
            # pchip is not a monotone operator in its data, so allow
            # interpolation-level slack on top of the exact-recursion ordering
            assert np.all(y >= prev - 1e-7)
        prev = y


def test_oracles_cross_agree_on_p1():
    spec = _p1()
    space = build_space_grid(spec)
    grid, sched = make_grid(64, spec.T)
    a = exact_scheme_solve(spec, grid, sched, space)
    b = snell_cole_hopf(spec, grid, sched, space)
    assert float(np.max(np.abs(a.y - b.y))) <= 1e-3


def test_brute_force_single_step():
    spec = _zero_driver(_p1())
    grid, sched = make_grid(1, spec.T)
    y_tree = brute_force_tiny(spec, grid, sched, quad_order=9)
    sol = exact_scheme_solve(spec, grid, sched,
                             build_space_grid(spec, J=801, quad_order=9))
    assert y_tree == pytest.approx(sol.y0, abs=1e-6)


def test_brute_force_linear_payoff():
    spec = _zero_driver(_p1())
    lin = dataclasses.replace(spec, obstacle=lambda x: np.asarray(x, dtype=float))
    grid, sched = make_grid(2, spec.T, [1.0])
    assert brute_force_tiny(lin, grid, sched) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_cross_oracle_n2():
    spec = _p1()
    grid, sched = make_grid(2, spec.T)
    y_tree = brute_force_tiny(spec, grid, sched, quad_order=9)
    sol = exact_scheme_solve(spec, grid, sched,
                             build_space_grid(spec, J=801, quad_order=9))
    # the tree has no spatial interpolation; the lattice solve pays a small
    # pchip penalty at the obstacle kink
    assert y_tree == pytest.approx(sol.y0, abs=1e-4)


def test_brute_force_size_limits():
    spec = _p1()
    grid, sched = make_grid(5, spec.T)
    with pytest.raises(ValueError):
        brute_force_tiny(spec, grid, sched)


def test_grid_solution_deterministic():
    spec = _p1()
    grid, sched = make_grid(16, spec.T)
    space = build_space_grid(spec)
    a = exact_scheme_solve(spec, grid, sched, space)
    b = exact_scheme_solve(spec, grid, sched, space)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.z, b.z)


def test_oracles_raise_when_picard_does_not_contract():
    # f = 3y at N=2 gives L*dt = 1.5: the implicit step has no contraction,
    # and both quadrature engines must say so instead of returning a value
    spec = dataclasses.replace(build_preset("P3-lipschitz"),
                               generator=lambda t, x, y, z: 3.0 * np.asarray(y))
    grid, sched = make_grid(2, spec.T)
    with pytest.raises(RuntimeError, match="Picard"):
        exact_scheme_solve(spec, grid, sched, build_space_grid(spec))
    with pytest.raises(RuntimeError, match="Picard"):
        brute_force_tiny(spec, grid, sched)


def test_exact_scheme_raises_on_non_finite_driver():
    spec = dataclasses.replace(_zero_driver(_p1()),
                               generator=lambda t, x, y, z: np.full(np.shape(y), np.nan))
    grid, sched = make_grid(4, spec.T)
    with pytest.raises(FloatingPointError):
        exact_scheme_solve(spec, grid, sched, build_space_grid(spec))


# node values for the coefficient comparison: a small pool that makes flat
# runs, exact-zero slopes, sign changes and -0.0 common, and magnitudes
# from 1e-300 to 1e300
_PCHIP_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.builds(lambda mant, e: mant * 10.0 ** e, st.floats(-10.0, 10.0),
              st.integers(-300, 299)))


@st.composite
def _pchip_slices(draw):
    J = draw(st.integers(3, 12))
    x0 = draw(st.floats(-10.0, 10.0))
    if draw(st.booleans()):
        nodes = np.linspace(x0, x0 + draw(st.floats(0.1, 50.0)), J)
    else:
        steps = draw(hnp.arrays(np.float64, J - 1, elements=st.floats(0.01, 10.0)))
        nodes = x0 + np.concatenate([[0.0], np.cumsum(steps)])
    tail = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    return nodes, draw(hnp.arrays(np.float64, (J,) + tail, elements=_PCHIP_VALUES))


def _assert_same_coefficients(nodes, values):
    with np.errstate(all="ignore"):    # huge magnitudes may overflow in both
        got = oracle.PchipInterpolator(nodes, values).c
        want = PchipInterpolator(nodes, values, axis=0).c
    assert got.shape == want.shape == (4, len(nodes) - 1) + np.shape(values)[1:]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    return got


@given(_pchip_slices())
@settings(max_examples=400, deadline=None)
def test_pchip_coefficients_equal_scipy_bit_for_bit(data):
    _assert_same_coefficients(*data)


@pytest.mark.parametrize("values, left, right", [
    ([0.0, 1.0, 6.0, 4.0], 0.0, -5.5),      # left estimate (3-5)/2 flips sign
    ([4.0, 6.0, 1.0, 0.0], 5.5, 0.0),       # right estimate (-3+5)/2 flips sign
    ([0.0, 0.25, -1.75, -0.75], 0.75, 2.5),  # left 1.375 > 3*0.25: 3*m0
    ([0.0, 1.0, -1.0, -0.75], 2.5, 0.75),    # right 1.375 > 3*0.25: 3*m0
])
def test_pchip_end_rule_corrections(values, left, right):
    # unit spacing; each case reaches one shape-preserving correction of the
    # one-sided end estimate at one end and the plain estimate at the other
    c = _assert_same_coefficients(np.arange(4.0), np.array(values))
    assert c[2, 0] == left
    assert 3 * c[0, -1] + 2 * c[1, -1] + c[2, -1] == pytest.approx(right, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pchip_rejects_non_finite_values(bad):
    values = np.arange(5.0)
    values[2] = bad
    with pytest.raises(ValueError, match="finite"):
        oracle.PchipInterpolator(np.arange(5.0), values)


def test_pchip_rejects_a_length_mismatch():
    with pytest.raises(ValueError, match="one row per node"):
        oracle.PchipInterpolator(np.arange(5.0), np.zeros((4, 2)))


def test_interpolate_serves_all_columns_with_one_interpolant():
    space = build_space_grid(_p1())
    rng = np.random.default_rng(3)
    values = np.cumsum(rng.normal(size=(space.J, 3)), axis=0)
    x = np.concatenate([rng.uniform(space.nodes[0], space.nodes[-1], 500),
                        [space.nodes[0] - 1.0, space.nodes[-1] + 2.0]])
    got = space.interpolate(values, x)
    assert got.shape == (x.size, 3)
    for c in range(3):
        want = PchipInterpolator(space.nodes, values[:, c], extrapolate=False)(
            np.clip(x, space.nodes[0], space.nodes[-1]))
        np.testing.assert_array_equal(got[:, c], want)
    # constant beyond the grid: the values at the end nodes
    ends = space.interpolate(values, space.nodes[[0, -1]])
    np.testing.assert_array_equal(got[-2:], ends)
    np.testing.assert_allclose(ends, values[[0, -1]], rtol=1e-14, atol=1e-14)


def _scipy_pchip(space, values, x):
    return PchipInterpolator(space.nodes, values, axis=0, extrapolate=False)(
        np.clip(x, space.nodes[0], space.nodes[-1]))


@pytest.mark.parametrize("tail", [(), (1,), (4,), (2, 3)])
def test_interpolate_is_bit_identical_to_scipy(tail):
    space = build_space_grid(_p1())
    nodes = space.nodes
    rng = np.random.default_rng(11)
    values = np.cumsum(rng.normal(size=(space.J,) + tail), axis=0)
    xs = {
        "cloud": rng.normal(1.0, 0.6, 5000),
        "lattice": rng.uniform(nodes[0] - 0.2, nodes[-1] + 0.2, (space.J, 15)),
        "nodes": nodes,
        "above each node": np.nextafter(nodes, np.inf),
        "below each node": np.nextafter(nodes, -np.inf),
        "beyond both ends": np.array([nodes[0] - 3.0, nodes[-1] + 3.0, -np.inf, np.inf]),
        "scalar": np.float64(1.234567),
        "scalar node": nodes[200],
    }
    for name, x in xs.items():
        got = space.interpolate(values, x)
        want = _scipy_pchip(space, values, x)
        assert got.shape == want.shape, name
        np.testing.assert_array_equal(got, want, err_msg=name)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want), err_msg=name)


def test_interpolate_reads_a_negative_zero_node_value_as_scipy_does():
    # scipy sums the cubic from 0.0, so a -0.0 node value whose interval's
    # other coefficients are all negative still evaluates to +0.0 at the node
    space = build_space_grid(_p1())
    t = space.nodes - space.nodes[200]
    values = -t - t * t - t ** 3
    x = space.nodes[199:202]
    want = _scipy_pchip(space, values, x)
    assert np.signbit(values[200]) and not np.signbit(want[1])
    got = space.interpolate(values, x)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_interpolate_returns_columns_contiguous():
    space = build_space_grid(_p1())
    values = np.cumsum(np.ones((space.J, 4)), axis=0)
    got = space.interpolate(values, np.linspace(0.0, 2.0, 1000))
    assert got.shape == (1000, 4) and got.flags.f_contiguous
    assert all(got[:, k].flags.c_contiguous for k in range(4))


def test_interpolate_nan_gives_nan_without_warning():
    space = build_space_grid(_p1())
    rng = np.random.default_rng(12)
    values = np.cumsum(rng.normal(size=(space.J, 2)), axis=0)
    x = np.array([0.5, np.nan, 1.5, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = space.interpolate(values, x)
        one = space.interpolate(values[:, 0], np.nan)
    np.testing.assert_array_equal(got, _scipy_pchip(space, values, x))
    assert np.all(np.isnan(got[[1, 3]])) and np.all(np.isfinite(got[[0, 2]]))
    assert one.shape == () and np.isnan(one)


def test_z_at_builds_one_interpolant_for_all_components(monkeypatch):
    spec = build_preset("P1-pure-quadratic", {"m": 2})
    grid, sched = make_grid(4, spec.T)
    sol = exact_scheme_solve(spec, grid, sched, build_space_grid(spec))
    builds = []

    def counted(*args, **kwargs):
        builds.append(1)
        return PchipInterpolator(*args, **kwargs)

    monkeypatch.setattr(oracle, "PchipInterpolator", counted)
    z = sol.z_at(1, np.linspace(0.0, 2.0, 7))
    assert z.shape == (7, 2)
    assert len(builds) == 1


def test_off_grid_points_are_counted_into_one_warning():
    spec = _p1()
    grid, sched = make_grid(16, spec.T)
    space = build_space_grid(spec)
    u, _ = _std_normal_quadrature(space.quad_order)
    want = sum(int(np.count_nonzero(
        (pts < space.nodes[0]) | (pts > space.nodes[-1])))
        for pts in (_transition_points(spec, grid.times[i], grid.dt[i], space.nodes, u)
                    for i in range(grid.N)))
    assert want > 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = exact_scheme_solve(spec, grid, sched, space)
    msgs = [str(w.message) for w in caught
            if str(w.message).startswith("quadrature points left the space grid")]
    assert len(msgs) == 1
    assert int(re.search(r"grid: (\d+) of", msgs[0]).group(1)) == want
    assert sol.off_grid == (want, grid.N * space.J * u.size) == (6496, 96240)
    assert snell_cole_hopf(spec, grid, sched, space).off_grid == sol.off_grid
