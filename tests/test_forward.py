import dataclasses
import math
import mmap
import threading
import time

import numpy as np
import pytest

from qrbsde import forward
from qrbsde.forward import (euler_simulate, exact_simulate, make_grid,
                            sample_increments)
from qrbsde.model import build_preset


# ---------------------------------------------------------------------------
# grids and schedules

def test_make_grid_all():
    grid, sched = make_grid(4, 1.0, "all")
    np.testing.assert_allclose(grid.times, [0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(sched.times, grid.times)
    assert sched.kappa == grid.N == 4


def test_make_grid_every_k():
    grid, sched = make_grid(4, 1.0, ("every", 2))
    np.testing.assert_allclose(sched.times, [0, 0.5, 1.0])
    assert sched.mesh == 0.5


def test_make_grid_minimal():
    grid, sched = make_grid(1, 1.0, "all")
    np.testing.assert_allclose(sched.times, [0.0, 1.0])


def test_make_grid_explicit_times_must_lie_on_grid():
    grid, sched = make_grid(4, 1.0, [0.5])
    np.testing.assert_allclose(sched.times, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        make_grid(4, 1.0, [0.3])
    with pytest.raises(ValueError):
        make_grid(4, 1.0, ("every", 9))


@pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan"),
                               pytest.param(10 ** 400, id="10**400"),
                               pytest.param(-10 ** 400, id="-10**400")])
def test_make_grid_rejects_a_non_finite_reflection_time(t):
    # an int beyond the float range is not finite as a float either
    with pytest.raises(ValueError, match="reflection times must be finite"):
        make_grid(4, 1.0, [0.5, t])


@pytest.mark.parametrize("k", [2.5, float("inf"), float("nan")])
def test_make_grid_rejects_a_non_integer_stride_by_name(k):
    # 2.5 used to be truncated to 2, and inf raised OverflowError
    with pytest.raises(ValueError, match=f"every-k strides must be integers, got {k!r}"):
        make_grid(8, 1.0, ("every", k))


def test_make_grid_takes_an_integral_float_stride():
    assert make_grid(8, 1.0, ("every", 2.0))[1].indices.tolist() == [0, 2, 4, 6, 8]


# ---------------------------------------------------------------------------
# increments

def test_increment_moments():
    grid, _ = make_grid(2, 1.0)
    b = sample_increments(grid, 10 ** 5, seed=7)
    dt = grid.dt[0]
    assert abs(float(np.mean(b.dW[:, 0, 0]))) < 4.0 * math.sqrt(dt / b.n_paths)
    assert float(np.var(b.dW[:, 0, 0])) == pytest.approx(dt, rel=0.05)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 7])
def test_two_thread_sampling_is_the_one_thread_per_step_draw(monkeypatch, m, N):
    grid, _ = make_grid(N, 1.0)
    P, seed = 300, 5
    want = np.stack([forward._step_rng(seed, i, 0).standard_normal((P, m))
                     * math.sqrt(dt) for i, dt in enumerate(grid.dt)], axis=1)
    on_main, step_rng = {}, forward._step_rng

    def recorded(seed, i, stream):
        on_main[i] = threading.current_thread() is threading.main_thread()
        return step_rng(seed, i, stream)

    monkeypatch.setattr(forward, "_step_rng", recorded)
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", 0)
    before = set(threading.enumerate())
    got = sample_increments(grid, P, seed, m).dW
    assert np.array(got).tobytes() == want.tobytes()
    # every third step was drawn here, the two after each on the helper
    assert on_main == {i: i % 3 == 0 for i in range(N)}
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("min_paths", [0, 10 ** 9], ids=["helper", "serial"])
@pytest.mark.parametrize("N", [1, 2, 3, 64])
@pytest.mark.parametrize("m", [1, 2])
def test_draw_and_step_pass_is_the_split_simulation_bit_for_bit(monkeypatch, m, N,
                                                                 min_paths):
    spec = build_preset("P2-mixed-quadratic", {"m": m})
    grid, _ = make_grid(N, spec.T)
    want = euler_simulate(spec, sample_increments(grid, 500, 9, m))
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", min_paths)
    before = set(threading.enumerate())
    got = forward.sample_and_simulate(spec, grid, 500, 9)
    assert got.dW.tobytes() == want.dW.tobytes()
    assert got.X_euler.tobytes() == want.X_euler.tobytes()
    split = euler_simulate(spec, sample_increments(grid, 500, 9, m))
    assert split.X_euler.tobytes() == want.X_euler.tobytes()
    assert set(threading.enumerate()) == before


def test_no_helper_pays_on_a_thread_that_holds_an_open_ahead(monkeypatch):
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", 0)
    seen = []

    def items():
        for k in range(3):
            seen.append(forward.helper_pays(1))   # on the helper
            yield k

    assert forward.helper_pays(1)
    walk = forward._ahead(items(), 1)
    assert next(walk) == 0 and not forward.helper_pays(1)
    assert list(walk) == [1, 2] and forward.helper_pays(1)
    assert seen == [False] * 3
    walk = forward._ahead(items(), 1)
    next(walk)
    walk.close()   # an early close gives the thread its helper back too
    assert forward.helper_pays(1)


def test_ahead_hands_back_its_items_where_no_helper_pays(monkeypatch):
    # below AHEAD_MIN_PATHS, on a helper, and beside an open walk, _ahead
    # returns its argument itself and starts no thread
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", 10)
    started, start = [], threading.Thread.start

    def recorded(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    below = (k for k in range(2))
    assert forward._ahead(below, 9) is below and started == []
    on_helper = []

    def outer():
        inner = (k for k in range(2))
        on_helper.append(forward._ahead(inner, 10) is inner)
        yield 0

    walk = forward._ahead(outer(), 10)
    beside = (k for k in range(2))
    assert forward._ahead(beside, 10) is beside
    assert list(walk) == [0]
    assert on_helper == [True] and len(started) == 1


def test_ahead_starts_its_helper_on_the_first_item_at_once(monkeypatch):
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", 10)
    made = []

    def items():
        for k in range(3):
            made.append(threading.current_thread() is threading.main_thread())
            yield k

    before = set(threading.enumerate())
    walk = forward._ahead(items(), 10)
    deadline = time.monotonic() + 5.0
    while not made and time.monotonic() < deadline:
        time.sleep(0.001)
    assert made == [False]   # the first item, on the helper, before any next
    assert list(walk) == [0, 1, 2]
    assert set(threading.enumerate()) == before


def test_a_draw_inside_an_open_ahead_is_serial_and_bit_equal(monkeypatch):
    # one helper at a time: the caller of an open _ahead draws every step
    grid, _ = make_grid(5, 1.0)
    want = sample_increments(grid, 300, 5, 2).dW.tobytes()
    on_main, step_rng = [], forward._step_rng

    def recorded(seed, i, stream):
        on_main.append(threading.current_thread() is threading.main_thread())
        return step_rng(seed, i, stream)

    monkeypatch.setattr(forward, "_step_rng", recorded)
    monkeypatch.setattr(forward, "AHEAD_MIN_PATHS", 0)
    walk = forward._ahead((k for k in range(2)), 1)
    next(walk)
    try:
        assert sample_increments(grid, 300, 5, 2).dW.tobytes() == want
    finally:
        walk.close()
    assert on_main == [True] * 5


def test_increments_deterministic():
    grid, _ = make_grid(8, 1.0)
    a = sample_increments(grid, 500, seed=3)
    b = sample_increments(grid, 500, seed=3)
    np.testing.assert_array_equal(a.dW, b.dW)
    c = sample_increments(grid, 500, seed=4)
    assert not np.array_equal(a.dW, c.dW)


def test_seed_must_fit_in_64_bits():
    # the Philox key holds the seed in 64 bits; seed 2**64 would draw the
    # exact-residual stream of seed 0
    grid, _ = make_grid(4, 1.0)
    assert sample_increments(grid, 3, seed=2 ** 64 - 1).dW.shape == (3, 4, 1)
    for seed in (-1, 2 ** 64, 2 ** 96):
        with pytest.raises(ValueError, match="seed"):
            sample_increments(grid, 3, seed=seed)


def test_increments_step_draws_are_order_independent():
    # a path prefix of a bigger bundle matches the smaller bundle exactly:
    # draws are keyed by (seed, step), never by how much was generated before
    grid, _ = make_grid(6, 1.0)
    small = sample_increments(grid, 100, seed=11)
    big = sample_increments(grid, 1000, seed=11)
    np.testing.assert_array_equal(big.dW[:100], small.dW)
    for m in (2, 3):
        big = sample_increments(grid, 1000, seed=11, m=m).dW
        for P in (1, 7, 999):
            assert sample_increments(grid, P, 11, m).dW.tobytes() \
                == np.ascontiguousarray(big[:P]).tobytes()
    # at m = 1 each Euler and exact step is a path-wise product, so the
    # states of a prefix are the smaller bundle's too, whatever its size
    # (from m = 2 on np.inner's value on a block's last P mod 4 rows can
    # differ in the last bit from a longer block's, so there they need not)
    spec = build_preset("P2-mixed-quadratic")
    grid, _ = make_grid(6, spec.T)
    big = exact_simulate(spec, euler_simulate(spec, sample_increments(grid, 5003, 11)))
    for P in (1, 7, 999, 4999):
        small = exact_simulate(spec, euler_simulate(spec, sample_increments(grid, P, 11)))
        for X, Y in ((big.X_euler, small.X_euler), (big.X_exact, small.X_exact)):
            assert np.ascontiguousarray(X[:P]).tobytes() \
                == np.ascontiguousarray(Y).tobytes()


def test_multidim_components_uncorrelated():
    grid, _ = make_grid(2, 1.0)
    b = sample_increments(grid, 10 ** 5, seed=5, m=2)
    corr = np.corrcoef(b.dW[:, 0, 0], b.dW[:, 0, 1])[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(b.n_paths)


# ---------------------------------------------------------------------------
# euler simulation

def test_euler_pure_brownian():
    spec = build_preset("P1-pure-quadratic")
    unit_vol = dataclasses.replace(spec, vol=lambda t: np.array([1.0]))
    grid, _ = make_grid(5, 1.0)
    b = euler_simulate(unit_vol, sample_increments(grid, 50, seed=0))
    want = spec.x0 + np.concatenate(
        [np.zeros((50, 1)), np.cumsum(b.dW[:, :, 0], axis=1)], axis=1)
    np.testing.assert_allclose(b.X_euler, want, atol=1e-14)


def test_euler_constant_drift_no_noise():
    spec = build_preset("P1-pure-quadratic")
    mu = 0.7
    det = dataclasses.replace(spec, drift=lambda t, x: np.full_like(np.asarray(x, float), mu),
                              vol=lambda t: np.array([0.0]))
    grid, _ = make_grid(4, 1.0)
    b = euler_simulate(det, sample_increments(grid, 3, seed=0))
    want = np.broadcast_to(spec.x0 + mu * grid.times, b.X_euler.shape)
    np.testing.assert_allclose(b.X_euler, want, atol=1e-12)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("fused", [True, False], ids=["one-pass", "split"])
def test_a_blown_up_drift_raises_at_its_first_bad_path_and_step(fused, value):
    # the drift blows up at t_4 on paths 17 and 30 only, so X_5 is the first
    # non-finite column and path 17 its first non-finite entry
    spec = build_preset("P1-pure-quadratic")
    grid, _ = make_grid(8, spec.T)
    X = euler_simulate(spec, sample_increments(grid, 50, 3)).X_euler
    bad_x = X[[17, 30], 4]

    def drift(t, x):
        return np.where((t == grid.times[4]) & np.isin(x, bad_x), value, 0.0)

    bad = dataclasses.replace(spec, drift=drift)
    with pytest.raises(FloatingPointError,
                       match="^non-finite Euler state at path 17, step 5$"):
        if fused:
            forward.sample_and_simulate(bad, grid, 50, 3)
        else:
            euler_simulate(bad, sample_increments(grid, 50, 3))


def test_a_finite_column_whose_sum_overflows_does_not_raise():
    # the sum only sends a column to the isfinite scan
    spec = dataclasses.replace(build_preset("P1-pure-quadratic"), x0=1e308)
    grid, _ = make_grid(2, spec.T)
    with np.errstate(over="ignore"):
        X = forward.sample_and_simulate(spec, grid, 4, 0).X_euler
        assert np.all(np.isfinite(X)) and not np.isfinite(np.sum(X[:, 1]))


def test_euler_aborts_on_blowup():
    spec = build_preset("P1-pure-quadratic")
    bad = dataclasses.replace(spec, drift=lambda t, x: np.asarray(x, float) * 1e200)
    grid, _ = make_grid(4, 1.0)
    with pytest.raises(FloatingPointError):
        euler_simulate(bad, sample_increments(grid, 3, seed=0))


# ---------------------------------------------------------------------------
# exact simulation and strong error

def test_exact_equals_euler_without_drift():
    spec = build_preset("P1-pure-quadratic")
    grid, _ = make_grid(16, 1.0)
    b = exact_simulate(spec, euler_simulate(spec, sample_increments(grid, 200, seed=1)))
    np.testing.assert_allclose(b.X_exact, b.X_euler, atol=1e-12)


def test_exact_one_step_ou_mean():
    # b = 0.5(1-x) is OU with theta = 0.5 toward 1; kill the noise and check
    # the one-step conditional mean against the closed form
    spec = build_preset("P2-mixed-quadratic")
    det = dataclasses.replace(spec, vol=lambda t: np.array([0.0]), x0=3.0)
    grid, _ = make_grid(1, 0.8)
    b = exact_simulate(det, sample_increments(grid, 1, seed=0))
    th, dt = 0.5, 0.8
    want = 3.0 * math.exp(-th * dt) + 1.0 * (1.0 - math.exp(-th * dt))
    assert b.X_exact[0, 1] == pytest.approx(want, abs=1e-12)


def test_exact_linear_ode():
    spec = build_preset("P1-pure-quadratic")
    ode = dataclasses.replace(spec, drift=lambda t, x: -np.asarray(x, float),
                              vol=lambda t: np.array([0.0]))
    grid, _ = make_grid(4, 1.0)
    b = exact_simulate(ode, sample_increments(grid, 1, seed=0))
    assert b.X_exact[0, -1] == pytest.approx(spec.x0 * math.exp(-1.0), abs=1e-12)


def test_exact_rejects_nonaffine_drift():
    spec = build_preset("P1-pure-quadratic")
    bad = dataclasses.replace(spec, drift=lambda t, x: np.asarray(x, float) ** 2)
    grid, _ = make_grid(4, 1.0)
    with pytest.raises(ValueError):
        exact_simulate(bad, sample_increments(grid, 2, seed=0))


def test_euler_strong_error_first_order_on_ou():
    """Additive noise: the Euler error vs the exact transition decays ~ |pi|^2
    in mean-square, i.e. the log2-ratio between successive N is >= 1."""
    spec = build_preset("P2-mixed-quadratic")
    errs = []
    for N in (8, 16, 32, 64):
        grid, _ = make_grid(N, spec.T)
        b = exact_simulate(spec, euler_simulate(spec, sample_increments(grid, 4000, seed=9)))
        errs.append(float(np.mean(np.max((b.X_exact - b.X_euler) ** 2, axis=1))))
    ratios = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(r >= 1.0 for r in ratios), ratios


def test_variance_sanity_p1_terminal():
    spec = build_preset("P1-pure-quadratic")
    grid, _ = make_grid(32, spec.T)
    b = euler_simulate(spec, sample_increments(grid, 20000, seed=2))
    v = float(np.var(b.X_euler[:, -1]))
    se = 0.09 * math.sqrt(2.0 / b.n_paths)    # var of the variance estimator
    assert abs(v - 0.09) < 5.0 * se


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("preset", ["P1-pure-quadratic", "P2-mixed-quadratic"])
def test_simulated_states_are_bit_equal_to_the_matrix_product_recursion(preset, m):
    spec = build_preset(preset, {"m": m})
    grid, _ = make_grid(8, spec.T)
    bundle = exact_simulate(spec, euler_simulate(
        spec, sample_increments(grid, 3000, 5, m)))
    X = np.empty((3000, grid.N + 1))
    X[:, 0] = spec.x0
    sig = np.asarray(spec.vol(0.0), dtype=float)
    for i in range(grid.N):
        X[:, i + 1] = X[:, i] + np.asarray(spec.drift(grid.times[i], X[:, i])) \
            * grid.dt[i] + bundle.dW[:, i, :] @ sig
    assert X.tobytes() == np.ascontiguousarray(bundle.X_euler).tobytes()
    if preset == "P1-pure-quadratic":    # no drift: the exact leg adds the same
        assert bundle.X_exact.tobytes() == bundle.X_euler.tobytes()


def _buffer_owner(arr):
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else base


@pytest.mark.parametrize("m", [1, 2])
def test_bundle_arrays_are_writable_zeroed_anonymous_mappings(m):
    # each long-lived bundle array has its own mapping, released with it
    spec = build_preset("P2-mixed-quadratic", {"m": m})
    grid, _ = make_grid(4, spec.T)
    bundle = exact_simulate(spec, euler_simulate(
        spec, sample_increments(grid, 300, 3, m)))
    for arr in (bundle.dW, bundle.X_euler, bundle.X_exact):
        assert arr.flags.writeable
        assert isinstance(_buffer_owner(arr), mmap.mmap)
    fresh = forward.path_array(300, 4, m, mapped=True)
    assert fresh.shape == (300, 4, m) and fresh.flags.writeable
    assert isinstance(_buffer_owner(fresh), mmap.mmap)
    assert not np.any(fresh)
    assert all(fresh[:, i, :].flags.f_contiguous for i in range(4))
