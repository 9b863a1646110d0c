import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from qrbsde.forward import euler_simulate, make_grid, sample_increments
from qrbsde.model import (AffineInY, TruncationRadius, _sobol, build_preset,
                          clip_obstacle, smooth_truncation, soft_clip_obstacle,
                          truncation_active, validate_assumptions, y_bound)
from qrbsde.regress import BasisSpec
from qrbsde.scheme import solve_backward

PRESETS = ("P1-pure-quadratic", "P2-mixed-quadratic", "P3-lipschitz")


# ---------------------------------------------------------------------------
# presets

def test_p1_generator_is_half_z_squared():
    spec = build_preset("P1-pure-quadratic")
    z = np.array([[3.0]])
    assert spec.generator(0.0, np.array([1.0]), np.array([0.0]), z)[0] == pytest.approx(4.5)
    assert spec.obstacle(np.array([1.5]))[0] == 0.0       # clip of a negative value
    assert spec.obstacle(np.array([0.3]))[0] == 0.5       # clip at the cap M_g


def test_p3_override_keeps_other_fields():
    base = build_preset("P3-lipschitz")
    spec = build_preset("P3-lipschitz", {"T": 2.0})
    assert spec.T == 2.0
    assert (spec.L, spec.M_f, spec.M_g, spec.alpha, spec.x0) == \
           (base.L, base.M_f, base.M_g, base.alpha, base.x0)


def test_unknown_preset_and_override_rejected():
    with pytest.raises(ValueError):
        build_preset("P4-nonexistent")
    with pytest.raises(ValueError):
        build_preset("P1-pure-quadratic", {"gamma": 1.0})


def test_p2_drift_is_mean_reverting():
    spec = build_preset("P2-mixed-quadratic")
    x = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(spec.drift(0.0, x), [0.5, 0.0, -1.0])


# ---------------------------------------------------------------------------
# uniform Y bound

def test_y_bound_values():
    assert y_bound(build_preset("P1-pure-quadratic")) == pytest.approx(0.5)
    spec = build_preset("P2-mixed-quadratic", {"M_f": 1.0, "M_g": 1.0, "T": 1.0})
    assert y_bound(spec) == pytest.approx(2.0 * math.e)
    spec0 = build_preset("P1-pure-quadratic", {"M_g": 0.0, "T": 7.0})
    assert y_bound(spec0) == 0.0


def test_y_bound_dominates_Mg():
    for name in PRESETS:
        spec = build_preset(name)
        assert y_bound(spec) >= spec.M_g


# ---------------------------------------------------------------------------
# smooth truncation h_n

def test_truncation_pointwise_values():
    assert smooth_truncation(0.5, 1.0) == pytest.approx(0.5)
    # rho(3) = 1 + 1 - exp(-(3-1)) for n=1
    assert smooth_truncation(3.0, 1.0) == pytest.approx(2.0 - math.exp(-2.0))
    far = smooth_truncation(100.0, 1.0)   # 2 - e^{-99}: rounds to the cap
    assert 1.0 < far <= 2.0


def test_truncation_at_zero_with_huge_radius_does_not_overflow():
    # rows with |z| = 0 under a radius of 1e9 must not warn of overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(smooth_truncation(np.zeros((4, 2)), 1e9), 0.0)
        spec = build_preset("P2-mixed-quadratic")
        grid, sched = make_grid(16, spec.T)
        bundle = euler_simulate(spec, sample_increments(grid, 3000, 7, spec.m))
        sol = solve_backward(spec, grid, sched, bundle,
                             BasisSpec(kind="piecewise-constant", cells=20),
                             TruncationRadius(1e9))
    assert np.isfinite(sol.y0_fit)


def test_truncation_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        smooth_truncation(1.0, 0.0)


@pytest.mark.parametrize("function", [smooth_truncation, truncation_active])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_truncation_rejects_a_non_finite_or_nonpositive_level(function, bad):
    # a NaN level would compare False everywhere and leave z unmoved
    with pytest.raises(ValueError, match=f"truncation level n must be a finite "
                                         f"positive number, got {bad!r}"):
        function(np.array([[5.0]]), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, True])
def test_truncation_radius_rejects_a_non_finite_or_nonpositive_m_z(bad):
    with pytest.raises(ValueError, match=f"M_z must be a finite positive number, got {bad!r}"):
        TruncationRadius(bad)


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 10))
@settings(max_examples=300, deadline=None)
def test_truncation_bound_and_identity(z1, z2, n):
    z = np.array([z1, z2])
    h = smooth_truncation(z, n)
    r = float(np.linalg.norm(z))
    assert float(np.linalg.norm(h)) <= n + 1.0 + 1e-12
    if r <= n:
        np.testing.assert_array_equal(h, z)
    else:
        # never expands the norm
        assert float(np.linalg.norm(h)) <= r + 1e-12


def test_truncation_is_identity_where_the_norm_rounds_up_to_the_radius():
    # sqrt(sum(z*z)) rounds one ulp above np.linalg.norm(z) = n here
    z = np.array([1e-9, 0.1])
    assert float(np.linalg.norm(z)) <= 0.1
    np.testing.assert_array_equal(smooth_truncation(z, 0.1), z)


@pytest.mark.parametrize("m", [1, 2])
def test_truncation_active_is_where_h_moves_z(m):
    rng = np.random.default_rng(2)
    z = np.vstack([rng.uniform(-1.5, 1.5, size=(500, m)), [[1e-9, 0.1][-m:]]])
    for n in (0.1, 1.0):
        moved = np.any(smooth_truncation(z, n) != z, axis=1)
        np.testing.assert_array_equal(truncation_active(z, n), moved)
        assert 0 < np.count_nonzero(moved) < z.shape[0]


@pytest.mark.parametrize("shape", [(500, 1), (500, 2)])
def test_truncation_inside_the_ball_returns_a_fresh_copy(shape):
    z = np.asfortranarray(np.random.default_rng(1).uniform(-0.5, 0.5, size=shape))
    z[0, 0] = -0.0
    h = smooth_truncation(z, 1.0)
    assert h is not z and not np.shares_memory(h, z)
    assert h.tobytes() == z.tobytes()
    h[1, 0] = 7.0                      # writing the result leaves z alone
    assert z[1, 0] != 7.0


def test_truncation_one_lipschitz_random_pairs():
    rng = np.random.default_rng(0)
    z = rng.normal(scale=5.0, size=(10 ** 5, 2))
    zp = z + rng.normal(scale=2.0, size=z.shape)
    dh = np.linalg.norm(smooth_truncation(z, 1.7) - smooth_truncation(zp, 1.7), axis=1)
    dz = np.linalg.norm(z - zp, axis=1)
    assert np.all(dh <= dz * (1.0 + 1e-10))


def test_rho_profile_monotone():
    n = 2.0
    r = np.linspace(n, n + 30, 500)
    rho = n + 1.0 - np.exp(-(r - n))
    assert np.all(np.diff(rho) > 0)
    assert np.all(rho <= r + 1e-12)


@pytest.mark.parametrize("name, a", [("P1-pure-quadratic", 0.0),
                                     ("P2-mixed-quadratic", -0.1),
                                     ("P3-lipschitz", -0.1)])
def test_presets_declare_their_y_coefficient(name, a):
    f = build_preset(name).generator
    assert isinstance(f, AffineInY) and f.a == a
    rng = np.random.default_rng(6)
    x, y, z = rng.normal(size=64), rng.normal(size=64), rng.normal(size=(64, 1))
    np.testing.assert_allclose(f(0.2, x, y, z), a * y + f.f0(0.2, x, z), rtol=0,
                               atol=1e-15)


# ---------------------------------------------------------------------------
# assumption validation

def test_cloud_is_scipys_unscrambled_sobol_bit_for_bit():
    want = qmc.Sobol(d=7, scramble=False, seed=0).random(2048)
    np.testing.assert_array_equal(_sobol(2048, 7), want)


@pytest.mark.filterwarnings("ignore:The balance properties")
@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("n", [1, 2, 3, 100, 4097])
def test_sobol_prefixes_are_scipys_in_every_dimension(n, d):
    want = qmc.Sobol(d=d, scramble=False, seed=0).random(n)
    np.testing.assert_array_equal(_sobol(n, d), want)


def test_presets_pass_core_assumptions():
    for name in PRESETS:
        rep = validate_assumptions(build_preset(name))
        for group in ("HX", "HF", "HT"):
            assert rep.passes(group), (name, group, {
                k: v.worst_ratio for k, v in rep.checks.items() if not v.passed})


def test_unbounded_obstacle_fails_g_bound():
    spec = build_preset("P1-pure-quadratic")
    bad = __import__("dataclasses").replace(spec, obstacle=lambda x: np.asarray(x, dtype=float))
    rep = validate_assumptions(bad)
    res = rep.checks["HF.g_bound"]
    assert not res.passed
    # witness sits near the edge of the sampling box
    assert abs(res.witness[0] - spec.x0) > 1.0


def test_volatility_jump_fails_time_holder():
    spec = build_preset("P1-pure-quadratic")
    jumpy = __import__("dataclasses").replace(
        spec, vol=lambda t: np.array([0.3 + 0.3 * (t > 0.5)]))
    rep = validate_assumptions(jumpy)
    assert not rep.checks["HT.time_holder"].passed


def test_kinked_obstacle_fails_h1_smooth_variant_passes():
    rep = validate_assumptions(build_preset("P1-pure-quadratic"))
    assert not rep.passes("H1")          # clip(1-x, 0, 0.5) has kinks
    # the soft clip (sharpness 20) has |g''| up to ~5 and |g'''| up to ~40,
    # so its derivatives are Lipschitz with a larger constant
    smooth = build_preset("P1-pure-quadratic", {"smooth_g": True, "L": 100.0})
    srep = validate_assumptions(smooth)
    assert srep.passes("H1") and srep.passes("H2")


def test_soft_clip_tracks_clip():
    x = np.linspace(-2, 3, 400)
    gap = np.abs(soft_clip_obstacle(x) - clip_obstacle(x))
    assert float(np.max(gap)) < 0.05     # log-sum-exp with sharpness 20


@pytest.mark.parametrize("m", [2.7, 0, "2", pytest.param(10 ** 400, id="1e400")])
def test_brownian_dimension_must_be_a_positive_integer(m):
    with pytest.raises(ValueError, match="dimension m"):
        build_preset("P1-pure-quadratic", {"m": m})
    assert build_preset("P1-pure-quadratic", {"m": 2.0}).m == 2


@pytest.mark.parametrize("overrides", [{"smooth_g": "false"}, {"smooth_g": 1},
                                       {"L": None}, {"alpha": True},
                                       {"T": float("inf")}, {"T": 10 ** 400},
                                       {"x0": -10 ** 400}])
def test_ill_typed_override_is_rejected_by_name(overrides):
    (key,) = overrides
    with pytest.raises(ValueError, match=f"override '{key}'"):
        build_preset("P1-pure-quadratic", overrides)


@pytest.mark.parametrize("key, names", [("T", "override 'T'"), ("m", "dimension m")])
def test_override_too_long_to_print_is_rejected_by_name(key, names):
    # repr of an int past the 4300-digit limit raises, so the message shows its type
    with pytest.raises(ValueError, match=names) as err:
        build_preset("P1-pure-quadratic", {key: 10 ** 5000})
    assert str(err.value).endswith("got <int too long to print>")


def test_overrides_accept_numpy_scalars():
    spec = build_preset("P1-pure-quadratic", {"m": np.int64(2), "T": np.float64(0.5)})
    assert (spec.m, spec.T) == (2, 0.5)
    assert type(spec.m) is int and type(spec.T) is float
