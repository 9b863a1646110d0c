import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrbsde.forward import euler_simulate, make_grid, sample_increments
from qrbsde.model import (AffineInY, CloudConfig, TruncationRadius, build_preset,
                          clip_obstacle, smooth_truncation, soft_clip_obstacle,
                          truncate_generator, validate_assumptions, y_bound)
from qrbsde.regress import BasisSpec
from qrbsde.scheme import estimate_Mz_auto

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
    assert y_bound(build_preset("P1-pure-quadratic")).M == pytest.approx(0.5)
    spec = build_preset("P2-mixed-quadratic", {"M_f": 1.0, "M_g": 1.0, "T": 1.0})
    assert y_bound(spec).M == pytest.approx(2.0 * math.e)
    spec0 = build_preset("P1-pure-quadratic", {"M_g": 0.0, "T": 7.0})
    assert y_bound(spec0).M == 0.0


def test_y_bound_dominates_Mg():
    for name in PRESETS:
        spec = build_preset(name)
        assert y_bound(spec).M >= spec.M_g


# ---------------------------------------------------------------------------
# smooth truncation h_n

def test_truncation_pointwise_values():
    assert smooth_truncation(0.5, 1.0) == pytest.approx(0.5)
    # rho(3) = 1 + 1 - exp(-(3-1)) for n=1
    assert smooth_truncation(3.0, 1.0) == pytest.approx(2.0 - math.exp(-2.0))
    far = smooth_truncation(100.0, 1.0)   # 2 - e^{-99}: rounds to the cap
    assert 1.0 < far <= 2.0


def test_truncation_at_zero_with_huge_radius_does_not_overflow():
    # the pilot's radius is 1e9: rows with |z| = 0 must not warn of overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(smooth_truncation(np.zeros((4, 2)), 1e9), 0.0)
        spec = build_preset("P2-mixed-quadratic")
        grid, sched = make_grid(16, spec.T)
        bundle = euler_simulate(spec, sample_increments(grid, 3000, 7, spec.m))
        radius = estimate_Mz_auto(spec, grid, sched, bundle,
                                  BasisSpec(kind="piecewise-constant", cells=20))
    assert radius.M_z > 0


def test_truncation_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        smooth_truncation(1.0, 0.0)


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


# ---------------------------------------------------------------------------
# truncated generator

def test_truncate_generator_inside_radius_unchanged():
    spec = truncate_generator(build_preset("P1-pure-quadratic"), TruncationRadius(5.0))
    z = np.array([[3.0]])
    assert spec.generator(0.0, np.array([1.0]), np.array([0.0]), z)[0] == pytest.approx(4.5)


def test_truncate_generator_outside_radius():
    spec = truncate_generator(build_preset("P1-pure-quadratic"), TruncationRadius(1.0))
    z = np.array([[3.0]])
    want = 0.5 * (2.0 - math.exp(-2.0)) ** 2
    assert spec.generator(0.0, np.array([1.0]), np.array([0.0]), z)[0] == pytest.approx(want)


def test_truncate_generator_huge_radius_is_identity_on_cloud():
    base = build_preset("P2-mixed-quadratic")
    spec = truncate_generator(base, TruncationRadius(1e9))
    rng = np.random.default_rng(1)
    t, x, y = 0.3, rng.normal(size=64), rng.normal(size=64)
    z = rng.normal(scale=10, size=(64, 1))
    np.testing.assert_allclose(spec.generator(t, x, y, z), base.generator(t, x, y, z),
                               rtol=0, atol=0)


def test_truncate_generator_retruncation_agrees_inside_radius():
    # the C1 radial profile is not a hard projection, so h∘h only coincides
    # with h where h is the identity; outside, both stay inside the n+1 ball
    radius = TruncationRadius(2.0)
    once = truncate_generator(build_preset("P1-pure-quadratic"), radius)
    twice = truncate_generator(once, radius)
    rng = np.random.default_rng(2)
    z = rng.uniform(-2.0, 2.0, size=(128, 1))
    np.testing.assert_allclose(
        twice.generator(0.1, np.ones(128), np.zeros(128), z),
        once.generator(0.1, np.ones(128), np.zeros(128), z), atol=1e-14)
    z_far = rng.normal(scale=8, size=(128, 1))
    f2 = twice.generator(0.1, np.ones(128), np.zeros(128), z_far)
    assert float(np.max(f2)) <= 0.5 * 3.0 ** 2 + 1e-12


def test_truncate_generator_records_induced_constants():
    spec = truncate_generator(build_preset("P1-pure-quadratic"), TruncationRadius(4.0))
    assert spec.induced_lipschitz == {"x": 6.0, "y": 1.0, "z": 11.0}


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


def test_truncate_generator_keeps_the_affine_declaration():
    base = build_preset("P2-mixed-quadratic")
    spec = truncate_generator(base, TruncationRadius(1.0))
    assert isinstance(spec.generator, AffineInY) and spec.generator.a == -0.1
    x, y, z = np.ones(3), np.full(3, 0.5), np.array([[0.5], [2.0], [-7.0]])
    want = base.generator(0.0, x, y, smooth_truncation(z, 1.0))
    np.testing.assert_array_equal(spec.generator(0.0, x, y, z), want)


# ---------------------------------------------------------------------------
# assumption validation

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


def test_cloud_config_minimum_size():
    with pytest.raises(ValueError):
        CloudConfig(n_points=100)


def test_soft_clip_tracks_clip():
    x = np.linspace(-2, 3, 400)
    gap = np.abs(soft_clip_obstacle(x) - clip_obstacle(x))
    assert float(np.max(gap)) < 0.05     # log-sum-exp with sharpness 20


@pytest.mark.parametrize("m", [2.7, 0, "2"])
def test_brownian_dimension_must_be_a_positive_integer(m):
    with pytest.raises(ValueError, match="dimension m"):
        build_preset("P1-pure-quadratic", {"m": m})
    assert build_preset("P1-pure-quadratic", {"m": 2.0}).m == 2


@pytest.mark.parametrize("overrides", [{"smooth_g": "false"}, {"smooth_g": 1},
                                       {"L": None}, {"alpha": True},
                                       {"T": float("inf")}])
def test_ill_typed_override_is_rejected_by_name(overrides):
    (key,) = overrides
    with pytest.raises(ValueError, match=f"override '{key}'"):
        build_preset("P1-pure-quadratic", overrides)


def test_overrides_accept_numpy_scalars():
    spec = build_preset("P1-pure-quadratic", {"m": np.int64(2), "T": np.float64(0.5)})
    assert (spec.m, spec.T) == (2, 0.5)
    assert type(spec.m) is int and type(spec.T) is float
