import dataclasses

import numpy as np
import pytest

from qrbsde.regress import (BasisSpec, build_basis, evaluate_fit,
                            fit_least_squares, localize_basis)


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(kind="fourier")
    with pytest.raises(ValueError):
        BasisSpec(degree=13)
    with pytest.raises(ValueError):
        BasisSpec(kind="piecewise-constant", cells=10 ** 5)
    with pytest.raises(ValueError):
        BasisSpec(domain=(1.0, 0.0))
    with pytest.raises(ValueError):
        BasisSpec(ridge=-1.0)


def test_degree_zero_is_constant():
    phi = build_basis(BasisSpec(degree=0), np.array([1.0, 5.0, -2.0]))
    np.testing.assert_array_equal(phi(np.array([0.0, 100.0])), [[1.0], [1.0]])


def test_polynomial_standardization():
    xs = np.array([0.7, 1.0, 1.3])     # mean 1, population sd ~0.2449...
    sd = float(np.std(xs))
    phi = build_basis(BasisSpec(degree=2), xs)
    u = (1.3 - 1.0) / sd
    np.testing.assert_allclose(phi(np.array([1.3]))[0], [1.0, u, u ** 2])


def test_piecewise_one_hot():
    phi = build_basis(BasisSpec(kind="piecewise-constant", cells=2, domain=(0.0, 1.0)),
                      np.array([0.1]))
    np.testing.assert_array_equal(phi(np.array([0.75]))[0], [0.0, 1.0])
    # overflow clamps to the edge cells
    np.testing.assert_array_equal(phi(np.array([-3.0]))[0], [1.0, 0.0])


def test_degenerate_sample_rejected():
    with pytest.raises(ValueError):
        build_basis(BasisSpec(degree=2), np.full(10, 1.0))


def test_constant_fit_is_sample_mean():
    xs = np.array([0.0, 1.0, 2.0])
    phi = build_basis(BasisSpec(degree=0, ridge=0.0), xs)
    fit = fit_least_squares(phi, xs, np.array([1.0, 2.0, 3.0]))
    assert fit.coef[0] == pytest.approx(2.0, abs=1e-14)


def test_exact_linear_data_zero_rmse_and_extrapolation():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=200)
    ys = 2.0 * xs
    fit = fit_least_squares(build_basis(BasisSpec(degree=1, ridge=0.0), xs), xs, ys)
    assert fit.rmse <= 1e-10
    assert evaluate_fit(fit, 3.0) == pytest.approx(6.0, abs=1e-9)


def test_piecewise_fit_is_cellwise_mean():
    xs = np.array([0.1, 0.2, 0.8, 0.9])
    ys = np.array([1.0, 3.0, 10.0, 20.0])
    spec = BasisSpec(kind="piecewise-constant", cells=2, domain=(0.0, 1.0), ridge=0.0)
    fit = fit_least_squares(build_basis(spec, xs), xs, ys)
    assert evaluate_fit(fit, 0.25) == pytest.approx(2.0)
    assert evaluate_fit(fit, 0.75) == pytest.approx(15.0)


def test_rank_deficiency_names_ridge():
    xs = np.array([0.5, 0.5, 0.5, 0.6, 0.6, 0.6])
    spec = BasisSpec(kind="piecewise-constant", cells=4, domain=(0.0, 1.0), ridge=0.0)
    with pytest.raises(np.linalg.LinAlgError, match="ridge"):
        fit_least_squares(build_basis(spec, xs), xs, np.ones(6))


def test_collinear_polynomial_design_names_ridge():
    xs = np.repeat([0.0, 1.0], 10)     # two distinct values cannot fix a cubic
    for degree in (3, 12):
        spec = BasisSpec(degree=degree, ridge=0.0)
        with pytest.raises(np.linalg.LinAlgError, match="ridge"):
            fit_least_squares(build_basis(spec, xs), xs, np.ones(20))


def _svd_reference(A, ys, ridge):
    """Least squares of the ridge-augmented system [A; sqrt(ridge) I] by SVD."""
    d = A.shape[1]
    A_aug = np.vstack([A, np.sqrt(ridge) * np.eye(d)])
    y_aug = np.concatenate([ys, np.zeros((d,) + ys.shape[1:])])
    coef, _, _, sv = np.linalg.lstsq(A_aug, y_aug, rcond=None)
    return coef, A @ coef, sv[0] / sv[-1]


@pytest.mark.parametrize("ridge", [0.0, 1e-8])
@pytest.mark.parametrize("spec", [
    BasisSpec(degree=0), BasisSpec(degree=6), BasisSpec(degree=12),
    BasisSpec(kind="piecewise-constant", cells=20)],
    ids=["degree0", "degree6", "degree12", "cells20"])
def test_fit_matches_svd_reference(spec, ridge):
    rng = np.random.default_rng(6)
    xs = rng.normal(size=3000)
    ys = np.column_stack([np.sin(2.0 * xs), np.exp(-xs ** 2)])
    ys = ys + 0.1 * rng.normal(size=ys.shape)
    # localized as the backward scheme fits it
    spec = localize_basis(dataclasses.replace(spec, ridge=ridge), xs)
    phi = build_basis(spec, xs)
    fit = fit_least_squares(phi, xs, ys)
    coef, fitted, cond = _svd_reference(phi(xs), ys, ridge)
    np.testing.assert_allclose(fit.coef, coef, rtol=0,
                               atol=1e-10 * np.max(np.abs(coef)))
    np.testing.assert_allclose(fit.fitted, fitted, rtol=0,
                               atol=1e-10 * np.max(np.abs(fitted)))
    assert fit.cond == pytest.approx(cond, rel=1e-5)


def test_clamp_applies():
    xs = np.array([0.0, 1.0, 2.0])
    fit = fit_least_squares(build_basis(BasisSpec(degree=0, ridge=0.0), xs), xs,
                            np.array([1.0, 2.0, 3.0]))
    assert evaluate_fit(fit, 0.0) == pytest.approx(2.0)


def test_projection_idempotent():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=500)
    ys = np.sin(xs) + 0.1 * rng.normal(size=500)
    phi = build_basis(BasisSpec(degree=4, ridge=0.0), xs)
    fit1 = fit_least_squares(phi, xs, ys)
    fit2 = fit_least_squares(phi, xs, evaluate_fit(fit1, xs))
    np.testing.assert_allclose(fit2.coef, fit1.coef, atol=1e-10)


def test_fit_invariant_under_path_reordering():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=1000)
    ys = xs ** 2 + rng.normal(size=1000)
    perm = rng.permutation(1000)
    spec = BasisSpec(degree=3, ridge=1e-8)
    f1 = fit_least_squares(build_basis(spec, xs), xs, ys)
    f2 = fit_least_squares(build_basis(spec, xs[perm]), xs[perm], ys[perm])
    np.testing.assert_allclose(f2.coef, f1.coef, rtol=1e-8)


def test_domain_makes_polynomial_flat_outside():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, size=400)
    ys = xs ** 3
    spec = BasisSpec(degree=3, domain=(-1.0, 1.0), ridge=0.0)
    fit = fit_least_squares(build_basis(spec, xs), xs, ys)
    assert evaluate_fit(fit, 5.0) == pytest.approx(evaluate_fit(fit, 1.0), abs=1e-12)


def test_condition_number_reported_finite():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=300)
    fit = fit_least_squares(build_basis(BasisSpec(degree=6, ridge=1e-8), xs), xs,
                            np.cos(xs))
    assert np.isfinite(fit.cond) and fit.cond >= 1.0


def test_needs_enough_samples():
    xs = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        fit_least_squares(build_basis(BasisSpec(degree=6, ridge=0.0), xs), xs, xs)


@pytest.mark.parametrize("ridge", [0.0, 1e-8])
def test_multi_column_fit_matches_separate_fits(ridge):
    rng = np.random.default_rng(5)
    xs = rng.normal(size=2000)
    ys = np.column_stack([np.sin(xs), xs ** 2, np.exp(-xs ** 2)])
    ys = ys + 0.1 * rng.normal(size=ys.shape)
    phi = build_basis(BasisSpec(degree=5, ridge=ridge), xs)
    fit = fit_least_squares(phi, xs, ys)
    assert fit.coef.shape == (6, 3) and fit.rmse.shape == (3,)
    np.testing.assert_array_equal(fit.fitted, evaluate_fit(fit, xs))
    for c in range(3):
        one = fit_least_squares(phi, xs, ys[:, c])
        np.testing.assert_allclose(fit.coef[:, c], one.coef, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fit.fitted[:, c], one.fitted, rtol=0, atol=1e-12)
        assert fit.rmse[c] == pytest.approx(one.rmse, rel=1e-12)
        assert fit.cond == one.cond


def test_localize_basis_zero_spread_sample_is_constant():
    for spec in (BasisSpec(degree=6, ridge=1e-6),
                 BasisSpec(kind="piecewise-constant", cells=20, ridge=1e-6)):
        assert localize_basis(spec, np.full(50, 1.0)) == \
            BasisSpec(kind="polynomial", degree=0, ridge=1e-6)


def _quantile_samples():
    rng = np.random.default_rng(9)
    for n in np.unique(np.geomspace(2, 60_000, 120).astype(int)):
        yield rng.normal(loc=1.0, scale=0.3, size=n)
        yield rng.integers(0, 4, size=n).astype(float)      # heavy ties
    yield np.array([0.0, 0.0, 1.0])
    yield np.array([-0.0, 0.0, 0.0, 2.0])


def test_localize_basis_quantiles_match_np_quantile_bit_for_bit():
    for xs in _quantile_samples():
        if np.ptp(xs) == 0:
            continue
        lo, hi = np.quantile(xs, [0.005, 0.995])
        domain = localize_basis(BasisSpec(degree=6), xs).domain
        assert np.array([domain]).tobytes() == np.array([[lo, hi]]).tobytes()


def test_localize_basis_nan_sample_gives_nan_domain():
    xs = np.random.default_rng(10).normal(size=1000)
    xs[17] = np.nan
    domain = localize_basis(BasisSpec(degree=6), xs)
    assert np.all(np.isnan(domain.domain))
    assert np.all(np.isnan(np.quantile(xs, [0.005, 0.995])))


@pytest.mark.parametrize("degree", range(13))
def test_hankel_gram_matches_the_matrix_product(degree):
    rng = np.random.default_rng(degree)
    for xs in (rng.normal(1.0, 0.3, size=50_000), np.exp(rng.normal(size=3000))):
        spec = localize_basis(BasisSpec(degree=degree), xs)
        phi = build_basis(spec, xs)
        A = phi(xs)
        G, ref = phi.gram(A), A.T @ A
        # each entry relative to its Cauchy-Schwarz scale sqrt(G_jj G_kk);
        # odd power sums may cancel to near zero
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.max(np.abs(G - ref) / scale) <= 1e-13


def test_piecewise_gram_is_the_matrix_product():
    xs = np.random.default_rng(11).uniform(size=500)
    phi = build_basis(BasisSpec(kind="piecewise-constant", cells=7), xs)
    A = phi(xs)
    np.testing.assert_array_equal(phi.gram(A), A.T @ A)


@pytest.mark.parametrize("ys_shape", [(400,), (400, 3)])
def test_fitted_values_are_column_major(ys_shape):
    rng = np.random.default_rng(12)
    xs = rng.normal(size=400)
    ys = rng.normal(size=ys_shape)       # C-ordered input is accepted too
    fit = fit_least_squares(build_basis(BasisSpec(degree=4, ridge=0.0), xs), xs, ys)
    assert fit.fitted.shape == ys_shape
    assert fit.fitted.flags.f_contiguous


@pytest.mark.parametrize("domain", [(1.0,), (0.0, 1.0, 2.0), (-np.inf, 1.0),
                                    (0.0, np.inf), (0, 10 ** 400),
                                    (-10 ** 400, 0)])
def test_basis_spec_domain_must_be_a_finite_pair(domain):
    with pytest.raises(ValueError, match="domain"):
        BasisSpec(domain=domain)


def test_localize_basis_in_scratch_is_bit_identical():
    # the spread read off the sort's ends decides as np.ptp does, NaN and
    # signed zeros included, and the sort in scratch gives the same domain
    samples = list(_quantile_samples()) + [np.full(40, 1.0), np.array([-0.0, 0.0]),
                                           np.array([1.0, np.nan, 1.0])]
    for xs in samples:
        for spec in (BasisSpec(degree=6), BasisSpec(degree=2, ridge=1e-6)):
            scratch = np.empty_like(xs)
            got = localize_basis(spec, xs, scratch=scratch)
            assert repr(got) == repr(localize_basis(spec, xs))
            assert (got.degree == 0) == (np.ptp(xs) == 0)
