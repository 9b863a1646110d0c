"""Cross-sectional least squares for conditional expectations E[. | X_{t_i}].

Two basis families: standardized global polynomials for smooth problems and
piecewise-constant cell indicators as a robust fallback.  Fitting solves
the ridge normal equations through a Cholesky factor of the d x d Gram
A^T A + ridge I, followed by one residual-refinement step on the same
factor; all targets on one sample share one design and one factorization.
Every fit carries its condition number (sigma_max / sigma_min of the
ridge-augmented design [A; sqrt(ridge) I], i.e. the square root of the
Gram's eigenvalue ratio), per-column in-sample RMSE and in-sample values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .forward import path_array


@dataclass(frozen=True)
class BasisSpec:
    kind: str = "polynomial"          # "polynomial" | "piecewise-constant"
    degree: int = 6                   # polynomial degree
    cells: int = 50                   # piecewise cell count
    domain: Optional[tuple] = None    # (x_lo, x_hi) for piecewise cells
    ridge: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("polynomial", "piecewise-constant"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "polynomial" and not (0 <= self.degree <= 12):
            raise ValueError("polynomial degree must be in 0..12")
        if self.kind == "piecewise-constant" and not (1 <= self.cells <= 10 ** 4):
            raise ValueError("cell count must be in 1..10^4")
        if self.domain is not None and self.domain[0] >= self.domain[1]:
            raise ValueError("domain requires x_lo < x_hi")
        if self.ridge < 0:
            raise ValueError("ridge parameter must be nonnegative")

    @property
    def dimension(self) -> int:
        return self.degree + 1 if self.kind == "polynomial" else self.cells


class DesignEvaluator:
    """Feature map x -> phi(x) in R^d, frozen to the fitting sample's scaling.

    The design phi(x), (P, d), is laid out like the paths (forward.path_array):
    column-major, so each basis column is contiguous.
    """

    def __init__(self, spec: BasisSpec, xs: np.ndarray):
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            raise ValueError("empty sample")
        self.spec = spec
        if spec.kind == "polynomial":
            self.mean = float(np.mean(xs))
            self.std = float(np.std(xs))
            if self.std == 0.0 and spec.degree >= 1:
                raise ValueError("degenerate (zero-variance) sample with degree >= 1")
            if self.std == 0.0:
                self.std = 1.0
            # an explicit domain localizes the polynomial: inputs are clipped
            # to the box before the monomials, so the fit extrapolates as a
            # constant instead of oscillating outside it
            if spec.domain is not None:
                self.lo, self.hi = spec.domain
            else:
                self.lo, self.hi = -np.inf, np.inf
        else:
            lo, hi = spec.domain if spec.domain is not None \
                else (float(np.min(xs)), float(np.max(xs)))
            if lo == hi:
                hi = lo + 1.0
            self.lo, self.hi = lo, hi

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.spec.kind == "polynomial":
            u = (np.clip(x, self.lo, self.hi) - self.mean) / self.std
            # monomials u^k = u^(k-1) * u, the products np.vander forms,
            # written one contiguous column at a time
            out = path_array(x.size, self.spec.degree + 1)
            out[:, 0] = 1.0
            for k in range(1, self.spec.degree + 1):
                np.multiply(out[:, k - 1], u, out=out[:, k])
            return out
        # piecewise-constant one-hot; overflow clamped to the edge cells
        c = self.spec.cells
        j = np.floor((x - self.lo) / (self.hi - self.lo) * c).astype(int)
        j = np.clip(j, 0, c - 1)
        out = path_array(x.size, c)
        out[np.arange(x.size), j] = 1.0
        return out


@dataclass(frozen=True)
class RegressionFit:
    evaluator: DesignEvaluator
    coef: np.ndarray                 # (d,) or (d, k)
    cond: float
    rmse: Union[float, np.ndarray]   # float, or (k,) per column
    fitted: np.ndarray               # in-sample values phi(xs) @ coef


def build_basis(spec: BasisSpec, xs) -> DesignEvaluator:
    return DesignEvaluator(spec, np.asarray(xs, dtype=float))


def localize_basis(spec: BasisSpec, xs) -> BasisSpec:
    """Clip a domain-free polynomial basis to the central 99% of xs.

    The domain becomes the 0.5%/99.5% quantiles of the sample, so outside
    that box the fit continues as a constant; this keeps the tail
    oscillation of a global polynomial out of the reflection step.  A sample
    without spread (the deterministic X_0) gets the constant basis, so its
    fit is the cross-path mean.  Other bases are returned unchanged.
    """
    if np.ptp(xs) == 0:
        return BasisSpec(kind="polynomial", degree=0, ridge=spec.ridge)
    if spec.kind != "polynomial" or spec.domain is not None:
        return spec
    lo, hi = np.quantile(xs, [0.005, 0.995])
    return dataclasses.replace(spec, domain=(float(lo), float(hi)))


def fit_least_squares(phi: DesignEvaluator, xs, ys, ridge: float = 0.0) -> RegressionFit:
    """Ridge-regularized least squares of ys, (P,) or (P, k), on phi(xs)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("xs and ys must have matching length")
    A = phi(xs)
    d = A.shape[1]
    if xs.shape[0] < d:
        raise ValueError("need at least as many samples as basis functions")
    G = A.T @ A
    G[np.diag_indices(d)] += ridge
    lam = np.linalg.eigvalsh(G)
    try:
        if not lam[0] > d * np.finfo(float).eps * lam[-1]:
            raise np.linalg.LinAlgError
        factor = cho_factor(G)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("numerically singular design matrix; "
                                    "supply a positive ridge parameter") from None
    coef = cho_solve(factor, A.T @ ys)
    # one refinement step recovers the accuracy the normal equations lose
    coef += cho_solve(factor, A.T @ (ys - A @ coef) - ridge * coef)
    cond = float(np.sqrt(lam[-1] / lam[0]))
    fitted = A @ coef
    # a per-column sum of squares; np.mean over axis 0 of a narrow (P, k)
    # array runs one inner loop per row and costs more than the solve
    res = ys - fitted
    rmse = np.sqrt(np.einsum("p...,p...->...", res, res) / xs.shape[0])
    rmse = float(rmse) if ys.ndim == 1 else rmse
    return RegressionFit(evaluator=phi, coef=coef, cond=cond, rmse=rmse,
                         fitted=fitted)


def evaluate_fit(fit: RegressionFit, x, clamp: Optional[tuple] = None):
    """phi(x) . coef, optionally clipped to [lo, hi]."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    v = fit.evaluator(x) @ fit.coef
    if clamp is not None:
        v = np.clip(v, clamp[0], clamp[1])
    return float(v[0]) if scalar else v
