"""Cross-sectional least squares for conditional expectations E[. | X_{t_i}].

Two basis families: standardized global polynomials for smooth problems and
piecewise-constant cell indicators as a robust fallback.  Fitting solves
the ridge normal equations, with the basis's ridge, through one eigh of the
d x d Gram A^T A + ridge I and one residual-refinement step on the same
factors; all targets on one sample share one design and one decomposition.
The polynomial Gram is Hankel, G[j, k] = sum_p u_p^(j+k), so it is built
from its 2d - 1 power sums instead of a (P, d) matrix product.  Targets,
residuals and in-sample values are column-major (P, k), like the design,
so each pass over them runs down contiguous columns.
Every fit carries its condition number (sigma_max / sigma_min of the
ridge-augmented design [A; sqrt(ridge) I], i.e. the square root of the
Gram's eigenvalue ratio), per-column in-sample RMSE and in-sample values.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

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
        # a NaN pair passes: localize_basis returns it for a NaN sample; an
        # int beyond the float range counts as infinite
        if self.domain is not None and (
                len(self.domain) != 2
                or any(abs(v) > sys.float_info.max for v in self.domain)
                or self.domain[0] >= self.domain[1]):
            raise ValueError("domain requires a pair of finite x_lo < x_hi")
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

    def __call__(self, x, out=None) -> np.ndarray:
        """phi(x), (P, d); with ``out``, a column-major (P, >= d) block such
        as a path_array, written into its first d columns."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = self.spec.dimension
        if out is None:
            out = path_array(x.size, d)
        else:
            out = out[:, :d]
            if self.spec.kind != "polynomial":
                out.fill(0.0)
        if self.spec.kind == "polynomial":
            # monomials u^k = u^(k-1) * u, the products np.vander forms,
            # written one contiguous column at a time; u itself is column 1
            out[:, 0] = 1.0
            if self.spec.degree >= 1:
                u = np.clip(x, self.lo, self.hi, out=out[:, 1])
                u -= self.mean
                u /= self.std
            for k in range(2, self.spec.degree + 1):
                np.multiply(out[:, k - 1], u, out=out[:, k])
            return out
        # piecewise-constant one-hot; overflow clamped to the edge cells
        j = np.floor((x - self.lo) / (self.hi - self.lo) * d).astype(int)
        j = np.clip(j, 0, d - 1)
        out[np.arange(x.size), j] = 1.0
        return out

    def gram(self, A: np.ndarray) -> np.ndarray:
        """The Gram A^T A of a design A = self(xs).

        A monomial Gram is Hankel: G[j, k] = sum_p u_p^(j+k) depends on j + k
        only, so its 2d - 1 power sums, each one product of two contiguous
        design columns, fill it.  The sums run through einsum, not a BLAS
        dot, whose thread start-up costs more than the sum at this size.
        """
        if self.spec.kind != "polynomial":
            return A.T @ A
        d = A.shape[1]
        sums = np.array([np.einsum("p,p->", A[:, min(s, d - 1)],
                                   A[:, s - min(s, d - 1)])
                         for s in range(2 * d - 1)])
        return sums[np.add.outer(np.arange(d), np.arange(d))]


@dataclass(frozen=True)
class RegressionFit:
    evaluator: DesignEvaluator
    coef: np.ndarray                 # (d,) or (d, k)
    cond: float
    rmse: Union[float, np.ndarray]   # float, or (k,) per column
    fitted: np.ndarray               # in-sample values phi(xs) @ coef


def build_basis(spec: BasisSpec, xs) -> DesignEvaluator:
    return DesignEvaluator(spec, np.asarray(xs, dtype=float))


def localize_basis(spec: BasisSpec, xs, scratch=None) -> BasisSpec:
    """Clip a domain-free polynomial basis to the central 99% of xs.

    The domain becomes the 0.5%/99.5% quantiles of the sample, so outside
    that box the fit continues as a constant; this keeps the tail
    oscillation of a global polynomial out of the reflection step.  A sample
    without spread (the deterministic X_0) gets the constant basis, so its
    fit is the cross-path mean.  Other bases are returned unchanged.  The
    spread and both quantiles come from ``_localizing_quantiles``, which
    selects in ``scratch``, a contiguous float array of xs's shape, when it
    is given.
    """
    if spec.kind != "polynomial" or spec.domain is not None:
        spread, domain = np.ptp(xs), None
    else:
        if scratch is None:
            s = np.array(xs, dtype=float)
        else:
            s = scratch
            s[...] = xs
        spread, domain = _localizing_quantiles(s)
    if spread == 0:
        return BasisSpec(kind="polynomial", degree=0, ridge=spec.ridge)
    if domain is None:
        return spec
    return dataclasses.replace(spec, domain=domain)


def _localizing_quantiles(s: np.ndarray) -> tuple:
    """(max - min, (q_0.005, q_0.995)) of the sample s, which is reordered
    in place, without a sort: two single-index np.partition selections, at
    each quantile's lower neighbour j, and min/max reductions over the
    slices they bound, the least value above j being its upper neighbour.
    The spread is zero where np.ptp's is, and the quantiles are
    np.quantile's bit for bit, by numpy's default "linear" rule: each
    interpolates at the virtual index (n - 1) q as numpy's _lerp does, from
    the upper neighbour when the weight t is at least 1/2.  NaN selects as
    the largest value, so a sample with a NaN has a NaN maximum, and NaN
    spread and quantiles, as np.quantile gives."""
    n = s.size
    v_lo, v_hi = (n - 1) * 0.005, (n - 1) * 0.995
    j_lo, j_hi = math.floor(v_lo), math.floor(v_hi)
    s.partition(j_lo)
    if j_hi > j_lo:
        s[j_lo + 1:].partition(j_hi - j_lo - 1)
    # s[j_lo] and s[j_hi] are in place, and no value between them is outside
    lo, hi = np.min(s[:j_lo + 1]), np.max(s[j_hi:])
    if np.isnan(hi):
        return float("nan"), (float("nan"), float("nan"))
    q = []
    mid = s[j_lo + 1:j_hi + 1] if j_hi > j_lo else s[j_lo + 1:]
    for v, j, above in ((v_lo, j_lo, mid), (v_hi, j_hi, s[j_hi + 1:])):
        t = v - j
        a = float(s[j])
        b = float(np.min(above)) if above.size else a
        q.append(b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t)
    return hi - lo, tuple(q)


def factor_design(phi: DesignEvaluator, A: np.ndarray) -> tuple:
    """(lam, V), the eigh G = V diag(lam) V^T of the ridged Gram
    A^T A + ridge I of a design A = phi(xs), with its singularity guard."""
    P, d = A.shape
    if P < d:
        raise ValueError("need at least as many samples as basis functions")
    G = phi.gram(A)
    G[np.diag_indices(d)] += phi.spec.ridge
    lam, V = np.linalg.eigh(G)
    if not lam[0] > d * np.finfo(float).eps * lam[-1]:
        raise np.linalg.LinAlgError("numerically singular design matrix; "
                                    "supply a positive ridge parameter")
    return lam, V


def fit_least_squares(phi: DesignEvaluator, xs, ys, A=None,
                      factor=None, overwrite_ys: bool = False) -> RegressionFit:
    """Least squares of ys, (P,) or (P, k), on phi(xs), ridged by phi's basis.
    One eigh of the Gram, ``factor_design``'s (lam, V), serves the
    singularity guard, cond, the solve V diag(1/lam) V^T b and its one
    refinement step.  A caller that holds the design A = phi(xs) and its
    factor passes them; otherwise both are made here.  With
    ``overwrite_ys`` the last residual is written into a column-major ys,
    so no third (P, k) array is alive beside the targets and the fitted
    values."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("xs and ys must have matching length")
    if A is None:
        A = phi(xs)
    lam, V = factor_design(phi, A) if factor is None else factor
    ridge = phi.spec.ridge
    Vs = V / lam
    # targets, residual and fitted values as their (k, P) transposes: each
    # column of the column-major (P, k) arrays is one contiguous row
    yt = np.asfortranarray(ys).T
    coef = Vs @ (V.T @ (A.T @ ys))
    res = coef.T @ A.T
    np.subtract(yt, res, out=res)
    # one refinement step recovers the accuracy the normal equations lose
    coef += Vs @ (V.T @ (A.T @ res.T - ridge * coef))
    cond = float(np.sqrt(lam[-1] / lam[0]))
    if overwrite_ys:
        res = yt    # frees the first residual before the fitted values
    fitted = coef.T @ A.T
    np.subtract(yt, fitted, out=res)
    rmse = np.sqrt(np.einsum("...p,...p->...", res, res) / xs.shape[0])
    rmse = float(rmse) if ys.ndim == 1 else rmse
    return RegressionFit(evaluator=phi, coef=coef, cond=cond, rmse=rmse,
                         fitted=fitted.T)


def evaluate_fit(fit: RegressionFit, x):
    """phi(x) . coef; a float for a scalar x."""
    x = np.asarray(x, dtype=float)
    v = fit.evaluator(x) @ fit.coef
    return float(v[0]) if x.ndim == 0 else v
