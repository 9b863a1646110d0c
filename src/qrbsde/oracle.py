"""Noise-free references on a spatial lattice.

Because the Euler state has exact Gaussian one-step transitions (drift
frozen at the left endpoint, deterministic volatility), the backward scheme
with *exact* conditional expectations is computable to quadrature precision:
Gauss-Hermite integration in the transition variable combined with monotone
cubic interpolation of the previous value slice.  This isolates
time-discretization error from the Monte Carlo / regression error of the
path solver.  For the pure-quadratic driver the exponential change of
variable turns the same discrete problem into a Snell envelope recursion,
giving an independent closed-form-in-structure oracle.

Every lookup of a value slice in space goes through ``SpaceGrid.interpolate``:
monotone cubic (PCHIP) interpolation along the nodes, one interpolant for all
columns of a slice, held constant beyond the grid.  ``PchipInterpolator``
computes its coefficients in place, equal to scipy's class of that name bit
for bit, so ``scipy.interpolate`` is never imported; it keeps the name by which
the one-home import test, the benchmark tracer and a build-counting test find
the interpolant.  The nodes are evenly spaced (``SpaceGrid`` checks), so each
point's interval comes from the spacing rather than a search, and the values
are bit-identical to calling scipy's interpolant.  ``SpaceGrid.locate``
does that search once for points looked up again: a lattice solve's
quadrature points repeat from step to step where drift and volatility are
constant in time, and each solver locates them, and counts those off the
grid, only where they differ from the step before.  The lattice solvers
warn once with the count of quadrature points that left the grid and keep
it as ``GridSolution.off_grid``.

The lattice and tree engines differ from the path solver only in how they
take conditional expectations: each backward step goes through the scheme's
own kernel (``model.truncate_rows`` where a radius is given, then
``implicit_y_step`` and ``reflect_step``), so all three engines truncate Z
alike and raise the same errors on a non-contracting or non-finite driver.
The Snell recursion keeps its own transition and expectation code on
purpose: it is the independent cross-check of that kernel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .forward import ReflectionSchedule, TimeGrid
from .model import ProblemSpec, TruncationRadius, truncate_rows, y_bound
from .scheme import implicit_y_step, reflect_step


class PchipInterpolator:
    """scipy's ``PchipInterpolator`` coefficients ``c`` (4, J-1, ...) on J >= 3
    nodes, bit for bit: each step below follows scipy's operation order."""

    def __init__(self, nodes, values):
        y = np.asarray(values, dtype=float)
        if y.shape[:1] != np.shape(nodes):
            raise ValueError("values need one row per node")
        if not np.all(np.isfinite(y)):
            raise ValueError("values must be finite")
        h = np.diff(np.asarray(nodes, dtype=float)).reshape((-1,) + (1,) * (y.ndim - 1))
        m = np.diff(y, axis=0) / h
        # interior: the slopes' weighted harmonic mean, 0 at a sign change or 0
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.zeros_like(y)
        np.divide(1.0, whmean, out=d[1:-1], where=~flat)
        # ends: one-sided estimate, 0 if its sign flips, 3*m0 if it overshoots
        for a, b in ((0, 1), (-1, -2)):
            e = ((2 * h[a] + h[b]) * m[a] - h[a] * m[b]) / (h[a] + h[b])
            over = (np.sign(m[a]) != np.sign(m[b])) & (np.abs(e) > 3.0 * np.abs(m[a]))
            d[a] = np.where(np.sign(e) != np.sign(m[a]), 0.0, np.where(over, 3.0 * m[a], e))
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


@dataclass(frozen=True, eq=False)
class LocatedPoints:
    """Points located on a ``SpaceGrid`` (``SpaceGrid.locate``), which
    ``SpaceGrid.interpolate`` takes in their place: their shape, each flat
    point's interval ``i`` and its offset ``s`` from the interval's left
    node, with s^2 and s^3."""
    shape: tuple
    i: np.ndarray
    s: np.ndarray
    s2: np.ndarray
    s3: np.ndarray


@dataclass(frozen=True)
class SpaceGrid:
    nodes: np.ndarray
    quad_order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.size < 51:
            raise ValueError("space grid needs at least 51 nodes")
        if self.quad_order < 7:
            raise ValueError("quadrature order must be >= 7")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        # locate() computes each interval index from the spacing, which is
        # exact up to the one-step correction only on evenly spaced nodes
        even = np.linspace(nodes[0], nodes[-1], nodes.size)
        if np.max(np.abs(nodes - even)) > 1e-6 * (even[1] - even[0]):
            raise ValueError("nodes must be evenly spaced")
        object.__setattr__(self, "nodes", nodes)

    @property
    def J(self) -> int:
        return self.nodes.size

    def locate(self, x) -> LocatedPoints:
        """x clipped to the grid, each point's interval read off the even
        spacing and corrected by one step to scipy's rule nodes[i] <= x <
        nodes[i+1] (the last interval closed), and its offset's powers."""
        nodes = self.nodes
        x = np.clip(np.asarray(x, dtype=float), nodes[0], nodes[-1])
        xf = x.ravel()
        last = nodes.size - 2
        buf = xf - nodes[0]
        buf *= (last + 1) / (nodes[-1] - nodes[0])
        # buf >= 0, so the cast floors; fmin also sends NaN to a valid
        # interval, where s and so the value stay NaN
        i = np.fmin(buf, last, out=buf).astype(np.intp)
        # every index taken is in range, and mode="clip" lets take write
        # into out without an intermediate copy
        i += xf >= np.take(nodes[1:], i, out=buf, mode="clip")
        i -= xf < np.take(nodes, i, out=buf, mode="clip")
        np.minimum(i, last, out=i)
        s = np.subtract(xf, np.take(nodes, i, out=buf, mode="clip"), out=buf)
        s2 = s * s
        return LocatedPoints(x.shape, i, s, s2, s2 * s)

    def interpolate(self, values, x):
        """PCHIP of values (J, ...) along the nodes at x, constant beyond the grid.

        ``x`` is the points or their ``locate``d form, which a caller that
        looks up several slices at the same points computes once.
        Bit-identical to scipy's ``PchipInterpolator(...)(clip(x))``: the
        coefficients come from this module's class, each point's interval
        is ``locate``'s, and the cubic is evaluated in scipy's order, one
        column at a time.  The result has shape x.shape + values.shape[1:],
        and each of its columns (one index of the trailing axes) is one
        contiguous block.
        """
        interp = PchipInterpolator(self.nodes, values)
        at = x if isinstance(x, LocatedPoints) else self.locate(x)
        i, s, s2, s3 = at.i, at.s, at.s2, at.s3
        tail = interp.c.shape[2:]
        c = interp.c.reshape(4, self.J - 1, -1)    # (power, interval, column)
        out = np.empty((c.shape[2], i.size))
        term = np.empty_like(s)
        for k, col in enumerate(out):
            c0, c1, c2, c3 = np.ascontiguousarray(c[:, :, k])
            # scipy's sum starts from 0.0, so a -0.0 constant term reads 0.0
            np.take(c3 + 0.0, i, out=col, mode="clip")
            col += np.multiply(np.take(c2, i, out=term, mode="clip"), s, out=term)
            col += np.multiply(np.take(c1, i, out=term, mode="clip"), s2, out=term)
            col += np.multiply(np.take(c0, i, out=term, mode="clip"), s3, out=term)
        return np.moveaxis(out.reshape(tail + at.shape),
                           range(len(tail)), range(-len(tail), 0))


def build_space_grid(spec: ProblemSpec, J: int = 401,
                     quad_order: int = 15) -> SpaceGrid:
    """Nodes covering x0 +/- 6 sigma_bar sqrt(T), padded for drift.

    A finer J needs a higher quad_order: q Gauss-Hermite points resolve a
    reflected slice's kink only so far, and refining J alone moves the
    lattice away.  At q = 15, J = 401 -> 3201 takes P1's N = 64
    exact-scheme Y0 from 0.1338528 to 0.1337437, while J = 1601 at q = 61
    reads 0.1338628.  Refine both together (J -> 4J - 3, q -> 4q + 1); the
    defaults stay J = 401, q = 15."""
    sigma_bar = max(spec.sigma_norm(t) for t in np.linspace(0.0, spec.T, 9))
    half = 6.0 * sigma_bar * math.sqrt(spec.T)
    lo, hi = spec.x0 - half, spec.x0 + half
    # one expansion pass so drift cannot push quadrature points off the grid
    bmax = float(np.max(np.abs(np.asarray(
        spec.drift(0.0, np.linspace(lo, hi, 33))))))
    pad = bmax * spec.T
    return SpaceGrid(nodes=np.linspace(lo - pad, hi + pad, J), quad_order=quad_order)


@dataclass(frozen=True)
class GridSolution:
    grid: TimeGrid
    space: SpaceGrid
    y: np.ndarray                     # (N+1, J)
    z: Optional[np.ndarray] = None    # (N, J, m)
    x0: float = 0.0
    off_grid: tuple = (0, 0)          # (quadrature points off the grid, all points)

    def y_at(self, i: int, x):
        return self.space.interpolate(self.y[i], x)

    def z_at(self, i: int, x):
        if self.z is None:
            raise ValueError("this solution does not carry a Z component")
        return self.space.interpolate(self.z[i], x)

    @property
    def y0(self) -> float:
        return float(self.y_at(0, self.x0))


def _std_normal_quadrature(q: int):
    # Gauss-Hermite for weight e^{-u^2} mapped to the standard normal density
    h, w = hermgauss(q)
    return h * math.sqrt(2.0), w / math.sqrt(math.pi)


def _transition_points(spec: ProblemSpec, ti: float, dti: float, x, u):
    """Quadrature nodes of the Euler transition from each state x, shape (len(x), q)."""
    mean = x + np.asarray(spec.drift(ti, x), dtype=float) * dti
    return mean[:, None] + spec.sigma_norm(ti) * math.sqrt(dti) * u[None, :]


def _conditional_moments(spec: ProblemSpec, ti: float, dti: float, vals, u, w):
    """E[Y_{i+1} | x] and the Z projection E[Y_{i+1} dW | x] / dt from the
    next-step values at the transition points, vals of shape (len(x), q)."""
    s = spec.sigma_norm(ti)
    e = vals @ w
    z = np.zeros((vals.shape[0], spec.m))
    if s > 0:
        eu = (vals * u[None, :]) @ w
        sig = np.asarray(spec.vol(ti), dtype=float)
        z = eu[:, None] * (sig[None, :] / (s * math.sqrt(dti)))
    return e, z


def _off_grid(count: int, total: int) -> tuple:
    """The (count, total) report field; warns once if any point left the grid."""
    if count:
        warnings.warn(f"quadrature points left the space grid: {count} of {total}; "
                      "using constant extrapolation at the edges", RuntimeWarning)
    return int(count), int(total)


def _located(space: SpaceGrid, pts, last):
    """(pts, their ``SpaceGrid.locate``d form, the count of them off the
    grid), or ``last``, the previous step's triple, where its points equal
    pts bit for bit, as on a uniform time grid with drift and volatility
    constant in time."""
    if last is not None and np.array_equal(pts, last[0]):
        return last
    nodes = space.nodes
    return (pts, space.locate(pts),
            np.count_nonzero((pts < nodes[0]) | (pts > nodes[-1])))


def exact_scheme_solve(spec: ProblemSpec, grid: TimeGrid, schedule: ReflectionSchedule,
                       space: SpaceGrid, radius: Optional[TruncationRadius] = None
                       ) -> GridSolution:
    """Backward induction with exact (quadrature) conditional expectations."""
    nodes = space.nodes
    J, N, m = space.J, grid.N, spec.m
    u, w = _std_normal_quadrature(space.quad_order)
    M = y_bound(spec)
    refl = schedule.mask
    off = 0

    g_nodes = np.asarray(spec.obstacle(nodes), dtype=float)
    y = np.empty((N + 1, J))
    z = np.zeros((N, J, m))
    y[N] = g_nodes

    at = None
    for i in range(N - 1, -1, -1):
        ti = grid.times[i]
        dti = grid.dt[i]
        at = _located(space, _transition_points(spec, ti, dti, nodes, u), at)
        off += at[2]
        vals = space.interpolate(y[i + 1], at[1])   # (J, q)
        e, z[i] = _conditional_moments(spec, ti, dti, vals, u, w)
        hz = z[i] if radius is None else truncate_rows(z[i], radius.M_z)[0]
        yi, _ = implicit_y_step(e, hz, spec, ti, nodes, dti, M)
        y[i], _ = reflect_step(yi, g_nodes, bool(refl[i]))

    return GridSolution(grid=grid, space=space, y=y, z=z, x0=spec.x0,
                        off_grid=_off_grid(off, N * J * u.size))


def _require_pure_quadratic(spec: ProblemSpec):
    if not spec.pure_quadratic:
        raise ValueError("Snell oracle requires the pure-quadratic driver class")
    # verify numerically rather than trusting the flag
    rng = np.random.default_rng(0)
    zs = rng.normal(size=(16, spec.m))
    want = 0.5 * spec.alpha * np.sum(zs * zs, axis=-1)
    got = np.asarray(spec.generator(0.3 * spec.T, np.full(16, spec.x0),
                                    rng.normal(size=16), zs), dtype=float)
    if np.max(np.abs(got - want)) > 1e-12:
        raise ValueError("generator is not exactly (alpha/2)|z|^2")


def snell_cole_hopf(spec: ProblemSpec, grid: TimeGrid, schedule: ReflectionSchedule,
                    space: SpaceGrid) -> GridSolution:
    """Y via the exponential transform: e^{alpha Y} is the Snell envelope of
    e^{alpha g(X^pi)} over stopping times restricted to the reflection set."""
    _require_pure_quadratic(spec)
    nodes = space.nodes
    N = grid.N
    u, w = _std_normal_quadrature(space.quad_order)
    refl = schedule.mask
    off = 0

    payoff = np.exp(spec.alpha * np.asarray(spec.obstacle(nodes), dtype=float))
    S = np.empty((N + 1, space.J))
    S[N] = payoff
    at = None
    for i in range(N - 1, -1, -1):
        ti = grid.times[i]
        dti = grid.dt[i]
        s = spec.sigma_norm(ti)
        mean = nodes + np.asarray(spec.drift(ti, nodes), dtype=float) * dti
        at = _located(space, mean[:, None] + s * math.sqrt(dti) * u[None, :], at)
        off += at[2]
        cont = space.interpolate(S[i + 1], at[1]) @ w
        S[i] = np.maximum(payoff, cont) if refl[i] else cont

    return GridSolution(grid=grid, space=space, y=np.log(S) / spec.alpha, x0=spec.x0,
                        off_grid=_off_grid(off, N * space.J * u.size))


def brute_force_tiny(spec: ProblemSpec, grid: TimeGrid, schedule: ReflectionSchedule,
                     quad_order: int = 9,
                     radius: Optional[TruncationRadius] = None) -> float:
    """Exact scheme value at the root of the full q^N quadrature tree (N <= 4).

    No spatial interpolation at all: every reachable state gets its own tree
    node, so this is an independent oracle for tiny instances.
    """
    N = grid.N
    if N > 4:
        raise ValueError("brute force is restricted to N <= 4")
    if quad_order > 9:
        raise ValueError("brute force is restricted to quadrature order <= 9")
    u, w = _std_normal_quadrature(quad_order)
    M = y_bound(spec)
    refl = schedule.mask

    # forward pass: states[i] has shape (q^i,)
    states = [np.array([spec.x0])]
    for i in range(N):
        states.append(_transition_points(
            spec, grid.times[i], grid.dt[i], states[-1], u).ravel())

    yv = np.asarray(spec.obstacle(states[N]), dtype=float)
    for i in range(N - 1, -1, -1):
        ti = grid.times[i]
        dti = grid.dt[i]
        x = states[i]
        e, z = _conditional_moments(spec, ti, dti, yv.reshape(x.size, u.size), u, w)
        hz = z if radius is None else truncate_rows(z, radius.M_z)[0]
        yi, _ = implicit_y_step(e, hz, spec, ti, x, dti, M)
        yv, _ = reflect_step(yi, np.asarray(spec.obstacle(x), dtype=float),
                             bool(refl[i]))
    return float(yv[0])
