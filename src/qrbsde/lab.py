"""Experiment runners: rate measurements, coupled stability sweeps, bound checks.

Each runner is seed-deterministic end to end and returns a frozen report
dataclass that serializes from its own fields: ``to_dict()`` (for JSON) is
``dataclasses.asdict``, ``rows()`` (for CSV) is one flat dict per cell, and
the ``flags`` property, no field, is the pass verdict read off its fields.
Rates are measured as ordinary least-squares slopes on log-log points, with
a 95% confidence band from standard regression theory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .forward import (TimeGrid, _ahead, _integers, euler_simulate, exact_simulate,
                      make_grid, sample_and_simulate)
from .model import ProblemSpec, TruncationRadius, y_bound
from .oracle import build_space_grid, exact_scheme_solve, snell_cole_hopf
from .regress import BasisSpec, fit_least_squares
from .scheme import (SKOROKHOD_CONDITIONS, backward_steps, estimate_Mz_auto,
                     skorokhod_check, solve_backward, y0_estimates)


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo leg of an experiment: path count, seed, regression basis."""
    n_paths: int = 50_000
    seed: int = 42
    basis: BasisSpec = field(default_factory=BasisSpec)
    M_z: Optional[float] = None   # None -> scheme.estimate_Mz_auto's rule

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.M_z is not None:
            TruncationRadius(self.M_z)   # rejects a non-finite or nonpositive M_z


def _mc_paths(spec, N, mc: MCConfig, reflection="all"):
    """Grid, schedule and Euler bundle of a path solve."""
    grid, sched = make_grid(N, spec.T, reflection)
    return grid, sched, sample_and_simulate(spec, grid, mc.n_paths, mc.seed)


def _mc_radius(spec, grid, sched, bundle, mc: MCConfig) -> TruncationRadius:
    """The truncation radius: the user's M_z, else the declared rule's."""
    if mc.M_z is not None:
        return TruncationRadius(float(mc.M_z), "user-supplied")
    return estimate_Mz_auto(spec, grid, sched, bundle, mc.basis)


def _mc_setup(spec, N, mc: MCConfig, reflection="all"):
    """Grid, schedule, Euler bundle and truncation radius."""
    grid, sched, bundle = _mc_paths(spec, N, mc, reflection)
    return grid, sched, bundle, _mc_radius(spec, grid, sched, bundle, mc)


def _solve_mc(spec, N, mc: MCConfig, reflection="all"):
    """The CLI's path solve: its set-up and the solve's per-step record."""
    grid, sched, bundle, radius = _mc_setup(spec, N, mc, reflection)
    return grid, sched, bundle, solve_backward(spec, grid, sched, bundle, mc.basis, radius)


# ---------------------------------------------------------------------------
# slope fitting

@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    band95: float      # half-width of the 95% confidence interval on the slope
    n_points: int


# t_0.975(nu) for nu = 1..30 degrees of freedom, the doubles that
# scipy.special.stdtrit(nu, 0.975) returns (up to 19 ulp from the correctly
# rounded quantile, so no formula reproduces them), and the nu -> inf limit
_T975 = (12.706204736174694, 4.302652729749462, 3.1824463052837078,
         2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
         2.364624251592784, 2.306004135204166, 2.262157162798205,
         2.228138851986274, 2.200985160091639, 2.1788128296672284,
         2.1603686564627913, 2.144786687917804, 2.131449545559776,
         2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
         2.0930240544083087, 2.085963447265864, 2.0796138447276795,
         2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
         2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
         2.0484071417952454, 2.045229642132703, 2.0422724563012378)
_Z975 = 1.959963984540054


def _t_within(t: float, nu: int) -> float:
    """P(|T| <= t) for Student's t with an integer nu >= 2 degrees of
    freedom, in closed form (Abramowitz-Stegun 26.7.3-4)."""
    theta = math.atan(t / math.sqrt(nu))
    odd = nu % 2
    k = np.arange(1, nu // 2)
    ratios = (nu / (nu + t * t)) * (2 * k - 1 + odd) / (2 * k + odd)
    series = float(np.sum(np.cumprod(
        np.concatenate(([math.cos(theta) if odd else 1.0], ratios)))))
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * series)
    return math.sin(theta) * series


def _t975(nu: int) -> float:
    """The Student-t quantile t_0.975(nu), nu >= 1: tabled up to nu = 30,
    above that the least double in (t_0.975(inf), t_0.975(30)] whose
    ``_t_within`` reaches 0.95, found by bisection."""
    if nu <= len(_T975):
        return _T975[nu - 1]
    lo, hi = _Z975, _T975[-1]
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _t_within(mid, nu) < 0.95:
            lo = mid
        else:
            hi = mid
    return hi


def slope_fit(points: Sequence[tuple]) -> SlopeFit:
    """OLS fit of log(err) on log(h) for (h, err) pairs; all values finite
    and positive, else ValueError naming the first pair that is not.

    The band's Student-t quantile is ``_t975``; to n = 32 points it is
    scipy's ``stdtrit`` bit for bit.
    """
    pts = [(float(h), float(e)) for h, e in points]
    if len(pts) < 3:
        raise ValueError("slope fit needs at least 3 points")
    bad = next((p for p in pts if not all(map(math.isfinite, p))), None)
    if bad is not None:
        raise ValueError(f"slope fit requires finite (h, err) values; got {bad}")
    h = np.array([p[0] for p in pts])
    e = np.array([p[1] for p in pts])
    if np.any(h <= 0) or np.any(e <= 0):
        raise ValueError("slope fit requires strictly positive (h, err) values")
    lx, ly = np.log(h), np.log(e)
    n = lx.size
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    if sxx == 0:
        raise ValueError("slope fit requires at least two distinct h values")
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    s2 = float(np.sum(resid ** 2) / (n - 2))
    band = float(_t975(n - 2) * math.sqrt(s2 / sxx))
    return SlopeFit(slope=slope, intercept=intercept, band95=band, n_points=n)


def _slopes(cells, x_key: str, keys: Sequence[str]) -> dict:
    """slope_fit of each key against x_key over the cells where it is not
    exactly 0 (a noise floor); None for a key with too few such cells to
    fit, or with a negative or non-finite one."""
    slopes = {}
    for key in keys:
        try:
            slopes[key] = slope_fit([(c[x_key], c[key]) for c in cells if c[key] != 0])
        except ValueError:
            slopes[key] = None
    return slopes


class _Report:
    def to_dict(self) -> dict:
        """The report's fields as plain dicts, its slope fits included."""
        return dataclasses.asdict(self)


class _CellReport(_Report):
    def rows(self):
        """One flat dict per cell."""
        return [dict(c) for c in self.cells]

    def _decreasing(self, key: str) -> bool:
        """key falls strictly from each cell to the next."""
        return all(b[key] < a[key] for a, b in zip(self.cells, self.cells[1:]))


# ---------------------------------------------------------------------------
# convergence in the time grid

@dataclass(frozen=True)
class ConvergenceReport(_CellReport):
    kind: str            # "grid-refinement" | "reflection-sweep"
    x_name: str          # meaning of the cell key: "mesh" | "reflection_mesh"
    cells: tuple         # one dict per grid size / schedule, key order fixed
    slopes: dict         # error name -> SlopeFit (None if not fittable)
    reference: dict      # oracle identities and reference values
    floor_limited: bool = False

    @property
    def flags(self) -> dict:
        """y0_err falls strictly and every slope was fitted, or a sweep's
        values do not decrease; floor_limited is informational."""
        if self.kind == "reflection-sweep":
            return {"monotone_nondecreasing":
                    self.reference["monotone_nondecreasing"]}
        return {"y0_err_monotone": self._decreasing("y0_err"),
                "slopes_fitted": all(v is not None for v in self.slopes.values())}


def _convergence_cell(spec: ProblemSpec, N: int, mc: MCConfig, space, ref,
                      stride: int, y0_ref: float):
    """One grid size of ``run_convergence``: the path scheme, read as each
    ``backward_steps`` step is yielded and kept nowhere, and the lattice solve
    at N, compared with each other and with the reference on the path cloud.
    Returns the cell and the lattice solve's off-grid count.

    The path recursion walks on ``_ahead``'s helper thread, which starts no
    helper of its own: while it computes step i-1, this thread interpolates
    the lattice columns at step i and adds its sums, still in descending i,
    so the cell is bit for bit the serial one.  The lattice solve runs
    before the walk starts, and during it this thread calls only
    ``SpaceGrid.interpolate`` and numpy: the benchmark's tracer keeps one
    span stack per process."""
    grid, sched, bundle, radius = _mc_setup(spec, N, mc)
    X = bundle.X_euler
    orc = exact_scheme_solve(spec, grid, sched, space)
    y0_orc = orc.y0

    sup_y = 0.0           # quadrature-at-N vs fine reference
    mc_sup_y = 0.0        # path solver vs quadrature-at-N
    z_terms, mc_z_terms = np.zeros(mc.n_paths), np.zeros(mc.n_paths)
    truncated = 0
    for step in _ahead(backward_steps(spec, grid, sched, bundle, mc.basis, radius)):
        i = step.i
        truncated += step.truncated
        v = space.interpolate(np.column_stack(
            [ref.y[stride * i], orc.y[i], ref.z[stride * i], orc.z[i]]), X[:, i])
        y_ref_i, y_orc_i = v[:, 0], v[:, 1]
        z_ref_i, z_orc_i = v[:, 2:2 + spec.m], v[:, 2 + spec.m:]
        sup_y = max(sup_y, float(np.sqrt(np.mean((y_orc_i - y_ref_i) ** 2))))
        mc_sup_y = max(mc_sup_y, float(np.sqrt(np.mean((step.y - y_orc_i) ** 2))))
        z_terms += np.sum((z_orc_i - z_ref_i) ** 2, axis=-1) * grid.dt[i]
        mc_z_terms += np.sum((step.z - z_orc_i) ** 2, axis=-1) * grid.dt[i]
    y0_fit, y0_se = y0_estimates(step.y, step.y_next)   # the last step is i = 0

    cell = {
        "N": N, "mesh": grid.mesh,
        "y0_scheme": y0_fit, "y0_se": y0_se,
        "y0_oracle": y0_orc, "y0_ref": y0_ref,
        "y0_err": abs(y0_orc - y0_ref),
        "y_sup_err": sup_y,
        "z_err": float(np.mean(z_terms)),
        "mc_y0_gap": abs(y0_fit - y0_orc),
        "mc_y_sup_err": mc_sup_y,
        "mc_z_gap": float(np.mean(mc_z_terms)),
        "M_z": radius.M_z,
        "trunc_active_frac": truncated / (N * mc.n_paths),
    }
    return cell, orc.off_grid


def _off_grid_total(counts) -> list:
    """Quadrature points off the space grid, of all points, summed over the
    (count, total) pairs of several lattice solves."""
    return [sum(c) for c in zip(*counts)]


def run_convergence(spec: ProblemSpec, Ns: Sequence[int], mc: MCConfig,
                    oracle: str = "auto") -> ConvergenceReport:
    """Solve on refining uniform grids with reflection at every grid time.

    Two error layers per N, kept separate because they scale oppositely:

    * rate columns ("y0_err", "y_sup_err", "z_err"): the quadrature solve at
      this N against the same solver at twice the finest N (self-reference,
      plus the Snell value for the pure-quadratic class) — noise-free, these
      carry the time-discretization rate and are what the slopes are fit on;
    * regression columns ("mc_*"): the path solver against the quadrature
      solve at the *same* N — pure Monte Carlo/projection error, which grows
      with the step count at a fixed path budget and therefore must not be
      mixed into the rate fit.

    Spatial L2 norms are taken over the simulated path cloud, so both layers
    use the same (forward-law) weighting.

    Memory: a cell keeps its increments, Euler states, lattice solve and a
    few (P,) sums; it reads the path scheme one step at a time, storing none.
    The walk runs one step ahead on a helper thread (``_ahead``), so at most
    two yielded steps are alive at once; the results do not depend on it.
    """
    Ns = _integers(Ns, "grid sizes N")
    if len(Ns) < 4:
        raise ValueError("convergence study needs at least 4 grid sizes")
    if min(Ns) < 1:
        raise ValueError(f"grid sizes must be >= 1, got N={min(Ns)}")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("grid sizes must be strictly increasing")
    if oracle not in ("auto", "exact-scheme", "snell"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if oracle == "snell" and not spec.pure_quadratic:
        raise ValueError("Snell oracle requires the pure-quadratic driver class")

    N_ref = 2 * max(Ns)
    for n in Ns:
        if N_ref % n != 0:
            raise ValueError(f"N={n} must divide the reference grid {N_ref}")

    space = build_space_grid(spec)
    grid_ref, sched_ref = make_grid(N_ref, spec.T, "all")
    ref = exact_scheme_solve(spec, grid_ref, sched_ref, space)
    # GridSolution.y0 is a lookup, not a field: read it once per solution
    y0_ref = ref.y0
    reference = {"y0_oracle": "exact-scheme", "N_ref": N_ref,
                 "exact_scheme_y0": y0_ref}
    off_grid = [ref.off_grid]
    if spec.pure_quadratic:
        snell = snell_cole_hopf(spec, grid_ref, sched_ref, space)
        off_grid.append(snell.off_grid)
        snell_y0 = reference["snell_y0"] = snell.y0
        if oracle in ("auto", "snell"):
            reference["y0_oracle"] = "snell"
            y0_ref = snell_y0

    cells = []
    for N in Ns:
        cell, off = _convergence_cell(spec, N, mc, space, ref, N_ref // N, y0_ref)
        cells.append(cell)
        off_grid.append(off)

    slopes = _slopes(cells, "mesh",
                     ("y0_err", "y_sup_err", "z_err", "mc_y0_gap", "mc_z_gap"))
    floor = min(c["mc_y0_gap"] for c in cells) <= 3.0 * max(c["y0_se"] for c in cells)
    reference["off_grid"] = _off_grid_total(off_grid)
    return ConvergenceReport(kind="grid-refinement", x_name="mesh",
                             cells=tuple(cells), slopes=slopes,
                             reference=reference, floor_limited=bool(floor))


def run_discrete_reflection_sweep(spec: ProblemSpec, N: int,
                                  kappas: Sequence[int],
                                  engine: str = "auto") -> ConvergenceReport:
    """Fix a fine time grid and coarsen only the reflection schedule.

    Noise-free by construction: values come from the quadrature scheme (or
    the Snell recursion for the pure-quadratic class), so the monotonicity of
    the value in schedule refinement is exact, not statistical.  The gap is
    measured against the everywhere-reflected run on the same grid.
    """
    kappas = _integers(kappas, "kappas")
    if not kappas:
        raise ValueError("reflection-sweep kappas must not be empty")
    if engine == "auto":
        engine = "snell" if spec.pure_quadratic else "exact-scheme"
    if engine not in ("snell", "exact-scheme"):
        raise ValueError(f"unknown engine {engine!r}")
    for k in kappas:
        if k < 1 or N % k != 0:
            raise ValueError(f"kappa={k} must divide N={N}")

    space = build_space_grid(spec)
    off_grid = []

    def value(reflection):
        grid, sched = make_grid(N, spec.T, reflection)
        solve = snell_cole_hopf if engine == "snell" else exact_scheme_solve
        sol = solve(spec, grid, sched, space)
        off_grid.append(sol.off_grid)
        return sol.y0, sched

    y0_ref, _ = value("all")
    cells = []
    for k in sorted(kappas):
        y0_k, sched = value(("every", N // k))
        cells.append({
            "kappa": k, "reflection_mesh": sched.mesh,
            "y0": y0_k, "y0_ref": y0_ref, "gap": y0_ref - y0_k,
        })

    nondecreasing = all(b["y0"] >= a["y0"] - 1e-10
                        for a, b in zip(cells, cells[1:]))
    return ConvergenceReport(
        kind="reflection-sweep", x_name="reflection_mesh",
        cells=tuple(cells), slopes=_slopes(cells, "reflection_mesh", ("gap",)),
        reference={"engine": engine, "N": N, "y0_full_reflection": y0_ref,
                   "monotone_nondecreasing": nondecreasing,
                   "off_grid": _off_grid_total(off_grid)})


# ---------------------------------------------------------------------------
# stability under forward perturbations

@dataclass(frozen=True)
class StabilityReport(_CellReport):
    kind: str            # "drift-shift" | "euler-vs-exact"
    x_name: str          # "eps" | "mesh"
    cells: tuple
    slopes: dict
    M_z: float               # the solves' truncation radius (the largest level's)
    truncation_active: bool  # h_{M_z} moved Z on some path-step of some leg
    dx_proxy_name: str = "(E sup_i |dX_i|^4)^(1/4)"
    dw_checksum: str = ""   # sha256 of every level's increments, in level order

    @property
    def flags(self) -> dict:
        """Each D falls strictly from the largest perturbation (eps or mesh)
        to the smallest, and no ratio_Y exceeds twice the first cell's."""
        flags = {f"{k}_decreasing": self._decreasing(k) for k in ("D_Y", "D_Z", "D_K")}
        ratios = [c["ratio_Y"] for c in self.cells]
        flags["ratio_bounded"] = max(ratios) <= 2.0 * ratios[0]
        return flags


def _deltas(grid: TimeGrid, XA, XB, legA, legB, KA=None):
    """Path-wise coupled differences between two legs on one grid, folded
    over their backward steps in lockstep from i = N-1 down to 0, so the
    sums of D_Z and of each leg's K_T add in descending i, and the count of
    path-steps whose Z the truncation moved in the legs it walks.  Of leg
    A's steps it reads i, y, z and, at i = N-1, y_next; their dk and count
    too unless ``KA``, leg A's K_T added in that order already, is given, as
    it is for a stored drift-shift base leg (``_stored_leg``)."""
    N, P = grid.N, XA.shape[0]
    dx4 = np.square(np.square(XA[:, N] - XB[:, N]))
    fold_A = KA is None
    dZ, KB = np.zeros(P), np.zeros(P)
    KA = np.zeros(P) if fold_A else KA
    truncated = 0
    for a, b in zip(legA, legB):
        i = a.i
        if i == N - 1:
            dY = np.square(a.y_next - b.y_next)
        np.maximum(dx4, np.square(np.square(XA[:, i] - XB[:, i])), out=dx4)
        np.maximum(dY, np.square(a.y - b.y), out=dY)
        dZ += np.sum(np.square(a.z - b.z), axis=1) * grid.dt[i]
        if fold_A:
            KA += a.dk
            truncated += a.truncated
        KB += b.dk
        truncated += b.truncated
    return {
        "dx_proxy": float(np.mean(dx4)) ** 0.25,
        "D_Y": float(np.mean(dY)),
        "D_Z": float(np.mean(dZ)),
        "D_K": float(np.mean(np.square(KA - KB))),
    }, truncated


def _stored_leg(steps, n_paths: int):
    """A leg's steps as ``_deltas`` reads them again for every cell, with
    no dk, g, A, phi or factor; its K_T = sum_i dK_i, added in descending
    i as the steps pass; and its count of path-steps whose Z the truncation
    moved."""
    K, kept, truncated = np.zeros(n_paths), [], 0
    for step in steps:
        K += step.dk
        truncated += step.truncated
        kept.append(step._replace(dk=None, g=None, A=None, phi=None, factor=None))
    return kept, K, truncated


def _coupled_cell(spec: ProblemSpec, setup, base, X, basis: BasisSpec,
                  K_base=None) -> dict:
    """The coupled differences of a stability cell's second leg, with states
    X, walked in lockstep with the base leg's steps ``base`` (of K_T
    ``K_base``, if it is folded already) on its increments, grid, schedule
    and radius (one radius: no difference crosses a truncation edge), and
    ``_deltas``'s count of truncated path-steps."""
    grid, sched, bundle, radius = setup
    leg = dataclasses.replace(bundle, X_euler=X)
    steps = backward_steps(spec, grid, sched, leg, basis, radius)
    return _deltas(grid, bundle.X_euler, X, base, steps, K_base)


DW_HASH_BLOCK = 1024   # paths per block of increments fed to the checksum


def _hash_increments(h, dW: np.ndarray) -> None:
    """Feed ``h`` the bytes of ``dW.tobytes()``, a block of paths at a time,
    so that no copy of the whole (column-major) array is made."""
    for p in range(0, dW.shape[0], DW_HASH_BLOCK):
        h.update(np.ascontiguousarray(dW[p:p + DW_HASH_BLOCK]))


def _check_exact_coupling(bundle):
    """Raise where the exact transition reproduces the Euler step on the
    first level's paths, as it does for a drift constant in x: there every
    euler-vs-exact difference would be 0."""
    if np.array_equal(bundle.X_euler, bundle.X_exact):
        raise ValueError("euler-vs-exact coupling is degenerate: the exact "
                         "transition equals the Euler step (drift constant "
                         "in x), so every coupled difference would be 0")


def run_stability(spec: ProblemSpec, kind: str, levels: Sequence[float],
                  mc: MCConfig, N: int = 64) -> StabilityReport:
    """Solve two coupled legs on the same Brownian increments and compare.

    kind "drift-shift": perturb the drift by a constant eps (levels must be a
    decreasing eps list); both legs are Euler-simulated from bit-identical
    increments.  kind "euler-vs-exact": levels is an increasing N list; each
    cell couples the Euler states with exact-transition states sharing the
    step increments, and a drift for which the two coincide is rejected
    before any solve.  Both kinds solve their second leg in the one helper
    ``_coupled_cell``, which is where a further leg, such as a lattice one,
    goes.  ``dw_checksum`` is one sha256 of every level's increments in
    level order, fed a block of paths at a time; drift-shift has one
    bundle, so it hashes that one ``dW``.

    ``C_Y``, ``C_Z`` and ``C_K`` are each D over dx_proxy², the constant of
    the squared bound; ``ratio_Y`` = D_Y / dx_proxy keeps its meaning.

    Memory: an euler-vs-exact cell walks its two legs in lockstep and stores
    neither.  A drift-shift run solves its base leg once (walked in
    lockstep, it would be solved again for every eps) and keeps of it only
    what the cells read: each step's y and z and y_next = g(X_N), which is
    (N+1+N*m)*P floats, and its K_T, folded once.  It walks each shifted leg
    against that.  A cell keeps only its coupled differences.
    """
    if not levels:
        raise ValueError("stability levels must not be empty")
    cells, radii, truncated = [], [], 0
    dw = hashlib.sha256()
    if kind == "drift-shift":
        eps = [float(e) for e in levels]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps levels must be strictly decreasing")
        grid, sched, bundle, radius = setup = _mc_setup(spec, N, mc)
        radii.append(radius.M_z)
        base, K_base, truncated = _stored_leg(
            backward_steps(spec, grid, sched, bundle, mc.basis, radius), bundle.n_paths)
        _hash_increments(dw, bundle.dW)
        b0 = spec.drift
        for e in eps:
            spec_e = dataclasses.replace(
                spec, drift=lambda t, x, e=e: np.asarray(b0(t, x), dtype=float) + e)
            leg = euler_simulate(spec_e, dataclasses.replace(
                bundle, X_euler=None, X_exact=None))
            # the same increments object, so the one dW hash covers both legs
            if leg.dW is not bundle.dW:
                raise RuntimeError("drift-shift leg does not share the base leg's increments")
            deltas, moved = _coupled_cell(spec_e, setup, base, leg.X_euler,
                                          mc.basis, K_base)
            cells.append({**deltas, "eps": e})
            truncated += moved
            del leg   # released before the next leg is allocated
        x_key, x_name = "eps", "eps"
    elif kind == "euler-vs-exact":
        Ns = _integers(levels, "N levels")
        if any(b <= a for a, b in zip(Ns, Ns[1:])):
            raise ValueError("N levels must be strictly increasing")
        for n in Ns:
            grid, sched, bundle = _mc_paths(spec, n, mc)
            bundle = exact_simulate(spec, bundle)
            if n == Ns[0]:
                _check_exact_coupling(bundle)   # before any solve
            radius = _mc_radius(spec, grid, sched, bundle, mc)
            radii.append(radius.M_z)
            base = backward_steps(spec, grid, sched, bundle, mc.basis, radius)
            deltas, moved = _coupled_cell(spec, (grid, sched, bundle, radius), base,
                                          bundle.X_exact, mc.basis)
            cells.append({**deltas, "N": n, "mesh": grid.mesh})
            truncated += moved
            _hash_increments(dw, bundle.dW)
            del bundle, base   # released before the next N is allocated
        x_key, x_name = "mesh", "mesh"
    else:
        raise ValueError(f"unknown stability kind {kind!r}")

    for d in cells:
        dx = d["dx_proxy"]
        d["ratio_Y"] = d["D_Y"] / dx if dx > 0 else 0.0
        d.update({f"C_{k}": d[f"D_{k}"] / dx ** 2 if dx > 0 else 0.0 for k in "YZK"})
    slopes = _slopes(cells, x_key, ("dx_proxy", "D_Y", "D_Z", "D_K"))
    return StabilityReport(kind=kind, x_name=x_name, cells=tuple(cells),
                           slopes=slopes, M_z=max(radii),
                           truncation_active=truncated > 0,
                           dw_checksum=dw.hexdigest())


# ---------------------------------------------------------------------------
# a priori bound diagnostics

@dataclass(frozen=True)
class DiagnosticsReport(_Report):
    tail_sum_max: float        # max over i of 99th-pct fitted conditional tail sum
    bound_value: float         # exp(4 alpha M)/alpha^2 [1 + 2 alpha M_f (1+M) T]
    moments: dict              # {"sumZ2": {p: E[S^p]}, "K_T": {p: E[K^p]}}
    skorokhod: dict            # the solve's exact discrete Skorokhod conditions
    grid_N: int
    n_paths: int
    seed: int
    M_z: float                 # the solve's truncation radius
    truncation_active: bool    # h_{M_z} moved Z on some path-step

    @property
    def flags(self) -> dict:
        return {"within_bound": self.tail_sum_max <= self.bound_value,
                "skorokhod": self.skorokhod["all"]}


def bmo_bound_value(spec: ProblemSpec) -> float:
    """Closed-form bound on the conditional residual quadratic variation of Z.

    Pure function of the problem constants: exp(4 alpha M)/alpha^2 times
    (1 + 2 alpha M_f (1 + M) T), with M the uniform Y bound.
    """
    M = y_bound(spec)
    a = spec.alpha
    return math.exp(4.0 * a * M) / a ** 2 \
        * (1.0 + 2.0 * a * spec.M_f * (1.0 + M) * spec.T)


def run_diagnostics(spec: ProblemSpec, N: int, mc: MCConfig,
                    setup: Optional[tuple] = None) -> DiagnosticsReport:
    """Estimate sup_i of the conditional tail sum E_i[sum_{j>=i} |Z_j|^2 dt_j]
    by cross-sectional regression and compare to the closed-form bound.
    The one solve, on ``setup`` (an ``_mc_setup``; by default one reflecting
    at every grid time), also gathers K_T and the Skorokhod conditions.
    Each tail sum is fitted on its step's own design, basis and Gram
    factor, read before the next step is requested, so each step evaluates
    one design.

    Memory: besides the paths it keeps two (P,) sums, the tail sum (its
    columns add as a reversed cumsum's do, bit for bit) and K_T, and
    regresses each tail sum as its step is yielded."""
    grid, sched, bundle, radius = setup or _mc_setup(spec, N, mc)
    X = bundle.X_euler

    tail_max = 0.0
    S, K = np.zeros(bundle.n_paths), np.zeros(bundle.n_paths)
    skorokhod = dict.fromkeys(SKOROKHOD_CONDITIONS, True)
    truncated = 0
    for step in backward_steps(spec, grid, sched, bundle, mc.basis, radius):
        S += np.sum(step.z ** 2, axis=-1) * grid.dt[step.i]
        fitted = fit_least_squares(step.phi, X[:, step.i], S, A=step.A,
                                   factor=step.factor).fitted
        tail_max = max(tail_max, float(np.quantile(fitted, 0.99)))
        K += step.dk
        truncated += step.truncated
        skorokhod_check(skorokhod, sched, step)
    skorokhod["all"] = all(skorokhod.values())

    moments = {
        "sumZ2": {p: float(np.mean(S ** p)) for p in (1, 2, 4)},
        "K_T": {p: float(np.mean(K ** p)) for p in (1, 2, 4)},
    }
    return DiagnosticsReport(
        tail_sum_max=tail_max, bound_value=bmo_bound_value(spec), moments=moments,
        skorokhod=skorokhod, grid_N=grid.N, n_paths=bundle.n_paths, seed=bundle.seed,
        M_z=radius.M_z, truncation_active=truncated > 0)
