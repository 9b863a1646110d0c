"""Truncated discrete-time backward scheme on simulated paths.

Backward recursion per time step: project the next-step value onto the
Brownian increment to get Z and regress the conditional mean (one fit with
m+1 columns), solve the implicit fixed point in y with the driver evaluated
at the truncated Z (in closed form for a driver declared affine in y), then
apply discrete reflection against the obstacle.
Conditional expectations are least-squares regressions on a spatial basis
of the current Euler state.

A step has two halves.  Its state half reads only X_{t_i}: the localized
basis (its quantiles selected, not sorted), the design and its Gram's
factor.  Its value half is the recursion: the projection onto that factor,
one norm per row of Z, which gives both h_{M_z}(Z) (Z itself where no row
moves) and the step's count of truncated paths, the implicit step on
h_{M_z}(Z), and the reflection against g(X_{t_i}).  Where
``forward.helper_pays`` holds (at least ``forward.AHEAD_MIN_PATHS`` paths,
not on a helper thread, and not on a thread that holds a helper open
already, as it does for the first of two legs walked in lockstep),
``forward._ahead`` computes the state half of step i-1 on one helper
thread while the caller runs step i's value half and its own work on the
yielded step; the designs then alternate between two per-walk blocks.
Every other walk is serial, with one block.  On either walk a block is
refilled only after the consumer asks for the step after the one whose
design it holds, so a yielded step's design is valid until then.  The
halves run the same operations on either path, so no result depends on
the helper.  At a reflection date dK is written into the buffer of the
unreflected value, which no later use reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .forward import (PathBundle, ReflectionSchedule, TimeGrid, _ahead,
                      helper_pays, path_array)
from .model import (AffineInY, ProblemSpec, TruncationRadius, smooth_truncation,
                    truncate_rows, y_bound)
from .regress import (BasisSpec, DesignEvaluator, build_basis, factor_design,
                      fit_least_squares, localize_basis)

PICARD_TOL = 1e-12
PICARD_MAX_ITER = 50


@dataclass(frozen=True)
class SchemeSolution:
    """A solve's Y0 and its per-step and whole-solve values, gathered as the
    steps are yielded; no field is path-sized (Ybar, Zbar, dK are not kept)."""
    grid: TimeGrid
    schedule: ReflectionSchedule
    radius: TruncationRadius
    y0_fit: float
    y0_se: float              # std(Ybar_1) / sqrt(P); not the SE of y0_fit
    picard_counts: np.ndarray  # (N,)
    fit_conds: np.ndarray      # (N,) cond of each step's design (Z and mean share it)
    fit_rmses: np.ndarray      # (N,) in-sample RMSE of the mean column
    max_abs_z: np.ndarray      # (N,) max over paths and components of |Z_i|
    mean_dK: np.ndarray        # (N,)
    reflected_frac: np.ndarray  # (N,) share of paths with dK_i > 0
    trunc_active_frac: np.ndarray  # (N,) share of paths where h_{M_z} moves Z_i
    K_T: dict                  # mean, std and max over paths of K_T = sum_i dK_i
    skorokhod: dict            # the exact discrete Skorokhod conditions, and "all"

    def summary(self) -> dict:
        counts, edges = np.histogram(self.picard_counts,
                                     bins=np.arange(0.5, PICARD_MAX_ITER + 1.5))
        hist = {int(e + 0.5): int(c) for e, c in zip(edges[:-1], counts) if c}
        return {
            "y0": self.y0_fit,
            "y0_se": self.y0_se,
            "max_abs_z_per_step": self.max_abs_z.tolist(),
            **{f"K_T_{k}": v for k, v in self.K_T.items()},
            "picard_iteration_histogram": hist,
            "truncation_radius": self.radius.M_z,
            "truncation_provenance": self.radius.provenance,
            "truncation_active": bool(np.any(self.trunc_active_frac > 0)),
            "max_fit_condition_number": float(np.max(self.fit_conds)),
            "skorokhod": self.skorokhod,
        }


def z_projection_step(y_next, dW_i, dt_i, phi, xs, A=None, factor=None):
    """The step's one projection: the RegressionFit on phi(xs) of Z, the m
    columns y_next * dW_i / dt_i (dW_i of shape (P, m)), and last the mean
    column y_next, with one design, one eigh of its Gram and phi's ridge;
    the design A and its factor are the step state's when given."""
    if dt_i <= 0:
        raise ValueError("dt must be positive")
    y_next = np.asarray(y_next, dtype=float)
    m = dW_i.shape[1]
    # column-major (P, m+1) like a path_array, left unfilled: each column is
    # written below
    targets = np.empty((m + 1, y_next.shape[0])).T
    np.multiply(y_next[:, None], dW_i, out=targets[:, :m])
    targets[:, :m] /= dt_i
    targets[:, m] = y_next
    return fit_least_squares(phi, xs, targets, A, factor, overwrite_ys=True)


def implicit_y_step(e, zbar, spec: ProblemSpec, t_i: float, x_i, dt: float,
                    radius: Optional[TruncationRadius], M: float):
    """Solve y = e + dt f(t_i, x, y, h_{M_z}(zbar)).

    A generator declared ``AffineInY(a, f0)`` is solved in closed form,
    y = (e + dt f0(t_i, x, h(zbar))) / (1 - a dt), with one evaluation of
    f0 and a count of 1; it raises RuntimeError where |a| dt >= 1, where
    the iteration would not contract.  Any other generator goes through
    Picard iteration, which requires L*dt < 1 (callers enforce it at
    configuration time) and raises RuntimeError if it does not converge.
    ``radius=None`` leaves Z untruncated.  Returns the solution clamped to
    [-M, M] and the iteration count; raises FloatingPointError on a
    non-finite driver value.
    """
    e = np.asarray(e, dtype=float)
    hz = np.asarray(zbar, dtype=float)
    if radius is not None:
        hz = smooth_truncation(hz, radius.M_z)
    f = spec.generator
    if isinstance(f, AffineInY):
        if abs(f.a) * dt >= 1.0:
            raise RuntimeError(
                f"implicit step does not contract at t={t_i}: |a|*dt = "
                f"{abs(f.a) * dt:.3g} >= 1")
        f0 = np.asarray(f.f0(t_i, x_i, hz), dtype=float)
        if not np.all(np.isfinite(f0)):
            raise FloatingPointError(f"non-finite driver value at t={t_i}")
        # (e + dt f0) / (1 - a dt), clipped, in one new array
        y = np.multiply(dt, f0)
        y += e
        y /= 1.0 - f.a * dt
        return np.clip(y, -M, M, out=y), 1
    y = e.copy()
    y_new, diff = np.empty_like(y), np.empty_like(y)
    for k in range(1, PICARD_MAX_ITER + 1):
        fy = np.asarray(f(t_i, x_i, y, hz), dtype=float)
        if not np.all(np.isfinite(fy)):
            raise FloatingPointError(f"non-finite driver value at t={t_i}")
        np.add(e, np.multiply(dt, fy, out=y_new), out=y_new)
        delta = float(np.max(np.abs(np.subtract(y_new, y, out=diff), out=diff)))
        y, y_new = y_new, y
        if delta <= PICARD_TOL:
            break
    else:
        raise RuntimeError(
            f"Picard iteration did not converge in {PICARD_MAX_ITER} steps at "
            f"t={t_i}; is L*dt < 1?")
    return np.clip(y, -M, M), k


def reflect_step(ytilde, g_vals, is_reflection_time: bool, out=None):
    """Ybar = max(ytilde, g) at reflection times; dK is the applied push-up,
    written into ``out`` where it is given (it may be ytilde itself).  Off
    the schedule Ybar is ytilde and dK a new zero array."""
    ytilde = np.asarray(ytilde, dtype=float)
    if not is_reflection_time:
        return ytilde, np.zeros_like(ytilde)
    ybar = np.maximum(ytilde, np.asarray(g_vals, dtype=float))
    return ybar, np.subtract(ybar, ytilde, out=out)


class StepState(NamedTuple):
    """The state half of step i: its regression's basis, design and factor."""
    i: int
    phi: DesignEvaluator
    A: np.ndarray        # phi(xs), in one of the walk's design blocks
    factor: tuple        # factor_design(phi, A)


def step_state(basis: BasisSpec, X: np.ndarray, i: int,
               block: np.ndarray) -> StepState:
    """The state half of step i on the Euler states X, with the design, and
    before it the localizing sort, written into ``block``, a (P, >= d)
    path_array."""
    xs = X[:, i]
    phi = build_basis(localize_basis(basis, xs, scratch=block[:, 0]), xs)
    A = phi(xs, out=block)
    return StepState(i, phi, A, factor_design(phi, A))


class BackwardStep(NamedTuple):
    """Step i of the backward recursion: from y_next = Ybar_{i+1} to the
    clipped Z_i, the reflected Ybar_i and the push-up dK_i against the
    obstacle values g(X_{t_i}), with the count of paths whose Z_i the
    truncation h_{M_z} moved, and the design, basis and Gram factor of its
    state half for a caller's own fit on X_{t_i}.  The design A is valid
    only until the next step is requested: a later state half overwrites
    its block."""
    i: int
    y_next: np.ndarray   # (P,)
    z: np.ndarray        # (P, m), column-major
    y: np.ndarray        # (P,)
    dk: np.ndarray       # (P,)
    g: np.ndarray        # (P,) g(X_{t_i}), evaluated once per step
    picard: int
    cond: float          # cond of the step's design (Z and mean share it)
    rmse: float          # in-sample RMSE of the mean column
    truncated: int       # paths whose Z_i h_{M_z} moves; 0 without a radius
    A: np.ndarray        # phi(X_{t_i}), (P, d), in one of the walk's blocks
    phi: DesignEvaluator  # the localized basis on X_{t_i}
    factor: tuple        # factor_design(phi, phi(X_{t_i})), (lam, V)


def backward_steps(spec: ProblemSpec, grid: TimeGrid, schedule: ReflectionSchedule,
                   bundle: PathBundle, basis: BasisSpec,
                   radius: Optional[TruncationRadius]) -> Iterator[BackwardStep]:
    """The truncated backward recursion on a simulated bundle, yielded one
    step at a time from i = N-1 down to 0.  It keeps nothing path-sized
    beyond the step it yields and the state halves of it and the next step
    (the module docstring), so each caller keeps what it needs of it.
    ``radius=None`` leaves Z untruncated and unclipped."""
    if bundle.X_euler is None:
        raise ValueError("bundle must be Euler-simulated before solving")
    if spec.L * grid.mesh >= 1.0:
        raise ValueError(f"L*|pi| = {spec.L * grid.mesh:.3g} >= 1 "
                         "violates the implicit-step contraction")
    if grid.N * grid.mesh > spec.L + 1e-12:
        raise ValueError("grid violates the normalization N*|pi| <= L")

    X = bundle.X_euler
    m = bundle.m
    M = y_bound(spec)
    mask = schedule.mask
    z_hi = np.inf if radius is None else radius.M_z + 1.0
    ahead = helper_pays(bundle.n_paths)
    # step i's design lives in block i % 2 while the helper fills the other
    blocks = [path_array(bundle.n_paths, basis.dimension) for _ in range(1 + ahead)]
    states = (step_state(basis, X, i, blocks[i % len(blocks)])
              for i in range(grid.N - 1, -1, -1))
    states = _ahead(states) if ahead else states
    y_next = np.asarray(spec.obstacle(X[:, grid.N]), dtype=float)
    try:
        for state in states:
            i = state.i
            ti = grid.times[i]
            dti = grid.dt[i]
            xs = X[:, i]
            fit = z_projection_step(y_next, bundle.dW[:, i, :], dti, state.phi, xs,
                                    state.A, state.factor)
            z = np.clip(fit.fitted[:, :m], -z_hi, z_hi)
            e = np.clip(fit.fitted[:, m], -M, M)
            cond, rmse = fit.cond, fit.rmse[m]
            del fit    # free the fitted values before the implicit step

            # one norm per row gives h_{M_z}(Z), Z itself where no row moves,
            # and the count of the rows it moves
            hz, truncated = z, 0
            if radius is not None:
                hz, moved = truncate_rows(z, radius.M_z)
                truncated = int(np.count_nonzero(moved))
                del moved
            ytilde, picard = implicit_y_step(e, hz, spec, ti, xs, dti, None, M)
            del hz
            g = np.asarray(spec.obstacle(xs), dtype=float)
            # at a reflection date dK takes ytilde's buffer, which Ybar leaves
            y, dk = reflect_step(ytilde, g, bool(mask[i]), out=ytilde)
            step = BackwardStep(i, y_next, z, y, dk, g, picard, cond, rmse,
                                truncated, state.A, state.phi, state.factor)
            # free the step's temporaries before the next step allocates its own
            del e, ytilde
            yield step
            y_next = y
    finally:
        states.close()   # joins the helper on an early exit


def y0_estimates(y0: np.ndarray, y1: np.ndarray) -> tuple:
    """A solve's (y0_fit, y0_se) from Ybar_0 and Ybar_1, the y and y_next of
    its i = 0 step: Ybar_0 on any path, as all share the deterministic X_0,
    and std(Ybar_1, ddof=1)/sqrt(P)."""
    P = y1.shape[0]
    return float(y0[0]), float(np.std(y1, ddof=1) / math.sqrt(P)) if P > 1 else 0.0


SKOROKHOD_CONDITIONS = ("dK_nonnegative", "dK_zero_off_schedule",
                        "Ybar_above_obstacle", "flat_off")


def skorokhod_check(flags: dict, schedule: ReflectionSchedule,
                    step: BackwardStep) -> None:
    """Fold the exact discrete Skorokhod conditions (zero tolerance) of the
    step's time column into ``flags``, against the obstacle values the step
    was reflected on; the i = N-1 step also checks column N, where
    Ybar_N = g(X_N) is its y_next and dK_N = 0."""
    mask = schedule.mask
    cols = [(step.i, step.y, step.dk, step.g)]
    if step.i == mask.size - 2:
        cols.append((step.i + 1, step.y_next, np.zeros_like(step.y_next), step.y_next))
    for i, y, dk, g in cols:
        # one reduction per flag, with NaN failing each as it fails a
        # comparison: min(dk) >= 0 is all(dk >= 0), and x has a nonzero
        # (NaN included) exactly where all(x == 0) fails
        flags["dK_nonnegative"] &= bool(np.min(dk) >= 0.0)
        if not mask[i]:
            flags["dK_zero_off_schedule"] &= not np.any(dk)
            continue
        flags["Ybar_above_obstacle"] &= bool(np.all(y >= g))
        gap = np.subtract(y, g)     # dK (Ybar - g), formed in one temporary
        flags["flat_off"] &= not np.any(np.multiply(dk, gap, out=gap))


def solve_backward(spec: ProblemSpec, grid: TimeGrid, schedule: ReflectionSchedule,
                   bundle: PathBundle, basis: BasisSpec,
                   radius: TruncationRadius) -> SchemeSolution:
    """Run the full truncated backward recursion on a simulated bundle, with
    each step's values recorded as it is yielded and one running sum of dK."""
    picard = np.zeros(grid.N, dtype=int)
    conds, rmses, max_z, mean_dk, frac, active = (np.zeros(grid.N) for _ in range(6))
    K = np.zeros(bundle.n_paths)
    flags = dict.fromkeys(SKOROKHOD_CONDITIONS, True)
    for step in backward_steps(spec, grid, schedule, bundle, basis, radius):
        i = step.i
        picard[i], conds[i], rmses[i] = step.picard, step.cond, step.rmse
        max_z[i] = np.max(np.abs(step.z))
        mean_dk[i] = np.mean(step.dk)
        frac[i] = np.count_nonzero(step.dk > 0) / bundle.n_paths
        active[i] = step.truncated / bundle.n_paths
        K += step.dk
        skorokhod_check(flags, schedule, step)
    flags["all"] = all(flags.values())
    y0_fit, y0_se = y0_estimates(step.y, step.y_next)   # the last step is i = 0
    return SchemeSolution(
        grid=grid, schedule=schedule, radius=radius, y0_fit=y0_fit, y0_se=y0_se,
        picard_counts=picard, fit_conds=conds, fit_rmses=rmses,
        max_abs_z=max_z, mean_dK=mean_dk, reflected_frac=frac,
        trunc_active_frac=active, skorokhod=flags,
        K_T={"mean": float(np.mean(K)), "std": float(np.std(K)), "max": float(np.max(K))})


def estimate_Mz_auto(spec: ProblemSpec, grid: TimeGrid, schedule: ReflectionSchedule,
                     bundle: PathBundle, basis: BasisSpec) -> TruncationRadius:
    """The declared truncation radius of an auto-sized solve, from the
    spec's constants and the grid's times alone:

        M_z = max_i |sigma(t_i)| * L * exp(2 L T).

    It reads no path: ``schedule``, ``bundle`` and ``basis`` keep the
    signature of the solve's other inputs.

    Why it bounds Z (Richou 2011; Imkeller and dos Reis 2010): Z_t =
    sigma(t) d_x u(t, X_t), with u the value function, so |Z| <= max|sigma|
    * sup |d_x u|.  Start X at x and x' at time t.  The noise is additive,
    so X - X' solves an ODE path by path, and Gronwall with b L-Lipschitz
    in x gives |X_s - X'_s| <= e^{L(s-t)} |x - x'| on every path.  For a
    stopping time tau on the reflection dates, the two values of the BSDE
    with terminal value g(X_tau) differ by E^Q[e^{int_t^tau a ds}
    (g(X_tau) - g(X'_tau))] when f does not depend on x: |a| <= L, since f
    is L-Lipschitz in y, and Q is the Girsanov measure of f's difference
    quotient in z, a BMO drift under quadratic growth.  With g L-Lipschitz
    the difference is at most e^{LT} * L e^{LT} |x - x'| under any Q, and
    the reflected value, a supremum over tau, keeps that constant:
    sup |d_x u| <= L e^{2LT}.  P1 and P3 have an f free of x; P2's
    0.2 sin(x) z adds an x-term that this argument does not bound, and
    there the rule (0.3 e^2 = 2.22 on the presets) is checked against the
    lattice's max |Z| instead, at most 0.3001 on P1-P3 for N = 8 ... 256.
    """
    sigma = max(spec.sigma_norm(t) for t in grid.times)
    try:
        growth = math.exp(2.0 * spec.L * spec.T)
    except OverflowError:
        raise ValueError(f"auto M_z overflows: exp(2 L T) at L*T = "
                         f"{spec.L * spec.T:.3g}; supply a numeric M_z") from None
    return TruncationRadius(sigma * spec.L * growth,
                            "auto: max|sigma| * L * exp(2 L T)")
