"""Time grids, reflection schedules, Brownian sampling and forward simulation.

Brownian increments come from counter-based Philox streams keyed on
(seed, step), so any (path, step) draw is reproducible independently of the
order in which steps are generated and of any thread count, and the first P
paths of a bigger bundle draw the P-path bundle's increments.  One
draw-and-step pass, ``_forward_pass``, builds every bundle: a solve's
increments and Euler states together (``sample_and_simulate``), the
increments alone (``sample_increments``), or the Euler states on given
increments (``euler_simulate``), all from one draw schedule and one Euler
step, so each way gives the same bits.  ``_ahead`` is the package's one
helper primitive: it runs a generator one item ahead on one helper thread.
It serves three stages, each only where ``helper_pays``: two of every
three steps' draws here (the caller draws the third and steps Euler), the
next backward step's state half in ``scheme.backward_steps``, and the
convergence cell's whole walk.  A thread runs at most one
helper at a time: helpers never nest, and a thread that holds an open
``_ahead`` runs its other stages serially.  No helper outlives the call that
started it, and no result depends on one.  Euler states follow the
left-endpoint recursion; presets with affine, time-constant drift also admit
exact transition sampling coupled to the same increments, which serves as
the strong-error oracle.
"""

from __future__ import annotations

import contextvars
import math
import mmap
import queue
import threading
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .model import ProblemSpec

# sub-stream tags multiplexed into the Philox key alongside (seed, step)
_STREAM_EULER = 0
_STREAM_EXACT_RESIDUAL = 1
SEED_BOUND = 2 ** 64    # a seed has 64 key bits; a larger one aliases a tag
# a stage shares its work with a helper thread only from this many paths:
# each hand-off costs about 0.7 ms (queue.Queue and the interpreter lock), so
# the break-even of the backward walk's state halves is about 2 * 10^4 paths
# on a 2-core host; the forward pass hands over one pair of draws per three
# steps, and the convergence cell its whole walk, on the same threshold
AHEAD_MIN_PATHS = 30_000


@dataclass(frozen=True)
class TimeGrid:
    times: np.ndarray  # shape (N+1,), 0 = t_0 < ... < t_N = T

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("grid needs at least two times")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
        object.__setattr__(self, "times", t)

    @property
    def N(self) -> int:
        return self.times.size - 1

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def mesh(self) -> float:
        return float(np.max(self.dt))


@dataclass(frozen=True)
class ReflectionSchedule:
    indices: np.ndarray  # sorted indices into the grid, always containing 0 and N
    times: np.ndarray

    @property
    def kappa(self) -> int:
        return self.indices.size - 1

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.times)))

    @property
    def mask(self) -> np.ndarray:
        """Boolean (N+1,) flag per grid index, True at reflection times."""
        mask = np.zeros(self.indices[-1] + 1, dtype=bool)   # indices end at N
        mask[self.indices] = True
        return mask


def _integers(values, what: str) -> list:
    """values as ints, or a ValueError naming the first that is not an
    integer; an integral float such as 8.0 names the same int."""
    ints = []
    for v in values:
        try:
            n = int(v)
        except (TypeError, ValueError, OverflowError):
            n = None
        if n is None or n != v:
            raise ValueError(f"{what} must be integers, got {v!r}")
        ints.append(n)
    return ints


def make_grid(N: int, T: float,
              reflection: Union[str, tuple, Sequence[float]] = "all"):
    """Uniform grid t_i = iT/N plus a reflection schedule.

    ``reflection`` is "all" (reflect at every grid time, the kappa = N
    regime), ("every", k) to reflect at every k-th grid time, or an explicit
    list of times that must lie on the grid.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    times = np.linspace(0.0, T, N + 1)
    grid = TimeGrid(times=times)

    if isinstance(reflection, str):
        if reflection != "all":
            raise ValueError(f"unknown reflection policy {reflection!r}")
        idx = np.arange(N + 1)
    elif isinstance(reflection, tuple) and len(reflection) == 2 and reflection[0] == "every":
        k, = _integers(reflection[1:], "every-k strides")
        if k < 1 or k > N:
            raise ValueError(f"every-k stride {k} out of range 1..{N}")
        idx = np.unique(np.concatenate([np.arange(0, N + 1, k), [N]]))
    else:
        try:
            want = np.asarray(list(reflection), dtype=float)
        except OverflowError:   # an int beyond the float range
            raise ValueError("reflection times must be finite") from None
        if not np.all(np.isfinite(want)):
            raise ValueError("reflection times must be finite")
        idx = []
        for w in want:
            j = int(round(w / T * N))
            if not (0 <= j <= N) or abs(times[j] - w) > 1e-12 * max(1.0, T):
                raise ValueError(f"reflection time {w} is not a grid point")
            idx.append(j)
        idx = np.unique(np.concatenate([[0], idx, [N]])).astype(int)

    sched = ReflectionSchedule(indices=idx, times=times[idx])
    return grid, sched


@dataclass(frozen=True)
class PathBundle:
    grid: TimeGrid
    n_paths: int
    seed: int
    m: int
    # path arrays come from path_array(mapped=True): each time slice X[:, i] or
    # dW[:, i, :] is one contiguous column-major block
    dW: np.ndarray                      # (P, N, m)
    X_euler: Optional[np.ndarray] = None  # (P, N+1)
    X_exact: Optional[np.ndarray] = None  # (P, N+1)


def path_array(P: int, *tail: int, mapped: bool = False) -> np.ndarray:
    """Zeroed path-indexed array of shape (P, *tail), path axis fastest.

    Every engine walks the paths one time slice at a time, so each index of
    the first tail axis owns one contiguous block in which the path axis
    runs fastest: a (P, N+1) array is column-major, and a (P, N, m) slice
    [:, i, :] is a column-major (P, m) block.  ``mapped`` arrays (the
    bundle's) get their own anonymous mapping, unmapped on release: no heap
    hole is left whose reuse by the next bundle, or not, made peak memory vary.
    """
    if not mapped:
        return np.moveaxis(np.zeros(tail + (P,)), -1, 0)
    n = P * math.prod(tail)
    buf = mmap.mmap(-1, 8 * n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    # huge pages where the kernel has them, as numpy advises its large arrays
    buf.madvise(getattr(mmap, "MADV_HUGEPAGE", mmap.MADV_NORMAL))
    return np.moveaxis(np.frombuffer(buf, count=n).reshape(tail + (P,)), -1, 0)


def _step_rng(seed: int, i: int, stream: int) -> np.random.Generator:
    # Philox key packs (stream, seed, step); counter-based, so draws for a
    # given step never depend on which other steps were generated first.
    key = (int(stream) << 96) | (int(seed) << 32) | int(i)
    return np.random.Generator(np.random.Philox(key=key))


_END = object()
# per thread: .active is set on a helper thread, and "open" counts the
# _ahead walks that the thread holds open
_helper = threading.local()


def helper_pays(n_paths: int) -> bool:
    """Whether a stage over ``n_paths`` paths shares its work with a helper
    thread: from AHEAD_MIN_PATHS paths on, never on a helper thread, so
    helpers do not nest, and never on a thread that holds an open ``_ahead``,
    so a thread runs one helper at a time."""
    return (n_paths >= AHEAD_MIN_PATHS and not getattr(_helper, "active", False)
            and not getattr(_helper, "open", 0))


def _ahead(items):
    """Iterate the generator ``items`` on one daemon helper thread, one item
    ahead of the caller: while the caller holds item k, the helper computes
    item k+1 and then waits, so at most two items are alive at once.

    The helper runs in a copy of the caller's context, so ``np.errstate``
    holds there too.  An exception from ``items`` is raised in the caller as
    it was raised.  On any exit, early ones included, the helper is told to
    stop, closes ``items`` and is joined, so no thread outlives the walk.
    While the walk is open, ``helper_pays`` is False on the caller."""
    box = queue.Queue(maxsize=1)
    wanted = threading.Semaphore(0)
    stop = threading.Event()

    def walk():
        _helper.active = True
        try:
            while True:
                wanted.acquire()
                if stop.is_set():
                    return
                item = next(items, _END)
                box.put((item, None))
                if item is _END:
                    return
        except BaseException as exc:   # handed to the caller, which raises it
            box.put((_END, exc))
        finally:
            items.close()

    worker = threading.Thread(target=contextvars.copy_context().run,
                              args=(walk,), daemon=True)
    worker.start()
    # this thread's namespace, even where another thread closes the walk
    holds = _helper.__dict__
    holds["open"] = holds.get("open", 0) + 1
    try:
        wanted.release()
        while True:
            item, exc = box.get()
            if exc is not None:
                raise exc
            if item is _END:
                return
            wanted.release()
            yield item
    finally:
        stop.set()
        wanted.release()
        worker.join()
        holds["open"] -= 1


def sample_increments(grid: TimeGrid, P: int, seed: int, m: int = 1) -> PathBundle:
    """Draw Brownian increments dW[p, i, :] ~ N(0, dt_i I_m), reproducibly,
    on ``_forward_pass``'s draw schedule; each step has its own stream, so
    the bundle is bit for bit the one-thread draw."""
    return _forward_pass(grid, P, seed, m)


def euler_simulate(spec: ProblemSpec, bundle: PathBundle) -> PathBundle:
    """Left-endpoint Euler recursion for X^pi on the bundle's grid and
    increments, by ``_forward_pass``'s Euler step."""
    X = _forward_pass(bundle.grid, bundle.n_paths, bundle.seed, bundle.m, spec,
                      bundle.dW).X_euler
    return replace(bundle, X_euler=X)


def sample_and_simulate(spec: ProblemSpec, grid: TimeGrid, P: int,
                        seed: int) -> PathBundle:
    """A solve's bundle in one pass: its increments and their Euler states,
    bit for bit ``euler_simulate(spec, sample_increments(grid, P, seed,
    spec.m))``."""
    return _forward_pass(grid, P, seed, spec.m, spec)


def _forward_pass(grid: TimeGrid, P: int, seed: int, m: int,
                  spec: Optional[ProblemSpec] = None,
                  dW: Optional[np.ndarray] = None) -> PathBundle:
    """The one draw-and-step pass: draw the increments unless ``dW`` holds
    them, and where ``spec`` is given advance its Euler states in step
    order, each new column written in place.

    The caller draws every third step, i = 0, 3, 6, ...; the two steps
    after each of those are drawn together, as one item of a generator that
    ``_ahead``'s helper runs one item ahead where ``helper_pays(P)``, while
    the caller steps Euler through the steps drawn already.  Each step has
    its own stream, so no draw depends on the thread that made it."""
    N, times, dt = grid.N, grid.times, grid.dt
    draw = pairs = None
    if dW is None:
        if P < 1:
            raise ValueError("need at least one path")
        if not 0 <= seed < SEED_BOUND:
            raise ValueError("seed must be in 0..2**64 - 1")
        dW = path_array(P, N, m, mapped=True)

        def draw(*steps):
            for i in steps:
                rng = _step_rng(seed, i, _STREAM_EULER)
                np.multiply(rng.standard_normal((P, m)), math.sqrt(dt[i]),
                            out=dW[:, i, :])

        pairs = (draw(*range(i, min(i + 2, N))) for i in range(1, N, 3))
        pairs = _ahead(pairs) if N > 1 and helper_pays(P) else pairs
    X = None
    if spec is not None:
        X = path_array(P, N + 1, mapped=True)
        X[:, 0] = spec.x0
    try:
        for i in range(N):
            if draw is not None:
                if i % 3 == 0:
                    draw(i)
                elif i % 3 == 1:
                    next(pairs)     # steps i and i + 1
            if X is not None:
                _euler_step(spec, times[i], dt[i], X, dW[:, i, :], i)
    finally:
        if pairs is not None:
            pairs.close()   # joins the helper on an early exit
    return PathBundle(grid=grid, n_paths=P, seed=seed, m=m, dW=dW, X_euler=X)


def _euler_step(spec: ProblemSpec, t: float, dt: float, X: np.ndarray,
                dW_i: np.ndarray, i: int) -> None:
    """X_{i+1} = X_i + b(t_i, X_i) dt_i + sigma(t_i) . dW_i, written into
    X[:, i + 1] with the drift's array and the noise as its temporaries.
    A non-finite sum of the new column sends it to a full ``isfinite``
    scan, which raises FloatingPointError naming its first non-finite path
    (a finite column whose sum overflows raises nothing)."""
    x, out = X[:, i], X[:, i + 1]
    np.multiply(np.asarray(spec.drift(t, x)), dt, out=out)
    out += x       # X_i + b dt: a sum is the same whichever operand is first
    out += _noise(dW_i, np.asarray(spec.vol(t), dtype=float))
    if not math.isfinite(np.sum(out)):
        bad = ~np.isfinite(out)
        if bad.any():
            raise FloatingPointError(f"non-finite Euler state at path "
                                     f"{int(np.argmax(bad))}, step {i + 1}")


def _noise(dW_i: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """sigma . dW_i per path, for a step's (P, m) increments.

    At m = 1 a plain product, with np.inner's bits but for the sign of a
    zero, which X_i + b dt absorbs unless it is -0.0 itself: np.inner of a
    (P, 1) block leaves OpenBLAS's worker thread spinning for about 0.13 s,
    on the core a helper needs, and dW_i @ sig takes several times longer.
    From m = 2 on np.inner, which leaves no worker spinning; its value on
    the last P mod 4 rows of a block can differ in the last bit from the
    same rows inside a longer block."""
    if dW_i.shape[1] == 1:
        return dW_i[:, 0] * sig[0]
    return np.inner(dW_i, sig)


def _affine_drift_params(spec: ProblemSpec, grid: TimeGrid):
    """Probe b for the time-constant affine form b(t, x) = c0 + c1 x."""
    probes = np.array([grid.times[0], grid.T / 3.0, grid.T])
    c0s, c1s = [], []
    for t in probes:
        b0 = float(np.asarray(spec.drift(t, np.array([0.0])))[0])
        b1 = float(np.asarray(spec.drift(t, np.array([1.0])))[0])
        b2 = float(np.asarray(spec.drift(t, np.array([2.0])))[0])
        if abs((b2 - b1) - (b1 - b0)) > 1e-10:
            raise ValueError("exact simulation requires drift affine in x")
        c0s.append(b0)
        c1s.append(b1 - b0)
    if np.ptp(c0s) > 1e-10 or np.ptp(c1s) > 1e-10:
        raise ValueError("exact simulation requires time-constant drift coefficients")
    return c0s[0], c1s[0]


def exact_simulate(spec: ProblemSpec, bundle: PathBundle) -> PathBundle:
    """Exact grid-time samples of X for affine drift, coupled to bundle.dW.

    For b(t, x) = c0 + c1 x and constant sigma the one-step transition is
    Gaussian; its component correlated with the step's increment is taken
    from dW and the residual orthogonal part is drawn from a companion
    counter-based stream, so exact and Euler legs share Brownian paths.
    """
    grid = bundle.grid
    c0, c1 = _affine_drift_params(spec, grid)
    sig0 = np.asarray(spec.vol(0.0), dtype=float)
    for t in (grid.T / 3.0, grid.T):
        if np.max(np.abs(np.asarray(spec.vol(t), dtype=float) - sig0)) > 1e-12:
            raise ValueError("exact simulation requires time-constant sigma")
    s2 = float(sig0 @ sig0)

    P, N = bundle.n_paths, grid.N
    X = path_array(P, N + 1, mapped=True)
    X[:, 0] = spec.x0
    for i in range(N):
        dti = grid.dt[i]
        sdW = _noise(bundle.dW[:, i, :], sig0)
        if abs(c1) < 1e-14:
            X[:, i + 1] = X[:, i] + c0 * dti + sdW
            continue
        e = math.exp(c1 * dti)
        mean_det = e * X[:, i] + (c0 / c1) * (e - 1.0)
        if s2 == 0.0:
            X[:, i + 1] = mean_det
            continue
        var_I = s2 * (e * e - 1.0) / (2.0 * c1)
        cov = s2 * (e - 1.0) / c1       # Cov(I, sigma.dW)
        beta = cov / (s2 * dti)         # regression of I on sigma.dW
        var_res = max(var_I - beta * cov, 0.0)
        rng = _step_rng(bundle.seed, i, _STREAM_EXACT_RESIDUAL)
        xi = rng.standard_normal(P)
        X[:, i + 1] = mean_det + beta * sdW + math.sqrt(var_res) * xi
    return replace(bundle, X_exact=X)

