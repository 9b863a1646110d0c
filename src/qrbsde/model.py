"""Problem definitions: coefficient functions, constants, assumption checks, truncation.

A problem is the pair of a scalar forward diffusion with deterministic
volatility,

    dX_t = b(t, X_t) dt + sigma(t) . dW_t,    X_0 = x0,

and a reflected backward equation with driver f(t, x, y, z) of at most
quadratic growth in z and obstacle/terminal function g(x).  All coefficient
callables are vectorised over numpy arrays: ``drift(t, x)`` and
``obstacle(x)`` map arrays elementwise, ``vol(t)`` returns an ``(m,)``
vector, and ``generator(t, x, y, z)`` broadcasts over leading axes with
``z`` carrying a trailing axis of size ``m``.

A driver affine in y, f = a y + f0(t, x, z), is declared by building the
generator as ``AffineInY(a, f0)``; the implicit step of the scheme then
has the closed form y = (e + dt f0) / (1 - a dt) and evaluates f0 once.
The declaration lives on the callable, so replacing the generator of a
spec drops it, and any other callable is solved by Picard iteration.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

PRESET_NAMES = ("P1-pure-quadratic", "P2-mixed-quadratic", "P3-lipschitz")

# fields of a preset that build_preset accepts as overrides, with their types
OVERRIDES = {"T": (int, float), "x0": (int, float), "L": (int, float),
             "M_f": (int, float), "M_g": (int, float), "alpha": (int, float),
             "m": int, "smooth_g": bool}


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    drift: Callable
    vol: Callable
    generator: Callable
    obstacle: Callable
    L: float
    M_f: float
    M_g: float
    alpha: float
    T: float
    x0: float
    m: int = 1
    pure_quadratic: bool = False

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.M_g < 0 or self.M_f < 0:
            raise ValueError("M_g and M_f must be nonnegative")
        if self.m < 1:
            raise ValueError("Brownian dimension m must be >= 1")

    def sigma_norm(self, t):
        """Euclidean norm |sigma(t)|; the effective scalar volatility of X."""
        return float(np.linalg.norm(np.asarray(self.vol(t), dtype=float)))


@dataclass(frozen=True)
class AffineInY:
    """A driver declared affine in y: f(t, x, y, z) = a y + f0(t, x, z)."""
    a: float
    f0: Callable

    def __call__(self, t, x, y, z):
        return self.a * np.asarray(y, dtype=float) + self.f0(t, x, z)


@dataclass(frozen=True)
class TruncationRadius:
    M_z: float
    # "user-supplied", or the auto rule that scheme.estimate_Mz_auto names
    provenance: str = "user-supplied"

    def __post_init__(self):
        if not (_finite_real(self.M_z) and self.M_z > 0):
            raise ValueError(
                f"M_z must be a finite positive number, got {_show(self.M_z)}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_ratio: float
    witness: tuple


@dataclass(frozen=True)
class AssumptionReport:
    checks: dict  # check name -> CheckResult
    cloud_description: str

    _GROUPS = {
        "HX": ("HX.coef_bound", "HX.b_lipschitz"),
        "HF": ("HF.growth", "HF.x_lipschitz", "HF.y_lipschitz", "HF.z_lipschitz",
               "HF.g_bound", "HF.g_lipschitz"),
        "HT": ("HT.time_holder",),
        "H1": ("H1.dg_bound", "H1.dg_lipschitz"),
        "H2": ("H2.d2g_bound", "H2.d2g_lipschitz", "H2.sigma_time_lipschitz"),
    }

    def passes(self, assumption: str) -> bool:
        keys = self._GROUPS[assumption]
        return all(self.checks[k].passed for k in keys if k in self.checks)


# ---------------------------------------------------------------------------
# obstacle building blocks

def clip_obstacle(x, lo=0.0, hi=0.5):
    """g(x) = clip(1 - x, lo, hi): bounded, 1-Lipschitz, kinked at the clips."""
    return np.clip(1.0 - np.asarray(x, dtype=float), lo, hi)


def soft_clip_obstacle(x, lo=0.0, hi=0.5, sharpness=20.0):
    """Smooth (log-sum-exp) version of clip_obstacle; C-infinity and 1-Lipschitz."""
    v = 1.0 - np.asarray(x, dtype=float)
    k = sharpness
    # (1/k)[softplus(k(v-lo)) - softplus(k(v-hi))] + lo  ->  clip(v, lo, hi) as k -> inf
    return lo + (np.logaddexp(0.0, k * (v - lo)) - np.logaddexp(0.0, k * (v - hi))) / k


# ---------------------------------------------------------------------------
# preset catalog

def _show(val) -> str:
    """repr of a rejected value, or its type where repr raises (an int of
    more digits than sys.get_int_max_str_digits(), alone or in a list)."""
    try:
        return repr(val)
    except ValueError:
        return f"<{type(val).__name__} too long to print>"


def _finite_real(val) -> bool:
    """A real number finite as a float; numpy scalars count, bools do not."""
    return (isinstance(val, numbers.Real) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def build_preset(name: str, overrides: Optional[dict] = None) -> ProblemSpec:
    """Instantiate one of the shipped problem presets, optionally overriding fields.

    P1-pure-quadratic : driftless, f = (alpha/2)|z|^2, capped put-like obstacle.
    P2-mixed-quadratic: mean-reverting drift, f mixing y, sin(x)z and (1/2)z^2.
    P3-lipschitz      : as P2 but with globally Lipschitz f = -0.1y + 0.2z.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    overrides = dict(overrides or {})
    m = overrides.get("m", 1)
    if not (_finite_real(m) and m == int(m) >= 1):
        raise ValueError(f"Brownian dimension m must be an integer >= 1, got {_show(m)}")
    m = int(m)
    for key, val in overrides.items():
        if key not in OVERRIDES:
            raise ValueError(f"cannot override unknown field {key!r}")
        flag = OVERRIDES[key] is bool
        if not (isinstance(val, (bool, np.bool_)) if flag else _finite_real(val)):
            kind = "a bool" if flag else "a finite real number"
            raise ValueError(f"override {key!r} must be {kind}, got {_show(val)}")

    smooth_g = bool(overrides.pop("smooth_g", False))
    g = soft_clip_obstacle if smooth_g else clip_obstacle

    base = dict(T=1.0, x0=1.0, L=1.0, M_g=0.5)
    base.update(overrides)

    sigma_vec = np.full(m, 0.3 / math.sqrt(m))

    def vol(t, _s=sigma_vec):
        return _s

    if name == "P1-pure-quadratic":
        alpha = float(base.get("alpha", 1.0))

        def drift(t, x):
            return np.zeros_like(np.asarray(x, dtype=float))

        def f0(t, x, z, _a=alpha):
            z = np.asarray(z, dtype=float)
            return 0.5 * _a * np.sum(z * z, axis=-1)

        return ProblemSpec(
            name=name, drift=drift, vol=vol, generator=AffineInY(0.0, f0), obstacle=g,
            L=float(base["L"]), M_f=float(base.get("M_f", 0.0)),
            M_g=float(base["M_g"]), alpha=alpha, T=float(base["T"]),
            x0=float(base["x0"]), m=m, pure_quadratic=True,
        )

    def drift(t, x):
        return 0.5 * (1.0 - np.asarray(x, dtype=float))

    if name == "P2-mixed-quadratic":
        # alpha budget: the (1/2)z^2 core plus slack absorbing 0.2 sin(x) z via
        # 0.2|z| <= 0.1/beta + 0.1*beta*z^2; with beta = 1 the growth bound
        # |f| <= 0.2(1 + |y|) + (1.2/2)|z|^2 holds.
        alpha = float(base.get("alpha", 1.2))

        def f0(t, x, z):
            x = np.asarray(x, dtype=float)
            z = np.asarray(z, dtype=float)
            return 0.2 * np.sin(x) * z[..., 0] + 0.5 * np.sum(z * z, axis=-1)

        M_f = float(base.get("M_f", 0.2))
    else:  # P3-lipschitz
        alpha = float(base.get("alpha", 1.0))

        def f0(t, x, z):
            return 0.2 * np.asarray(z, dtype=float)[..., 0]

        M_f = float(base.get("M_f", 0.2))

    return ProblemSpec(
        name=name, drift=drift, vol=vol, generator=AffineInY(-0.1, f0), obstacle=g,
        L=float(base["L"]), M_f=M_f, M_g=float(base["M_g"]), alpha=alpha,
        T=float(base["T"]), x0=float(base["x0"]), m=m,
    )


# ---------------------------------------------------------------------------
# uniform Y bound and truncation

def y_bound(spec: ProblemSpec) -> float:
    """Conservative Gronwall bound M = e^{M_f T}(M_g + M_f T) for sup |Y|."""
    return math.exp(spec.M_f * spec.T) * (spec.M_g + spec.M_f * spec.T)


# r can round a few ulps above |z|; within them h_n(z) - z = O((r - n)^2)
# rounds to zero, so h_n is the identity exactly up to n (1 + 4 eps)
_H_IDENTITY = 1.0 + 4.0 * sys.float_info.epsilon


def truncation_active(z, n: float) -> np.ndarray:
    """Where h_n is not the identity: the rows of z, components on its last
    axis, of norm above n, as ``smooth_truncation`` tells them."""
    z = np.asarray(z, dtype=float)
    return np.sqrt(np.sum(z * z, axis=-1)) > n * _H_IDENTITY


def smooth_truncation(z, n: float):
    """Radial truncation h_n: identity on |z| <= n, norm capped below n+1.

    Outside the ball the norm is remapped by rho(r) = n + 1 - exp(-(r - n)),
    which keeps h_n C^1, 1-Lipschitz, and |h_n(z)| <= n + 1.
    """
    if n <= 0:
        raise ValueError("truncation level n must be positive")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    zv = np.atleast_1d(z)
    r = np.sqrt(np.sum(zv * zv, axis=-1, keepdims=True))
    outside = r > n * _H_IDENTITY
    if not outside.any():
        out = zv.copy(order="K")
    else:
        rho = n + 1.0 - np.exp(np.minimum(n - r, 0.0))  # only used outside
        scale = np.divide(rho, r, out=np.ones_like(r), where=outside)
        out = zv * scale
    return float(out[0]) if scalar else out.reshape(z.shape)


# ---------------------------------------------------------------------------
# sampled assumption validation

# the fixed cloud of validate_assumptions: its size, its half-widths in x
# (around x0), y and z, and the step of its finite differences of g
_CLOUD_POINTS = 2048
_CLOUD_X = 3.0
_CLOUD_Y = 2.0
_CLOUD_Z = 3.0
_FD_STEP = 1e-5

# Joe-Kuo direction numbers (new-joe-kuo-6.21201) of Sobol dimensions 2..7:
# each primitive polynomial's degree s, its inner coefficients a as bits, and
# its initial m_1..m_s; dimension 1 has every m_k = 1
_SOBOL_POLYS = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)),
                (3, 2, (1, 1, 1)), (4, 1, (1, 1, 3, 3)), (4, 4, (1, 3, 5, 13)))
_SOBOL_BITS = 30

_PASS_TOL = 1.0 + 1e-6
_TINY = 1e-300


def _sobol(n: int, d: int) -> np.ndarray:
    """The first n points of the unscrambled Sobol sequence in d <= 7
    dimensions, Gray-code ordered on 30 bits: scipy's
    ``qmc.Sobol(d, scramble=False).random(n)`` bit for bit."""
    bits = max(n - 1, 1).bit_length()
    v = np.ones((bits, d), dtype=np.int64)      # m_k, k = 1..bits
    for j, (s, a, m) in enumerate(_SOBOL_POLYS[:d - 1], start=1):
        col = list(m)
        for k in range(s, bits):
            new = col[k - s] ^ (col[k - s] << s)
            for r in range(1, s):
                if a >> (s - 1 - r) & 1:
                    new ^= col[k - r] << r
            col.append(new)
        v[:, j] = col[:bits]
    v <<= (_SOBOL_BITS - 1 - np.arange(bits))[:, None]
    gray = np.arange(n) ^ (np.arange(n) >> 1)
    q = np.zeros((n, d), dtype=np.int64)
    for b in range(bits):
        q ^= (gray >> b & 1)[:, None] * v[b]
    return q * 2.0 ** -_SOBOL_BITS


def _worst(name, ratios, witnesses):
    ratios = np.asarray(ratios, dtype=float)
    k = int(np.argmax(ratios))
    return CheckResult(name=name, passed=bool(ratios[k] <= _PASS_TOL),
                       worst_ratio=float(ratios[k]), witness=tuple(witnesses[k]))


def validate_assumptions(spec: ProblemSpec) -> AssumptionReport:
    """Check (HX), (HF), (HT), (H1), (H2) numerically on a quasi-random cloud.

    The cloud is fixed: 2048 unscrambled Sobol points with t in [0, T],
    x in x0 +/- 3, |y| <= 2 and each z component in [-3, 3], each paired
    with a partner at one of six separations; derivatives of g are central
    differences of step 1e-5.

    Each inequality is evaluated as the ratio observed-LHS / permitted-RHS; a
    check passes iff the worst ratio over the cloud is <= 1 + 1e-6.  Failures
    are report content, never exceptions.
    """
    n = _CLOUD_POINTS
    u = _sobol(n, 7)
    # skip the all-zeros first Sobol point to avoid degenerate pairs
    u = np.clip(u, 1e-9, 1.0 - 1e-9)

    t = u[:, 0] * spec.T
    s = u[:, 1] * t  # s <= t for the time-Hoelder pairs
    x = spec.x0 + (2.0 * u[:, 2] - 1.0) * _CLOUD_X
    y = (2.0 * u[:, 3] - 1.0) * _CLOUD_Y
    z = (2.0 * u[:, 4] - 1.0)[:, None] * _CLOUD_Z * np.ones((1, spec.m))
    if spec.m > 1:
        z[:, 1:] *= (2.0 * u[:, 5:6] - 1.0)
    # partner points at a spread of separations, so kinks at any scale show up
    scales = np.logspace(-3, -0.5, 6)[np.arange(n) % 6]
    xp = x + scales * _CLOUD_X
    yp = y + scales * _CLOUD_Y
    zp = z + scales[:, None] * _CLOUD_Z

    checks = {}

    def f(tt, xx, yy, zz):
        return np.asarray(spec.generator(tt, xx, yy, zz), dtype=float)

    # --- (HX)
    signorm = np.array([spec.sigma_norm(ti) for ti in t])
    b0 = np.array([abs(float(np.asarray(spec.drift(ti, np.zeros(1)))[0])) for ti in t])
    checks["HX.coef_bound"] = _worst(
        "HX.coef_bound", (b0 + signorm) / spec.L, list(zip(t)))
    db = np.abs(np.array([float(np.asarray(spec.drift(ti, np.array([xi]))
                                           - spec.drift(ti, np.array([xpi])))[0])
                          for ti, xi, xpi in zip(t, x, xp)]))
    checks["HX.b_lipschitz"] = _worst(
        "HX.b_lipschitz", db / (spec.L * np.abs(xp - x) + _TINY), list(zip(t, x, xp)))

    # --- (HF)
    znorm = np.linalg.norm(z, axis=-1)
    zpnorm = np.linalg.norm(zp, axis=-1)
    fv = np.array([f(ti, xi, yi, zi) for ti, xi, yi, zi in zip(t, x, y, z)])
    growth_rhs = spec.M_f * (1.0 + np.abs(y)) + 0.5 * spec.alpha * znorm ** 2
    checks["HF.growth"] = _worst(
        "HF.growth", np.abs(fv) / np.maximum(growth_rhs, _TINY), list(zip(t, x, y, znorm)))

    fx = np.array([f(ti, xpi, yi, zi) for ti, xpi, yi, zi in zip(t, xp, y, z)])
    checks["HF.x_lipschitz"] = _worst(
        "HF.x_lipschitz",
        np.abs(fv - fx) / (spec.L * (1.0 + znorm) * np.abs(xp - x) + _TINY),
        list(zip(t, x, xp)))

    fy = np.array([f(ti, xi, ypi, zi) for ti, xi, ypi, zi in zip(t, x, yp, z)])
    checks["HF.y_lipschitz"] = _worst(
        "HF.y_lipschitz", np.abs(fv - fy) / (spec.L * np.abs(yp - y) + _TINY),
        list(zip(t, y, yp)))

    fz = np.array([f(ti, xi, yi, zpi) for ti, xi, yi, zpi in zip(t, x, y, zp)])
    dz = np.linalg.norm(zp - z, axis=-1)
    checks["HF.z_lipschitz"] = _worst(
        "HF.z_lipschitz",
        np.abs(fv - fz) / (spec.L * (1.0 + znorm + zpnorm) * dz + _TINY),
        list(zip(t, znorm, zpnorm)))

    g = lambda v: np.asarray(spec.obstacle(np.asarray(v, dtype=float)), dtype=float)
    gv, gp = g(x), g(xp)
    checks["HF.g_bound"] = _worst(
        "HF.g_bound", np.abs(gv) / max(spec.M_g, _TINY), list(zip(x)))
    checks["HF.g_lipschitz"] = _worst(
        "HF.g_lipschitz", np.abs(gv - gp) / (spec.L * np.abs(xp - x) + _TINY),
        list(zip(x, xp)))

    # --- (HT)
    bs = np.array([float(np.asarray(spec.drift(si, np.array([xi])))[0]) for si, xi in zip(s, x)])
    bt = np.array([float(np.asarray(spec.drift(ti, np.array([xi])))[0]) for ti, xi in zip(t, x)])
    dsig = np.array([np.linalg.norm(np.asarray(spec.vol(ti), dtype=float)
                                    - np.asarray(spec.vol(si), dtype=float))
                     for ti, si in zip(t, s)])
    fs = np.array([f(si, xi, yi, zi) for si, xi, yi, zi in zip(s, x, y, z)])
    ht_lhs = np.abs(bt - bs) + dsig + np.abs(fv - fs)
    checks["HT.time_holder"] = _worst(
        "HT.time_holder", ht_lhs / (spec.L * np.sqrt(np.abs(t - s)) + _TINY),
        list(zip(s, t, x)))

    # --- (H1) / (H2): finite-difference derivatives of g
    h = _FD_STEP
    dg = (g(x + h) - g(x - h)) / (2.0 * h)
    dgp = (g(xp + h) - g(xp - h)) / (2.0 * h)
    checks["H1.dg_bound"] = _worst(
        "H1.dg_bound", np.abs(dg) / spec.L, list(zip(x)))
    checks["H1.dg_lipschitz"] = _worst(
        "H1.dg_lipschitz", np.abs(dg - dgp) / (spec.L * np.abs(xp - x) + _TINY),
        list(zip(x, xp)))

    d2g = (g(x + h) - 2.0 * gv + g(x - h)) / h ** 2
    d2gp = (g(xp + h) - 2.0 * gp + g(xp - h)) / h ** 2
    checks["H2.d2g_bound"] = _worst(
        "H2.d2g_bound", np.abs(d2g) / spec.L, list(zip(x)))
    checks["H2.d2g_lipschitz"] = _worst(
        "H2.d2g_lipschitz", np.abs(d2g - d2gp) / (spec.L * np.abs(xp - x) + _TINY),
        list(zip(x, xp)))
    checks["H2.sigma_time_lipschitz"] = _worst(
        "H2.sigma_time_lipschitz", dsig / (spec.L * np.abs(t - s) + _TINY),
        list(zip(s, t)))

    desc = (f"{n} Sobol points; t in [0,{spec.T}], x in "
            f"[{spec.x0 - _CLOUD_X},{spec.x0 + _CLOUD_X}], "
            f"|y| <= {_CLOUD_Y}, |z| <= {_CLOUD_Z}")
    return AssumptionReport(checks=checks, cloud_description=desc)
