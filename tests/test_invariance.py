"""Structural invariances of the discrete scheme, checked on every engine.

* Cole–Hopf scaling: (alpha, g, M_g) -> (lam alpha, g / lam, M_g / lam)
  maps Y to Y / lam.  For a power of two lam every operation of the scheme
  scales exactly, so the path solver, the lattice and the Snell recursion
  keep it bit for bit while the truncation does not act.
* Comparison: a larger obstacle gives a larger value (Kobylanski 2000 for
  quadratic BSDEs; Kobylanski, Lepeltier, Quenez and Torres 2002 for
  reflected ones), checked as the sign of Delta Y0 on paths and on the
  lattice.
* Translation: Y(g + c) = Y(g) + c for a driver free of y, checked on P1's
  paths to rounding.  The path solver keeps it because the Z target is
  centred on its cross-path mean (``scheme.z_projection_step``); P2 and
  P3's -0.1 y term makes it no invariance there.
"""

import dataclasses

import numpy as np
import pytest

from qrbsde import lab
from qrbsde.forward import make_grid
from qrbsde.model import build_preset, clip_obstacle
from qrbsde.oracle import build_space_grid, exact_scheme_solve, snell_cole_hopf
from qrbsde.scheme import backward_steps, solve_backward

pytestmark = pytest.mark.filterwarnings(
    "ignore:quadrature points left the space grid")

P1 = "P1-pure-quadratic"
LAMBDAS = [2.0, 4.0, 0.5]


def _scaled(lam):
    """P1 under the Cole–Hopf map with factor lam."""
    spec = build_preset(P1, {"alpha": lam * 1.0, "M_g": 0.5 / lam})
    return dataclasses.replace(spec, obstacle=lambda x: clip_obstacle(x) / lam)


@pytest.mark.parametrize("M_z", [None, 10.0], ids=["auto", "user"])
@pytest.mark.parametrize("N", [16, 64])
def test_path_solver_keeps_cole_hopf_scaling_bit_for_bit(N, M_z):
    mc = lab.MCConfig(n_paths=20_000, seed=42, M_z=M_z)
    walks = []
    for spec in [build_preset(P1)] + [_scaled(lam) for lam in LAMBDAS]:
        grid, sched, bundle, radius = lab._mc_setup(spec, N, mc)
        walks.append(backward_steps(spec, grid, sched, bundle, mc.basis, radius))
    for base, *scaled in zip(*walks):
        assert base.truncated == 0
        for lam, step in zip(LAMBDAS, scaled):
            assert (lam * step.y).tobytes() == base.y.tobytes()
            assert (lam * step.z).tobytes() == base.z.tobytes()
            assert (lam * step.dk).tobytes() == base.dk.tobytes()


@pytest.mark.parametrize("lam", LAMBDAS)
def test_lattice_and_snell_keep_cole_hopf_scaling_bit_for_bit(lam):
    spec, spec_lam = build_preset(P1), _scaled(lam)
    grid, sched = make_grid(32, spec.T)
    space = build_space_grid(spec)
    for solve in (exact_scheme_solve, snell_cole_hopf):
        base = solve(spec, grid, sched, space)
        scaled = solve(spec_lam, grid, sched, space)
        assert (lam * scaled.y).tobytes() == base.y.tobytes()
        if base.z is not None:
            assert (lam * scaled.z).tobytes() == base.z.tobytes()


def _bumped(eps):
    """P1 with the obstacle raised by eps e^{-(x-1)^2}, and M_g with it."""
    spec = build_preset(P1, {"M_g": 0.5 + eps})
    return dataclasses.replace(spec, obstacle=lambda x: clip_obstacle(x)
                               + eps * np.exp(-(np.asarray(x) - 1.0) ** 2))


@pytest.fixture(scope="module")
def p1_values():
    """Y0 of P1 on paths (N = 64, 5 * 10^4 paths, seed 42) and on the lattice."""
    mc = lab.MCConfig(n_paths=50_000, seed=42)
    spec = build_preset(P1)
    grid, sched = make_grid(64, spec.T)
    space = build_space_grid(spec)

    def values(spec):
        g, s, bundle, radius = lab._mc_setup(spec, 64, mc)
        sol = solve_backward(spec, g, s, bundle, mc.basis, radius)
        return sol.y0_fit, exact_scheme_solve(spec, grid, sched, space).y0

    return values, values(spec)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_a_larger_obstacle_gives_a_larger_y0(eps, p1_values):
    values, (paths, lattice) = p1_values
    paths_eps, lattice_eps = values(_bumped(eps))
    assert paths_eps - paths > 0
    assert lattice_eps - lattice > 0


def _raised(c):
    """P1 with the obstacle raised by c, and M_g with it."""
    spec = build_preset(P1, {"M_g": 0.5 + c})
    return dataclasses.replace(spec, obstacle=lambda x: clip_obstacle(x) + c)


@pytest.mark.parametrize("N", [16, 64])
def test_path_solver_keeps_translation_of_the_obstacle(N):
    mc = lab.MCConfig(n_paths=50_000, seed=42, M_z=10.0)

    def y0(spec):
        grid, sched, bundle, radius = lab._mc_setup(spec, N, mc)
        return solve_backward(spec, grid, sched, bundle, mc.basis, radius).y0_fit

    base = y0(build_preset(P1))
    for c in (1.0, 4.0):
        assert abs(y0(_raised(c)) - c - base) < 1e-9
