"""Numerical laboratory for discretely reflected BSDEs with quadratic drivers.

Layout: ``model`` (problem presets, constants, truncation, assumption
checks), ``forward`` (grids, Brownian sampling, Euler and exact forward
simulation), ``regress`` (cross-sectional least squares), ``scheme`` (the
truncated backward solver on paths), ``oracle`` (noise-free quadrature and
Snell-envelope references), ``lab`` (rate/stability/bound experiments) and
``cli`` (config-driven runs with JSON/CSV artifacts).
"""

from .forward import (PathBundle, ReflectionSchedule, TimeGrid, euler_simulate,
                      exact_simulate, make_grid, sample_increments)
from .lab import (ConvergenceReport, DiagnosticsReport, MCConfig, SlopeFit,
                  StabilityReport, bmo_bound_value, run_convergence,
                  run_diagnostics, run_discrete_reflection_sweep,
                  run_stability, slope_fit)
from .model import (AffineInY, AssumptionReport, ProblemSpec, TruncationRadius,
                    build_preset, clip_obstacle, smooth_truncation,
                    soft_clip_obstacle, validate_assumptions, y_bound)
from .oracle import (GridSolution, SpaceGrid, brute_force_tiny,
                     build_space_grid, exact_scheme_solve, snell_cole_hopf)
from .regress import (BasisSpec, DesignEvaluator, RegressionFit, build_basis,
                      evaluate_fit, fit_least_squares)
from .scheme import (SchemeSolution, estimate_Mz_auto, implicit_y_step,
                     reflect_step, solve_backward, z_projection_step)

__version__ = "0.1.0"

__all__ = [
    "AffineInY", "AssumptionReport", "BasisSpec", "ConvergenceReport",
    "DesignEvaluator", "DiagnosticsReport", "GridSolution",
    "MCConfig", "PathBundle", "ProblemSpec", "ReflectionSchedule",
    "RegressionFit", "SchemeSolution", "SlopeFit", "SpaceGrid",
    "StabilityReport", "TimeGrid", "TruncationRadius", "bmo_bound_value",
    "brute_force_tiny", "build_basis", "build_preset",
    "build_space_grid", "clip_obstacle", "estimate_Mz_auto", "euler_simulate",
    "evaluate_fit", "exact_scheme_solve", "exact_simulate", "fit_least_squares",
    "implicit_y_step", "make_grid", "reflect_step", "run_convergence",
    "run_diagnostics", "run_discrete_reflection_sweep", "run_stability",
    "sample_increments", "slope_fit", "smooth_truncation", "snell_cole_hopf",
    "soft_clip_obstacle", "solve_backward",
    "validate_assumptions", "y_bound", "z_projection_step",
]
