"""Command-line front end: strict JSON config, experiment dispatch, artifacts.

One run owns one output directory and writes summary.json (numeric results,
bit-reproducible across reruns), one CSV table per result family, and
manifest.json (config hash, timings, file list).  Exit codes: 0 success,
2 config error, 3 numeric failure, 4 a pass flag came back false: one of
a lab report's ``flags``, or of the Skorokhod or cross-agreement flags.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lab
from .forward import SEED_BOUND, make_grid
from .model import (OVERRIDES, ProblemSpec, _show, build_preset,
                    validate_assumptions)
from .oracle import build_space_grid, exact_scheme_solve, snell_cole_hopf
from .regress import BasisSpec

SCHEMA_VERSION = 1
ARTIFACT_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_FLAGS = 4

class ConfigError(ValueError):
    """Configuration rejected; message carries a JSON-pointer path."""


# ---------------------------------------------------------------------------
# config schema: nested dict of allowed keys; each leaf is (type,) or
# (type, default).  A type is a class, a tuple of classes, or [t] for a list
# whose every element is a t.  A callable default is computed from the keys
# normalized before it in the same section.

_SCHEMA = {
    "problem": {"preset": (str, "P1-pure-quadratic"),
                "overrides": {key: (want,) for key, want in OVERRIDES.items()}},
    "grid": {"N": (int, 64), "reflection": ((str, dict, list), "all")},
    "mc": {"paths": (int, 50_000), "seed": (int, 42),
           "basis": {"kind": (str, "polynomial"), "degree": (int, 6),
                     "cells": (int,), "ridge": ((int, float), 1e-8),
                     "domain": ([(int, float)],)}},
    "truncation": {"M_z": ((str, int, float), "auto")},
    "output": {"directory": (str,), "formats": ([str], ["json", "csv"])},
}

# each experiment kind's own keys; "kind" itself is added by parse_config
_EXPERIMENTS = {
    "solve": {},
    "converge": {"Ns": ([int], [8, 16, 32, 64]), "oracle": (str, "auto")},
    "reflect-sweep": {"N": (int, 256), "kappas": ([int], [4, 8, 16, 32, 64]),
                      "engine": (str, "auto")},
    "stability": {
        "perturbation": (str, "drift-shift"),
        "levels": ([(int, float)], lambda exp: (
            [0.4, 0.2, 0.1, 0.05] if exp["perturbation"] == "drift-shift"
            else [8, 16, 32, 64])),
    },
    "diagnose": {},
    "oracle": {},
    "validate": {},
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _is(val, want) -> bool:
    """val has type want; a bool is only a bool, and a number must be finite
    as a float (so an int beyond the float range is not)."""
    if isinstance(want, list):
        return isinstance(val, list) and all(_is(v, want[0]) for v in val)
    if isinstance(val, bool):
        return want is bool
    if isinstance(val, (int, float)) and not abs(val) <= sys.float_info.max:
        return False
    return isinstance(val, want)


def _normalize(obj, schema, pointer):
    """Check obj against schema and fill its defaults; returns a new dict."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{pointer or '/'}: expected an object")
    for key in obj:
        if key not in schema:
            raise ConfigError(f"{pointer}/{key}: unknown key {key!r}")
    out = {}
    for key, want in schema.items():
        if isinstance(want, dict):
            out[key] = _normalize(obj.get(key, {}), want, f"{pointer}/{key}")
        elif key in obj:
            if not _is(obj[key], want[0]):
                raise ConfigError(f"{pointer}/{key}: bad value {_show(obj[key])}")
            out[key] = obj[key]
        elif len(want) > 1:
            default = want[1](out) if callable(want[1]) else want[1]
            out[key] = json.loads(json.dumps(default))  # deep copy
    return out


@dataclass(frozen=True)
class RunConfig:
    spec: ProblemSpec
    N: int
    reflection: object
    mc: lab.MCConfig              # M_z None means the declared auto rule
    experiment: dict              # kind + per-experiment parameters
    out_dir: Optional[str]
    formats: tuple
    normalized: dict              # fully-defaulted config dict (hashable form)

    @property
    def kind(self) -> str:
        return self.experiment["kind"]


def config_hash(normalized: dict) -> str:
    """Hash of the canonical JSON form; stable under key reordering."""
    blob = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def parse_config(source, command: Optional[str] = None,
                 seed: Optional[int] = None) -> RunConfig:
    """Parse a config from a dict, a JSON string, or a file path.

    Strict: unknown keys, another kind's experiment keys and ill-typed
    values are fatal and reported with their JSON-pointer paths.  Defaults
    are the ones in _SCHEMA and _EXPERIMENTS.  ``command`` is the CLI
    subcommand: it is the default kind, and a config kind that differs from
    it is an error.  ``seed`` (the --seed flag) replaces /mc/seed.
    """
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        if os.path.exists(text):
            with open(text) as fh:
                text = fh.read()
        try:
            raw = json.loads(text)
        except ValueError as exc:  # bad syntax, or an int of over 4300 digits
            raise ConfigError(f"config is not readable JSON: {exc}") from exc

    exp = raw.get("experiment") if isinstance(raw, dict) else None
    kind = exp.get("kind") if isinstance(exp, dict) else None
    if kind is None:
        kind = command or "solve"
    if kind not in EXPERIMENTS:
        raise ConfigError(f"/experiment/kind: choose from {', '.join(EXPERIMENTS)}")
    if command is not None and kind != command:
        raise ConfigError(
            f"/experiment/kind: {kind!r} conflicts with the subcommand {command!r}")
    cfg = _normalize(raw, dict(_SCHEMA, experiment={"kind": (str, kind),
                                                    **_EXPERIMENTS[kind]}), "")
    if seed is not None:
        cfg["mc"]["seed"] = seed

    try:
        spec = build_preset(cfg["problem"]["preset"], cfg["problem"]["overrides"])
    except ValueError as exc:
        raise ConfigError(f"/problem: {exc}") from exc

    N = cfg["grid"]["N"]
    if N < 1:
        raise ConfigError("/grid/N: must be >= 1")
    if spec.L * spec.T / N >= 1.0:
        raise ConfigError(
            f"/grid/N: L*T/N = {spec.L * spec.T / N:.3g} >= 1; the implicit "
            "driver step is a contraction only for L*dt < 1")

    reflection = cfg["grid"]["reflection"]
    if isinstance(reflection, list) and not _is(reflection, [(int, float)]):
        raise ConfigError("/grid/reflection: a list form takes finite "
                          f"numbers, got {_show(reflection)}")
    if isinstance(reflection, dict):
        if set(reflection) != {"every"} or not _is(reflection["every"], int):
            raise ConfigError('/grid/reflection: object form must be {"every": k}')
        reflection = ("every", reflection["every"])

    b = cfg["mc"]["basis"]
    try:
        basis = BasisSpec(**dict(
            b, ridge=float(b["ridge"]),
            domain=tuple(b["domain"]) if "domain" in b else None))
    except ValueError as exc:
        raise ConfigError(f"/mc/basis: {exc}") from exc

    paths = cfg["mc"]["paths"]
    if paths < 10 * basis.dimension:
        raise ConfigError(
            f"/mc/paths: {paths} < 10 * basis dimension ({10 * basis.dimension})")
    seed = cfg["mc"]["seed"]
    if not 0 <= seed < SEED_BOUND:
        raise ConfigError("/mc/seed: must be in 0..2**64 - 1")

    mz = cfg["truncation"]["M_z"]
    if isinstance(mz, str):
        if mz != "auto":
            raise ConfigError('/truncation/M_z: must be a number or "auto"')
        M_z = None
    else:
        M_z = float(mz)
        if M_z <= 0:
            raise ConfigError("/truncation/M_z: must be positive")

    formats = cfg["output"]["formats"]
    if not set(formats) <= {"json", "csv"}:
        raise ConfigError("/output/formats: choose from json, csv")

    return RunConfig(
        spec=spec, N=N, reflection=reflection,
        mc=lab.MCConfig(n_paths=paths, seed=seed, basis=basis, M_z=M_z),
        experiment=cfg["experiment"],
        out_dir=cfg["output"].get("directory"),
        formats=tuple(formats),
        normalized=cfg,
    )


# ---------------------------------------------------------------------------
# experiment dispatch: each runner returns (summary, tables, flags, bundle)

def _run_solve(cfg: RunConfig):
    grid, sched, bundle, sol = lab._solve_mc(cfg.spec, cfg.N, cfg.mc,
                                             cfg.reflection)
    summary = sol.summary()
    columns = {"picard_iters": sol.picard_counts, "fit_cond": sol.fit_conds,
               "fit_rmse": sol.fit_rmses, "max_abs_z": sol.max_abs_z,
               "mean_dK": sol.mean_dK, "reflected_frac": sol.reflected_frac,
               "trunc_active_frac": sol.trunc_active_frac}
    steps = [{"i": i, "t": float(grid.times[i]),
              **{k: v[i].item() for k, v in columns.items()}} for i in range(grid.N)]
    return summary, {"steps": steps}, {"skorokhod": sol.skorokhod["all"]}, bundle


def _lab_report(table: str, call):
    """The runner of a lab experiment with a report of its own: the summary
    is the report's fields, the one table its cells, the flags its own."""
    def runner(cfg: RunConfig):
        rep = call(cfg, cfg.experiment)
        return rep.to_dict(), {table: rep.rows()}, rep.flags, None
    return runner


def _run_diagnose(cfg: RunConfig):
    setup = lab._mc_setup(cfg.spec, cfg.N, cfg.mc, cfg.reflection)
    rep = lab.run_diagnostics(cfg.spec, cfg.N, cfg.mc, setup=setup)
    rows = [{"quantity": q, "p": p, "value": v}
            for q, d in rep.moments.items() for p, v in d.items()]
    rows.append({"quantity": "tail_sum_max", "p": "", "value": rep.tail_sum_max})
    rows.append({"quantity": "bound_value", "p": "", "value": rep.bound_value})
    return rep.to_dict(), {"diagnostics": rows}, rep.flags, setup[2]


def _run_oracle(cfg: RunConfig):
    spec = cfg.spec
    grid, sched = make_grid(cfg.N, spec.T, cfg.reflection)
    space = build_space_grid(spec)
    exact = exact_scheme_solve(spec, grid, sched, space)
    summary = {"exact_scheme_y0": exact.y0, "N": cfg.N,
               "space_nodes": space.J, "quad_order": space.quad_order,
               "off_grid": list(exact.off_grid)}
    flags = {}
    if spec.pure_quadratic:
        snell = snell_cole_hopf(spec, grid, sched, space)
        gap = abs(exact.y0 - snell.y0)
        summary.update(snell_y0=snell.y0, cross_gap=gap)
        flags["cross_agreement"] = gap <= 1e-3
    y_exact = exact.y_at(0, space.nodes)
    y_snell = snell.y_at(0, space.nodes) if spec.pure_quadratic else None
    rows = [{"x": float(x), "y0_exact_scheme": float(y_exact[j]),
             **({"y0_snell": float(y_snell[j])} if y_snell is not None else {})}
            for j, x in enumerate(space.nodes)]
    return summary, {"oracle_slice": rows}, flags, None


def _run_validate(cfg: RunConfig):
    rep = validate_assumptions(cfg.spec)
    rows = [{"check": name, "passed": r.passed, "worst_ratio": r.worst_ratio}
            for name, r in sorted(rep.checks.items())]
    summary = {
        "cloud": rep.cloud_description,
        "groups": {g: rep.passes(g) for g in rep._GROUPS},
        "checks": {name: {"passed": r.passed, "worst_ratio": r.worst_ratio,
                          "witness": list(r.witness)}
                   for name, r in sorted(rep.checks.items())},
    }
    # report-only flags: main never exits 4 on them, as (H1)/(H2) fail for kinks
    return summary, {"assumptions": rows}, summary["groups"], None


_RUNNERS = {
    "solve": _run_solve,
    "converge": _lab_report("convergence", lambda cfg, exp: lab.run_convergence(
        cfg.spec, exp["Ns"], cfg.mc, oracle=exp["oracle"])),
    "reflect-sweep": _lab_report(
        "reflection_sweep", lambda cfg, exp: lab.run_discrete_reflection_sweep(
            cfg.spec, exp["N"], exp["kappas"], engine=exp["engine"])),
    "stability": _lab_report("stability", lambda cfg, exp: lab.run_stability(
        cfg.spec, exp["perturbation"], exp["levels"], cfg.mc, N=cfg.N)),
    "diagnose": _run_diagnose,
    "oracle": _run_oracle,
    "validate": _run_validate,
}


# ---------------------------------------------------------------------------
# artifact writing

def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, rows):
    if not rows:
        return
    cols = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r.get(k, "") for k in cols})


def resolve_out_dir(cfg: RunConfig, cli_out: Optional[str]) -> str:
    if cli_out:
        return cli_out
    if cfg.out_dir:
        return cfg.out_dir
    root = os.environ.get("QRBSDE_OUT", "runs")
    return os.path.join(root, cfg.kind)


def run(cfg: RunConfig, out_dir: str, dump_paths: bool = False,
        threads: int = 1) -> dict:
    """Execute the configured experiment and write artifacts under out_dir.

    Returns the manifest.  ``threads`` is recorded for bookkeeping only.
    Whatever it says, a bundle of at least 3 * 10^4 paths
    (``forward.AHEAD_MIN_PATHS``) draws its increments and walks its
    backward recursion with one helper thread beside the caller, and each
    convergence cell walks its whole path recursion on one helper beside
    the lattice lookups.  Helpers never nest, so a walk already on a helper
    stays on it alone, and results never depend on any of them.
    """
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()
    timings = {}
    outputs = []

    def _emit(name, writer, *args):
        path = os.path.join(out_dir, name)
        writer(path, *args)
        outputs.append(name)

    status = "ok"
    error = None
    flags = {}
    try:
        t0 = time.perf_counter()
        summary, tables, flags, bundle = _RUNNERS[cfg.kind](cfg)
        timings["experiment"] = time.perf_counter() - t0
    except (FloatingPointError, RuntimeError, np.linalg.LinAlgError) as exc:
        status = "failed"
        error = f"{type(exc).__name__}: {exc}"
        summary, tables, bundle = {"error": error}, {}, None
    except ValueError as exc:
        # precondition violations from experiment parameters (bad kappa,
        # non-monotone level lists, ...) are configuration mistakes
        status = "config-error"
        error = f"{type(exc).__name__}: {exc}"
        summary, tables, bundle = {"error": error}, {}, None

    t0 = time.perf_counter()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.kind,
        "problem": cfg.spec.name,
        "config": cfg.normalized,
        "results": summary,
        "flags": flags,
        "pass": bool(status == "ok" and all(flags.values())),
    }
    if "json" in cfg.formats:
        _emit("summary.json", _write_json, payload)
    if "csv" in cfg.formats:
        for name, rows in tables.items():
            _emit(f"{name}.csv", _write_csv, rows)
    if dump_paths and bundle is not None and bundle.X_euler is not None:
        _emit("paths.csv",
              lambda p, arr: np.savetxt(
                  p, arr, delimiter=",", comments="",
                  header=",".join(f"t{i}" for i in range(arr.shape[1]))),
              bundle.X_euler)
    timings["write"] = time.perf_counter() - t0

    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "config_hash": config_hash(cfg.normalized),
        "status": status,
        "error": error,
        "wall_clock_s": time.perf_counter() - t_start,
        "timings_s": timings,
        "seeds": [cfg.mc.seed],
        "threads": threads,
        "pass": payload["pass"],
        "outputs": outputs + ["manifest.json"],
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


# ---------------------------------------------------------------------------
# argument surface

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrbsde",
        description="Discrete-time solver lab for quadratic reflected BSDEs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file or inline JSON")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="recorded in the manifest only; from 3*10^4 "
                            "paths the sampling and the backward walk share "
                            "their work with one helper thread, a "
                            "convergence cell walks its paths on one, and "
                            "results never depend on either")
        p.add_argument("--dump-paths", action="store_true",
                       help="solve, diagnose: also write the paths as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config({} if args.config is None else args.config,
                           args.command, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = resolve_out_dir(cfg, args.out)
    manifest = run(cfg, out_dir, dump_paths=args.dump_paths,
                   threads=args.threads)
    if manifest["status"] == "config-error":
        print(f"config error: {manifest['error']}", file=sys.stderr)
        return EXIT_CONFIG
    if manifest["status"] != "ok":
        print(f"numeric failure: {manifest['error']}", file=sys.stderr)
        return EXIT_NUMERIC

    if not manifest["pass"] and cfg.kind != "validate":
        print("experiment pass flags failed; see summary.json", file=sys.stderr)
        return EXIT_FLAGS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
