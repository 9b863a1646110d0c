"""The pinned benchmark workloads: the call each one times, its noise-free
reference, its output gate and the digest that must repeat across
repetitions of one commit.

Every workload is closed loop with one caller: the next repetition starts
when the previous one has returned.  Inputs come from the seed alone.  The
``full`` size is the contract; ``tiny`` serves the harness self-check and
most untimed warm-up calls, and is never reported.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable

P1 = "P1-pure-quadratic"
P2 = "P2-mixed-quadratic"


@dataclass
class Context:
    """What a workload needs besides its timed call: modules, specs, sizes."""
    qrbsde: object          # the imported package, with .cli loaded
    specs: dict             # preset name -> ProblemSpec, built at set-up
    size: dict              # this workload's size parameters
    seed: int
    workdir: str            # scratch space for artifacts, inside the checkout


@dataclass
class Check:
    ok: bool
    ref_gap: float
    digest: str
    why: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    presets: tuple
    sizes: dict                                  # "full" / "tiny" -> params
    call: Callable[[Context], object]            # the timed call
    reference: Callable[[Context], dict]         # untimed, once per process
    check: Callable[[object, dict, Context], Check]
    # size of the untimed warm-up call; "full" where a tiny call leaves the
    # first timed call measurably slower than the rest
    warmup: str = "tiny"


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)
    return h.hexdigest()


def _json_bytes(obj) -> bytes:
    # repr-exact floats; key order fixed
    return json.dumps(obj, sort_keys=True, default=repr).encode()


def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def _snell_y0(ctx: Context, N: int) -> float:
    q = ctx.qrbsde
    spec = ctx.specs[P1]
    grid, sched = q.make_grid(N, spec.T, "all")
    return q.snell_cole_hopf(spec, grid, sched, q.build_space_grid(spec)).y0


# ---------------------------------------------------------------------------
# solve-p1-n64: the acceptance solve through the CLI

def _solve_config(ctx: Context) -> str:
    s = ctx.size
    return json.dumps({
        "problem": {"preset": P1},
        "grid": {"N": s["N"], "reflection": "all"},
        "mc": {"paths": s["paths"], "seed": ctx.seed,
               "basis": {"kind": "polynomial", "degree": s["degree"]}},
        "truncation": {"M_z": "auto"},
    })


def _solve_call(ctx: Context):
    out_dir = tempfile.mkdtemp(prefix="solve-", dir=ctx.workdir)
    rc = ctx.qrbsde.cli.main(["solve", "--config", _solve_config(ctx),
                              "--out", out_dir])
    return rc, out_dir


def _solve_reference(ctx: Context) -> dict:
    return {"y0": _snell_y0(ctx, ctx.size["N"])}


def _solve_check(raw, ref: dict, ctx: Context) -> Check:
    rc, out_dir = raw
    try:
        with open(os.path.join(out_dir, "summary.json"), "rb") as fh:
            summary_bytes = fh.read()
        with open(os.path.join(out_dir, "steps.csv"), "rb") as fh:
            steps_bytes = fh.read()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    res = json.loads(summary_bytes)["results"]
    gap = abs(res["y0"] - ref["y0"])
    tol = max(3.0 * res["y0_se"], 0.01)
    why = []
    if rc != 0:
        why.append(f"CLI exit {rc}")
    if not all(res["skorokhod"].values()):
        why.append(f"Skorokhod flags {res['skorokhod']}")
    if not gap <= tol:
        why.append(f"|Y0 - Snell Y0| = {gap:.3g} > {tol:.3g}")
    return Check(not why, gap, _digest(summary_bytes, steps_bytes), "; ".join(why))


# ---------------------------------------------------------------------------
# converge-p1: grid refinement with oracle solves and PCHIP lookups

def _converge_call(ctx: Context):
    q = ctx.qrbsde
    return q.run_convergence(ctx.specs[P1], ctx.size["Ns"],
                             q.MCConfig(n_paths=ctx.size["paths"], seed=ctx.seed))


def _converge_reference(ctx: Context) -> dict:
    return {"snell_y0": _snell_y0(ctx, 2 * max(ctx.size["Ns"]))}


def _converge_check(rep, ref: dict, ctx: Context) -> Check:
    cells = rep.rows()
    gap = max(c["mc_y0_gap"] for c in cells)
    why = []
    if abs(rep.reference["snell_y0"] - ref["snell_y0"]) > 1e-12:
        why.append(f"report Snell Y0 {rep.reference['snell_y0']!r} != "
                   f"reference {ref['snell_y0']!r}")
    if not _strictly_decreasing([c["y0_err"] for c in cells]):
        why.append("y0_err not monotone")
    for key in ("y0_err", "z_err"):
        fit = rep.slopes[key]
        if fit is None or not fit.slope >= 0.2:
            why.append(f"{key} slope {None if fit is None else fit.slope} < 0.2")
    return Check(not why, gap, _digest(_json_bytes(rep.to_dict())), "; ".join(why))


# ---------------------------------------------------------------------------
# stability-p2-drift: five coupled solves of the mixed driver on one bundle

def _stability_call(ctx: Context):
    q = ctx.qrbsde
    return q.run_stability(ctx.specs[P2], "drift-shift", ctx.size["eps"],
                           q.MCConfig(n_paths=ctx.size["paths"], seed=ctx.seed),
                           N=ctx.size["N"])


def _stability_reference(ctx: Context) -> dict:
    # The report carries no Y0, so the unperturbed leg is solved once more
    # here, through the public API and with the same pilot radius rule; its
    # Y0 against the quadrature oracle is the workload's ref_gap.  The
    # increments' checksum pins that both solves saw the same bundle.
    q = ctx.qrbsde
    spec, N = ctx.specs[P2], ctx.size["N"]
    grid, sched = q.make_grid(N, spec.T, "all")
    bundle = q.euler_simulate(spec, q.sample_increments(
        grid, ctx.size["paths"], ctx.seed, spec.m))
    basis = q.BasisSpec()
    radius = q.estimate_Mz_auto(spec, grid, sched, bundle, basis)
    sol = q.solve_backward(spec, grid, sched, bundle, basis, radius)
    oracle = q.exact_scheme_solve(spec, grid, sched, q.build_space_grid(spec))
    return {"gap": abs(sol.y0_fit - oracle.y0),
            "dw_checksum": hashlib.sha256(bundle.dW.tobytes()).hexdigest()}


def _stability_check(rep, ref: dict, ctx: Context) -> Check:
    cells = rep.rows()
    why = [f"{k} not strictly decreasing" for k in ("D_Y", "D_Z", "D_K")
           if not _strictly_decreasing([c[k] for c in cells])]
    ratios = [c["ratio_Y"] for c in cells]
    if not max(ratios) <= 2.0 * ratios[0]:
        why.append(f"max ratio_Y {max(ratios):.3g} > 2 x {ratios[0]:.3g}")
    if rep.dw_checksum != ref["dw_checksum"]:
        why.append("increments differ from the reference bundle")
    return Check(not why, ref["gap"], _digest(_json_bytes(rep.to_dict())),
                 "; ".join(why))


# ---------------------------------------------------------------------------
# oracle-sweep-p1-n1024: lattice recursions only, both engines

def _sweep_call(ctx: Context):
    q = ctx.qrbsde
    spec, N, kappas = ctx.specs[P1], ctx.size["N"], ctx.size["kappas"]
    return (q.run_discrete_reflection_sweep(spec, N, kappas, engine="exact-scheme"),
            q.run_discrete_reflection_sweep(spec, N, kappas, engine="snell"))


def _sweep_reference(ctx: Context) -> dict:
    return {"snell_y0": _snell_y0(ctx, ctx.size["N"])}


def _sweep_check(raw, ref: dict, ctx: Context) -> Check:
    exact, snell = raw
    y_exact = exact.reference["y0_full_reflection"]
    y_snell = snell.reference["y0_full_reflection"]
    gap = abs(y_exact - y_snell)
    why = [f"{r.reference['engine']} sweep not monotone" for r in raw
           if not r.reference["monotone_nondecreasing"]]
    if abs(y_snell - ref["snell_y0"]) > 1e-12:
        why.append(f"sweep Snell Y0 {y_snell!r} != reference {ref['snell_y0']!r}")
    if not gap <= 1e-3:
        why.append(f"|exact - Snell| = {gap:.3g} > 1e-3")
    return Check(not why, gap,
                 _digest(_json_bytes(exact.to_dict()), _json_bytes(snell.to_dict())),
                 "; ".join(why))


WORKLOADS = {w.name: w for w in (
    Workload(
        "solve-p1-n64",
        "the acceptance solve through the CLI: regression-bound path layers "
        "plus config parsing and artifact writing, no oracle",
        (P1,),
        {"full": {"N": 64, "paths": 50_000, "degree": 6},
         "tiny": {"N": 8, "paths": 5_000, "degree": 6}},
        _solve_call, _solve_reference, _solve_check, warmup="full"),
    Workload(
        "converge-p1",
        "path solves at five grid sizes plus oracle solves and a PCHIP "
        "lookup on every path at every step",
        (P1,),
        {"full": {"Ns": [8, 16, 32, 64, 128], "paths": 50_000},
         "tiny": {"Ns": [4, 8, 16, 32], "paths": 2_000}},
        _converge_call, _converge_reference, _converge_check),
    Workload(
        "stability-p2-drift",
        "the mixed driver makes Picard about 5x costlier per path; five "
        "solves share one bundle and one pilot radius",
        (P2,),
        {"full": {"eps": [0.4, 0.2, 0.1, 0.05], "paths": 20_000, "N": 64},
         "tiny": {"eps": [0.4, 0.2, 0.1, 0.05], "paths": 2_000, "N": 16}},
        _stability_call, _stability_reference, _stability_check),
    Workload(
        "oracle-sweep-p1-n1024",
        "pure lattice work with no paths and no regression; oracle stepping "
        "is under 3% of every other workload",
        (P1,),
        {"full": {"N": 1024, "kappas": [4, 8, 16, 32, 64, 128, 256]},
         "tiny": {"N": 64, "kappas": [4, 8, 16, 32]}},
        _sweep_call, _sweep_reference, _sweep_check),
)}
