"""One benchmark process: set up, then repeat one workload until time is up.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``:

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --trace 0|1 --size full|tiny --workdir DIR [--setup-only]

Set-up is ``import qrbsde`` plus the workload's preset builds; the line
``ready`` marks its end, so the parent can time it from process start.
With ``--setup-only`` the process exits there.  Otherwise it computes the
workload's noise-free reference and makes one warm-up call (on the size
the workload names), both untimed, then runs repetitions back to back until
``--seconds`` have passed, at least MIN_REPS of them.  With ``--trace 1``
repetitions alternate untraced and traced, starting untraced.
Events go to stdout as JSON on lines starting with MARK; anything else the
package prints is left alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback

MARK = "@@perfbench "
MIN_REPS = 2


def emit(event: str, **fields):
    sys.stdout.write(MARK + json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def library_versions() -> dict:
    import numpy
    import scipy
    out = {"python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[f"{mod.__name__}_blas"] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            out[f"{mod.__name__}_blas"] = None
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import qrbsde
    import qrbsde.cli  # noqa: F401  (the solve workload goes through the CLI)
    from tracer import Tracer
    from workloads import WORKLOADS, Context

    work = WORKLOADS[args.workload]
    specs = {name: qrbsde.build_preset(name) for name in work.presets}
    emit("ready")
    if args.setup_only:
        return 0

    ctx = Context(qrbsde=qrbsde, specs=specs, size=dict(work.sizes[args.size]),
                  seed=args.seed, workdir=args.workdir)
    ref = work.reference(ctx)
    # one untimed call finishes lazy imports and first-call set-up (thread
    # pools, scipy submodules, first touch of large arrays) before timing
    work.call(Context(qrbsde=qrbsde, specs=specs,
                      size=dict(work.sizes[work.warmup if args.size == "full" else "tiny"]),
                      seed=args.seed, workdir=args.workdir))
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and rep % 2 == 1
        if traced:
            tracer.rep = rep
        try:
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                raw = work.call(ctx)
                wall = time.perf_counter() - t0
            check = work.check(raw, ref, ctx)
        except Exception as exc:  # a failed repetition is counted, not fatal
            traceback.print_exc()
            emit("rep", rep=rep, traced=traced, ok=False,
                 why=f"{type(exc).__name__}: {exc}")
        else:
            emit("rep", rep=rep, traced=traced, ok=check.ok, why=check.why,
                 wall_s=wall, ref_gap=check.ref_gap, digest=check.digest,
                 layers=tracer.layer_metrics(rep) if traced else None)
        rep += 1

    if tracer is not None:
        tracer.dump(os.path.join(args.workdir, "spans.jsonl"))
    emit("done", maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
         libraries=library_versions())
    return 0


if __name__ == "__main__":
    sys.exit(main())
