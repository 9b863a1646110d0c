"""qrbsde benchmark: run one pinned workload in fresh processes and report.

    python3 perfbench/run.py --workload solve-p1-n64 --seed 42 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src``.  ``--workload all`` runs the four workloads one after another.
Nothing runs concurrently: SETUP_SAMPLES set-up-only interpreters first,
then one workload process that repeats the call for ``--seconds``.

Untraced (``--trace 0``) the result carries the end-to-end metrics:
``wall_s`` (median time of the workload's call over the repetitions),
``setup_s`` (median time from interpreter start to ``import qrbsde`` plus
preset builds done, over all interpreters of the run) and ``peak_rss_mb``
(high-water resident memory of the workload process).  Traced
(``--trace 1``) it carries the per-layer metrics of tracer.py, the
workload's ``ref_gap`` and ``trace.overhead_s``.  Every repetition passes
through the workload's output gate, and every repetition's output digest
must equal the first one's; a repetition that raises, fails its gate or
differs counts as failed.  The last stdout line is the JSON result; the
lines above it give the same numbers for a reader, with the machine.
Records and spans are kept under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from child import MARK  # noqa: E402
from tracer import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0           # a run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def machine() -> dict:
    """Where the numbers came from; the thread environment is recorded as found."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "qrbsde", "*.py"))):
        with open(path, "rb") as fh:
            src.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_child(args, workload, workdir, setup_only, deadline):
    """Start one child; return (set-up seconds, events).  Raises BenchError.

    The child is killed if it is still running at ``deadline`` (monotonic).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    setup_s, events = None, []
    try:
        for line in proc.stdout:
            if not line.startswith(MARK):
                sys.stderr.write(line)
                continue
            event = json.loads(line[len(MARK):])
            if event["event"] == "ready":
                setup_s = time.perf_counter() - t0
            events.append(event)
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise BenchError(f"{workload}: child exited with {proc.returncode}")
    if not setup_only and events[-1]["event"] != "done":
        raise BenchError(f"{workload}: child ended without a report")
    return setup_s, events


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def measure(args, workload) -> dict:
    """Run one workload; return its result and the readable lines."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = [run_child(args, workload, workdir, True, deadline)[0]
                  for _ in range(SETUP_SAMPLES)]
        setup_s, events = run_child(args, workload, workdir, False, deadline)
        setups.append(setup_s)
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(
                OUT, f"{workload}-seed{args.seed}.spans.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = [e for e in events if e["event"] == "rep"]
    done = events[-1]
    digest0 = next((r["digest"] for r in reps if "digest" in r), None)
    for r in reps:
        if r["ok"] and r["digest"] != digest0:
            r["ok"], r["why"] = False, "output digest differs from the first repetition"
    failed = sum(not r["ok"] for r in reps)
    plain = [r["wall_s"] for r in reps if "wall_s" in r and not r["traced"]]
    traced = [r["wall_s"] for r in reps if "wall_s" in r and r["traced"]]
    gaps = [r["ref_gap"] for r in reps if "ref_gap" in r]
    if not plain or (args.trace and not traced):
        raise BenchError(f"{workload}: no repetition completed")

    lines = [f"{workload}  seed {args.seed}  trace {args.trace}  "
             f"{len(reps)} repetitions, {failed} failed"]
    lines += [f"  repetition {r['rep']} failed: {r['why']}" for r in reps if not r["ok"]]
    q1, q3 = quartiles(plain)
    lines.append(f"  wall_s       {statistics.median(plain):.4f} s    "
                 f"median of {len(plain)} untraced, quartiles {q1:.4f} .. {q3:.4f}")
    lines.append(f"  setup_s      {statistics.median(setups):.4f} s    "
                 f"median of {len(setups)} interpreters, range "
                 f"{min(setups):.4f} .. {max(setups):.4f}")
    lines.append(f"  peak_rss_mb  {done['maxrss_mb']:.1f} MiB")
    lines.append(f"  ref_gap      {statistics.median(gaps):.6g}")
    lines.append(f"  fail_ratio   {failed / len(reps):.4g}  ({failed}/{len(reps)})")

    correct = failed == 0
    if args.trace:
        layers = [r["layers"] for r in reps if r.get("layers")]
        metrics = {}
        for name, unit in LAYER_METRICS:
            values = [lay[name] for lay in layers]
            if name in EXACT_COUNTS and len(set(values)) > 1:
                correct = False
                lines.append(f"  {name} differs across traced repetitions: {values}")
            middle = statistics.median_low if unit != "s" else statistics.median
            metrics[name] = {"value": middle(values), "unit": unit}
        metrics["ref_gap"] = {"value": statistics.median(gaps), "unit": "1"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
        lines += [f"  {k:44s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": done["maxrss_mb"], "unit": "MiB"},
        }
    result = {"correct": correct, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "seconds": args.seconds,
              "machine": {**machine(), **done["libraries"]},
              "setup_samples_s": setups, "repetitions": reps, "result": result}
    with open(os.path.join(OUT, f"{workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    lines.append("  machine " + json.dumps(record["machine"], sort_keys=True))
    return {"result": result, "lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs are for the harness self-check only")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qrbsde", "__init__.py")):
        print(f"no qrbsde sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        runs = {name: measure(args, name) for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for run in runs.values():
        print("\n".join(run["lines"]))
    if len(runs) == 1:
        result = runs[names[0]]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {f"{name}.{key}": val for name, r in runs.items()
                        for key, val in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
