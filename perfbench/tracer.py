"""Outside-in tracer: wraps qrbsde's public functions from the benchmark's
side, with no edit to the package.

A function is replaced under every name that refers to it in a loaded
``qrbsde`` module.  Modules import their collaborators by name (``from
.regress import fit_least_squares``), so patching only the defining module
would miss every call made through such an import.  Spans are kept in
memory as (name, start, end, parent, repetition) and written out once, when
the run ends.  Self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (defining module, attribute, span name); "Class.method" patches the class
SPANS = (
    ("regress", "fit_least_squares", "regress.fit_least_squares"),
    ("regress", "evaluate_fit", "regress.evaluate_fit"),
    ("regress", "build_basis", "regress.build_basis"),
    ("regress", "DesignEvaluator.__call__", "regress.design_evals"),
    ("scheme", "solve_backward", "scheme.solve_backward"),
    ("scheme", "z_projection_step", "scheme.z_projection_step"),
    ("scheme", "implicit_y_step", "scheme.implicit_y_step"),
    ("scheme", "reflect_step", "scheme.reflect_step"),
    ("scheme", "estimate_Mz_auto", "scheme.estimate_Mz_auto"),
    ("model", "smooth_truncation", "model.smooth_truncation"),
    ("forward", "sample_increments", "forward.sample_increments"),
    ("forward", "euler_simulate", "forward.euler_simulate"),
    ("oracle", "exact_scheme_solve", "oracle.exact_scheme_solve"),
    ("oracle", "snell_cole_hopf", "oracle.snell_cole_hopf"),
    ("oracle", "GridSolution.y_at", "oracle.y_at"),
    ("oracle", "GridSolution.z_at", "oracle.z_at"),
    ("lab", "run_convergence", "lab.run_convergence"),
    ("lab", "run_stability", "lab.run_stability"),
    ("lab", "run_discrete_reflection_sweep", "lab.run_discrete_reflection_sweep"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
)


def _out_bytes(out_dir, manifest):
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in manifest["outputs"])


# counters fed from a wrapped call's arguments and result
COUNTERS = {
    "scheme.solve_backward": lambda a, out: {
        "scheme.backward_steps": out.grid.N,
        "scheme.picard_iters": int(out.picard_counts.sum())},
    "forward.euler_simulate": lambda a, out: {
        "forward.path_steps": out.n_paths * out.grid.N},
    "oracle.exact_scheme_solve": lambda a, out: {"oracle.lattice_steps": out.grid.N},
    "oracle.snell_cole_hopf": lambda a, out: {"oracle.lattice_steps": out.grid.N},
    # rows x cols x 8 bytes of float64 design matrix, computed, not measured
    "regress.design_evals": lambda a, out: {
        "regress.design_bytes": out.shape[0] * out.shape[1] * 8},
    "cli.run": lambda a, out: {"cli.bytes_written": _out_bytes(a[1], out)},
}

# every per-layer metric a traced run reports: (name, unit)
LAYER_METRICS = (
    ("regress.fit_least_squares.calls", "count"),
    ("regress.fit_least_squares.self_s", "s"),
    ("regress.evaluate_fit.calls", "count"),
    ("regress.evaluate_fit.self_s", "s"),
    ("regress.build_basis.calls", "count"),
    ("regress.build_basis.self_s", "s"),
    ("regress.design_evals.calls", "count"),
    ("regress.design_evals.self_s", "s"),
    ("regress.design_bytes", "bytes"),
    ("scheme.solve_backward.calls", "count"),
    ("scheme.solve_backward.self_s", "s"),
    ("scheme.backward_steps", "count"),
    ("scheme.z_projection_step.total_s", "s"),
    ("scheme.z_projection_step.self_s", "s"),
    ("scheme.reflect_step.self_s", "s"),
    ("scheme.estimate_Mz_auto.total_s", "s"),
    ("scheme.implicit_y_step.self_s", "s"),
    ("scheme.picard_iters", "count"),
    ("model.smooth_truncation.calls", "count"),
    ("model.smooth_truncation.self_s", "s"),
    ("forward.sample_increments.calls", "count"),
    ("forward.sample_increments.self_s", "s"),
    ("forward.euler_simulate.calls", "count"),
    ("forward.euler_simulate.self_s", "s"),
    ("forward.path_steps", "count"),
    ("oracle.exact_scheme_solve.calls", "count"),
    ("oracle.exact_scheme_solve.self_s", "s"),
    ("oracle.snell_cole_hopf.calls", "count"),
    ("oracle.snell_cole_hopf.self_s", "s"),
    ("oracle.lattice_steps", "count"),
    ("oracle.pchip_builds", "count"),
    ("oracle.y_at.calls", "count"),
    ("oracle.y_at.self_s", "s"),
    ("oracle.z_at.calls", "count"),
    ("oracle.z_at.self_s", "s"),
    ("lab.run_convergence.self_s", "s"),
    ("lab.run_stability.self_s", "s"),
    ("lab.run_discrete_reflection_sweep.self_s", "s"),
    ("cli.parse_config.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.bytes_written", "bytes"),
)

# counts that must repeat exactly from one traced repetition to the next
EXACT_COUNTS = ("scheme.picard_iters", "regress.design_evals.calls",
                "oracle.pchip_builds", "scheme.backward_steps",
                "oracle.lattice_steps")


class Tracer:
    """Patches qrbsde while active; one instance collects a whole run."""

    def __init__(self):
        self.spans = []            # (name, start, end, parent index, rep)
        self.counts = defaultdict(lambda: defaultdict(int))   # rep -> name -> n
        self.rep = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        tracer, counter = self, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent, tracer.rep)
            if counter is not None:
                for key, n in counter(args, out).items():
                    tracer.counts[tracer.rep][key] += n
            return out
        return traced

    def _count_builds(self, cls):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[tracer.rep]["oracle.pchip_builds"] += 1
            return cls(*args, **kwargs)
        return counted

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "qrbsde" and not modname.startswith("qrbsde."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def __enter__(self):
        import qrbsde.cli  # noqa: F401  (cli is not imported by the package)
        for modname, attr, name in SPANS:
            mod = sys.modules[f"qrbsde.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
            else:
                original = getattr(mod, attr)
                self._replace_everywhere(original, self._wrap(name, original))
        pchip = sys.modules["qrbsde.oracle"].PchipInterpolator
        self._replace_everywhere(pchip, self._count_builds(pchip))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def layer_metrics(self, rep) -> dict:
        """Per-layer metrics of one traced repetition: name -> value."""
        child = defaultdict(float)
        for name, t0, t1, parent, r in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for idx, (name, t0, t1, parent, r) in enumerate(self.spans):
            if r != rep:
                continue
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[idx]
        values = dict(self.counts[rep])
        for metric, _unit in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls[layer]
            elif kind == "self_s":
                values[metric] = own[layer]
            elif kind == "total_s":
                values[metric] = total[layer]
            else:
                values.setdefault(metric, 0)
        return values

    def dump(self, path):
        """Write every span; called once, after the last repetition."""
        names = ("name", "start", "end", "parent", "rep")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(names, span))) + "\n")
