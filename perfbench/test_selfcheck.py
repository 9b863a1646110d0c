"""Fast self-check of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench -q

Checks that BENCHMARK.json and the harness name the same workloads and
metrics, that every workload passes its gate and repeats its digest on tiny
inputs, that the tracer leaves outputs unchanged and its exact counts
repeat, that each gate fires on a deliberately wrong reference, and that
run.py emits every metric with its unit for every workload.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import qrbsde  # noqa: E402
import qrbsde.cli  # noqa: E402,F401
from tracer import EXACT_COUNTS, LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

TRACE_ONLY = (("ref_gap", "1"), ("trace.overhead_s", "s"))


def _ctx(work, tmp_path, seed=42):
    return Context(qrbsde=qrbsde,
                   specs={p: qrbsde.build_preset(p) for p in work.presets},
                   size=dict(work.sizes["tiny"]), seed=seed, workdir=str(tmp_path))


def _wrong(ref):
    return {k: v + 1.0 if isinstance(v, float) else "0" * 64 for k, v in ref.items()}


def test_contract_names_match_harness():
    for w in BENCH["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert declared == dict(LAYER_METRICS + TRACE_ONLY)
    assert {m["name"] for m in BENCH["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_gates_repeats_and_traces(name, tmp_path):
    work = WORKLOADS[name]
    ctx = _ctx(work, tmp_path)
    ref = work.reference(ctx)
    first = work.check(work.call(ctx), ref, ctx)
    assert first.ok, first.why
    assert first.ref_gap > 0
    assert work.check(work.call(ctx), ref, ctx).digest == first.digest

    tracer = Tracer()
    layers = []
    for rep in (1, 2):
        tracer.rep = rep
        with tracer:
            raw = work.call(ctx)
        traced = work.check(raw, ref, ctx)
        assert traced.ok and traced.digest == first.digest
        layers.append(tracer.layer_metrics(rep))
    assert set(layers[0]) == {m for m, _ in LAYER_METRICS}
    for key in EXACT_COUNTS:
        assert layers[0][key] == layers[1][key]
    # the patches are gone once the tracer exits
    assert qrbsde.scheme.fit_least_squares is qrbsde.regress.fit_least_squares
    assert not hasattr(qrbsde.scheme.fit_least_squares, "__wrapped__")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gate_fires_on_wrong_reference(name, tmp_path):
    work = WORKLOADS[name]
    ctx = _ctx(work, tmp_path)
    check = work.check(work.call(ctx), _wrong(work.reference(ctx)), ctx)
    assert not check.ok and check.why


@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_metric_for_every_workload(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--size", "tiny", "--seconds", "0.2", "--trace", str(trace), "--seed", "7"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    for name in WORKLOADS:
        for m in wanted:
            got = result["metrics"][f"{name}.{m['name']}"]
            assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-p1-n64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
