import csv
import json
import os

import numpy as np
import pytest

from qrbsde import lab
from qrbsde.cli import (EXIT_CONFIG, EXIT_FLAGS, EXIT_OK, ConfigError,
                        config_hash, main, parse_config)

pytestmark = pytest.mark.filterwarnings(
    "ignore:quadrature points left the space grid")

SMALL_SOLVE = {
    "problem": {"preset": "P1-pure-quadratic"},
    "grid": {"N": 8},
    "mc": {"paths": 2000, "basis": {"degree": 3}},
}


# ---------------------------------------------------------------------------
# config parsing

def test_minimal_config_gets_defaults():
    cfg = parse_config({"problem": {"preset": "P1-pure-quadratic"},
                        "experiment": {"kind": "solve"}})
    assert cfg.N == 64
    assert cfg.mc.n_paths == 50_000
    assert cfg.mc.seed == 42
    assert cfg.mc.basis.kind == "polynomial" and cfg.mc.basis.degree == 6
    assert cfg.reflection == "all"
    assert cfg.mc.M_z is None     # auto


def test_unknown_key_fatal_with_pointer():
    with pytest.raises(ConfigError, match="pathz"):
        parse_config({"pathz": 1})
    with pytest.raises(ConfigError, match="/mc/paht"):
        parse_config({"mc": {"paht": 10}})


def test_contraction_gate():
    with pytest.raises(ConfigError, match="L\\*"):
        parse_config({"grid": {"N": 1},
                      "problem": {"overrides": {"L": 5.0, "T": 1.0}}})


def test_path_budget_gate():
    with pytest.raises(ConfigError, match="paths"):
        parse_config({"mc": {"paths": 50, "basis": {"degree": 6}}})


def test_invalid_json_and_values():
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config({"truncation": {"M_z": "maybe"}})
    with pytest.raises(ConfigError):
        parse_config({"experiment": {"kind": "frobnicate"}})
    with pytest.raises(ConfigError):
        parse_config({"mc": {"seed": -3}})


def test_config_hash_stable_under_key_reordering():
    a = parse_config({"grid": {"N": 16}, "mc": {"paths": 5000}})
    b = parse_config({"mc": {"paths": 5000}, "grid": {"N": 16}})
    assert config_hash(a.normalized) == config_hash(b.normalized)
    c = parse_config({"mc": {"paths": 5001}, "grid": {"N": 16}})
    assert config_hash(a.normalized) != config_hash(c.normalized)


@pytest.mark.parametrize("config, pointer", [
    ({"experiment": {"kind": "solve", "kappas": [3]}}, "/experiment/kappas"),
    ({"experiment": {"kind": "converge", "levels": [1.0]}}, "/experiment/levels"),
    ({"experiment": {"kind": "converge", "Ns": [4.9, 8, 16, 32]}}, "/experiment/Ns"),
    ({"experiment": {"kind": "reflect-sweep", "kappas": [True, 2]}},
     "/experiment/kappas"),
    ({"output": {"formats": ["jsn"]}}, "/output/formats"),
    ({"mc": {"basis": {"domain": [1]}}}, "/mc/basis"),
    ({"mc": {"basis": {"domain": [0.0, float("inf")]}}}, "/mc/basis/domain"),
    ({"problem": {"overrides": {"m": 2.7}}}, "/problem"),
    ({"grid": {"reflection": {"every": 2.5}}}, "/grid/reflection"),
    ({"problem": {"overrides": {"smooth_g": "false"}}}, "/problem/overrides/smooth_g"),
    ({"problem": {"overrides": {"L": None}}}, "/problem/overrides/L"),
    ({"problem": {"overrides": {"alpha": True}}}, "/problem/overrides/alpha"),
    ({"mc": {"seed": 2 ** 64}}, "/mc/seed"),
    # integers beyond the float range are not finite numbers
    ({"problem": {"overrides": {"T": 10 ** 400}}}, "/problem/overrides/T"),
    # T has one way in, /problem/overrides/T: /grid/T is a foreign key
    ({"grid": {"T": 2}}, "/grid/T"),
    # more integers beyond the float range
    ({"truncation": {"M_z": 10 ** 400}}, "/truncation/M_z"),
    ({"mc": {"basis": {"domain": [0, 10 ** 400]}}}, "/mc/basis/domain"),
    ({"experiment": {"kind": "stability", "levels": [10 ** 400]}},
     "/experiment/levels"),
    # too long for repr (over 4300 digits): the error names the type instead
    ({"problem": {"overrides": {"T": 10 ** 5000}}},
     "^/problem/overrides/T: bad value <int too long to print>$"),
    ({"mc": {"basis": {"domain": [0, 10 ** 5000]}}},
     "^/mc/basis/domain: bad value <list too long to print>$"),
    # reflection's list form's elements are finite numbers, not bools or lists
    ({"grid": {"reflection": [1e400]}}, "/grid/reflection"),
    ({"grid": {"reflection": [10 ** 400]}}, "/grid/reflection"),
    ({"grid": {"reflection": [[0.5]]}}, "/grid/reflection"),
    ({"grid": {"reflection": [True]}}, "/grid/reflection"),
])
def test_ill_typed_or_foreign_values_fatal_with_pointer(config, pointer):
    with pytest.raises(ConfigError, match=pointer):
        parse_config(config)


def test_experiment_echo_carries_its_defaults():
    implicit = parse_config({}, command="converge").normalized
    assert implicit["experiment"] == {"kind": "converge", "Ns": [8, 16, 32, 64],
                                      "oracle": "auto"}
    explicit = parse_config({"experiment": {"kind": "converge",
                                            "Ns": [8, 16, 32, 64]}}).normalized
    assert config_hash(implicit) == config_hash(explicit)
    levels = parse_config({"experiment": {"perturbation": "euler-vs-exact"}},
                          command="stability").experiment["levels"]
    assert levels == [8, 16, 32, 64]


def test_grid_T_is_an_unknown_key(tmp_path, capsys):
    assert main(["solve", "--config", '{"grid": {"T": 2}}',
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "/grid/T: unknown key 'T'" in capsys.readouterr().err


def test_reflection_forms():
    cfg = parse_config({"grid": {"reflection": {"every": 4}}})
    assert cfg.reflection == ("every", 4)
    with pytest.raises(ConfigError):
        parse_config({"grid": {"reflection": {"stride": 4}}})


# ---------------------------------------------------------------------------
# end-to-end runs

def _run(tmp_path, command, config, extra=()):
    out = tmp_path / command
    code = main([command, "--config", json.dumps(config),
                 "--out", str(out), *extra])
    return code, out


def test_solve_writes_artifacts(tmp_path):
    code, out = _run(tmp_path, "solve", SMALL_SOLVE)
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    res = summary["results"]
    for key in ("y0", "y0_se", "max_abs_z_per_step", "K_T_mean", "K_T_std"):
        assert key in res
    # no copies: y0_path_mean repeated y0, K_T_total_mean repeated K_T_mean
    assert "y0_path_mean" not in res and "K_T_total_mean" not in res
    assert summary["flags"]["skorokhod"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    listed = set(manifest["outputs"])
    on_disk = {p.name for p in out.iterdir()}
    assert listed == on_disk     # no orphan writes
    assert manifest["config_hash"]


def test_rerun_is_bit_identical(tmp_path):
    _, out1 = _run(tmp_path / "a", "solve", SMALL_SOLVE)
    _, out2 = _run(tmp_path / "b", "solve", SMALL_SOLVE)
    assert (out1 / "summary.json").read_text() == (out2 / "summary.json").read_text()
    assert (out1 / "steps.csv").read_text() == (out2 / "steps.csv").read_text()


def test_converge_row_count(tmp_path):
    cfg = dict(SMALL_SOLVE)
    cfg["experiment"] = {"kind": "converge", "Ns": [4, 8, 16, 32]}
    code, out = _run(tmp_path, "converge", cfg)
    assert code == EXIT_OK
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 4          # header + one row per grid size
    summary = json.loads((out / "summary.json").read_text())
    assert "y0_err" in summary["results"]["slopes"]


def test_validate_always_reports(tmp_path):
    # P1's clipped obstacle fails (H1)/(H2) by design; validate is
    # report-only and must still exit 0
    code, out = _run(tmp_path, "validate", {"problem": {"preset": "P1-pure-quadratic"}})
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    groups = summary["results"]["groups"]
    assert groups["HX"] and groups["HF"] and groups["HT"]
    assert not groups["H1"]


def test_validate_flags_are_its_group_verdicts(tmp_path):
    # P1 fails (H1)/(H2), so the run does not pass, yet still exits 0
    code, out = _run(tmp_path, "validate", {"problem": {"preset": "P1-pure-quadratic"}})
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False
    assert summary["flags"] == summary["results"]["groups"]


def test_oracle_subcommand(tmp_path):
    code, out = _run(tmp_path, "oracle", {"grid": {"N": 16}})
    assert code == EXIT_OK
    res = json.loads((out / "summary.json").read_text())["results"]
    assert abs(res["exact_scheme_y0"] - res["snell_y0"]) <= 1e-3
    count, total = res["off_grid"]
    assert 0 < count < total == 16 * res["space_nodes"] * res["quad_order"]


def test_reflect_sweep_summary_carries_off_grid(tmp_path):
    code, out = _run(tmp_path, "reflect-sweep",
                     {"experiment": {"kind": "reflect-sweep", "N": 8, "kappas": [2, 4]}})
    assert code == EXIT_OK
    ref = json.loads((out / "summary.json").read_text())["results"]["reference"]
    count, total = ref["off_grid"]
    assert 0 < count < total


def test_config_error_exit_codes(tmp_path):
    assert main(["solve", "--config", '{"pathz": 1}',
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    # bad experiment parameter caught at run time still maps to config error
    cfg = dict(SMALL_SOLVE)
    cfg["experiment"] = {"kind": "reflect-sweep", "N": 8, "kappas": [3]}
    assert main(["reflect-sweep", "--config", json.dumps(cfg),
                 "--out", str(tmp_path / "y")]) == EXIT_CONFIG


@pytest.mark.parametrize("overrides", [{"smooth_g": "false"}, {"L": None},
                                       {"T": 10 ** 400}])
def test_ill_typed_overrides_exit_config(tmp_path, overrides):
    assert main(["validate", "--config", json.dumps({"problem": {"overrides": overrides}}),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_int_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    config = '{"problem": {"overrides": {"T": 1%s}}}' % ("0" * 5000)
    assert main(["validate", "--config", config,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "config is not readable JSON" in capsys.readouterr().err


def test_empty_stability_levels_exit_config_by_name(tmp_path, capsys):
    assert main(["stability", "--config", '{"experiment": {"levels": []}}',
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "stability levels must not be empty" in capsys.readouterr().err


def test_degenerate_euler_vs_exact_exits_config_by_name(tmp_path, capsys):
    # the default preset P1 has a drift constant in x: no coupling to measure
    config = {"mc": {"paths": 500, "basis": {"degree": 3}},
              "experiment": {"perturbation": "euler-vs-exact", "levels": [4, 8, 16]}}
    assert main(["stability", "--config", json.dumps(config),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "euler-vs-exact coupling is degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("Ns", [[0, 1, 2, 4], [-4, 1, 2, 4]])
def test_grid_sizes_below_one_exit_config_by_name(tmp_path, capsys, Ns):
    config = json.dumps({"experiment": {"Ns": Ns}})
    assert main(["converge", "--config", config,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "grid sizes must be >= 1" in capsys.readouterr().err


def test_non_integer_euler_vs_exact_levels_exit_config_by_name(tmp_path, capsys):
    config = {"problem": {"preset": "P2-mixed-quadratic"},
              "experiment": {"perturbation": "euler-vs-exact",
                             "levels": [4.9, 8, 16, 32]}}
    assert main(["stability", "--config", json.dumps(config),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "N levels must be integers" in capsys.readouterr().err


def test_empty_reflection_sweep_kappas_exit_config_by_name(tmp_path, capsys):
    config = '{"experiment": {"N": 8, "kappas": []}}'
    assert main(["reflect-sweep", "--config", config,
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "kappas must not be empty" in capsys.readouterr().err


def test_subcommand_and_seed_conflicts_exit_config(tmp_path):
    assert main(["solve", "--config", '{"experiment": {"kind": "converge"}}',
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert main(["solve", "--seed", "-1", "--out", str(tmp_path / "y")]) == EXIT_CONFIG
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def test_steps_csv_reflected_frac(tmp_path):
    cfg = dict(SMALL_SOLVE, grid={"N": 8, "reflection": {"every": 4}})
    code, out = _run(tmp_path, "solve", cfg)
    assert code == EXIT_OK
    with open(out / "steps.csv") as fh:
        frac = {int(r["i"]): float(r["reflected_frac"]) for r in csv.DictReader(fh)}
    assert all(0.0 <= f <= 1.0 for f in frac.values())
    assert all(f == 0.0 for i, f in frac.items() if i % 4)
    assert frac[4] > 0.0


def test_steps_csv_trunc_active_frac_and_its_summary_flag(tmp_path):
    # the auto radius sits above every |Z| of a small solve; a tiny one binds
    for M_z, active in (("auto", False), (0.05, True)):
        cfg = dict(SMALL_SOLVE, truncation={"M_z": M_z})
        code, out = _run(tmp_path / str(M_z), "solve", cfg)
        assert code == EXIT_OK
        with open(out / "steps.csv") as fh:
            frac = [float(r["trunc_active_frac"]) for r in csv.DictReader(fh)]
        results = json.loads((out / "summary.json").read_text())["results"]
        assert results["truncation_active"] is active
        assert any(f > 0.0 for f in frac) is active
        assert all(0.0 <= f <= 1.0 for f in frac)


def test_seed_flag_overrides(tmp_path):
    _, out1 = _run(tmp_path / "a", "solve", SMALL_SOLVE, ("--seed", "1"))
    _, out2 = _run(tmp_path / "b", "solve", SMALL_SOLVE, ("--seed", "2"))
    y1 = json.loads((out1 / "summary.json").read_text())["results"]["y0"]
    y2 = json.loads((out2 / "summary.json").read_text())["results"]["y0"]
    assert y1 != y2


def test_threads_flag_never_changes_results(tmp_path):
    _, out1 = _run(tmp_path / "a", "solve", SMALL_SOLVE, ("--threads", "1"))
    _, out2 = _run(tmp_path / "b", "solve", SMALL_SOLVE, ("--threads", "8"))
    assert (out1 / "summary.json").read_text() == (out2 / "summary.json").read_text()


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_dump_paths(tmp_path, command):
    code, out = _run(tmp_path, command, SMALL_SOLVE, ("--dump-paths",))
    assert code == EXIT_OK
    arr = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)
    assert arr.shape == (2000, 9)
    assert np.allclose(arr[:, 0], 1.0)     # x0 column


def test_env_var_out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("QRBSDE_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    code = main(["solve", "--config", json.dumps(SMALL_SOLVE)])
    assert code == EXIT_OK
    assert (tmp_path / "root" / "solve" / "summary.json").exists()


# ---------------------------------------------------------------------------
# pass flags: a lab report's own, written as they are

SMALL_P2 = dict(SMALL_SOLVE, problem={"preset": "P2-mixed-quadratic"})


@pytest.mark.parametrize("command, runner, config", [
    ("converge", "run_convergence",
     dict(SMALL_SOLVE, experiment={"Ns": [4, 8, 16, 32]})),
    ("reflect-sweep", "run_discrete_reflection_sweep",
     {"experiment": {"N": 8, "kappas": [2, 4]}}),
    ("stability", "run_stability", SMALL_P2),
    ("stability", "run_stability",
     dict(SMALL_P2, experiment={"perturbation": "euler-vs-exact", "levels": [4, 8, 16]})),
    ("diagnose", "run_diagnostics", SMALL_SOLVE),
], ids=["converge", "reflect-sweep", "drift-shift", "euler-vs-exact", "diagnose"])
def test_summary_flags_are_the_report_flags(tmp_path, monkeypatch, command,
                                            runner, config):
    reports, call = [], getattr(lab, runner)

    def recorded(*args, **kwargs):
        reports.append(call(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(lab, runner, recorded)
    code, out = _run(tmp_path, command, config)
    summary = json.loads((out / "summary.json").read_text())
    want = dict(reports[0].flags)
    assert summary["flags"] == want
    assert summary["pass"] == all(want.values())
    assert code == (EXIT_OK if summary["pass"] else EXIT_FLAGS)


def test_a_false_report_flag_exits_4(tmp_path, monkeypatch):
    # D_Y rises from the first cell to the second; every other flag holds
    cells = tuple({"eps": e, "dx_proxy": 1.0, "D_Y": d, "D_Z": 1.0 / n,
                   "D_K": 1.0 / n, "ratio_Y": d}
                  for n, (e, d) in enumerate([(0.2, 0.1), (0.1, 0.15)], 1))
    rep = lab.StabilityReport(kind="drift-shift", x_name="eps", cells=cells,
                              slopes={}, M_z=1.0, truncation_active=False)
    monkeypatch.setattr(lab, "run_stability", lambda *a, **k: rep)
    code, out = _run(tmp_path, "stability", {})
    assert code == 4 == EXIT_FLAGS
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False
    assert summary["flags"] == {"D_Y_decreasing": False, "D_Z_decreasing": True,
                                "D_K_decreasing": True, "ratio_bounded": True}
