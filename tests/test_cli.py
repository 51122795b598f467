"""End-to-end CLI checks: exit codes, file outputs, reproducibility."""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from cli_env import cli_env

GOLDEN = Path(__file__).parent / "golden" / "summary.json"


def run_cli(*args, env_extra=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "minfinity.cli", *args],
        capture_output=True, text=True, env=cli_env(env_extra), cwd=cwd)


def test_eval_at_global_minimum():
    r = run_cli("eval", "--field", "quadratic-1d", "--theta", "0",
                "--a", "0", "--b", "5", "--lambda", "1")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["L_tilde"] == 0.0


def test_eval_reports_value_and_gradient():
    r = run_cli("eval", "--field", "quadratic-1d", "--theta", "1",
                "--a", "0", "--b", "0")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["L_tilde"] == 2.0
    assert doc["grad"]["a"] == -2.0
    assert doc["grad"]["theta"] == [4.0]


def test_eval_regularizer_only_at_zero_loss():
    r = run_cli("eval", "--field", "rastrigin-1d", "--theta", "0",
                "--a", "0.5", "--b", "0.693147")
    doc = json.loads(r.stdout)
    assert abs(doc["L_tilde"] - 0.25) <= 1e-12


def test_eval_exit_codes():
    assert run_cli("eval", "--field", "nope-3d", "--theta", "0").returncode == 2
    assert run_cli("eval", "--field", "quadratic-2d", "--theta", "1").returncode == 2
    assert run_cli("eval", "--field", "quadratic-1d", "--theta", "99").returncode == 3
    r = run_cli("eval", "--field", "quadratic-1d", "--theta", "1",
                "--a", "1", "--b", "800")  # default policy errors on saturation
    assert r.returncode == 3


def test_contour_outputs_and_scan_section(tmp_path):
    out = tmp_path / "c"
    r = run_cli("contour", "--l-slice", "1", "--out", str(out), "--svg")
    assert r.returncode == 0
    doc = json.loads((out / "contour.json").read_text())
    assert doc["interior_minima"] == [[51, 87], [52, 75], [53, 69], [54, 64], [55, 60]]
    assert doc["grid_min"]["on_max_b_edge"] is False
    rows = (out / "contour.csv").read_text().strip().split("\n")
    assert len(rows) == 101 and len(rows[0].split(",")) == 101
    assert (out / "contour.svg").exists()


def test_contour_zero_slice_reports_plateau_column(tmp_path):
    out = tmp_path / "c0"
    r = run_cli("contour", "--l-slice", "0", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads((out / "contour.json").read_text())
    minima = doc["interior_minima"]
    assert len(minima) == 99 and all(i == 50 for i, _ in minima)
    assert doc["grid_min"]["value"] == 0.0


def test_contour_grid_min_where_exp_b_overflows(tmp_path):
    # a*exp(b) is finite at a = 1e-311, b = 716, but exp(716) alone is not
    out = tmp_path / "big-b"
    r = run_cli("contour", "--l-slice", "1", "--a-range", "1e-311", "2e-311",
                "--b-range", "710", "716", "--resolution", "5", "--out", str(out))
    assert r.returncode == 0, r.stderr
    grid_min = json.loads((out / "contour.json").read_text())["grid_min"]
    assert (grid_min["i"], grid_min["j"]) == (0, 4)
    u = math.exp(math.log(1e-311) + 716.0)  # about 0.90
    assert grid_min["u_deviation"] == pytest.approx(1.0 - u, rel=1e-9)


def test_contour_resolution_precondition(tmp_path):
    r = run_cli("contour", "--resolution", "1", "--out", str(tmp_path / "x"))
    assert r.returncode == 2


@pytest.mark.parametrize("l_slice", ["nan", "inf"])
def test_contour_rejects_a_non_finite_slice(tmp_path, l_slice):
    out = tmp_path / l_slice
    r = run_cli("contour", "--l-slice", l_slice, "--out", str(out))
    assert r.returncode == 2
    assert "l_slice" in r.stderr and not out.exists()


@pytest.mark.parametrize("level", ["nan", "inf"])
def test_contour_rejects_non_finite_levels(tmp_path, level):
    # a non-finite level draws no contour line: the SVG would come out empty
    out = tmp_path / level
    r = run_cli("contour", "--levels", "1", level, "--svg", "--resolution", "5",
                "--out", str(out))
    assert r.returncode == 2
    assert "--levels" in r.stderr and not out.exists()


@pytest.mark.parametrize("axis", ["--a-range", "--b-range"])
def test_contour_rejects_a_zero_width_range(tmp_path, axis):
    # a zero-width axis has no extent to draw: the SVG's pixel map would
    # divide by zero, so the range is refused before any file is written
    out = tmp_path / axis.strip("-")
    r = run_cli("contour", axis, "1", "1", "--resolution", "5", "--svg", "--out", str(out))
    assert r.returncode == 2
    assert "range" in r.stderr and "Traceback" not in r.stderr and not out.exists()


def test_contour_unwritable_output():
    r = run_cli("contour", "--out", "/proc/definitely/not/writable")
    assert r.returncode == 4


def test_optimize_from_bad_minimum(tmp_path):
    out = tmp_path / "run"
    r = run_cli("optimize", "--field", "rastrigin-1d",
                "--start-mode", "at-bad-minimum", "--bad-min-index", "0",
                "--optimizer", "gd", "--step-size", "0.001",
                "--max-steps", "20000", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["outcome"]["kind"] == "budget-exhausted"
    assert doc["outcome"]["final_b"] > 2.0
    assert (out / "trajectory.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["field"] == "rastrigin-1d"  # audit trail embedded


def test_optimize_quadratic_converges(tmp_path):
    r = run_cli("optimize", "--field", "quadratic-1d", "--theta", "2",
                "--step-size", "0.1", "--max-steps", "10000",
                "--out", str(tmp_path / "q"))
    assert r.returncode == 0
    assert json.loads(r.stdout)["outcome"]["kind"] == "converged-finite"


@pytest.mark.parametrize("b", ["176.85", "177.5"])
def test_optimize_gradient_norm_overflow_is_a_numerical_failure(tmp_path, b):
    # at b = 176.85 every square of the gradient is finite but their sum is
    # not (fsum raises on that); at 177.5 one square is inf already
    r = run_cli("optimize", "--field", "quadratic-1d", "--theta", "1", "--a", "1",
                "--b", b, "--max-steps", "10", "--out", str(tmp_path / "run"))
    assert r.returncode == 3, r.stderr
    assert json.loads(r.stdout)["outcome"]["kind"] == "numerical-failure"


def test_optimize_config_file_with_flag_override(tmp_path):
    config = {
        "field": "quadratic-1d",
        "lambda": 1.0,
        "optimizer": {"kind": "gd", "step_size": 0.1, "max_steps": 5000},
        "start": {"mode": "explicit", "theta": [1.0]},
        "out_dir": str(tmp_path / "a"),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    r = run_cli("optimize", "--config", str(path), "--out", str(tmp_path / "b"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["config"]["out_dir"] == str(tmp_path / "b")  # flag wins
    assert (tmp_path / "b" / "summary.json").exists()


def test_optimize_rejects_unknown_config_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "quadratic-1d", "stepsize": 0.1}))
    r = run_cli("optimize", "--config", str(path))
    assert r.returncode == 2
    assert "unknown" in r.stderr


@pytest.mark.parametrize("config, key", [
    ({"lambda": "x"}, "config.lambda"),
    ({"start": {"a": [1]}}, "config.start.a"),
    ({"start": {"theta": 5}}, "config.start.theta"),
    ({"out_dir": 5}, "config.out_dir"),
    ({"start": {"theta": "1"}}, "config.start.theta"),
    ({"optimizer": {"max_steps": 2.5}}, "config.optimizer.max_steps"),
    ({"lambda": True}, "config.lambda"),
    ({"formats": [["csv"]]}, "config.formats"),
])
def test_optimize_rejects_config_values_of_the_wrong_type(tmp_path, config, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "quadratic-1d", **config}))
    r = run_cli("optimize", "--config", str(path), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert f"{key} must be" in r.stderr and "Traceback" not in r.stderr


def test_optimize_config_echoes_valid_values_unchanged(tmp_path):
    # an integer is a number; the echoed config keeps it as the file wrote it
    config = {"field": "quadratic-1d", "lambda": 1, "seed": 3,
              "optimizer": {"step_size": 0.1, "max_steps": 10},
              "start": {"theta": [1], "index": 0}}
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(config))
    r = run_cli("optimize", "--config", str(path), "--out", str(tmp_path / "o"))
    assert r.returncode == 0, r.stderr
    echoed = json.loads((tmp_path / "o" / "summary.json").read_text())["config"]
    assert echoed["optimizer"] == {"kind": "gd", "step_size": 0.1, "max_steps": 10}
    assert json.dumps([echoed["lambda"], echoed["seed"], echoed["start"]]) \
        == '[1, 3, {"index": 0, "mode": "explicit", "theta": [1]}]'


@pytest.mark.parametrize("optimizer, key", [
    ({"kind": "adam", "beta2": 1.0}, "beta2"),  # Adam's bias correction divides by 0
    ({"kind": "adam", "beta1": 1.0}, "beta1"),
    ({"kind": "adam", "beta2": 2.0}, "beta2"),
    ({"kind": "adam", "eps": math.nan}, "eps"),
    ({"kind": "momentum", "momentum": math.nan}, "momentum"),
])
def test_optimize_rejects_degenerate_hyperparameters(tmp_path, optimizer, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "quadratic-1d", "start": {"theta": [1.0]},
                                "optimizer": {"step_size": 0.01, "max_steps": 50,
                                              **optimizer}}))
    r = run_cli("optimize", "--config", str(path), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert f"bad optimizer spec: {key} must be" in r.stderr and "Traceback" not in r.stderr


def test_optimize_missing_field_is_usage_error():
    assert run_cli("optimize", "--step-size", "0.1").returncode == 2


def test_env_seed_fallback(tmp_path):
    args = ("optimize", "--field", "double-well-1d", "--start-mode",
            "seeded-random", "--step-size", "0.01", "--max-steps", "100",
            "--out", str(tmp_path / "s"))
    r = run_cli(*args, env_extra={"MINFINITY_SEED": "123"})
    assert r.returncode == 0
    assert json.loads(r.stdout)["config"]["seed"] == 123
    r2 = run_cli(*args)
    assert json.loads(r2.stdout)["config"]["seed"] == 0
    r3 = run_cli("verify", "--suite", "infimum", env_extra={"MINFINITY_SEED": "5"})
    assert r3.returncode == 0
    assert json.loads(r3.stdout)["seed"] == 5


def test_malformed_env_seed_is_a_usage_error(tmp_path):
    bad = {"MINFINITY_SEED": "abc"}
    r = run_cli("verify", "--suite", "infimum", env_extra=bad)
    assert r.returncode == 2
    assert "MINFINITY_SEED" in r.stderr and "Traceback" not in r.stderr
    assert run_cli("verify", "--suite", "infimum", "--seed", "1", env_extra=bad).returncode == 0
    # the variable is read only when neither the flag nor the config file sets a seed
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 7}))
    r = run_cli("optimize", "--field", "quadratic-1d", "--theta", "1", "--max-steps", "10",
                "--config", str(path), "--out", str(tmp_path / "o"), env_extra=bad)
    assert r.returncode == 0, r.stderr


def test_config_file_seed_is_honoured(tmp_path):
    args = ("optimize", "--field", "double-well-1d", "--start-mode", "seeded-random",
            "--step-size", "0.01", "--max-steps", "100")
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 7}))
    r1 = run_cli(*args, "--config", str(path), "--out", str(tmp_path / "file"))
    r2 = run_cli(*args, "--seed", "7", "--out", str(tmp_path / "flag"))
    assert r1.returncode == r2.returncode == 0
    assert json.loads((tmp_path / "file" / "summary.json").read_text())["config"]["seed"] == 7
    assert ((tmp_path / "file" / "trajectory.csv").read_bytes()
            == (tmp_path / "flag" / "trajectory.csv").read_bytes())
    path.write_text(json.dumps({"seed": "7"}))
    bad = run_cli(*args, "--config", str(path), "--out", str(tmp_path / "str"))
    assert bad.returncode == 2
    assert "seed must be an integer" in bad.stderr


def test_grad_tol_both_stops_and_labels_the_run(tmp_path):
    args = ("optimize", "--field", "quadratic-1d", "--theta", "3",
            "--step-size", "0.1", "--max-steps", "1000")
    r = run_cli(*args, "--grad-tol", "1e-4", "--out", str(tmp_path / "t"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["outcome"]["kind"] == "converged-finite"
    assert doc["total_steps"] == 48
    for tol in ("0", "inf"):  # inf would certify any point with |b| <= 20
        bad = run_cli(*args, "--grad-tol", tol, "--out", str(tmp_path / tol))
        assert bad.returncode == 2
        assert "bad optimizer spec" in bad.stderr


def test_compare_writes_paired_outputs(tmp_path):
    out = tmp_path / "cmp"
    r = run_cli("compare", "--field", "rastrigin-1d",
                "--start-mode", "at-bad-minimum", "--bad-min-index", "0",
                "--optimizer", "gd", "--step-size", "0.001",
                "--max-steps", "20000", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["plain"]["outcome"]["kind"] == "converged-finite"
    assert doc["plain"]["final_base_loss"] >= 0.5
    assert doc["augmented"]["outcome"]["kind"] == "budget-exhausted"
    assert (out / "trajectory_plain.csv").exists()
    assert (out / "trajectory_augmented.csv").exists()
    assert (out / "compare.json").exists()


def test_verify_infimum_suite_passes():
    r = run_cli("verify", "--suite", "infimum", "--seed", "7")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["violations_total"] == 0
    assert all(c["worst_deviation"] <= 1e-3 for c in doc["checks"])


def test_verify_grad_check_suite_passes():
    r = run_cli("verify", "--suite", "grad-check", "--seed", "7")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["violations_total"] == 0
    assert all(c["worst_fd_rel_err"] <= 1e-6 for c in doc["checks"])
    assert all(c["worst_dual_rel_err"] <= 1e-12 for c in doc["checks"])


def test_verify_critical_points_small_sweep():
    r = run_cli("verify", "--suite", "critical-points", "--seeds", "16", "--seed", "3")
    assert r.returncode == 0
    assert json.loads(r.stdout)["violations_total"] == 0


def test_verify_all_passes_the_seed_count_to_the_finder():
    r = run_cli("verify", "--suite", "all", "--seeds", "2", "--seed", "3")
    assert r.returncode == 0
    finder = [c for c in json.loads(r.stdout)["checks"]
              if c["name"].startswith("critical-points:")]
    assert len(finder) == 7 and all(c["seeds"] == 2 for c in finder)


@pytest.mark.parametrize("args", [
    ("--suite", "critical-points", "--seeds", "0"),
    ("--suite", "all", "--seeds", "-1"),
    ("--suite", "grad-check", "--seeds", "4"),
    ("--suite", "infimum", "--seeds", "4"),
])
def test_verify_rejects_a_seed_count_it_cannot_use(args):
    r = run_cli("verify", *args)
    assert r.returncode == 2
    assert "seeds" in r.stderr and r.stdout == ""


def test_cli_outputs_are_byte_identical_across_runs(tmp_path):
    args1 = ("optimize", "--field", "rastrigin-1d", "--start-mode", "seeded-random",
             "--seed", "11", "--optimizer", "adam", "--step-size", "0.01",
             "--max-steps", "3000")
    for sub, args in (("o", args1),):
        d1, d2 = tmp_path / f"{sub}1", tmp_path / f"{sub}2"
        r1 = run_cli(*args, "--out", str(d1))
        r2 = run_cli(*args, "--out", str(d2))
        assert r1.returncode == r2.returncode == 0
        assert (d1 / "trajectory.csv").read_bytes() == (d2 / "trajectory.csv").read_bytes()
        s1 = json.loads((d1 / "summary.json").read_text())
        s2 = json.loads((d2 / "summary.json").read_text())
        s1["config"].pop("out_dir")
        s2["config"].pop("out_dir")
        assert s1 == s2
    c1, c2 = tmp_path / "c1", tmp_path / "c2"
    run_cli("contour", "--l-slice", "1", "--svg", "--out", str(c1))
    run_cli("contour", "--l-slice", "1", "--svg", "--out", str(c2))
    assert (c1 / "contour.csv").read_bytes() == (c2 / "contour.csv").read_bytes()
    assert (c1 / "contour.svg").read_bytes() == (c2 / "contour.svg").read_bytes()


def test_summary_json_matches_golden_schema(tmp_path):
    # fixed run with a relative out_dir: the document must be byte-stable
    r = run_cli("optimize", "--field", "quadratic-1d", "--theta", "1",
                "--optimizer", "gd", "--step-size", "0.1",
                "--max-steps", "1000", "--seed", "0",
                "--out", "runs/golden", cwd=str(tmp_path))
    assert r.returncode == 0
    produced = (tmp_path / "runs" / "golden" / "summary.json").read_bytes()
    assert produced == GOLDEN.read_bytes()
