"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.

Criteria 2 and 5 encode target behaviors that the discrete numerics provably
cannot deliver; they are implemented exactly as stated and left red on
purpose rather than weakened.  The analysis lives next to each test and in
the repository README:

* criterion 2: on any uniform (a, b) grid the u = a*exp(b) = 1 valley is
  narrower than the grid spacing at moderate b, so the cells where the valley
  floor aligns with the b-axis are genuine discrete 8-neighbor minima (an
  exhaustive scan finds five of them at base loss 1), and the grid minimum
  sits at such an interior cell, not on the max-b edge.

* criterion 5: constant-hyperparameter first-order methods cannot push b to
  20 within 1e5 steps.  Stability in the stiff a-direction forces
  step*L*exp(2b) < 1, while b's own gradient decays like exp(-2b); together
  b stalls near 0.5*ln(1/(step*L)).  Measured for gd at 1e-3 from a=0.1,
  b=0 at the rastrigin-1d bad minimum (L = 0.99496): b = 2.975 after 1e5
  steps, 3.454 after 1e6 and 3.451 after 1e7, every run budget-exhausted,
  against the stall value 0.5*ln(1/(1e-3*L)) = 3.456.  After 1e5 steps
  momentum at 1e-3 reaches 3.8 and adam at 1e-2 reaches 4.1.  Reaching
  b = 20 by plain gradient descent would need roughly exp(80)/8 steps.
  A second reason holds whatever the step count: on the valley
  |grad V| ~ 2*lam*exp(-2b), so a run stops on the gradient test once
  b >= 0.5*ln(2*lam/grad_tol) = 9.557 (lam = 1, grad_tol = 1e-8), before it
  reaches b_max = 20; minimum-at-infinity is reachable only if
  grad_tol < 2*lam*exp(-2*b_max) ~ 8.5e-18.
"""
import random
import subprocess
import sys
import time

from cli_env import cli_env
from minfinity import (AugConfig, AugPoint, OptimizerSpec, evaluate, get_field,
                       run_optimizer, run_plain, sample_contour,
                       stationarity_scan, zero_min_field_names)
from minfinity.optimize import AT_INFINITY, CONVERGED
from minfinity.verify import (critical_point_suite, grad_check_suite,
                              infimum_suite)

SEED = 2025


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_every_converged_critical_point_certifies_zero_loss():
    t0 = time.time()
    out = critical_point_suite(seed=SEED, n_seeds=256)
    elapsed = time.time() - t0
    converged = {c["name"].split(":")[1]: c["converged"] for c in out["checks"]}
    ok = (out["violations_total"] == 0
          and converged["quadratic-1d"] >= 64
          and converged["double-well-1d"] >= 16
          and converged["quadratic-plus-one-1d"] == 0
          and elapsed <= 60.0)
    detail = (f"violations={out['violations_total']} converged-per-field={converged} "
              f"elapsed={elapsed:.1f}s (limit 60s)")
    assert report(1, ok, detail), detail


def test_criterion_2_contour_grids_and_discrete_minima():
    t0 = time.time()
    grid0 = sample_contour(0.0, 1.0, a_range=(-2.0, 2.0), b_range=(-2.0, 4.0),
                           resolution=101)
    grid1 = sample_contour(1.0, 1.0, a_range=(-2.0, 2.0), b_range=(-2.0, 4.0),
                           resolution=101)
    scan1 = stationarity_scan(grid1)
    gm = grid1.grid_min()
    # zero-slice clause: the minimizing set is exactly the a=0 column at 0
    minimizers = [(i, j) for i, row in enumerate(grid0.values)
                  for j, v in enumerate(row) if v <= 1e-12]
    zero_ok = (minimizers == [(50, j) for j in range(101)]
               and all(grid0.values[50][j] == 0.0 for j in range(101)))
    # positive-slice clause as stated: no interior discrete minimum and the
    # grid minimum on the max-b edge with u within 0.1 of 1
    pos_ok = (len(scan1) == 0 and gm["on_max_b_edge"] and gm["u_deviation"] <= 0.1)
    elapsed = time.time() - t0
    ok = zero_ok and pos_ok and elapsed <= 5.0
    detail = (f"zero-slice={'ok' if zero_ok else 'violated'}; positive-slice: "
              f"interior-minima={scan1} grid-min=(i={gm['i']},j={gm['j']},"
              f"a={gm['a']:.3f},b={gm['b']:.3f}) on_max_b_edge={gm['on_max_b_edge']} "
              f"|u-1|={gm['u_deviation']:.2e}; elapsed={elapsed:.2f}s (limit 5s)")
    assert report(2, ok, detail), detail


def test_criterion_3_gradients_match_both_oracles():
    t0 = time.time()
    out = grad_check_suite(seed=SEED, n_points=1000)
    elapsed = time.time() - t0
    worst_fd = max(c["worst_fd_rel_err"] for c in out["checks"])
    worst_dual = max(c["worst_dual_rel_err"] for c in out["checks"])
    ok = (out["violations_total"] == 0 and worst_fd <= 1e-6
          and worst_dual <= 1e-12 and elapsed <= 10.0)
    detail = (f"violations={out['violations_total']} worst_fd={worst_fd:.2e} "
              f"worst_dual={worst_dual:.2e} elapsed={elapsed:.1f}s (limit 10s)")
    assert report(3, ok, detail), detail


def test_criterion_4_lower_bound_and_infimum_identity():
    t0 = time.time()
    rng = random.Random(SEED)
    cfg = AugConfig()
    names = zero_min_field_names() + ["quadratic-plus-one-1d"]
    lb_violations = 0
    for k in range(10_000):
        field = get_field(names[k % len(names)])
        theta = field.interior_sample(rng, margin=0.0)
        point = AugPoint(theta, rng.uniform(-5, 5), rng.uniform(-20, 30))
        out = evaluate(field, point, cfg)
        if not (out.value >= out.base >= 0.0):
            lb_violations += 1
    inf_out = infimum_suite(seed=SEED, n_points=100)
    elapsed = time.time() - t0
    worst = max(c["worst_deviation"] for c in inf_out["checks"])
    ok = (lb_violations == 0 and inf_out["violations_total"] == 0
          and worst <= 1e-3 and elapsed <= 10.0)
    detail = (f"lower-bound violations={lb_violations}/10000, infimum "
              f"violations={inf_out['violations_total']} worst={worst:.2e} "
              f"elapsed={elapsed:.1f}s (limit 10s)")
    assert report(4, ok, detail), detail


def test_criterion_5_dynamics_dichotomy_from_a_bad_minimum():
    t0 = time.time()
    field = get_field("rastrigin-1d")
    bad = field.bad_minima[0]
    # best observed gd configuration for b-growth (theta-stable, quasi-static)
    spec = OptimizerSpec(kind="gd", step_size=1e-3, max_steps=100_000)
    aug = run_optimizer(field, AugPoint(bad.point, 0.1, 0.0), spec, AugConfig())
    plain = run_plain(field, bad.point, spec)
    plain_ok = plain.outcome.final_base_loss >= 0.5

    violator = get_field("quadratic-plus-one-1d")
    rng = random.Random(SEED)
    violator_ok = True
    for _ in range(10):
        theta = violator.interior_sample(rng, margin=0.0)
        start = AugPoint(theta, rng.uniform(-2, 2), rng.uniform(-3, 3))
        for vspec in (OptimizerSpec(kind="gd", step_size=1e-3, max_steps=20_000),
                      OptimizerSpec(kind="adam", step_size=1e-2, max_steps=20_000)):
            if run_optimizer(violator, start, vspec).outcome.kind == CONVERGED:
                violator_ok = False
    elapsed = time.time() - t0
    aug_ok = aug.outcome.kind == AT_INFINITY
    ok = aug_ok and plain_ok and violator_ok and elapsed <= 30.0
    detail = (f"augmented-gd outcome={aug.outcome.kind} "
              f"(b={aug.outcome.final_b:.2f}, |u-1|={abs(aug.outcome.final_u - 1):.2e}, "
              f"a={aug.outcome.final_a:.3g}) wanted {AT_INFINITY}; "
              f"plain final L={plain.outcome.final_base_loss:.3f} (>=0.5 "
              f"{'ok' if plain_ok else 'violated'}); violator never converged-finite: "
              f"{'ok' if violator_ok else 'VIOLATED'}; elapsed={elapsed:.1f}s (limit 30s)")
    assert report(5, ok, detail), detail


def test_criterion_6_cli_runs_are_byte_reproducible(tmp_path):
    def cli(*args):
        r = subprocess.run([sys.executable, "-m", "minfinity.cli", *args],
                           capture_output=True, text=True, env=cli_env())
        assert r.returncode == 0, r.stderr
        return r.stdout

    pairs = []
    for tag in ("x", "y"):
        out = tmp_path / tag
        cli("optimize", "--field", "rastrigin-2d", "--start-mode", "seeded-random",
            "--seed", "42", "--optimizer", "adam", "--step-size", "0.01",
            "--max-steps", "2000", "--out", str(out / "run"))
        cli("contour", "--l-slice", "1", "--svg", "--out", str(out / "grid"))
        cli("verify", "--suite", "infimum", "--seed", "9", "--out", str(out / "ver"))
        pairs.append(out)
    x, y = pairs
    same = True
    for rel in ("run/trajectory.csv", "grid/contour.csv", "grid/contour.json",
                "grid/contour.svg", "ver/verify.json"):
        same = same and (x / rel).read_bytes() == (y / rel).read_bytes()
    ok = same
    assert report(6, ok, f"byte-identical outputs across repeated seeded runs: {same}"), \
        "reproducibility violated"
