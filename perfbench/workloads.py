"""The three workloads: inputs made from a seed, one timed pass, and its checks.

A workload splits a pass in two.  ``execute`` is the timed part: it calls the
library and writes the artifacts a user would keep.  It calls ``mark()``
between segments of about one to three seconds; the runner times the
machine's speed there (see ``reference.py``), outside the pass's time.
``assess`` runs after the timer stops and turns what ``execute`` returned
into counts and verdicts.
Calls go through module attributes (``verify.critical_point_suite``, not a
name imported from it) so the traced pass sees every call.

Sizes below are chosen so that one pass lasts about 1 to 11 seconds on a
2-vCPU box and the seed-to-seed variation of the work and of the certified
count in a pass stays within a few per cent.
"""
from __future__ import annotations

import json
import math
import os
import random
import statistics
from dataclasses import dataclass, field as dc_field

from minfinity import augment, landscape, optimize, svgplot, verify
from minfinity.augment import AugConfig, AugPoint
from minfinity.fields import field_names, get_field

FINDER_SEEDS_PER_FIELD = 32

# every field with registered bad minima: 10 starts over 5 fields
CHANNEL_FIELDS = ("rastrigin-1d", "rastrigin-2d", "ackley-2d", "double-well-1d",
                  "quadratic-plus-one-1d")
# README step sizes
CHANNEL_OPTIMIZERS = (("gd", 1e-3), ("momentum", 1e-3), ("adam", 1e-2))
# just past optimize.DENSE_RECORD_LIMIT, so recording thins out in every run
CHANNEL_MAX_STEPS = 10_500
CHANNEL_THETA_JITTER = 0.01
CHANNEL_A_RANGE = (0.05, 0.2)
CHANNEL_B_RANGE = (-0.5, 0.5)
# a plain run must settle on the bad value it started next to
PLAIN_TRAP_TOL = 1e-6
# an augmented run keeps u = a*e^b within this of 1, judged by the median of u
# over the final quarter of the recorded path: Adam at 1e-2 still swings u by
# about +-0.2 around 1 there, so the last step alone is a matter of phase
CHANNEL_U_WINDOW = 0.1

AUDIT_GRAD_POINTS = 400     # per field
AUDIT_INFIMUM_POINTS = 100  # per field
AUDIT_BOUND_SAMPLES = 10_000
AUDIT_SLICES = (0.0, 1.0)


@dataclass
class PassResult:
    """What one pass did, computed after its timer stopped."""

    items: int
    certified: int
    violations: int
    attempted: int
    failed: int
    problems: list[str] = dc_field(default_factory=list)


def _dump_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# finder-sweep
# ---------------------------------------------------------------------------

class FinderSweep:
    name = "finder-sweep"
    fields = tuple(field_names())

    def __init__(self, n_seeds: int = FINDER_SEEDS_PER_FIELD):
        self.n_seeds = n_seeds

    def make_inputs(self, seed: int) -> dict:
        return {"seed": seed, "n_seeds": self.n_seeds}

    def execute(self, inputs: dict, out_dir: str, mark) -> list[dict]:
        reports = []
        for k, name in enumerate(self.fields):
            if k:
                mark()
            report = verify.critical_point_suite(seed=inputs["seed"], n_seeds=inputs["n_seeds"],
                                                 fields=[name])
            _dump_json(os.path.join(out_dir, f"verify-critical-points-{name}.json"), report)
            reports.append(report)
        return reports

    def assess(self, inputs: dict, reports: list[dict]) -> PassResult:
        checks = [c for r in reports for c in r["checks"]]
        attempted = inputs["n_seeds"] * len(checks)
        failed = sum(1 for c in checks
                     if not (math.isfinite(c["worst_base_loss"])
                             and math.isfinite(c["worst_abs_a"])))
        problems = []
        if len(checks) != len(self.fields):
            problems.append(f"suite covered {len(checks)} fields, expected {len(self.fields)}")
        if any(c["converged"] > c["seeds"] for c in checks):
            problems.append("more converged seeds than seeds")
        return PassResult(
            items=attempted,
            certified=sum(c["converged"] for c in checks),
            violations=sum(r["violations_total"] for r in reports),
            attempted=attempted,
            failed=failed,
            problems=problems,
        )


# ---------------------------------------------------------------------------
# channel-dynamics
# ---------------------------------------------------------------------------

class ChannelDynamics:
    name = "channel-dynamics"
    fields = CHANNEL_FIELDS

    def __init__(self, max_steps: int = CHANNEL_MAX_STEPS,
                 optimizers=CHANNEL_OPTIMIZERS, fields=CHANNEL_FIELDS):
        self.max_steps = max_steps
        self.optimizers = optimizers
        self.fields = fields

    def make_inputs(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        starts = []
        for name in self.fields:
            f = get_field(name)
            for index, bad in enumerate(f.bad_minima):
                for kind, eta in self.optimizers:
                    theta = tuple(
                        min(max(c + rng.uniform(-CHANNEL_THETA_JITTER, CHANNEL_THETA_JITTER),
                                lo), hi)
                        for c, lo, hi in zip(bad.point, f.lower, f.upper))
                    starts.append({
                        "tag": f"{name}-{index}-{kind}",
                        "field": name,
                        "bad_value": bad.value,
                        "theta": theta,
                        "a": rng.uniform(*CHANNEL_A_RANGE),
                        "b": rng.uniform(*CHANNEL_B_RANGE),
                        "spec": optimize.OptimizerSpec(kind=kind, step_size=eta,
                                                       max_steps=self.max_steps),
                    })
        return starts

    def execute(self, starts: list[dict], out_dir: str, mark) -> list:
        cfg = AugConfig()
        runs = []
        for k, s in enumerate(starts):
            if k and s["field"] != starts[k - 1]["field"]:
                mark()
            plain, aug = optimize.compare_baseline(
                get_field(s["field"]), s["theta"], s["spec"], cfg,
                a_start=s["a"], b_start=s["b"])
            config = {"field": s["field"], "optimizer": s["spec"].kind,
                      "step_size": s["spec"].step_size, "max_steps": s["spec"].max_steps,
                      "theta": list(s["theta"]), "a": s["a"], "b": s["b"]}
            for label, traj in (("plain", plain), ("augmented", aug)):
                with open(os.path.join(out_dir, f"{s['tag']}-{label}.csv"), "w",
                          encoding="utf-8") as fh:
                    traj.write_csv(fh)
                with open(os.path.join(out_dir, f"{s['tag']}-{label}.json"), "w",
                          encoding="utf-8") as fh:
                    fh.write(optimize.summary_json(traj, config))
            tail_u = statistics.median(aug.us[-max(2, len(aug.us) // 4):])
            runs.append((plain.outcome, plain.total_steps, aug.outcome, aug.total_steps, tail_u))
        return runs

    def assess(self, starts: list[dict], runs: list) -> PassResult:
        items = certified = violations = failed = 0
        problems = []
        for s, (po, p_steps, ao, a_steps, tail_u) in zip(starts, runs):
            items += p_steps + a_steps
            if ao.kind in (optimize.CONVERGED, optimize.FAILED):
                violations += 1
                problems.append(f"{s['tag']}: augmented run ended {ao.kind}")
            for o in (po, ao):
                if o.kind == optimize.FAILED:
                    failed += 1
            # the augmented run follows the channel: b grows, u stays near 1
            in_channel = (ao.kind not in (optimize.CONVERGED, optimize.FAILED)
                          and ao.final_b > s["b"] and abs(tail_u - 1.0) <= CHANNEL_U_WINDOW)
            # the plain run is trapped at the bad value it started beside
            trapped = (po.kind == optimize.CONVERGED
                       and abs(po.final_base_loss - s["bad_value"])
                       <= PLAIN_TRAP_TOL * max(1.0, s["bad_value"]))
            if not trapped:
                problems.append(f"{s['tag']}: plain run ended {po.kind} at "
                                f"L={po.final_base_loss!r}, not at the bad value")
            if not in_channel and ao.kind not in (optimize.CONVERGED, optimize.FAILED):
                problems.append(f"{s['tag']}: augmented run left the channel "
                                f"(b={ao.final_b!r}, median u over the tail={tail_u!r})")
            certified += int(in_channel) + int(trapped)
        return PassResult(items=items, certified=certified, violations=violations,
                          attempted=2 * len(starts), failed=failed, problems=problems)


# ---------------------------------------------------------------------------
# oracle-audit
# ---------------------------------------------------------------------------

class OracleAudit:
    name = "oracle-audit"
    fields = tuple(field_names())

    def __init__(self, grad_points: int = AUDIT_GRAD_POINTS,
                 infimum_points: int = AUDIT_INFIMUM_POINTS,
                 bound_samples: int = AUDIT_BOUND_SAMPLES, resolution: int = 101):
        self.grad_points = grad_points
        self.infimum_points = infimum_points
        self.bound_samples = bound_samples
        self.resolution = resolution

    def make_inputs(self, seed: int) -> dict:
        # criterion-4 sampling: theta anywhere in the box, a in +-5, b in [-20, 30]
        rng = random.Random(seed)
        names = list(self.fields)
        samples = []
        for k in range(self.bound_samples):
            name = names[k % len(names)]
            theta = get_field(name).interior_sample(rng, margin=0.0)
            samples.append((name, AugPoint(theta, rng.uniform(-5, 5), rng.uniform(-20, 30))))
        return {"seed": seed, "bound_samples": samples}

    def execute(self, inputs: dict, out_dir: str, mark) -> dict:
        # about a second in all: one segment, so ``mark`` is never called
        seed = inputs["seed"]
        grad = verify.grad_check_suite(seed=seed, n_points=self.grad_points)
        _dump_json(os.path.join(out_dir, "verify-grad-check.json"), grad)
        inf = verify.infimum_suite(seed=seed, n_points=self.infimum_points)
        _dump_json(os.path.join(out_dir, "verify-infimum.json"), inf)

        cfg = AugConfig()
        bound = []
        for name, point in inputs["bound_samples"]:
            out = augment.evaluate(get_field(name), point, cfg)
            bound.append((out.value, out.base))

        contours = []
        for l_slice in AUDIT_SLICES:
            grid = landscape.sample_contour(l_slice, resolution=self.resolution)
            minima = landscape.stationarity_scan(grid)
            doc = grid.as_dict()
            doc["interior_minima"] = [list(c) for c in minima]
            doc["grid_min"] = grid.grid_min()
            stem = os.path.join(out_dir, f"contour-L{l_slice:g}")
            with open(stem + ".csv", "w", encoding="utf-8") as fh:
                fh.write("\n".join(",".join(repr(v) for v in row)
                                   for row in grid.values) + "\n")
            _dump_json(stem + ".json", doc)
            with open(stem + ".svg", "w", encoding="utf-8") as fh:
                fh.write(svgplot.render_svg(grid))
            contours.append((l_slice, grid, minima, doc["grid_min"]))
        return {"grad": grad, "infimum": inf, "bound": bound, "contours": contours}

    def assess(self, inputs: dict, out: dict) -> PassResult:
        grad, inf = out["grad"], out["infimum"]
        problems = []
        failed = 0
        for c in grad["checks"]:
            if not (math.isfinite(c["worst_fd_rel_err"]) and math.isfinite(c["worst_dual_rel_err"])):
                failed += 1
        for c in inf["checks"]:
            if not math.isfinite(c["worst_deviation"]):
                failed += 1
        bound_fail = 0
        for value, base in out["bound"]:
            if not (math.isfinite(value) and math.isfinite(base)):
                failed += 1
            if not (value >= base >= 0.0):
                bound_fail += 1
        for l_slice, grid, minima, gmin in out["contours"]:
            if gmin["value"] < l_slice:
                problems.append(f"contour L={l_slice}: grid minimum below the slice")
            if l_slice == 0.0:
                # V = lam*a^2 on the zero slice: minimizing set is the a = 0 column
                if gmin["value"] != 0.0 or any(grid.a_axis[i] != 0.0 for i, _ in minima):
                    problems.append("contour L=0: minima off the a = 0 column")
        points = (sum(c["points"] for c in grad["checks"])
                  + sum(c["points"] for c in inf["checks"]) + len(out["bound"]))
        violations = grad["violations_total"] + inf["violations_total"] + bound_fail
        return PassResult(items=points, certified=max(points - violations, 0),
                          violations=violations, attempted=points, failed=failed,
                          problems=problems)


WORKLOADS = {w.name: w for w in (FinderSweep, ChannelDynamics, OracleAudit)}
