#!/usr/bin/env python3
"""minfinity benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload finder-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the workload repeats untraced passes and the last stdout line
is a JSON object with the end-to-end metrics.  With ``--trace 1`` it times a
few untraced passes, then traced ones, replays the sampled sub-microsecond
calls, and reports the per-layer metrics instead.  Times are scaled to the
speed of a fixed reference loop timed beside them (``reference.py``), which
takes out the box's own speed swings.  Every pass is checked:
verdicts, the theory's invariants, and the sha256 digests of the artifacts it
writes, which must repeat from pass to pass.  A full record (machine stamp,
pass times, digests beside the committed baseline, spans of the last traced
pass) goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline_digests.json"
SETUP_PROBES_MIN = 12      # measured fresh interpreters per run
SETUP_PROBES_MAX = 20
UNTRACED_SHARE = 0.4       # of --seconds, in a traced run
SETUP_TIMEOUT_S = 60

FIELDS = ("quadratic-1d", "quadratic-2d", "rastrigin-1d", "rastrigin-2d",
          "ackley-2d", "double-well-1d", "quadratic-plus-one-1d")
KINDS = ("gd", "momentum", "adam")

# (name, unit, better) -- BENCHMARK.json lists the same names
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("items_per_s", "items/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("certified", "count", "higher"),
)
PER_LAYER = tuple(
    [("cli.import_s", "s", "lower")]
    + [(f"fields.get_field.cold_s.{f}", "s", "lower") for f in FIELDS]
    + [("fields.raw_value.calls", "count", "lower"),
       ("fields.raw_gradient.calls", "count", "lower")]
    + [(f"fields.raw_value.ns.{f}", "ns", "lower") for f in FIELDS]
    + [(f"fields.raw_gradient.ns.{f}", "ns", "lower") for f in FIELDS]
    + [("fields.value.calls", "count", "lower"), ("fields.value.ns", "ns", "lower")]
    + [(f"augment.{fn}.{m}", u, "lower")
       for fn in ("fast_value", "fast_grad", "evaluate", "gradient")
       for m, u in (("calls", "count"), ("ns", "ns"))]
    + [("augment.slice_value.calls", "count", "lower")]
    + [(f"differentiation.{fn}.{m}", u, "lower")
       for fn in ("dual_gradient", "fd_gradient")
       for m, u in (("calls", "count"), ("us", "us"), ("self_s", "s"))]
    + [("minimize.descend.calls", "count", "lower"),
       ("minimize.descend.iterations", "count", "lower"),
       ("minimize.descend.self_s", "s", "lower"),
       ("minimize.descend.value_evals_per_iter", "evals/iter", "lower"),
       ("minimize.descend.converged_frac", "ratio", "higher"),
       ("minimize.descend.budget_frac", "ratio", "lower")]
    + [(f"optimize.run_optimizer.us_per_step.{k}", "us", "lower") for k in KINDS]
    + [("optimize.run_plain.us_per_step", "us", "lower"),
       ("optimize.raw_value_per_step", "calls/step", "lower"),
       ("optimize.recorded_points", "count", "lower"),
       ("optimize.classify_trajectory.ms", "ms", "lower"),
       ("optimize.write_csv.ms", "ms", "lower"),
       ("optimize.summary_json.ms", "ms", "lower")]
    + [(f"landscape.find_critical_points.s.{f}", "s", "lower") for f in FIELDS]
    + [(f"landscape.iterations.{f}", "count", "lower") for f in FIELDS]
    + [(f"landscape.converged_frac.{f}", "ratio", "higher") for f in FIELDS]
    + [("landscape.probe_infimum.us", "us", "lower"),
       ("landscape.sample_contour.ms", "ms", "lower"),
       ("landscape.stationarity_scan.ms", "ms", "lower")]
    + [(f"verify.{s}.s", "s", "lower")
       for s in ("critical_point_suite", "grad_check_suite", "infimum_suite")]
    + [("svgplot.render_svg.ms", "ms", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


# ---------------------------------------------------------------------------
# machine stamp
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp(seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    load = os.getloadavg()
    return {
        "commit": git_commit(ROOT),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "loadavg_start": list(load),
        "loaded_at_start": load[0] > nproc,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class SetupProbe:
    """Set-up cost measured in fresh interpreters (``setup_probe.py``).

    One warm-up run leaves compiled bytecode behind, as any user's first run
    does.  The measured runs are spread between passes, one after each pass,
    so their median sees the machine over the whole run rather than over
    one second of it.
    """

    def __init__(self, needed: tuple):
        others = [f for f in FIELDS if f not in needed]
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                    *needed, "--", *others]
        self.results: list[dict] = []
        self._run()

    def _run(self) -> dict:
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def between_passes(self, _pass=None) -> None:
        if len(self.results) < SETUP_PROBES_MAX:
            self.results.append(self._run())

    def top_up(self) -> list[dict]:
        while len(self.results) < SETUP_PROBES_MIN:
            self.results.append(self._run())
        return self.results


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def digest_dir(path: Path) -> dict[str, str]:
    out = {}
    for p in sorted(path.iterdir()):
        out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class Clock:
    """Times a pass in segments and scales each to reference speed.

    ``mark`` ends a segment, times the reference loop (outside the pass's
    time) and starts the next one.  A segment's scale factor comes from the
    reference timings on both sides of it.
    """

    def __init__(self):
        self.last_cal = reference.calibrate()
        self.raw = self.scaled = 0.0
        self._t = 0.0

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._t = time.perf_counter()

    def mark(self) -> None:
        seg = time.perf_counter() - self._t
        cal = reference.calibrate()
        self.raw += seg
        self.scaled += seg * reference.speed_factor(self.last_cal, cal)
        self.last_cal = cal
        self._t = time.perf_counter()


class Pass:
    def __init__(self, raw_wall, wall, result, digests, traced):
        self.raw_wall = raw_wall     # measured seconds
        self.wall = wall             # reference seconds
        self.result = result
        self.digests = digests
        self.traced = traced
        self.layers: dict[str, float] = {}

    @property
    def factor(self) -> float:
        return self.wall / self.raw_wall

    def verdict(self) -> tuple:
        r = self.result
        return r.items, r.certified, r.violations, r.failed, self.digests


def run_passes(wl, inputs, budget_s: float, work_dir: Path, min_passes: int,
               clock: Clock, tracer=None, on_pass=None) -> tuple[list[Pass], str | None]:
    """Repeat passes until the next one would likely overrun ``budget_s``."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        pass_dir = work_dir / f"pass-{len(passes)}"
        pass_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.reset()
        try:
            clock.start()
            raw = wl.execute(inputs, str(pass_dir), clock.mark)
            clock.mark()
            result = wl.assess(inputs, raw)
        except Exception:  # the pass failed; report it rather than die
            return passes, traceback.format_exc()
        p = Pass(clock.raw, clock.scaled, result, digest_dir(pass_dir), tracer is not None)
        shutil.rmtree(pass_dir)
        if on_pass is not None:
            on_pass(p)
        passes.append(p)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > budget_s:
            return passes, None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


TIME_SCALE = {"s", "ms", "us", "ns"}


def scale_times(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Multiply every metric with a time unit by ``factor``."""
    return {k: v * factor if UNITS.get(k) in TIME_SCALE else v for k, v in metrics.items()}


def layer_metrics(tracer, factor: float) -> dict[str, float]:
    """Per-layer figures of one traced pass, times scaled by the pass's
    reference ``factor`` (replay and set-up figures come later)."""
    agg = stats.aggregate(tracer.spans)
    c = tracer.counts

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def per_call(name, scale):
        calls, tot, _ = agg.get(name, (0, 0.0, 0.0))
        return _ratio(tot, calls) * scale

    m = {
        "fields.raw_value.calls": tracer.calls("fields.raw_value"),
        "fields.raw_gradient.calls": tracer.calls("fields.raw_gradient"),
        "fields.value.calls": tracer.calls("fields.value"),
        "augment.slice_value.calls": tracer.calls("augment.slice_value"),
    }
    for fn in ("fast_value", "fast_grad", "evaluate", "gradient"):
        m[f"augment.{fn}.calls"] = tracer.calls(f"augment.{fn}")
    for fn in ("dual_gradient", "fd_gradient"):
        calls, tot, own = agg.get(f"differentiation.{fn}", (0, 0.0, 0.0))
        m[f"differentiation.{fn}.calls"] = calls
        m[f"differentiation.{fn}.us"] = _ratio(tot, calls) * 1e6
        m[f"differentiation.{fn}.self_s"] = own
    calls, _, own = agg.get("minimize.descend", (0, 0.0, 0.0))
    iters = c.get("minimize.descend.iterations", 0)
    m.update({
        "minimize.descend.calls": calls,
        "minimize.descend.iterations": iters,
        "minimize.descend.self_s": own,
        "minimize.descend.value_evals_per_iter": _ratio(c.get("minimize.descend.value_evals", 0), iters),
        "minimize.descend.converged_frac": _ratio(c.get("minimize.descend.converged", 0), calls),
        "minimize.descend.budget_frac": _ratio(c.get("minimize.descend.budget", 0), calls),
    })
    for k in KINDS:
        m[f"optimize.run_optimizer.us_per_step.{k}"] = _ratio(
            total(f"optimize.run_optimizer.{k}"), c.get(f"optimize.steps.{k}", 0)) * 1e6
    m["optimize.run_plain.us_per_step"] = _ratio(
        total("optimize.run_plain"), c.get("optimize.steps.plain", 0)) * 1e6
    m["optimize.raw_value_per_step"] = _ratio(
        c.get("optimize.augmented_raw_value_calls", 0), c.get("optimize.augmented_steps", 0))
    m["optimize.recorded_points"] = c.get("optimize.recorded_points", 0)
    for fn in ("classify_trajectory", "write_csv", "summary_json"):
        m[f"optimize.{fn}.ms"] = per_call(f"optimize.{fn}", 1e3)
    for f in FIELDS:
        m[f"landscape.find_critical_points.s.{f}"] = total(f"landscape.find_critical_points.{f}")
        m[f"landscape.iterations.{f}"] = c.get(f"landscape.iterations.{f}", 0)
        m[f"landscape.converged_frac.{f}"] = _ratio(c.get(f"landscape.converged.{f}", 0),
                                                    c.get(f"landscape.seeds.{f}", 0))
    m["landscape.probe_infimum.us"] = per_call("landscape.probe_infimum", 1e6)
    m["landscape.sample_contour.ms"] = per_call("landscape.sample_contour", 1e3)
    m["landscape.stationarity_scan.ms"] = per_call("landscape.stationarity_scan", 1e3)
    for s in ("critical_point_suite", "grad_check_suite", "infimum_suite"):
        m[f"verify.{s}.s"] = total(f"verify.{s}")
    m["svgplot.render_svg.ms"] = per_call("svgplot.render_svg", 1e3)
    return scale_times(m, factor)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minfinity" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'minfinity'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
              "stamp": stamp(args.seed)}

    setup = SetupProbe(tuple(wl.fields))
    for name in FIELDS:
        workloads.get_field(name)      # the in-process equivalent of set-up
    inputs = wl.make_inputs(args.seed)
    work_dir = OUT / f"work-{wl.name}-{os.getpid()}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    tracer = None
    clock = Clock()
    try:
        if args.trace:
            untraced, error = run_passes(wl, inputs, args.seconds * UNTRACED_SHARE,
                                         work_dir / "untraced", 1, clock,
                                         on_pass=setup.between_passes)
            traced = []
            if error is None:
                tracer = tracing.Tracer()
                tracer.install(FIELDS)
                try:
                    traced, error = run_passes(
                        wl, inputs, args.seconds * (1 - UNTRACED_SHARE), work_dir / "traced", 1,
                        clock, tracer=tracer,
                        on_pass=lambda p: p.layers.update(layer_metrics(tracer, p.factor)))
                finally:
                    tracer.uninstall()
            passes = untraced + traced
        else:
            passes, error = run_passes(wl, inputs, args.seconds, work_dir, 3, clock,
                                       on_pass=setup.between_passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not passes:
        print(f"perfbench: {wl.name} failed before a pass completed:\n{error}", file=sys.stderr)
        return 1
    probes = setup.top_up()

    # -- correctness --------------------------------------------------------
    problems = []
    if error is not None:
        problems.append("a pass raised:\n" + error)
        print(error, file=sys.stderr)
    first = passes[0]
    for p in passes:
        problems += p.result.problems
        if p.result.violations:
            problems.append(f"{p.result.violations} violations in a pass")
        if p.verdict() != first.verdict():
            problems.append(("traced" if p.traced else "untraced")
                            + " pass disagrees with the first pass "
                              "(verdicts, counts or artifact digests)")
    problems = list(dict.fromkeys(problems))
    attempted = sum(p.result.attempted for p in passes) + (1 if error else 0)
    failed = sum(p.result.failed for p in passes) + (1 if error else 0)
    correct = not problems and failed == 0

    try:
        baseline = json.loads(BASELINE.read_text()).get(wl.name, {}).get(str(args.seed))
    except (OSError, ValueError):
        baseline = None
    if baseline is None:
        drift, status = [], "no-baseline"
    else:
        drift = sorted(k for k in set(baseline) | set(first.digests)
                       if baseline.get(k) != first.digests.get(k))
        status = "drift" if drift else "match"

    walls = [p.wall for p in passes if not p.traced]
    # a probe's times scaled by the reference loop it ran right after them
    scaled = [{"setup_s": p["setup_s"] * reference.speed_factor(p["ref_s"]),
               "import_s": p["import_s"] * reference.speed_factor(p["ref_s"]),
               "cold_s": {f: t * reference.speed_factor(p["ref_s"])
                          for f, t in p["cold_s"].items()}} for p in probes]
    setup_s = stats.median([p["setup_s"] for p in scaled])
    if args.trace:
        traced = [p for p in passes if p.traced]
        layers = {name: stats.median([p.layers[name] for p in traced])
                  for name in traced[0].layers} if traced else {}
        if tracer is not None:
            before = reference.calibrate()
            replay = tracing.replay_ns(tracer, FIELDS)
            factor = reference.speed_factor(before, reference.calibrate())
            replay = {k: v * factor for k, v in replay.items()}
        else:
            replay = {}
        layers["cli.import_s"] = stats.median([p["import_s"] for p in scaled])
        for f in FIELDS:
            layers[f"fields.get_field.cold_s.{f}"] = stats.median([p["cold_s"][f] for p in scaled])
            for attr in ("raw_value", "raw_gradient"):
                layers[f"fields.{attr}.ns.{f}"] = replay.get(f"fields.{attr}.{f}", 0.0)
        layers["fields.value.ns"] = replay.get("fields.value", 0.0)
        for fn in ("fast_value", "fast_grad", "evaluate", "gradient"):
            layers[f"augment.{fn}.ns"] = replay.get(f"augment.{fn}", 0.0)
        layers["trace.overhead_frac"] = (
            _ratio(stats.median([p.wall for p in traced]), stats.median(walls)) - 1.0
            if traced and walls else 0.0)
        names = [n for n, _, _ in PER_LAYER]
        record["spans_last_traced_pass"] = len(tracer.spans) if tracer else 0
    else:
        layers = {
            "setup_s": setup_s,
            "wall_s": stats.median(walls),
            "items_per_s": _ratio(sum(p.result.items for p in passes), sum(walls)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "certified": first.result.certified,
        }
        names = [n for n, _, _ in END_TO_END]
    metrics = {n: {"value": layers.get(n, 0.0), "unit": UNITS[n]} for n in names}

    load_end = os.getloadavg()
    record["stamp"]["loadavg_end"] = list(load_end)
    q1, q2, q3 = stats.quartiles(walls) if walls else (0.0, 0.0, 0.0)
    record.update({
        "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed,
        "failed_frac": _ratio(failed, attempted),
        "violations": sum(p.result.violations for p in passes),
        "passes": [{"wall_s": p.wall, "raw_wall_s": p.raw_wall, "traced": p.traced,
                    "items": p.result.items, "certified": p.result.certified}
                   for p in passes],
        "raw_setup_s": stats.median([p["setup_s"] for p in probes]),
        "untraced_wall_s": {"n": len(walls), "q1": q1, "median": q2, "q3": q3,
                            "spread": stats.spread(walls) if walls else 0.0},
        "setup_probes": probes,
        "artifacts": {"digests": first.digests, "baseline": status, "drift": drift},
        "metrics": metrics,
    })
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(tracer.spans) + "\n")

    loaded = " (load above nproc at start)" if record["stamp"]["loaded_at_start"] else ""
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {len(walls)} untraced passes, "
          f"wall_s median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}){loaded}")
    print(f"artifacts: {len(first.digests)} files, baseline {status}"
          + (f", {len(drift)} differ" if drift else ""))
    for p in problems:
        print(f"problem: {p}")
    print(f"record: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
