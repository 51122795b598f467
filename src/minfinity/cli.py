"""Command-line experiment runner.

Subcommands: eval, contour, optimize, compare, verify.  Structured results go
to stdout as JSON; bulk numeric output goes to CSV files.  Exit codes:
0 success, 1 verification violation, 2 usage error, 3 evaluation/numerical
failure, 4 output I/O error.  MINFINITY_SEED provides the default seed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys

from . import augment, landscape, optimize, svgplot, verify
from .augment import AugConfig, AugPoint, POLICY_ERROR, POLICY_SATURATE, SaturationError
from .fields import FieldError, field_names, get_field
from .optimize import OptimizerSpec, Thresholds

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


def _default_seed() -> int:
    raw = os.environ.get("MINFINITY_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"MINFINITY_SEED must be an integer, got {raw!r}") from None


def _json(doc: dict) -> str:
    """The text of every JSON document the CLI prints or writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_file(out_dir: str, name: str, write) -> None:
    """Create ``out_dir`` and call ``write`` on the open text file ``name`` in it;
    any OSError, including one raised while ``write`` streams, is an _IOFailure."""
    try:
        os.makedirs(out_dir or ".", exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise _IOFailure(str(exc)) from exc


def _write_text(out_dir: str, name: str, text: str) -> None:
    _write_file(out_dir, name, lambda fh: fh.write(text))


class _IOFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _cmd_eval(args) -> int:
    field = get_field(args.field)
    if len(args.theta) != field.dim:
        raise UsageError(f"field {field.name} expects {field.dim} theta values, "
                         f"got {len(args.theta)}")
    cfg = AugConfig(lam=args.lam, saturation_policy=args.policy)
    point = AugPoint(tuple(args.theta), args.a, args.b)
    result = augment.evaluate(field, point, cfg)
    grad = augment.gradient(field, point, cfg)
    sys.stdout.write(_json({
        "field": field.name,
        "theta": list(point.theta),
        "a": point.a,
        "b": point.b,
        "u": result.u,
        "L": result.base,
        "L_tilde": result.value,
        "grad": {"theta": list(grad.d_theta), "a": grad.d_a, "b": grad.d_b},
        "saturated": bool(result.saturated or grad.saturated),
        "config": {"lambda": cfg.lam, "b_clamp": augment.B_CLAMP,
                   "saturation_policy": cfg.saturation_policy},
    }))
    return EXIT_OK


# ---------------------------------------------------------------------------
# contour
# ---------------------------------------------------------------------------

def _cmd_contour(args) -> int:
    if args.levels and not all(map(math.isfinite, args.levels)):
        raise UsageError(f"--levels must be finite, got {args.levels}")
    grid = landscape.sample_contour(
        args.l_slice, args.lam,
        a_range=tuple(args.a_range), b_range=tuple(args.b_range),
        resolution=args.resolution)
    minima = landscape.stationarity_scan(grid)
    doc = grid.as_dict()
    doc["interior_minima"] = [list(c) for c in minima]
    doc["grid_min"] = grid.grid_min()
    doc["config"] = {
        "l_slice": args.l_slice, "lambda": args.lam,
        "a_range": list(args.a_range), "b_range": list(args.b_range),
        "resolution": args.resolution, "svg": bool(args.svg),
    }
    files = {"contour.csv": "".join(",".join(map(repr, row)) + "\n" for row in grid.values),
             "contour.json": _json(doc)}
    if args.svg:
        files["contour.svg"] = svgplot.render_svg(grid, args.levels or None)
    for name, text in files.items():
        _write_text(args.out, name, text)
    sys.stdout.write(_json({"written": list(files), "out": args.out,
                            "interior_minima_count": len(minima),
                            "grid_min": doc["grid_min"]}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize / compare
# ---------------------------------------------------------------------------

def _is_number(v) -> bool:
    # exact types: a JSON true or false is never a number; an int must fit in a float
    return type(v) is float or type(v) is int and abs(v) <= sys.float_info.max


_TYPES = {  # description -> test of a decoded JSON value
    "an integer": lambda v: type(v) is int,
    "a number": _is_number,
    "a string": lambda v: type(v) is str,
    "a list of numbers": lambda v: type(v) is list and all(map(_is_number, v)),
    "a list of csv/json": lambda v: type(v) is list and all(f in ("csv", "json") for f in v),
}
# config-file key -> what its value must be; a nested table is a JSON object
_OPTIMIZER_KEYS = {"kind": "a string", "step_size": "a number", "max_steps": "an integer",
                   "grad_tol": "a number", "momentum": "a number", "beta1": "a number",
                   "beta2": "a number", "eps": "a number"}
_START_KEYS = {"mode": "a string", "theta": "a list of numbers", "a": "a number",
               "b": "a number", "index": "an integer"}
_TOP_KEYS = {"field": "a string", "lambda": "a number", "seed": "an integer",
             "out_dir": "a string", "formats": "a list of csv/json",
             "optimizer": _OPTIMIZER_KEYS, "start": _START_KEYS}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except ValueError as exc:  # bad JSON, or an integer past the int-str digit limit
        raise UsageError(f"config file cannot be decoded: {exc}")
    _check_config(doc, _TOP_KEYS, "config")
    return doc


def _check_config(doc, table: dict, where: str) -> None:
    """Reject unknown keys and values of the wrong type, naming the key."""
    if type(doc) is not dict:
        raise UsageError(f"{where} must be a JSON object")
    unknown = set(doc) - set(table)
    if unknown:
        raise UsageError(f"unknown {where} keys: {', '.join(sorted(unknown))}")
    for key, value in doc.items():
        want = table[key]
        if isinstance(want, dict):
            _check_config(value, want, f"{where}.{key}")
        elif not _TYPES[want](value):
            raise UsageError(f"{where}.{key} must be {want}, got {json.dumps(value)}")


def _resolve_run_config(args) -> dict:
    doc = _load_config_file(args.config) if args.config else {}
    opt = dict(doc.get("optimizer", {}))
    start = dict(doc.get("start", {}))

    def override(target, key, value):
        if value is not None:
            target[key] = value

    merged = {
        "field": args.field or doc.get("field"),
        "lambda": args.lam if args.lam is not None else doc.get("lambda", 1.0),
        "seed": (args.seed if args.seed is not None
                 else doc["seed"] if "seed" in doc else _default_seed()),
        "out_dir": args.out or doc.get("out_dir", "runs/latest"),
        "formats": doc.get("formats", ["csv", "json"]),
    }
    override(opt, "kind", args.optimizer)
    override(opt, "step_size", args.step_size)
    override(opt, "max_steps", args.max_steps)
    override(opt, "grad_tol", args.grad_tol)
    override(start, "mode", args.start_mode)
    override(start, "theta", list(args.theta) if args.theta is not None else None)
    override(start, "a", args.a)
    override(start, "b", args.b)
    override(start, "index", args.bad_min_index)
    opt.setdefault("kind", "gd")
    opt.setdefault("step_size", 1e-2)
    opt.setdefault("max_steps", 100000)
    start.setdefault("mode", "explicit")
    merged["optimizer"] = opt
    merged["start"] = start
    if not merged["field"]:
        raise UsageError("a field name is required (flag --field or config key)")
    if merged["field"] not in field_names():
        raise UsageError(f"unknown field {merged['field']!r}; "
                         f"available: {', '.join(field_names())}")
    return merged


# start mode -> the start keys it draws or looks up itself
_REPLACED_START_KEYS = {"seeded-random": ("theta", "a", "b"), "at-bad-minimum": ("theta",)}


def _resolve_start(field, start: dict, seed: int) -> AugPoint:
    mode = start.get("mode", "explicit")
    for key in _REPLACED_START_KEYS.get(mode, ()):
        if key in start:  # the echoed config would name a start the run did not use
            raise UsageError(f"start.{key} (--{key}) is not used by start mode {mode!r}")
    a = float(start.get("a", 0.1 if mode == "at-bad-minimum" else 0.0))
    b = float(start.get("b", 0.0))
    if mode == "explicit":
        theta = start.get("theta")
        if theta is None:
            raise UsageError("explicit start requires theta")
        if len(theta) != field.dim:
            raise UsageError(f"start theta needs {field.dim} values, got {len(theta)}")
        return AugPoint(tuple(float(t) for t in theta), a, b)
    if mode == "seeded-random":
        return landscape.random_start(field, random.Random(seed), 0.0)
    if mode == "at-bad-minimum":
        index = int(start.get("index", 0))
        if not (0 <= index < len(field.bad_minima)):
            raise UsageError(f"{field.name} has {len(field.bad_minima)} registered "
                             f"bad minima; index {index} out of range")
        return AugPoint(field.bad_minima[index].point, a, b)
    raise UsageError(f"unknown start mode {mode!r}")


def _spec_from(opt: dict) -> tuple[OptimizerSpec, Thresholds]:
    opt = dict(opt)  # grad_tol is a threshold: one number stops and labels the run
    try:
        thr = Thresholds(grad_tol=opt.pop("grad_tol")) if "grad_tol" in opt else Thresholds()
        return OptimizerSpec(**opt), thr
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad optimizer spec: {exc}")


def _run_setup(args) -> tuple:
    """(config, field, spec, thresholds, start, AugConfig) of an optimize or compare run."""
    config = _resolve_run_config(args)
    field = get_field(config["field"])
    spec, thr = _spec_from(config["optimizer"])
    start = _resolve_start(field, config["start"], config["seed"])
    return config, field, spec, thr, start, AugConfig(lam=config["lambda"])


def _write_trajectory(config: dict, name: str, traj: optimize.Trajectory) -> None:
    if "csv" in config["formats"]:
        _write_file(config["out_dir"], name, traj.write_csv)


def _cmd_optimize(args) -> int:
    config, field, spec, thr, start, cfg = _run_setup(args)
    traj = optimize.run_optimizer(field, start, spec, cfg, thr)
    _write_trajectory(config, "trajectory.csv", traj)
    if "json" in config["formats"]:
        _write_text(config["out_dir"], "summary.json", optimize.summary_json(traj, config))
    sys.stdout.write(_json({"outcome": traj.outcome.as_dict(), "out_dir": config["out_dir"],
                            "total_steps": traj.total_steps, "config": config}))
    return EXIT_NUMERIC if traj.outcome.kind == optimize.FAILED else EXIT_OK


def _cmd_compare(args) -> int:
    config, field, spec, thr, start, cfg = _run_setup(args)
    plain, augmented = optimize.compare_baseline(
        field, start.theta, spec, cfg, thr, a_start=start.a, b_start=start.b)
    _write_trajectory(config, "trajectory_plain.csv", plain)
    _write_trajectory(config, "trajectory_augmented.csv", augmented)
    doc = {
        "field": field.name,
        "config": config,
        "plain": plain.summary(),
        "augmented": augmented.summary(),
    }
    if "json" in config["formats"]:
        _write_text(config["out_dir"], "compare.json", _json(doc))
    sys.stdout.write(_json(doc))
    failed = optimize.FAILED in (plain.outcome.kind, augmented.outcome.kind)
    return EXIT_NUMERIC if failed else EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.seeds is not None and args.suite not in ("critical-points", "all"):
        raise UsageError("--seeds applies to the critical-points and all suites only")
    n_seeds = landscape.FINDER_SEEDS if args.seeds is None else args.seeds
    seed = args.seed if args.seed is not None else _default_seed()
    report = verify.run_suite(args.suite, seed, n_seeds)  # raises on n_seeds < 1
    if args.out:
        _write_text(args.out, "verify.json", _json(report))
    sys.stdout.write(_json(report))
    return EXIT_OK if report["violations_total"] == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads -1e-3, -2E1, -inf and -nan as values, not as
    options: the pattern of argparse in Python 3.11 knows only -12 and -1.5.
    Subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minfinity",
        description="Evaluate, optimize and verify the augmented loss "
                    "L(theta)*(1+(a*exp(b)-1)^2) + lambda*a^2.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="one-shot evaluation with gradient")
    p_eval.add_argument("--field", required=True, choices=field_names())
    p_eval.add_argument("--theta", type=float, nargs="+", required=True)
    p_eval.add_argument("--a", type=float, default=0.0)
    p_eval.add_argument("--b", type=float, default=0.0)
    p_eval.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_eval.add_argument("--policy", choices=[POLICY_ERROR, POLICY_SATURATE],
                        default=POLICY_ERROR)
    p_eval.set_defaults(func=_cmd_eval)

    p_cont = sub.add_parser("contour", help="sample an (a, b) contour grid")
    p_cont.add_argument("--l-slice", type=float, default=1.0)
    p_cont.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_cont.add_argument("--a-range", type=float, nargs=2, default=(-2.0, 2.0))
    p_cont.add_argument("--b-range", type=float, nargs=2, default=(-2.0, 4.0))
    p_cont.add_argument("--resolution", type=int, default=101)
    p_cont.add_argument("--out", required=True)
    p_cont.add_argument("--svg", action="store_true")
    p_cont.add_argument("--levels", type=float, nargs="*", default=None)
    p_cont.set_defaults(func=_cmd_contour)

    for name, fn, help_text in (
            ("optimize", _cmd_optimize, "run one optimizer trajectory"),
            ("compare", _cmd_compare, "paired raw-vs-augmented runs")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run config; flags override")
        p.add_argument("--field", choices=field_names())
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--optimizer", choices=["gd", "momentum", "adam"], default=None)
        p.add_argument("--step-size", type=float, default=None)
        p.add_argument("--max-steps", type=int, default=None)
        p.add_argument("--grad-tol", type=float, default=None)
        p.add_argument("--start-mode",
                       choices=["explicit", "seeded-random", "at-bad-minimum"],
                       default=None)
        p.add_argument("--theta", type=float, nargs="+", default=None)
        p.add_argument("--a", type=float, default=None)
        p.add_argument("--b", type=float, default=None)
        p.add_argument("--bad-min-index", type=int, default=None)
        p.set_defaults(func=fn)

    p_ver = sub.add_parser("verify", help="run a property suite")
    p_ver.add_argument("--suite", choices=list(verify.SUITES), default="all")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--seeds", type=int, default=None,
                       help="finder starts per field, at least 1 "
                            "(critical-points and all suites)")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FieldError, SaturationError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _IOFailure as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
