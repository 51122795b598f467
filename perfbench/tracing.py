"""Tracing from outside the program: wrappers around the library's functions.

``Tracer.install`` replaces functions of every ``minfinity`` module, in each
module namespace that binds them (``from .minimize import descend`` makes a
second binding), and ``uninstall`` restores the originals.  Nothing under
``src/`` changes.

Two kinds of wrapper:

* coarse calls (a suite, a finder run, one optimizer run, one ``descend``)
  record a span ``[name, start, end, parent]`` in memory and may add counts
  from their arguments and results;
* sub-microsecond calls (``raw_value``, the fast closures, ``evaluate``)
  only count, and keep a thinned sample of their real arguments.  A span
  would cost more than such a call, so their time comes from replaying the
  sample in a tight loop after the wrappers are gone (``replay_ns``).
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable

from minfinity import augment, fields, optimize
from minfinity.fields import get_field

from stats import median

REPLAY_MIN_S = 0.01
REPLAY_REPEATS = 5

SAMPLE_CAP = 512

# module -> public functions that get a span
SPANNED = {
    "cli": ("main", "build_parser"),
    "fields": ("normalize", "get_field"),
    "augment": ("fast_value_and_grad", "lifted_loss"),
    "differentiation": ("dual_gradient", "fd_gradient"),
    "minimize": ("descend",),
    "optimize": ("run_optimizer", "run_plain", "compare_baseline",
                 "classify_trajectory", "summary_json"),
    "landscape": ("find_critical_points", "probe_infimum", "sample_contour",
                  "stationarity_scan"),
    "verify": ("critical_point_suite", "grad_check_suite", "infimum_suite", "run_suite"),
    "svgplot": ("render_svg", "default_levels"),
}
# sub-microsecond module functions: counted and sampled, never spanned
COUNTED = {"augment": ("evaluate", "gradient", "slice_value")}


class Sample:
    """Calls number 0, ``stride``, 2*``stride``..., thinned to at most SAMPLE_CAP.

    When full, every other kept item is dropped and the stride doubles, so
    the sample stays spread evenly over the whole pass.
    """

    __slots__ = ("stride", "items")

    def __init__(self):
        self.stride = 1
        self.items: list = []

    def add(self, item) -> None:
        self.items.append(item)
        if len(self.items) > SAMPLE_CAP:
            del self.items[1::2]
            self.stride *= 2


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.cells: dict[str, list] = {}   # name -> [calls]; one list per counter
        self.samples: dict[str, Sample] = {}
        self._undo: list[tuple] = []

    # -- bookkeeping ---------------------------------------------------------

    def reset(self) -> None:
        """Forget what the previous pass recorded; wrappers stay installed."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        for cell in self.cells.values():
            cell[0] = 0
        for s in self.samples.values():
            s.stride, s.items = 1, []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> int:
        cell = self.cells.get(name)
        return cell[0] if cell else 0

    def _cell(self, name: str) -> list:
        return self.cells.setdefault(name, [0])

    def _sample(self, name: str) -> Sample:
        return self.samples.setdefault(name, Sample())

    # -- wrappers ------------------------------------------------------------

    def spanned(self, name: str, fn: Callable, namer=None, before=None,
                after=None) -> Callable:
        """Span around ``fn``.

        ``namer(args, kwargs)`` may refine the span name; ``before(args,
        kwargs)`` returns a state that ``after(args, kwargs, result, state)``
        receives once the call returns, to add counts.
        """
        spans, stack, now = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            state = before(args, kwargs) if before else None
            idx = len(spans)
            spans.append([label, now(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = now()
                stack.pop()
            if after:
                after(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable, sampled: bool = True) -> Callable:
        """Count calls of ``fn``; if ``sampled``, keep a thinned sample of
        copies of their arguments for replay."""
        cell = self._cell(name)
        if not sampled:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            wrapper.__wrapped__ = fn
            return wrapper
        sample = self._sample(name)

        def wrapper(*args, **kwargs):
            n = cell[0]
            cell[0] = n + 1
            if n % sample.stride == 0:
                sample.add((tuple(list(a) if isinstance(a, list) else a for a in args),
                            dict(kwargs)))
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, field_names) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for short in SPANNED:
            importlib.import_module("minfinity." + short)
        mods = {name: mod for name, mod in sys.modules.items()
                if (name == "minfinity" or name.startswith("minfinity.")) and mod}
        replace: dict[int, Callable] = {}
        for short, names in SPANNED.items():
            mod = mods["minfinity." + short]
            for fname in names:
                fn = getattr(mod, fname)
                replace[id(fn)] = self._make_spanned(f"{short}.{fname}", fn)
        for short, names in COUNTED.items():
            mod = mods["minfinity." + short]
            for fname in names:
                fn = getattr(mod, fname)
                replace[id(fn)] = self.counted(f"{short}.{fname}", fn,
                                               sampled=fname != "slice_value")
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                w = replace.get(id(value))
                if w is not None:
                    self._set(mod, attr, w)

        self._set(fields.ScalarField, "value",
                  self.counted("fields.value", fields.ScalarField.value))
        self._set(optimize.Trajectory, "write_csv",
                  self.spanned("optimize.write_csv", optimize.Trajectory.write_csv))
        for name in field_names:
            f = get_field(name)
            for attr in ("raw_value", "raw_gradient"):
                self._set_frozen(f, attr, self._raw(f"fields.{attr}", name, getattr(f, attr)))

    def _raw(self, counter: str, field_name: str, fn: Callable) -> Callable:
        """One field's raw formula: a counter shared by all fields, a sample
        per field, float arguments only (the dual-number oracle calls it too)."""
        cell = self._cell(counter)
        sample = self._sample(f"{counter}.{field_name}")

        def wrapper(coords):
            n = cell[0]
            cell[0] = n + 1
            if n % sample.stride == 0 and type(coords[0]) is float:
                sample.add(((tuple(coords),), {}))
            return fn(coords)

        wrapper.__wrapped__ = fn
        return wrapper

    def _make_spanned(self, name: str, fn: Callable) -> Callable:
        if name == "minimize.descend":
            return self._descend(fn)
        if name == "augment.fast_value_and_grad":
            return self._fast(fn)
        namer, before, after = _HOOKS.get(name, (None, None, None))
        return self.spanned(
            name, fn, namer=namer,
            before=(lambda a, k: before(self, a, k)) if before else None,
            after=(lambda a, k, r, s: after(self, a, k, r, s)) if after else None)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def _set_frozen(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), True))
        object.__setattr__(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, frozen = self._undo.pop()
            if frozen:
                object.__setattr__(owner, attr, original)
            else:
                setattr(owner, attr, original)

    # -- special wrappers ----------------------------------------------------

    def _fast(self, factory: Callable) -> Callable:
        """Wrap the closures ``fast_value_and_grad`` returns."""
        value_cell = self._cell("augment.fast_value")
        grad_cell = self._cell("augment.fast_grad")
        value_sample = self._sample("augment.fast_value")
        grad_sample = self._sample("augment.fast_grad")
        outer = self.spanned("augment.fast_value_and_grad", factory)

        def wrapper(field, cfg):
            value_fn, grad_fn = outer(field, cfg)
            name = field.name

            def value(x):
                n = value_cell[0]
                value_cell[0] = n + 1
                if n % value_sample.stride == 0:
                    value_sample.add((name, cfg, list(x)))
                return value_fn(x)

            def grad(x):
                n = grad_cell[0]
                grad_cell[0] = n + 1
                if n % grad_sample.stride == 0:
                    grad_sample.add((name, cfg, list(x)))
                return grad_fn(x)

            return value, grad

        wrapper.__wrapped__ = factory
        return wrapper

    def _descend(self, fn: Callable) -> Callable:
        """Span plus evaluation accounting for one ``descend`` call.

        A call spent its whole budget when phase 1 ran ``max_iters`` iterations
        or the polish phase ran all of its ``polish_iters`` (> 0) gradient
        steps, without converging.  Phase 1 always returns right after a gradient call; the
        polish phase calls only the gradient and ends with one value call, so
        the gradient calls just before that last value call are its steps.
        """
        defaults = {k: p.default for k, p in inspect.signature(fn).parameters.items()
                    if p.default is not inspect.Parameter.empty}
        spanned = self.spanned("minimize.descend", fn)

        def wrapper(value_fn, grad_fn, x0, **kwargs):
            nv = ng = run = polish = 0
            ended_on_value = False

            def value(x):
                nonlocal nv, run, polish, ended_on_value
                nv += 1
                polish, run, ended_on_value = run, 0, True
                return value_fn(x)

            def grad(x):
                nonlocal ng, run, ended_on_value
                ng += 1
                run += 1
                ended_on_value = False
                return grad_fn(x)

            res = spanned(value, grad, x0, **kwargs)
            max_iters = kwargs.get("max_iters", defaults["max_iters"])
            polish_iters = kwargs.get("polish_iters", defaults["polish_iters"])
            if ended_on_value:
                budget = polish_iters > 0 and polish >= polish_iters
            else:
                budget = res.iterations >= max_iters and not res.escaped
            self.add("minimize.descend.iterations", res.iterations)
            self.add("minimize.descend.value_evals", nv)
            self.add("minimize.descend.grad_evals", ng)
            self.add("minimize.descend.converged", int(res.converged))
            self.add("minimize.descend.budget", int(budget and not res.converged))
            return res

        wrapper.__wrapped__ = fn
        return wrapper


# -- per-function count hooks: name -> (namer, before, after) ------------------

def _kind(args, kwargs) -> str:
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return spec.kind


def _finder_after(tr, args, kwargs, reports, state):
    name = args[0].name
    tr.add(f"landscape.iterations.{name}", sum(r.iterations for r in reports))
    tr.add(f"landscape.converged.{name}", sum(1 for r in reports if r.converged))
    tr.add(f"landscape.seeds.{name}", len(reports))


def _raw_calls(tr, args, kwargs):
    return tr.calls("fields.raw_value")


def _run_after(tr, args, kwargs, traj, raw_before):
    tr.add(f"optimize.steps.{_kind(args, kwargs)}", traj.total_steps)
    tr.add("optimize.recorded_points", len(traj.steps))
    tr.add("optimize.augmented_steps", traj.total_steps)
    tr.add("optimize.augmented_raw_value_calls", tr.calls("fields.raw_value") - raw_before)


def _plain_after(tr, args, kwargs, traj, state):
    tr.add("optimize.steps.plain", traj.total_steps)
    tr.add("optimize.recorded_points", len(traj.steps))


_HOOKS = {
    "landscape.find_critical_points": (
        lambda a, k: f"landscape.find_critical_points.{a[0].name}", None, _finder_after),
    "optimize.run_optimizer": (
        lambda a, k: f"optimize.run_optimizer.{_kind(a, k)}", _raw_calls, _run_after),
    "optimize.run_plain": (None, None, _plain_after),
}


# -- replay ------------------------------------------------------------------

def time_calls(fn: Callable, calls: list, min_s: float = REPLAY_MIN_S,
               repeats: int = REPLAY_REPEATS) -> float:
    """Median nanoseconds per call of ``fn`` over recorded ``(args, kwargs)``.

    The loop is repeated until one repeat lasts ``min_s``; the figure
    includes the cost of the Python call itself.
    """
    now = time.perf_counter

    def sweep(loops: int) -> float:
        t = now()
        for _ in range(loops):
            for args, kwargs in calls:
                fn(*args, **kwargs)
        return now() - t

    loops = max(1, int(min_s / max(sweep(1), 1e-9)) + 1)
    return median([sweep(loops) / (loops * len(calls)) for _ in range(repeats)]) * 1e9


def replay_ns(tracer: Tracer, field_names) -> dict[str, float]:
    """Time the sampled sub-microsecond calls on the original functions.

    Call after ``uninstall``.  Returns ns per call by counter name; a function
    the pass never called is absent.
    """
    if tracer._undo:
        raise RuntimeError("replay needs the original functions; uninstall first")
    samples = {k: s.items for k, s in tracer.samples.items() if s.items}
    out = {}
    for name in field_names:
        f = get_field(name)
        for attr in ("raw_value", "raw_gradient"):
            calls = samples.get(f"fields.{attr}.{name}")
            if calls:
                out[f"fields.{attr}.{name}"] = time_calls(getattr(f, attr), calls)
    for key, fn in (("fields.value", fields.ScalarField.value),
                    ("augment.evaluate", augment.evaluate),
                    ("augment.gradient", augment.gradient)):
        if key in samples:
            out[key] = time_calls(fn, samples[key])
    for key, pick in (("augment.fast_value", 0), ("augment.fast_grad", 1)):
        groups: dict[tuple, list] = {}
        for fname, cfg, x in samples.get(key, ()):
            groups.setdefault((fname, cfg), []).append(((x,), {}))
        if groups:
            total = sum(len(c) for c in groups.values())
            out[key] = sum(
                time_calls(augment.fast_value_and_grad(get_field(fname), cfg)[pick], calls)
                * len(calls) for (fname, cfg), calls in groups.items()) / total
    return out
