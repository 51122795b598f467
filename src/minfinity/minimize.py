"""Damped gradient descent with backtracking, shared by normalization and the
critical-point finder.

Phase 1 backtracks from a carried step until an Armijo sufficient-decrease
test passes, with the displacement norm capped (no teleporting across the
landscape).  When the objective hits its floating-point floor the value test
stops being informative (catastrophic cancellation near flat minima), so a
second phase polishes with small fixed gradient steps, keeping the best
gradient norm seen.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

ARMIJO_C = 0.1
STALL_STEP = 1e-10
STEP0 = 1.0  # first trial step
STEP_CAP = 2.0  # longest displacement one trial step may make


@dataclass
class DescentResult:
    x: list[float]
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    escaped: bool = False


def _project(x: list[float], lower, upper) -> list[float]:
    if lower is None:
        return x
    return [min(max(c, lo), hi) for c, lo, hi in zip(x, lower, upper)] + x[len(lower):]


def descend(value_fn: Callable[[Sequence[float]], float],
            grad_fn: Callable[[Sequence[float]], Sequence[float]],
            x0: Sequence[float],
            *,
            grad_tol: float = 1e-8,
            max_iters: int = 3000,
            polish_iters: int = 2000,
            escape: Callable[[Sequence[float]], bool] | None = None,
            clamp_lower: Sequence[float] | None = None,
            clamp_upper: Sequence[float] | None = None) -> DescentResult:
    """Minimize until the gradient norm reaches ``grad_tol`` or budgets expire.

    ``escape`` marks runs that wandered out of the region of interest; they are
    abandoned and reported unconverged.  ``clamp_lower``/``clamp_upper`` project
    the leading coordinates onto a box after every trial step.
    """
    x = _project(list(map(float, x0)), clamp_lower, clamp_upper)
    v = value_fn(x)
    step = STEP0
    last_good = 1e-3
    iterations = 0
    stalled = False
    gn = math.inf

    for _ in range(max_iters):
        g = list(grad_fn(x))
        gn2 = math.fsum(c * c for c in g)
        gn = math.sqrt(gn2)
        if not (math.isfinite(gn) and math.isfinite(v)):
            return DescentResult(x, v, gn, iterations, False)
        if gn <= grad_tol:
            return DescentResult(x, v, gn, iterations, True)
        if escape is not None and escape(x):
            return DescentResult(x, v, gn, iterations, False, escaped=True)
        s = min(step, STEP_CAP / gn)
        accepted = False
        for _ in range(60):
            nx = _project([xi - s * gi for xi, gi in zip(x, g)],
                          clamp_lower, clamp_upper)
            nv = value_fn(nx)
            if math.isfinite(nv) and nv <= v - ARMIJO_C * s * gn2:
                x, v = nx, nv
                step = s * 2.0
                if s >= STALL_STEP:
                    last_good = s
                accepted = True
                break
            s *= 0.5
        iterations += 1
        if not accepted or s < STALL_STEP:
            stalled = True
            break

    if not stalled:
        g = list(grad_fn(x))
        gn = math.sqrt(math.fsum(c * c for c in g))
        return DescentResult(x, v, gn, iterations, gn <= grad_tol)

    # phase 2: the value has reached its representable floor; walk the analytic
    # gradient directly with a small constant step and keep the best iterate
    eta = min(last_good, 0.1)
    best_x, best_gn = list(x), gn
    setbacks = 0
    for _ in range(polish_iters):
        g = list(grad_fn(x))
        gn = math.sqrt(math.fsum(c * c for c in g))
        if not math.isfinite(gn):
            break
        if gn < best_gn:
            best_gn, best_x = gn, list(x)
            setbacks = 0
        else:
            setbacks += 1
            if setbacks >= 5:
                x = list(best_x)
                eta *= 0.5
                setbacks = 0
                if eta < 1e-15:
                    break
                continue
        if gn <= grad_tol:
            break
        if escape is not None and escape(x):
            break
        x = _project([xi - eta * gi for xi, gi in zip(x, g)],
                     clamp_lower, clamp_upper)
        iterations += 1

    v = value_fn(best_x)
    return DescentResult(best_x, v, best_gn, iterations, best_gn <= grad_tol)
