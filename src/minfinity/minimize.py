"""Damped gradient descent with backtracking, shared by the critical-point
finder and normalization.

Phase 1 backtracks from a carried step until an Armijo sufficient-decrease
test passes, with the displacement norm capped (no teleporting across the
landscape).  When the objective hits its floating-point floor the value test
stops being informative (catastrophic cancellation near flat minima), so a
second phase polishes with small fixed gradient steps, keeping the best
gradient norm seen.
"""
from __future__ import annotations

from math import fsum, inf, isfinite, sqrt  # bare names: descend's loop is the finder's hot path
from operator import mul
from typing import Callable, NamedTuple, Sequence

ARMIJO_C = 0.1
STALL_STEP = 1e-10
STEP0 = 1.0  # first trial step
STEP_CAP = 2.0  # longest displacement one trial step may make


class DescentResult(NamedTuple):
    x: list[float]
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    escaped: bool = False


def _sum_sq(g) -> float:
    """``fsum`` of the squares of ``g``, inf where that sum overflows: every
    term is >= 0, and fsum raises OverflowError there instead of returning inf."""
    try:
        return fsum(map(mul, g, g))
    except OverflowError:
        return inf


def _clip(x: list[float], box) -> bool:
    """Project the boxed leading coordinates of ``x`` in place; returns whether
    any coordinate moved.

    ``box`` holds ``(index, lo, hi)`` triples.  Each boxed coordinate gets
    exactly ``min(max(c, lo), hi)``, so with float bounds the result and the
    flag are bitwise those of :meth:`fields.ScalarField.clamp`; the list is
    written only where a coordinate lies outside its bounds.
    """
    moved = False
    for i, lo, hi in box:
        c = x[i]
        if c < lo:
            x[i] = c = lo
            moved = True
        if c > hi:
            x[i] = hi
            moved = True
    return moved


def descend(value_fn: Callable[[Sequence[float]], float],
            grad_fn: Callable[[Sequence[float]], Sequence[float]],
            x0: Sequence[float],
            *,
            grad_tol: float = 1e-8,
            max_iters: int = 3000,
            polish_iters: int = 2000,
            escape: Callable[..., bool] | None = None,
            clamp_lower: Sequence[float] | None = None,
            clamp_upper: Sequence[float] | None = None) -> DescentResult:
    """Minimize until the gradient norm reaches ``grad_tol`` or budgets expire.

    ``escape(x, v, g)`` marks runs that wandered out of the region of
    interest; they are abandoned and reported unconverged.  It gets what
    descend already holds at the iterate: in phase 1 the point, its value and
    its gradient, in the polish phase the point with ``None`` for the other
    two; descend makes no closure call for it.  ``clamp_lower`` and
    ``clamp_upper`` project the leading coordinates onto a box after every
    trial step; the projection works in place on the fresh trial list, before
    any closure sees it.

    The closures may rely on this: every point descend passes is a list it
    built itself, and it never mutates a list after passing it to a closure.
    So ``grad_fn`` may reuse what ``value_fn`` computed for the very same list
    object (``augment.fast_value_and_grad``'s one rule).  Phase 1 asks for
    the gradient only at the last point it evaluated.  descend only reads
    what ``grad_fn`` returns, and drops it at the next gradient call.
    """
    box = () if clamp_lower is None else tuple(zip(range(len(clamp_lower)),
                                                   clamp_lower, clamp_upper))
    x = list(map(float, x0))
    _clip(x, box)
    v = value_fn(x)
    step = STEP0
    last_good = 1e-3
    iterations = 0
    stalled = False
    gn = inf

    armijo = ARMIJO_C  # a local: read on every trial
    for _ in range(max_iters):
        g = grad_fn(x)
        gn2 = _sum_sq(g)
        gn = sqrt(gn2)
        if not (isfinite(gn) and isfinite(v)):
            return DescentResult(x, v, gn, iterations, False)
        if gn <= grad_tol:
            return DescentResult(x, v, gn, iterations, True)
        if escape is not None and escape(x, v, g):
            return DescentResult(x, v, gn, iterations, False, escaped=True)
        s = STEP_CAP / gn
        if not s < step:  # min(step, s) in one comparison: a tie keeps step
            s = step
        accepted = False
        for _ in range(60):
            # x.copy() and an in-place loop: bitwise xi - s*gi, without the
            # function frame a comprehension costs
            nx = x.copy()
            for i, gi in enumerate(g):
                nx[i] -= s * gi
            _clip(nx, box)
            nv = value_fn(nx)
            # the Armijo test first: nan and +-inf fail one of the two tests
            if nv <= v - armijo * s * gn2 and isfinite(nv):
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
        g = grad_fn(x)
        gn = sqrt(_sum_sq(g))
        return DescentResult(x, v, gn, iterations, gn <= grad_tol)

    # phase 2: the value has reached its representable floor; walk the analytic
    # gradient directly with a small constant step and keep the best iterate
    # (no list is mutated once built, so iterates are shared, not copied)
    eta = min(last_good, 0.1)
    best_x, best_gn = x, gn
    setbacks = 0
    for _ in range(polish_iters):
        g = grad_fn(x)
        gn = sqrt(_sum_sq(g))
        if not isfinite(gn):
            break
        if gn < best_gn:
            best_gn, best_x = gn, x
            setbacks = 0
        else:
            setbacks += 1
            if setbacks >= 5:
                x = best_x
                eta *= 0.5
                setbacks = 0
                if eta < 1e-15:
                    break
                continue
        if gn <= grad_tol:
            break
        if escape is not None and escape(x, None, None):
            break
        x = x.copy()
        for i, gi in enumerate(g):
            x[i] -= eta * gi
        _clip(x, box)
        iterations += 1

    v = value_fn(best_x)
    return DescentResult(best_x, v, best_gn, iterations, best_gn <= grad_tol)
