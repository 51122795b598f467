"""Landscape probes: multistart critical-point search, the infimum identity
along a*exp(b) = 1, and dense contour grids with a discrete-minimum scan.

The finder is the numerical check of the core claim: every finite point where
the augmented gradient vanishes (within tolerance, with |b| bounded) must sit
at base loss 0 with a at 0.  Runs that chase b to infinity, or that sit in a
bad minimum's channel on the way there, are stopped early and reported
unconverged rather than discarded.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .augment import (B_CLAMP, AugConfig, AugPoint, Thresholds, _terms, fast_value_and_grad,
                      slice_value)
from .fields import ScalarField
from .minimize import descend

SEED_A_RANGE = (-2.0, 2.0)
SEED_B_RANGE = (-3.0, 3.0)
B_ESCAPE_MARGIN = 5.0


@dataclass(frozen=True)
class CriticalPointReport:
    point: AugPoint
    grad_norm: float
    base_loss: float
    seed_index: int
    converged: bool
    iterations: int


def find_critical_points(field: ScalarField, cfg: AugConfig | None = None,
                         n_seeds: int = 256, seed: int = 0) -> list[CriticalPointReport]:
    """Damped descent from seeded starts; one report per start, converged or not.

    Seeds draw theta uniformly from the field's box, a from [-2, 2] and b from
    [-3, 3].  A report is converged only when the descent reached
    ``Thresholds().grad_tol`` and :meth:`Thresholds.certifies` the end point.
    A seed also ends early, unconverged, when it is following the valley to
    infinity: at any iterate whose |b| exceeds ``Thresholds().b_max`` by a
    margin, and at any phase-1 iterate that :meth:`Thresholds.in_channel`
    places in a bad minimum's channel, where no point certifies.  The base
    loss for that test is read off the value, ``(V - lam*a^2) / (1 +
    (u - 1)^2)``.  The fast closures never raise on an exponent guard,
    whatever the saturation policy.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    thr = Thresholds()
    cfg = cfg or AugConfig()
    value_fn, grad_fn = fast_value_and_grad(field, cfg)
    rng = random.Random(seed)
    dim, lam, clamp = field.dim, cfg.lam, cfg.b_clamp
    escape_at = thr.b_max + B_ESCAPE_MARGIN

    def escape(x, v, g):
        a, b = x[dim], x[dim + 1]
        if abs(b) > escape_at:
            return True
        if g is None:  # the polish phase: the |b| escape alone
            return False
        # in_channel's first test, with its limit, before u and L are computed
        theta_norm = math.hypot(*g[:dim])
        if not theta_norm <= thr.grad_tol:
            return False
        u = _terms(0.0, a, b, lam, clamp)[2]
        dev = u - 1.0
        return thr.in_channel(theta_norm, (v - lam * a * a) / (1.0 + dev * dev), u)

    reports = []
    for index in range(n_seeds):
        theta0 = [rng.uniform(lo, hi) for lo, hi in zip(field.lower, field.upper)]
        x0 = theta0 + [rng.uniform(*SEED_A_RANGE), rng.uniform(*SEED_B_RANGE)]
        res = descend(
            value_fn, grad_fn, x0,
            grad_tol=thr.grad_tol,
            max_iters=3000,
            polish_iters=2000,
            escape=escape,
            clamp_lower=field.lower,
            clamp_upper=field.upper,
        )
        point = AugPoint(tuple(res.x[:field.dim]), res.x[field.dim], res.x[field.dim + 1])
        base_loss = field.value(point.theta, check_domain=False)
        converged = res.converged and thr.certifies(res.grad_norm, base_loss, point.b)
        reports.append(CriticalPointReport(
            point=point,
            grad_norm=res.grad_norm,
            base_loss=base_loss,
            seed_index=index,
            converged=converged,
            iterations=res.iterations,
        ))
    return reports


def probe_infimum(field: ScalarField, theta: Sequence[float],
                  cfg: AugConfig | None = None) -> float:
    """Smallest augmented value reachable over (a, b) at fixed theta.

    Along a = exp(-b) the product a*exp(b) stays at 1 and the augmented loss
    collapses to L + lam*exp(-2b), which decays to L as b grows; the probe
    samples that curve at 257 points up to ``b_max`` of :class:`Thresholds`,
    includes the a=0 point (exact when L = 0), then polishes with an 80-step
    (a, b) descent.  The result always lies in [L, L + lam*exp(-2*b_max)] up
    to rounding.
    """
    cfg = cfg or AugConfig()
    b_max = Thresholds().b_max
    base = field.value(theta)
    best = base + base if base > 0.0 else 0.0  # a = 0 candidate: exactly 2L
    best_ab = (0.0, 0.0)
    for i in range(257):
        b = b_max * (i / 256)
        a = math.exp(-b)
        v, _ = slice_value(base, a, b, cfg)
        if v < best:
            best = v
            best_ab = (a, b)

    def value_fn(ab):
        return slice_value(base, ab[0], ab[1], cfg)[0]

    def grad_fn(ab):
        return _terms(base, ab[0], ab[1], cfg.lam, cfg.b_clamp, ())[4]  # [dV/da, dV/db]

    res = descend(value_fn, grad_fn, list(best_ab), grad_tol=0.0,
                  max_iters=80, polish_iters=0,
                  escape=lambda x, v, g: abs(x[1]) > b_max + B_ESCAPE_MARGIN)
    return min(best, res.value)


@dataclass
class ContourGrid:
    """Augmented loss sampled on an (a, b) grid at a constant base loss."""

    a_axis: list[float]
    b_axis: list[float]
    values: list[list[float]]  # values[i][j] at (a_axis[i], b_axis[j])
    l_slice: float
    lam: float
    saturated: list[tuple[int, int]]

    def grid_min(self) -> dict:
        best = math.inf
        at = (0, 0)
        for i, row in enumerate(self.values):
            for j, v in enumerate(row):
                if v < best:
                    best = v
                    at = (i, j)
        i, j = at
        a, b = self.a_axis[i], self.b_axis[j]
        try:
            u = a * math.exp(b)  # kept wherever finite: contour.json bytes rest on it
        except OverflowError:  # exp(b) alone overflows; log-space u, clamped as in slice_value
            u = _terms(0.0, a, b, self.lam, B_CLAMP)[2]
        return {
            "i": i, "j": j, "a": a, "b": b, "value": best,
            "u_deviation": abs(u - 1.0),
            "on_max_b_edge": j == len(self.b_axis) - 1,
        }

    def as_dict(self) -> dict:
        return {
            "l_slice": self.l_slice,
            "lambda": self.lam,
            "a_axis": self.a_axis,
            "b_axis": self.b_axis,
            "saturated_cells": [list(c) for c in self.saturated],
        }


def _axis(lo: float, hi: float, n: int) -> list[float]:
    # affine blend hits both endpoints exactly and 0 exactly on symmetric ranges
    return [lo * (1.0 - i / (n - 1)) + hi * (i / (n - 1)) for i in range(n)]


def sample_contour(l_slice: float, lam: float = 1.0,
                   a_range: tuple[float, float] = (-2.0, 2.0),
                   b_range: tuple[float, float] = (-2.0, 4.0),
                   resolution: int | tuple[int, int] = 101,
                   cfg: AugConfig | None = None) -> ContourGrid:
    """Dense evaluation of the augmented loss with the base frozen at l_slice.

    ``cfg`` supplies the clamp and saturation policy; its ``lam`` must equal
    ``lam``, the value the grid records.
    """
    if isinstance(resolution, int):
        na = nb = resolution
    else:
        na, nb = resolution
    if na < 2 or nb < 2:
        raise ValueError("resolution must be at least 2 per axis")
    if not (math.isfinite(l_slice) and l_slice >= 0.0):
        raise ValueError("l_slice must be finite and nonnegative")
    if not all(map(math.isfinite, (*a_range, *b_range))):
        raise ValueError("ranges must be finite")
    if a_range[0] == a_range[1] or b_range[0] == b_range[1]:
        raise ValueError("ranges must have nonzero width")
    cfg = cfg or AugConfig(lam=lam)
    if cfg.lam != lam:
        raise ValueError(f"lam {lam!r} disagrees with cfg.lam {cfg.lam!r}")
    a_axis = _axis(a_range[0], a_range[1], na)
    b_axis = _axis(b_range[0], b_range[1], nb)
    values = []
    flagged = []
    for i, a in enumerate(a_axis):
        row = []
        for j, b in enumerate(b_axis):
            v, sat = slice_value(l_slice, a, b, cfg)
            row.append(v)
            if sat:
                flagged.append((i, j))
        values.append(row)
    return ContourGrid(a_axis, b_axis, values, l_slice, lam, flagged)


def stationarity_scan(grid: ContourGrid) -> list[tuple[int, int]]:
    """All interior cells weakly minimal against their 8 neighbors, row-major."""
    V = grid.values
    nb = len(grid.b_axis)
    found = []
    for i in range(1, len(grid.a_axis) - 1):
        up, row, down = V[i - 1], V[i], V[i + 1]
        for j in range(1, nb - 1):
            c = row[j]
            if not (up[j - 1] < c or up[j] < c or up[j + 1] < c or row[j - 1] < c
                    or row[j + 1] < c or down[j - 1] < c or down[j] < c or down[j + 1] < c):
                found.append((i, j))
    return found
