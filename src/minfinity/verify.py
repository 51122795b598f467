"""Verification suites: each returns a JSON-ready report and counts violations.

Three suites:
  grad-check        analytic gradient vs finite differences (rel err <= 1e-6
                    net of the stencil's own rounding, |V|*eps/h) and vs dual
                    numbers (rel err <= 1e-12), seeded samples
  critical-points   multistart finder sweep; every converged report must have
                    base loss <= 1e-4 and |a| <= 1e-3, no exceptions
  infimum           |probe(theta) - L(theta)| <= 1e-3 on seeded samples

Relative error uses scale max(1, |x|, |y|), so tiny components are compared
absolutely.
"""
from __future__ import annotations

import random
import sys

from . import augment, landscape
from .augment import AugConfig, AugPoint, Thresholds
from .differentiation import dual_gradient, fd_gradient, fd_step
from .fields import field_names, get_field

FD_TOL = 1e-6
DUAL_TOL = 1e-12
INFIMUM_TOL = 1e-3
_EPS = sys.float_info.epsilon

SUITES = ("grad-check", "critical-points", "infimum", "all")
FINDER_SEEDS = 256  # finder starts per field in the critical-points sweep


def rel_err(x: float, y: float) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


def _sample_point(field, rng) -> AugPoint:
    theta = field.interior_sample(rng)
    return AugPoint(theta, rng.uniform(*landscape.SEED_A_RANGE),
                    rng.uniform(*landscape.SEED_B_RANGE))


def grad_check_suite(seed: int = 0, n_points: int = 1000,
                     fields: list[str] | None = None) -> dict:
    cfg = AugConfig()
    checks = []
    for name in fields or field_names():
        field = get_field(name)
        rng = random.Random(seed)
        lifted = augment.lifted_loss(field, cfg.lam)

        met = []  # |V| at each stencil point of the current sample

        def flat_value(x, _f=field, _cfg=cfg, _met=met):
            p = AugPoint(tuple(x[:_f.dim]), x[_f.dim], x[_f.dim + 1])
            v = augment.evaluate(_f, p, _cfg, check_domain=False).value
            _met.append(abs(v))
            return v

        worst_fd = 0.0
        worst_dual = 0.0
        fd_viol = dual_viol = 0
        used = 0
        for _ in range(n_points):
            p = _sample_point(field, rng)
            g = augment.gradient(field, p, cfg, check_domain=False)
            if g.saturated:
                continue
            used += 1
            analytic = list(g.d_theta) + [g.d_a, g.d_b]
            coords = p.coords()
            met.clear()
            fd = fd_gradient(flat_value, coords)
            dual = dual_gradient(lifted, coords)
            # the stencil's own rounding: each value it met may be off by about
            # |V|*eps, and the difference of two is divided by 2h
            noise = max(met) * _EPS
            for ga, gf, gd, xi in zip(analytic, fd, dual, coords):
                e_fd = rel_err(ga, gf)
                if e_fd > FD_TOL:  # net of the rounding, but never below FD_TOL
                    allow = noise / (fd_step(xi) * max(1.0, abs(ga), abs(gf)))
                    e_fd = max(FD_TOL, e_fd - allow)
                e_dual = rel_err(ga, gd)
                worst_fd = max(worst_fd, e_fd)
                worst_dual = max(worst_dual, e_dual)
                if e_fd > FD_TOL:
                    fd_viol += 1
                if e_dual > DUAL_TOL:
                    dual_viol += 1
        checks.append({
            "name": f"grad-check:{name}",
            "points": used,
            "worst_fd_rel_err": worst_fd,
            "worst_dual_rel_err": worst_dual,
            "fd_tolerance": FD_TOL,
            "dual_tolerance": DUAL_TOL,
            "violations": fd_viol + dual_viol,
        })
    return _wrap("grad-check", seed, checks)


def critical_point_suite(seed: int = 0, n_seeds: int = FINDER_SEEDS,
                         fields: list[str] | None = None) -> dict:
    cfg = AugConfig()
    thr = Thresholds()
    checks = []
    for name in fields or field_names():
        field = get_field(name)
        reports = landscape.find_critical_points(field, cfg, n_seeds=n_seeds, seed=seed)
        converged = [r for r in reports if r.converged]
        bad = [r for r in converged
               if r.base_loss > thr.loss_tol or abs(r.point.a) > thr.a_tol]
        worst_loss = max((r.base_loss for r in converged), default=0.0)
        worst_a = max((abs(r.point.a) for r in converged), default=0.0)
        checks.append({
            "name": f"critical-points:{name}",
            "seeds": n_seeds,
            "converged": len(converged),
            "worst_base_loss": worst_loss,
            "worst_abs_a": worst_a,
            "loss_tolerance": thr.loss_tol,
            "a_tolerance": thr.a_tol,
            "violations": len(bad),
            "violating_seeds": [r.seed_index for r in bad],
        })
    return _wrap("critical-points", seed, checks)


def infimum_suite(seed: int = 0, n_points: int = 100,
                  fields: list[str] | None = None) -> dict:
    cfg = AugConfig()
    checks = []
    for name in fields or field_names():
        field = get_field(name)
        rng = random.Random(seed)
        worst = 0.0
        viol = 0
        for _ in range(n_points):
            theta = field.interior_sample(rng)
            base = field.value(theta)
            probe = landscape.probe_infimum(field, theta, cfg)
            dev = abs(probe - base)
            worst = max(worst, dev)
            if dev > INFIMUM_TOL or probe < base - 1e-12:
                viol += 1
        checks.append({
            "name": f"infimum:{name}",
            "points": n_points,
            "worst_deviation": worst,
            "tolerance": INFIMUM_TOL,
            "violations": viol,
        })
    return _wrap("infimum", seed, checks)


def run_suite(suite: str, seed: int = 0, n_seeds: int = FINDER_SEEDS) -> dict:
    """One suite, or all three; ``n_seeds`` sizes the critical-points sweep."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    if suite == "grad-check":
        return grad_check_suite(seed)
    if suite == "critical-points":
        return critical_point_suite(seed, n_seeds)
    if suite == "infimum":
        return infimum_suite(seed)
    if suite == "all":
        parts = [grad_check_suite(seed), critical_point_suite(seed, n_seeds),
                 infimum_suite(seed)]
        checks = [c for p in parts for c in p["checks"]]
        return _wrap("all", seed, checks)
    raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")


def _wrap(name: str, seed: int, checks: list[dict]) -> dict:
    return {
        "suite": name,
        "seed": seed,
        "checks": checks,
        "violations_total": int(sum(c["violations"] for c in checks)),
    }
