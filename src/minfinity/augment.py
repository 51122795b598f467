"""The augmented loss and its analytic gradient.

For a base loss L over theta and auxiliary scalars (a, b) with weight lam > 0:

    V(theta, a, b) = L(theta) * (1 + (a*exp(b) - 1)^2) + lam * a^2

The product u = a*exp(b) is evaluated in log space so the interesting regime
(a near 0 with b large and u near 1) never overflows through exp(b) alone.
Gradient components, derived by hand and cross-checked against dual numbers
and finite differences in the test suite:

    dV/da     = 2 L (u - 1) exp(b) + 2 lam a
    dV/db     = 2 L (u - 1) u
    dV/dtheta = grad L * (1 + (u - 1)^2)

All of this, with the floor of L at FLOOR_SLACK, is written once, in the
scalar core :func:`_terms` and its derivative half :func:`_slopes`.
``eval_u``, ``evaluate``, ``gradient``, ``slice_value`` and the fast closures
call it, and their saturation-policy checks wrap it.  ``lifted_loss`` stays a
separate route on purpose: it is the dual-number oracle the core is checked
against.  The certificate of a finite critical point, the signature of a
run heading to b -> inf and the test for a bad minimum's channel are written
once too, as the methods of :class:`Thresholds`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import copysign, exp, log  # bare names: _terms is the hot path of every route
from typing import Callable, NamedTuple, Sequence

from .differentiation import exp_
from .fields import FLOOR_SLACK, ScalarField
from .minimize import _sum_sq

POLICY_ERROR = "error"
POLICY_SATURATE = "flag-and-saturate"

_MAX_B_CLAMP = 709.78  # exp still representable
B_CLAMP = 700.0  # default exponent clamp


class SaturationError(ArithmeticError):
    """Raised under the ``error`` policy when an exponent guard trips."""


@dataclass(frozen=True)
class AugConfig:
    lam: float = 1.0
    b_clamp: float = B_CLAMP
    saturation_policy: str = POLICY_SATURATE

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be a positive real, got {self.lam!r}")
        if not (0.0 < self.b_clamp <= _MAX_B_CLAMP):
            raise ValueError(f"b_clamp must be in (0, {_MAX_B_CLAMP}], got {self.b_clamp!r}")
        if self.saturation_policy not in (POLICY_ERROR, POLICY_SATURATE):
            raise ValueError(f"unknown saturation policy {self.saturation_policy!r}")


@dataclass(frozen=True)
class Thresholds:
    """The certificate, the divergence signature and the channel test, with
    their one set of limits.

    ``grad_tol`` both stops an optimizer run and certifies it.  ``loss_tol``
    and ``a_tol`` also bound the base loss and ``|a|`` of every converged
    report in the critical-points suite.
    """

    b_max: float = 20.0
    a_tol: float = 1e-3
    loss_tol: float = 1e-4
    u_window: float = 0.1
    grad_tol: float = 1e-8

    def __post_init__(self):
        # an infinite tolerance would certify every point with |b| <= b_max
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ValueError(f"grad_tol must be a positive real, got {self.grad_tol!r}")

    def certifies(self, grad_norm: float, base_loss: float, b: float) -> bool:
        """A finite critical point: gradient at tolerance, |b| <= b_max, and the
        stationarity residual 2*L*exp(b) at tolerance too.

        At a true finite critical point dV/da at a = 0 is -2*L*exp(b), so it
        must vanish; without the residual the quasi-frozen plateau toward
        b -> -inf (a balances at L*exp(b)/lam and every gradient component
        dips under tolerance) would pass at a strictly positive base loss.
        exp(b) is clamped so that a b_max above 709 cannot overflow.
        """
        return (grad_norm <= self.grad_tol and abs(b) <= self.b_max
                and 2.0 * base_loss * exp(min(b, B_CLAMP)) <= self.grad_tol)

    def diverging(self, a: float, b: float, u: float) -> bool:
        """The divergence signature: b at or past b_max, u = a*exp(b) within
        ``u_window`` of 1, and |a| within 10*a_tol."""
        return b >= self.b_max and abs(u - 1.0) <= self.u_window and abs(a) <= 10.0 * self.a_tol

    def in_channel(self, theta_grad_norm: float, base_loss: float, u: float) -> bool:
        """A bad minimum's channel: theta stationary (``|grad_theta V| <=
        grad_tol``) at a bad base loss (``L > loss_tol``), with u = a*exp(b)
        within ``u_window`` of 1.

        No point there certifies.  :meth:`certifies` needs ``2*L*exp(b) <=
        grad_tol``, so ``exp(b) < grad_tol / (2*loss_tol)`` and ``|a| =
        |u|*exp(-b) > (1 - u_window) * 2*loss_tol / grad_tol`` (1.8e4 with
        the defaults).  Then ``|dV/da| >= 2*lam*|a| - u_window*grad_tol``
        exceeds ``grad_tol`` for every lam above ``grad_tol**2 * (1 +
        u_window) / (4 * (1 - u_window) * loss_tol)`` (3.1e-13).
        """
        return (theta_grad_norm <= self.grad_tol and base_loss > self.loss_tol
                and abs(u - 1.0) <= self.u_window)


@dataclass(frozen=True)
class AugPoint:
    theta: tuple[float, ...]
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (all(math.isfinite(t) for t in self.theta)
                and math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"non-finite augmented point ({self.theta}, {self.a}, {self.b})")

    def coords(self) -> list[float]:
        return list(self.theta) + [self.a, self.b]


class AugEval(NamedTuple):
    value: float
    base: float
    u: float
    saturated: bool


class AugGradient(NamedTuple):
    d_theta: tuple[float, ...]
    d_a: float
    d_b: float
    saturated: bool

    def norm(self) -> float:
        return math.sqrt(_sum_sq(self.d_theta) + self.d_a * self.d_a + self.d_b * self.d_b)


def _terms(L: float, a: float, b: float, lam: float, clamp: float, grad_L=None):
    """The augmented formula at base loss ``L``: the one place it is written.

    ``L`` in ``[-FLOOR_SLACK, 0)`` reads as 0.  ``u = sign(a)*exp(log|a| + b)``
    with the exponent pinned to ``[-clamp, clamp]``; ``u_sat`` says the pin
    applied.  Returns ``(V, L, u, u_sat)``.  Given ``grad_L``, the theta
    gradient of L, it returns ``(V, L, u, u_sat, grad, b_sat)`` instead, with
    ``grad, b_sat`` from :func:`_slopes`.  Value-only calls skip exp(b) and
    the derivatives.  Raises nothing: the policy checks wrap it.
    """
    if L < 0.0 and L >= -FLOOR_SLACK:
        L = 0.0
    if a == 0.0:
        u = 0.0
        u_sat = False
    else:
        t = log(abs(a)) + b
        if -clamp <= t <= clamp:
            u_sat = False
        else:
            u_sat = True
            t = copysign(clamp, t)
        u = -exp(t) if a < 0.0 else exp(t)
    dev = u - 1.0
    # exact at L = 0: the whole first term vanishes for any finite (a, b)
    value = lam * a * a if L == 0.0 else L * (1.0 + dev * dev) + lam * a * a
    if grad_L is None:
        return value, L, u, u_sat
    grad, b_sat = _slopes(L, a, b, u, lam, clamp, grad_L)
    return value, L, u, u_sat, grad, b_sat


def _slopes(L: float, a: float, b: float, u: float, lam: float, clamp: float, grad_L):
    """The derivative half of :func:`_terms`, at the floored ``L`` and the ``u``
    it returned.

    Returns ``(grad, b_sat)``: ``grad`` is the list [dV/dtheta..., dV/da,
    dV/db], and ``b_sat`` says exp(b) in dV/da was pinned at exp(clamp).
    """
    dev = u - 1.0
    mult = 1.0 + dev * dev
    grad = []
    for c in grad_L:  # a loop: for one or two coordinates a comprehension costs more
        grad.append(0.0 if c == 0.0 else c * mult)
    b_sat = b > clamp
    if L == 0.0:
        grad.append(2.0 * lam * a)
        grad.append(0.0)
    else:
        grad.append(2.0 * L * dev * exp(clamp if b_sat else b) + 2.0 * lam * a)
        grad.append(2.0 * L * dev * u)
    return grad, b_sat


def _saturation(overflow: str, a: float, b: float, u_sat: bool,
                b_sat: bool = False) -> SaturationError:
    """The error for the first guard that tripped; built only to raise."""
    if u_sat:
        why = "exponent log|a| + b beyond clamp"
    elif b_sat:
        why = "exp(b) beyond clamp in d/da"
    else:
        why = f"{overflow} overflow"
    return SaturationError(f"{why} at a={a!r} b={b!r}")


def eval_u(a: float, b: float, cfg: AugConfig) -> tuple[float, bool]:
    """a*exp(b) as sign(a)*exp(log|a| + b); exact 0 when a == 0.

    The flag fires (or SaturationError is raised, by policy) only when the
    combined exponent leaves [-b_clamp, b_clamp]; the returned value is then
    pinned at the clamp.
    """
    _, _, u, u_sat = _terms(0.0, a, b, cfg.lam, cfg.b_clamp)
    if u_sat and cfg.saturation_policy == POLICY_ERROR:
        raise _saturation("u", a, b, u_sat)
    return u, u_sat


def evaluate(field: ScalarField, point: AugPoint, cfg: AugConfig,
             check_domain: bool = True) -> AugEval:
    """Augmented loss at ``point``; always >= base loss, >= 0."""
    base = field.value(point.theta, check_domain=check_domain)
    value, base, u, saturated = _terms(base, point.a, point.b, cfg.lam, cfg.b_clamp)
    if saturated or not math.isfinite(value):
        if cfg.saturation_policy == POLICY_ERROR:
            raise _saturation("augmented value", point.a, point.b, saturated)
        saturated = True
    return AugEval(value, base, u, saturated)


def gradient(field: ScalarField, point: AugPoint, cfg: AugConfig,
             check_domain: bool = True) -> AugGradient:
    """Analytic gradient; finite in all components unless flagged saturated."""
    base = field.value(point.theta, check_domain=check_domain)
    grad_base = field.gradient(point.theta, check_domain=check_domain)
    _, _, _, u_sat, grad, b_sat = _terms(base, point.a, point.b, cfg.lam, cfg.b_clamp,
                                         grad_base)
    saturated = u_sat or b_sat or not all(map(math.isfinite, grad))
    if saturated and cfg.saturation_policy == POLICY_ERROR:
        raise _saturation("gradient", point.a, point.b, u_sat, b_sat)
    d_b = grad.pop()
    d_a = grad.pop()
    d_theta = tuple(grad)
    return AugGradient(d_theta, d_a, d_b, saturated)


def slice_value(l_slice: float, a: float, b: float, cfg: AugConfig) -> tuple[float, bool]:
    """Augmented value with the base loss frozen at the constant ``l_slice``."""
    value, _, _, saturated = _terms(l_slice, a, b, cfg.lam, cfg.b_clamp)
    if saturated or not math.isfinite(value):
        if cfg.saturation_policy == POLICY_ERROR:
            raise _saturation("slice value", a, b, saturated)
        saturated = True
    return value, saturated


def lifted_loss(field: ScalarField, lam: float) -> Callable[[Sequence], object]:
    """The augmented loss as a dual-liftable function of [theta..., a, b].

    Deliberately computes u = a*exp(b) directly (no log-space rewrite, no
    zero shortcuts) so dual-number differentiation exercises an independent
    arithmetic route.
    """
    def f(coords: Sequence):
        theta = coords[:field.dim]
        a, b = coords[field.dim], coords[field.dim + 1]
        u = a * exp_(b)
        return field.lifted_value(theta) * (1.0 + (u - 1.0) ** 2) + lam * (a * a)

    return f


def fast_kernel(field: ScalarField, cfg: AugConfig):
    """Unvalidated closure ``x -> (V, L, u, grad V)`` over the flat state
    [theta..., a, b] for hot loops.

    One ``raw_value``, one ``raw_gradient`` and one :func:`_terms` call per
    evaluation.  Same arithmetic as :func:`evaluate` / :func:`gradient` under
    the flag-and-saturate policy; callers keep theta inside the field's box.
    """
    dim = field.dim
    raw_value = field.raw_value
    raw_grad = field.raw_gradient
    offset = field.offset
    lam = cfg.lam
    clamp = cfg.b_clamp

    def kernel(x):
        theta = x[:dim]
        value, base, u, _, grad, _ = _terms(raw_value(theta) - offset, x[dim], x[dim + 1],
                                            lam, clamp, raw_grad(theta))
        return value, base, u, grad

    return kernel


def fast_value_and_grad(field: ScalarField, cfg: AugConfig):
    """Unvalidated closures ``(value, grad)`` over [theta..., a, b] for hot loops.

    The same :func:`_terms` arithmetic as :func:`fast_kernel`; ``value`` stops
    before the derivatives.  Same caveats as that kernel.

    The pair's one reuse rule: ``grad`` reuses the floored ``L`` and the ``u``
    that ``value`` computed when it gets back the very list object ``value``
    last saw, so the caller must not mutate a list between the two calls.
    Results are bitwise those of a fresh pair.
    """
    dim = field.dim
    raw_value = field.raw_value
    raw_grad = field.raw_gradient
    offset = field.offset
    lam = cfg.lam
    clamp = cfg.b_clamp
    seen = None  # the list value() last saw, with its floored L and u
    seen_L = seen_u = 0.0

    def value(x):
        nonlocal seen, seen_L, seen_u
        v, seen_L, seen_u, _ = _terms(raw_value(x[:dim]) - offset, x[dim], x[dim + 1],
                                      lam, clamp)
        seen = x
        return v

    def grad(x):
        theta = x[:dim]
        if x is seen:
            return _slopes(seen_L, x[dim], x[dim + 1], seen_u, lam, clamp, raw_grad(theta))[0]
        return _terms(raw_value(theta) - offset, x[dim], x[dim + 1], lam, clamp,
                      raw_grad(theta))[4]

    return value, grad
