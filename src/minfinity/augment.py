"""The augmented loss and its analytic gradient.

For a base loss L over theta and auxiliary scalars (a, b) with weight lam > 0:

    V(theta, a, b) = L(theta) * (1 + (a*exp(b) - 1)^2) + lam * a^2

The product u = a*exp(b) is evaluated in log space so the interesting regime
(a near 0 with b large and u near 1) never overflows through exp(b) alone;
its exponent is pinned at the fixed clamp B_CLAMP = 700.  lam and the
saturation policy are the only settings of :class:`AugConfig`.
Gradient components, derived by hand and cross-checked against dual numbers
and finite differences in the test suite:

    dV/da     = 2 L (u - 1) exp(b) + 2 lam a
    dV/db     = 2 L (u - 1) u
    dV/dtheta = grad L * (1 + (u - 1)^2)

All of this, with the floor of L at FLOOR_SLACK, is written once, in the
scalar core :func:`_terms` (the value, the floored L and u) and its
derivative half :func:`_slopes`, which takes that L and u.  ``evaluate``,
``slice_value``, ``gradient`` and the fast closures call it; the first three
apply the saturation policy in :func:`_saturate`.  ``lifted_loss`` stays a
separate route on purpose: it is the dual-number oracle the core is checked
against.  The certificate of a finite critical point, the signature of a run
heading to b -> inf and the test for a bad minimum's channel are written
once too, as the methods of :class:`Thresholds`.  AugConfig, Thresholds and
AugPoint check their fields in ``__new__``, which ``_replace`` skips.
"""
from __future__ import annotations

import math
from math import copysign, exp, log  # bare names: _terms is the hot path of every route
from typing import Callable, ClassVar, NamedTuple, Sequence

from .differentiation import exp_
from .fields import FLOOR_SLACK, ScalarField

POLICY_ERROR = "error"
POLICY_SATURATE = "flag-and-saturate"

B_CLAMP = 700.0  # the exponent clamp: exp(B_CLAMP) is representable


class SaturationError(ArithmeticError):
    """Raised under the ``error`` policy when an exponent guard trips."""


class _AugConfig(NamedTuple):
    lam: float = 1.0
    saturation_policy: str = POLICY_SATURATE


class AugConfig(_AugConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be a positive real, got {self.lam!r}")
        if self.saturation_policy not in (POLICY_ERROR, POLICY_SATURATE):
            raise ValueError(f"unknown saturation policy {self.saturation_policy!r}")
        return self


class _Thresholds(NamedTuple):
    grad_tol: float = 1e-8


class Thresholds(_Thresholds):
    """The certificate, the divergence signature and the channel test, with
    their one set of limits.

    ``grad_tol`` both stops an optimizer run and certifies it; it is the one
    limit set per run, and the others are constants.  ``loss_tol`` and
    ``a_tol`` also bound the base loss and ``|a|`` of every converged report
    in the critical-points suite.
    """

    __slots__ = ()
    b_max: ClassVar[float] = 20.0
    a_tol: ClassVar[float] = 1e-3
    loss_tol: ClassVar[float] = 1e-4
    u_window: ClassVar[float] = 0.1

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # an infinite tolerance would certify every point with |b| <= b_max
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ValueError(f"grad_tol must be a positive real, got {self.grad_tol!r}")
        return self

    def certifies(self, grad_norm: float, base_loss: float, b: float) -> bool:
        """A finite critical point: gradient at tolerance, |b| <= b_max, the
        stationarity residual 2*L*exp(b) at tolerance too, and b above
        ``log(grad_tol / (2*loss_tol))`` (-9.90 with the defaults).

        At a true finite critical point dV/da at a = 0 is -2*L*exp(b), so it
        must vanish; without the residual the quasi-frozen plateau toward
        b -> -inf (a balances at L*exp(b)/lam and every gradient component
        dips under tolerance) would pass at a strictly positive base loss.
        Below the bound on b the residual passes at losses above loss_tol (up
        to 2.4 at b = -b_max), so there the certificate trades completeness
        for soundness: it refuses even a true global minimum.  The bound is
        tested as ``grad_tol < 2*loss_tol*exp(b)`` on the residual's own
        rounded exp(b); rounding is monotone, so a certified point has
        ``L < loss_tol``.
        """
        if not (grad_norm <= self.grad_tol and abs(b) <= self.b_max):
            return False
        e = exp(b)
        return 2.0 * base_loss * e <= self.grad_tol < 2.0 * self.loss_tol * e

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


class _AugPoint(NamedTuple):
    theta: tuple[float, ...]
    a: float
    b: float


class AugPoint(_AugPoint):
    __slots__ = ()

    def __new__(cls, theta, a, b):
        theta, a, b = tuple(map(float, theta)), float(a), float(b)
        if not (all(map(math.isfinite, theta)) and math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"non-finite augmented point ({theta}, {a}, {b})")
        return super().__new__(cls, theta, a, b)

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


def _terms(L: float, a: float, b: float, lam: float):
    """The augmented formula at base loss ``L``: the one place it is written.

    ``L`` in ``[-FLOOR_SLACK, 0)`` reads as 0.  ``u = sign(a)*exp(log|a| + b)``
    with the exponent pinned to ``[-B_CLAMP, B_CLAMP]``; ``u_sat`` says the
    pin applied.  Returns ``(V, L, u, u_sat)``; a route that needs the
    gradient passes the returned ``L`` and ``u`` on to :func:`_slopes`.
    Raises nothing: the routes apply the policy.
    """
    if L < 0.0 and L >= -FLOOR_SLACK:
        L = 0.0
    if a == 0.0:
        u = 0.0
        u_sat = False
    else:
        t = log(abs(a)) + b
        if -B_CLAMP <= t <= B_CLAMP:
            u_sat = False
        else:
            u_sat = True
            t = copysign(B_CLAMP, t)
        u = -exp(t) if a < 0.0 else exp(t)
    dev = u - 1.0
    # exact at L = 0: the whole first term vanishes for any finite (a, b)
    value = lam * a * a if L == 0.0 else L * (1.0 + dev * dev) + lam * a * a
    return value, L, u, u_sat


def _slopes(L: float, a: float, b: float, u: float, lam: float, grad_L):
    """The derivative half of the core, at the floored ``L`` and the ``u`` that
    :func:`_terms` returned; ``grad_L`` is the theta gradient of L.

    Returns ``(grad, b_sat)``: ``grad`` is the list [dV/dtheta..., dV/da,
    dV/db], and ``b_sat`` says exp(b) in dV/da was pinned at exp(B_CLAMP).
    """
    dev = u - 1.0
    mult = 1.0 + dev * dev
    grad = []
    for c in grad_L:  # a loop: for one or two coordinates a comprehension costs more
        grad.append(0.0 if c == 0.0 else c * mult)
    b_sat = b > B_CLAMP
    if L == 0.0:
        grad.append(2.0 * lam * a)
        grad.append(0.0)
    else:
        grad.append(2.0 * L * dev * exp(B_CLAMP if b_sat else b) + 2.0 * lam * a)
        grad.append(2.0 * L * dev * u)
    return grad, b_sat


def _saturate(cfg: AugConfig, route: str, a: float, b: float, u_sat: bool,
              b_sat: bool = False) -> bool:
    """The policy once a guard of ``route`` (value, gradient or slice value) has
    tripped: the flag (True), or under ``error`` a SaturationError naming the
    first guard that tripped."""
    if cfg.saturation_policy == POLICY_SATURATE:
        return True
    if u_sat:
        why = "exponent log|a| + b beyond clamp"
    elif b_sat:
        why = "exp(b) beyond clamp in d/da"
    else:
        why = f"{route} overflow"
    raise SaturationError(f"{why} at a={a!r} b={b!r}")


def evaluate(field: ScalarField, point: AugPoint, cfg: AugConfig) -> AugEval:
    """Augmented loss at ``point``; always >= base loss, >= 0.  ``point.theta`` must
    lie in the field's closed box, else DimensionError, NonFiniteError or DomainError."""
    base = field.value(point.theta)
    value, base, u, saturated = _terms(base, point.a, point.b, cfg.lam)
    if saturated or not math.isfinite(value):
        saturated = _saturate(cfg, "augmented value", point.a, point.b, saturated)
    return AugEval(value, base, u, saturated)


def gradient(field: ScalarField, point: AugPoint, cfg: AugConfig) -> AugGradient:
    """Analytic gradient; finite in all components unless flagged saturated.
    ``point.theta`` must lie in the field's closed box, else DimensionError,
    NonFiniteError or DomainError."""
    base = field.value(point.theta)
    grad_base = field._gradient(point.theta)  # value has checked theta
    _, base, u, u_sat = _terms(base, point.a, point.b, cfg.lam)
    grad, b_sat = _slopes(base, point.a, point.b, u, cfg.lam, grad_base)
    saturated = u_sat or b_sat or not all(map(math.isfinite, grad))
    if saturated:
        _saturate(cfg, "gradient", point.a, point.b, u_sat, b_sat)
    return AugGradient(tuple(grad[:-2]), grad[-2], grad[-1], saturated)


def slice_value(l_slice: float, a: float, b: float, cfg: AugConfig) -> tuple[float, bool]:
    """Augmented value with the base loss frozen at the constant ``l_slice``."""
    value, _, _, saturated = _terms(l_slice, a, b, cfg.lam)
    if saturated or not math.isfinite(value):
        saturated = _saturate(cfg, "slice value", a, b, saturated)
    return value, saturated


def lifted_loss(field: ScalarField, lam: float) -> Callable[[Sequence], object]:
    """The augmented loss as a dual-liftable function of [theta..., a, b].

    Deliberately computes u = a*exp(b) directly and L as the raw formula
    minus the offset (no log-space rewrite, no zero shortcuts, no floor) so
    dual-number differentiation exercises an independent arithmetic route.
    """
    def f(coords: Sequence):
        theta = coords[:field.dim]
        a, b = coords[field.dim], coords[field.dim + 1]
        u = a * exp_(b)
        L = field.raw_value(theta) - field.offset
        return L * (1.0 + (u - 1.0) ** 2) + lam * (a * a)

    return f


def fast_kernel(field: ScalarField, cfg: AugConfig):
    """Unvalidated closure ``x -> (V, L, u, grad V)`` over the flat state
    [theta..., a, b] for hot loops.

    One :func:`_terms` and one :func:`_slopes` call per evaluation.
    ``raw_value`` and ``raw_gradient`` run only when theta differs from the
    last call's or holds a zero: in a bad minimum's channel theta sits still
    while (a, b) move.  Equal nonzero floats have equal bits (the zero test
    catches -0.0 too), so results are bitwise those of a fresh kernel.  Same
    arithmetic as :func:`evaluate` / :func:`gradient` under the
    flag-and-saturate policy; callers keep theta inside the field's box.
    """
    dim = field.dim
    raw_value = field.raw_value
    raw_grad = field.raw_gradient
    offset = field.offset
    lam = cfg.lam
    seen = None  # the theta of the last call, with its L - offset and grad L
    seen_L = 0.0
    seen_grad = ()

    def kernel(x):
        nonlocal seen, seen_L, seen_grad
        theta = x[:dim]
        if theta != seen or 0.0 in theta:
            seen_L = raw_value(theta) - offset
            seen_grad = raw_grad(theta)
            seen = theta
        a, b = x[dim], x[dim + 1]
        value, base, u, _ = _terms(seen_L, a, b, lam)
        return value, base, u, _slopes(base, a, b, u, lam, seen_grad)[0]

    return kernel


def fast_value_and_grad(field: ScalarField, cfg: AugConfig):
    """Unvalidated closures ``(value, grad)`` over [theta..., a, b] for hot loops.

    The same :func:`_terms` and :func:`_slopes` arithmetic as
    :func:`fast_kernel`; ``value`` stops before the derivatives.  Same caveats
    as that kernel.

    ``grad`` has one path: it takes the floored ``L`` and the ``u`` that
    ``value`` computed, and first calls ``value`` on any list other than the
    very object ``value`` last saw.  So ``grad`` on a list leaves ``value``'s
    state at that list, and the caller must not mutate a list between calls.
    Results are bitwise those of a fresh pair.
    """
    dim = field.dim
    ib = dim + 1  # the index of b
    raw_value = field.raw_value
    raw_grad = field.raw_gradient
    offset = field.offset
    lam = cfg.lam
    seen = None  # the list value() last saw, with its floored L and u
    seen_L = seen_u = 0.0

    def value(x):
        nonlocal seen, seen_L, seen_u
        v, seen_L, seen_u, _ = _terms(raw_value(x[:dim]) - offset, x[dim], x[ib], lam)
        seen = x
        return v

    def grad(x):
        if x is not seen:
            value(x)
        return _slopes(seen_L, x[dim], x[ib], seen_u, lam, raw_grad(x[:dim]))[0]

    return value, grad
