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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .differentiation import exp_
from .fields import ScalarField

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

    @classmethod
    def from_finite(cls, theta: tuple[float, ...], a: float, b: float) -> "AugPoint":
        """Build without the conversion and checks of ``__init__``.

        The caller guarantees a tuple of finite floats and finite float
        ``a``, ``b``: for hot loops that have already proved this.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "theta", theta)
        object.__setattr__(p, "a", a)
        object.__setattr__(p, "b", b)
        return p

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
        return math.sqrt(math.fsum(c * c for c in self.d_theta)
                         + self.d_a * self.d_a + self.d_b * self.d_b)


def eval_u(a: float, b: float, cfg: AugConfig) -> tuple[float, bool]:
    """a*exp(b) as sign(a)*exp(log|a| + b); exact 0 when a == 0.

    The flag fires (or SaturationError is raised, by policy) only when the
    combined exponent leaves [-b_clamp, b_clamp]; the returned value is then
    pinned at the clamp.
    """
    if a == 0.0:
        return 0.0, False
    t = math.log(abs(a)) + b
    if abs(t) <= cfg.b_clamp:
        return math.copysign(math.exp(t), a), False
    if cfg.saturation_policy == POLICY_ERROR:
        raise SaturationError(f"exponent {t:.6g} beyond clamp {cfg.b_clamp} for a={a!r} b={b!r}")
    return math.copysign(math.exp(math.copysign(cfg.b_clamp, t)), a), True


def evaluate(field: ScalarField, point: AugPoint, cfg: AugConfig,
             check_domain: bool = True) -> AugEval:
    """Augmented loss at ``point``; always >= base loss, >= 0."""
    base = field.value(point.theta, check_domain=check_domain)
    u, saturated = eval_u(point.a, point.b, cfg)
    if base == 0.0:
        # exact: the whole first term vanishes for any finite (a, b)
        value = cfg.lam * point.a * point.a
    else:
        dev = u - 1.0
        value = base * (1.0 + dev * dev) + cfg.lam * point.a * point.a
    if not math.isfinite(value):
        if cfg.saturation_policy == POLICY_ERROR:
            raise SaturationError(f"augmented value overflow at a={point.a!r} b={point.b!r}")
        saturated = True
    return AugEval(value, base, u, saturated)


def gradient(field: ScalarField, point: AugPoint, cfg: AugConfig,
             check_domain: bool = True) -> AugGradient:
    """Analytic gradient; finite in all components unless flagged saturated."""
    base = field.value(point.theta, check_domain=check_domain)
    grad_base = field.gradient(point.theta, check_domain=check_domain)
    u, saturated = eval_u(point.a, point.b, cfg)
    if point.b > cfg.b_clamp:
        if cfg.saturation_policy == POLICY_ERROR:
            raise SaturationError(f"exp({point.b!r}) beyond clamp in d/da")
        saturated = True
        eb = math.exp(cfg.b_clamp)
    else:
        eb = math.exp(point.b)
    dev = u - 1.0
    mult = 1.0 + dev * dev
    d_theta = tuple(0.0 if g == 0.0 else g * mult for g in grad_base)
    if base == 0.0:
        d_a = 2.0 * cfg.lam * point.a
        d_b = 0.0
    else:
        d_a = 2.0 * base * (u - 1.0) * eb + 2.0 * cfg.lam * point.a
        d_b = 2.0 * base * (u - 1.0) * u
    if not (all(math.isfinite(c) for c in d_theta)
            and math.isfinite(d_a) and math.isfinite(d_b)):
        if cfg.saturation_policy == POLICY_ERROR:
            raise SaturationError(f"gradient overflow at a={point.a!r} b={point.b!r}")
        saturated = True
    return AugGradient(d_theta, d_a, d_b, saturated)


def slice_value(l_slice: float, a: float, b: float, cfg: AugConfig) -> tuple[float, bool]:
    """Augmented value with the base loss frozen at the constant ``l_slice``."""
    u, saturated = eval_u(a, b, cfg)
    if l_slice == 0.0:
        value = cfg.lam * a * a
    else:
        dev = u - 1.0
        value = l_slice * (1.0 + dev * dev) + cfg.lam * a * a
    if not math.isfinite(value):
        if cfg.saturation_policy == POLICY_ERROR:
            raise SaturationError(f"slice value overflow at a={a!r} b={b!r}")
        saturated = True
    return value, saturated


def stationarity_residual(base_loss: float, b: float) -> float:
    """|dV/da| at a = 0, which is 2*L*exp(b): zero only where L*exp(b) is."""
    return 2.0 * base_loss * math.exp(min(b, B_CLAMP))


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

    One ``raw_value`` and one ``raw_gradient`` call per evaluation; the
    ``[-1e-9, 0) -> 0`` floor and the log-space clamp for ``u`` are applied
    once.  Same arithmetic as :func:`evaluate` / :func:`gradient` under the
    flag-and-saturate policy; callers keep theta inside the field's box.
    """
    dim = field.dim
    raw_value = field.raw_value
    raw_grad = field.raw_gradient
    offset = field.offset
    lam = cfg.lam
    clamp = cfg.b_clamp

    def kernel(x):
        theta = x[:dim]
        base = raw_value(theta) - offset
        if -1e-9 <= base < 0.0:
            base = 0.0
        a, b = x[dim], x[dim + 1]
        if a == 0.0:
            u = 0.0
        else:
            t = math.log(abs(a)) + b
            if t > clamp:
                t = clamp
            elif t < -clamp:
                t = -clamp
            u = math.copysign(math.exp(t), a)
        eb = math.exp(b if b <= clamp else clamp)
        dev = u - 1.0
        mult = 1.0 + dev * dev
        g = [0.0 if c == 0.0 else c * mult for c in raw_grad(theta)]
        if base == 0.0:
            value = lam * a * a
            g.append(2.0 * lam * a)
            g.append(0.0)
        else:
            value = base * mult + lam * a * a
            g.append(2.0 * base * dev * eb + 2.0 * lam * a)
            g.append(2.0 * base * dev * u)
        return value, base, u, g

    return kernel


def fast_value_and_grad(field: ScalarField, cfg: AugConfig):
    """Unvalidated closures ``(value, grad)`` over [theta..., a, b] for hot loops.

    ``value`` skips the gradient; ``grad`` is the gradient part of
    :func:`fast_kernel`.  Same arithmetic and caveats as that kernel.
    """
    dim = field.dim
    raw_value = field.raw_value
    offset = field.offset
    lam = cfg.lam
    clamp = cfg.b_clamp
    kernel = fast_kernel(field, cfg)

    def value(x):
        base = raw_value(x[:dim]) - offset
        a = x[dim]
        if -1e-9 <= base <= 0.0:  # L is 0 after the floor
            return lam * a * a
        if a == 0.0:
            u = 0.0
        else:
            t = math.log(abs(a)) + x[dim + 1]
            if t > clamp:
                t = clamp
            elif t < -clamp:
                t = -clamp
            u = math.copysign(math.exp(t), a)
        dev = u - 1.0
        return base * (1.0 + dev * dev) + lam * a * a

    def grad(x):
        return kernel(x)[3]

    return value, grad
