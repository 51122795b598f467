"""Derivative oracles: forward-mode dual numbers and central finite differences.

Both routes are independent of the hand-derived analytic gradients elsewhere in
the package; they exist to cross-check them.  Dual numbers give derivatives
that are exact up to rounding, finite differences give an approximation with
O(h^2) truncation error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class Dual:
    """Dual number primal + tangent*eps with eps^2 = 0."""

    primal: float
    tangent: float = 0.0

    def __add__(self, other):
        other = _lift(other)
        return Dual(self.primal + other.primal, self.tangent + other.tangent)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return Dual(self.primal - other.primal, self.tangent - other.tangent)

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        other = _lift(other)
        return Dual(self.primal * other.primal,
                    self.primal * other.tangent + self.tangent * other.primal)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if other.primal == 0.0:
            raise ZeroDivisionError("dual division by zero primal part")
        p = self.primal / other.primal
        t = (self.tangent * other.primal - self.primal * other.tangent) / (
            other.primal * other.primal)
        return Dual(p, t)

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __neg__(self):
        return Dual(-self.primal, -self.tangent)

    def __pow__(self, k):
        if not isinstance(k, (int, float)):
            raise TypeError("dual power expects a real exponent")
        p = self.primal ** k
        return Dual(p, k * self.primal ** (k - 1) * self.tangent)

    def exp(self):
        e = math.exp(self.primal)
        return Dual(e, e * self.tangent)

    def cos(self):
        return Dual(math.cos(self.primal), -math.sin(self.primal) * self.tangent)

    def sqrt(self):
        r = math.sqrt(self.primal)
        if r == 0.0:
            # derivative blows up at 0; caller is expected to stay away
            return Dual(0.0, 0.0)
        return Dual(r, 0.5 * self.tangent / r)


def _lift(x) -> Dual:
    if isinstance(x, Dual):
        return x
    return Dual(float(x))


# dispatch helpers so the same formula evaluates on floats and on Duals
def exp_(x):
    return x.exp() if isinstance(x, Dual) else math.exp(x)


def cos_(x):
    return x.cos() if isinstance(x, Dual) else math.cos(x)


def sqrt_(x):
    return x.sqrt() if isinstance(x, Dual) else math.sqrt(x)


def fd_step(xi: float) -> float:
    """The central-difference step at a coordinate of value ``xi``."""
    return 1e-6 * max(1.0, abs(xi))


def fd_gradient(f: Callable[[Sequence[float]], float], x: Sequence[float]) -> list[float]:
    """Central finite-difference gradient, h_i = fd_step(x_i) = 1e-6 * max(1, |x_i|).

    Raises ValueError when a stencil evaluation is non-finite.
    """
    x = list(x)
    grad = []
    for i, xi in enumerate(x):
        h = fd_step(xi)
        hi = list(x)
        lo = list(x)
        hi[i] = xi + h
        lo[i] = xi - h
        fp = f(hi)
        fm = f(lo)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(
                f"non-finite stencil evaluation at coordinate {i}: f+={fp!r} f-={fm!r}")
        grad.append((fp - fm) / (2.0 * h))
    return grad


def dual_gradient(f: Callable[[Sequence[Dual]], "Dual | float"],
                  x: Sequence[float]) -> list[float]:
    """Exact gradient via one forward pass per coordinate (unit tangents)."""
    x = list(x)
    n = len(x)
    grad = []
    for i in range(n):
        coords = [Dual(x[j], 1.0 if j == i else 0.0) for j in range(n)]
        out = f(coords)
        grad.append(out.tangent if isinstance(out, Dual) else 0.0)
    return grad
