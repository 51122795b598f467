"""Derivative oracles: forward-mode dual numbers and central finite differences.

Both routes are independent of the hand-derived analytic gradients elsewhere in
the package; they exist to cross-check them.  Dual numbers give derivatives
that are exact up to rounding, finite differences give an approximation with
O(h^2) truncation error.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence


class Dual:
    """Dual number primal + tangent*eps with eps^2 = 0.

    Equality and hash go by the ``(primal, tangent)`` tuple.  ``__slots__``
    makes one cheap to build, but instances are immutable by convention
    only: nothing assigns to one after ``__init__``.  A float or int operand
    of ``+ - * /`` takes part as itself, with a literal ``0.0`` tangent in
    the formula, so no second Dual is built for it; every bit is that of
    the same operation with ``Dual(float(c), 0.0)``.
    """

    __slots__ = ("primal", "tangent")

    def __init__(self, primal: float, tangent: float = 0.0):
        self.primal = primal
        self.tangent = tangent

    def __eq__(self, other):
        if type(other) is not Dual:
            return NotImplemented
        return (self.primal, self.tangent) == (other.primal, other.tangent)

    def __hash__(self):
        return hash((self.primal, self.tangent))

    def __repr__(self):
        return f"Dual(primal={self.primal!r}, tangent={self.tangent!r})"

    def __add__(self, other):
        if type(other) is Dual:
            return Dual(self.primal + other.primal, self.tangent + other.tangent)
        return Dual(self.primal + other, self.tangent + 0.0)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Dual:
            return Dual(self.primal - other.primal, self.tangent - other.tangent)
        return Dual(self.primal - other, self.tangent - 0.0)

    def __rsub__(self, other):
        return Dual(other - self.primal, 0.0 - self.tangent)

    def __mul__(self, other):
        p = self.primal
        if type(other) is Dual:
            return Dual(p * other.primal, p * other.tangent + self.tangent * other.primal)
        return Dual(p * other, p * 0.0 + self.tangent * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Dual:
            q, dq = other.primal, other.tangent
        else:  # float() as the lift did: an int's square is then rounded as a float's
            q, dq = float(other), 0.0
        if q == 0.0:
            raise ZeroDivisionError("dual division by zero primal part")
        p = self.primal
        return Dual(p / q, (self.tangent * q - p * dq) / (q * q))

    def __rtruediv__(self, other):
        q = self.primal
        if q == 0.0:
            raise ZeroDivisionError("dual division by zero primal part")
        return Dual(other / q, (0.0 * q - other * self.tangent) / (q * q))

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
    """Exact gradient via one forward pass per coordinate (unit tangents).

    Pass ``i`` seeds only coordinate ``i``, as ``Dual(x[i], 1.0)``; the others
    stay floats, so ``f`` must accept floats and Duals mixed.  Wherever a
    float meets a Dual it counts as ``Dual(c, 0.0)``, the seed an unseeded
    coordinate would carry anyway, though no such Dual is built; only
    operations among unseeded coordinates change, to plain floats without a
    zero tangent.  On every
    shipped field's lifted loss the gradient is bitwise that of seeding all
    coordinates (the reference test in tests/test_differentiation.py).  A
    result that is no Dual reads as a zero derivative.
    """
    x = list(x)
    grad = []
    for i, xi in enumerate(x):
        coords = list(x)
        coords[i] = Dual(xi, 1.0)
        out = f(coords)
        grad.append(out.tangent if isinstance(out, Dual) else 0.0)
    return grad
