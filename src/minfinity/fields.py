"""Base loss landscapes: nonnegative scalar fields over a box domain.

Every shipped field reads exactly 0.0 at its registered global minimum, except
the deliberate convention breaker ``quadratic-plus-one-1d`` whose minimum is 1.
Fields with strictly positive local minima register them in ``bad_minima`` so
tests and sweeps can start exactly there.  All seven are plain literals built
at import, so no field runs a descent: ``double-well-1d`` carries a
closed-form minimizer and the offset that is its raw value there, and
``ackley-2d`` the offset that takes out the rounding of its raw value at the
origin.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

from .differentiation import Dual, cos_, exp_, sqrt_
from .minimize import descend


FLOOR_SLACK = 1e-9  # normalization slack: L in [-FLOOR_SLACK, 0) reads as 0


class FieldError(Exception):
    """Base for evaluation failures of a scalar field."""


class DimensionError(FieldError):
    pass


class DomainError(FieldError):
    pass


class NonFiniteError(FieldError):
    pass


class NormalizationError(FieldError):
    pass


class BadMinimum(NamedTuple):
    point: tuple[float, ...]
    value: float


@dataclass(frozen=True)
class ScalarField:
    """A differentiable loss over a closed box, shifted by ``offset``.

    ``raw_value`` must accept floats and dual numbers alike: each formula is
    written once and takes its primitives from :mod:`math` when no coordinate
    is a Dual, the lifted ones from :mod:`minfinity.differentiation`
    otherwise.  ``raw_gradient`` is the hand-derived gradient of the raw
    formula, as a tuple or a list.
    """

    name: str
    dim: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    raw_value: Callable[[Sequence], object]
    raw_gradient: Callable[[Sequence[float]], Sequence[float]]
    offset: float = 0.0
    zero_min: bool = True
    global_min: tuple[float, ...] | None = None
    bad_minima: tuple[BadMinimum, ...] = ()

    def _check(self, theta: Sequence[float], check_domain: bool) -> tuple[float, ...]:
        theta = tuple(float(t) for t in theta)
        if len(theta) != self.dim:
            raise DimensionError(
                f"{self.name}: expected {self.dim} coordinates, got {len(theta)}")
        if not all(math.isfinite(t) for t in theta):
            raise NonFiniteError(f"{self.name}: non-finite coordinate in {theta}")
        if check_domain and not self.contains(theta):
            raise DomainError(
                f"{self.name}: {theta} outside domain box {self.lower}..{self.upper}")
        return theta

    def value(self, theta: Sequence[float], check_domain: bool = True) -> float:
        """L(theta) >= 0; negatives within FLOOR_SLACK clamp to 0."""
        theta = self._check(theta, check_domain)
        v = self.raw_value(theta) - self.offset
        if not math.isfinite(v):
            raise NonFiniteError(f"{self.name}: non-finite value at {theta}")
        if v < 0.0:
            if v < -FLOOR_SLACK:
                raise NonFiniteError(
                    f"{self.name}: value {v} below normalization slack at {theta}")
            return 0.0
        return v

    def gradient(self, theta: Sequence[float], check_domain: bool = True) -> tuple[float, ...]:
        theta = self._check(theta, check_domain)
        g = tuple(self.raw_gradient(theta))
        if not all(math.isfinite(c) for c in g):
            raise NonFiniteError(f"{self.name}: non-finite gradient at {theta}")
        return g

    def lifted_value(self, coords: Sequence) -> object:
        """Raw formula minus offset on dual numbers (or floats); no clamping."""
        return self.raw_value(coords) - self.offset

    def contains(self, theta: Sequence[float]) -> bool:
        return all(lo <= t <= hi for t, lo, hi in zip(theta, self.lower, self.upper))

    def clamp(self, theta: Sequence[float]) -> tuple[tuple[float, ...], bool]:
        """Project onto the domain box; second element reports whether anything moved."""
        clamped = tuple([min(max(t, lo), hi)
                         for t, lo, hi in zip(theta, self.lower, self.upper)])
        return clamped, clamped != tuple(theta)

    def interior_sample(self, rng, margin: float = 1e-3) -> tuple[float, ...]:
        """Uniform draw from the box shrunk by a relative margin per axis."""
        out = []
        for lo, hi in zip(self.lower, self.upper):
            pad = margin * (hi - lo)
            out.append(rng.uniform(lo + pad, hi - pad))
        return tuple(out)


def normalize(raw: ScalarField, grad_tol: float = 1e-7) -> ScalarField:
    """Return a copy of ``raw`` shifted so the located global minimum reads 0.

    Multistart damped descent: the box midpoint plus 31 uniform draws seeded
    with 0, each polished until the gradient norm drops below ``grad_tol``.
    Raises NormalizationError when no start converges.
    """
    rng = random.Random(0)
    mid = tuple(0.5 * (lo + hi) for lo, hi in zip(raw.lower, raw.upper))
    points = [mid] + [raw.interior_sample(rng, margin=0.0) for _ in range(31)]
    best_val = math.inf
    best_x = None
    any_converged = False
    for p in points:
        res = descend(
            lambda x: raw.raw_value(tuple(x)),
            lambda x: list(raw.raw_gradient(tuple(x))),
            list(p),
            grad_tol=grad_tol,
            max_iters=2000,
            polish_iters=1500,
            clamp_lower=raw.lower,
            clamp_upper=raw.upper,
        )
        if res.converged:
            any_converged = True
        if res.converged and res.value < best_val:
            best_val = res.value
            best_x = tuple(res.x)
    if not any_converged or best_x is None:
        raise NormalizationError(f"{raw.name}: minimum search failed to converge")
    return replace(raw, offset=raw.offset + best_val, global_min=best_x)


# ---------------------------------------------------------------------------
# shipped landscapes
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * math.pi

# located by dense grid search (step 1e-4) + bisection on the derivative
RASTRIGIN_BAD_X = 0.9949586376523349
RASTRIGIN_BAD_VALUE = 0.9949590570932916
RASTRIGIN_BAD_X2 = 1.9899122337085493
RASTRIGIN_BAD_VALUE2 = 3.979831190554087

# exact zeros: x* is the trigonometric root of L' = 4x^3 - 4x + 0.3 plus one
# Newton step (L'(x*) = 1.7e-16), the offset is raw(x*), so L(x*) == 0.0, and
# each bad value is ScalarField.value at its point
DOUBLE_WELL_OFFSET = -1.305428483743916
DOUBLE_WELL_GLOBAL_X = -1.0355787140888537
DOUBLE_WELL_BAD_X = 0.9601495555191055
DOUBLE_WELL_BAD_VALUE = 0.5995749647721789

ACKLEY_OFFSET = 4.440892098500626e-16  # raw value at (0, 0): -20 - 1 + 20 + e rounds up
ACKLEY_BAD_1 = (0.9521665459501732, 0.0)
ACKLEY_BAD_VALUE_1 = 2.5799275570298725
ACKLEY_BAD_2 = (0.9684776587077252, 0.9684776587077252)
ACKLEY_BAD_VALUE_2 = 3.5744518772576797


def _quadratic(coords):
    total = coords[0] * coords[0]
    for c in coords[1:]:
        total = total + c * c
    return total


def _quadratic_grad(theta):
    grad = []
    for t in theta:  # a loop: for one or two coordinates a generator costs more
        grad.append(2.0 * t)
    return grad


def _rastrigin(coords):
    # the primitives are picked once per call: math's unless a coordinate is a Dual
    cos = math.cos
    for c in coords:
        if type(c) is Dual:
            cos = cos_
            break
    total = 10.0 * len(coords)
    for c in coords:
        total = total + (c * c - 10.0 * cos(_TWO_PI * c))
    return total


def _rastrigin_grad(theta):
    grad = []
    for t in theta:  # a loop: for one or two coordinates a generator costs more
        grad.append(2.0 * t + 20.0 * math.pi * math.sin(_TWO_PI * t))
    return grad


def _ackley(coords):
    x, y = coords
    if type(x) is Dual or type(y) is Dual:
        exp, cos, sqrt = exp_, cos_, sqrt_
    else:
        exp, cos, sqrt = math.exp, math.cos, math.sqrt
    r = sqrt((x * x + y * y) * 0.5)
    c = (cos(_TWO_PI * x) + cos(_TWO_PI * y)) * 0.5
    return -20.0 * exp(-0.2 * r) - exp(c) + 20.0 + math.e


def _ackley_grad(theta):
    x, y = theta
    r = math.sqrt((x * x + y * y) * 0.5)
    ec = math.exp((math.cos(_TWO_PI * x) + math.cos(_TWO_PI * y)) * 0.5)
    if r == 0.0:
        # cone point at the global minimum: no defined gradient, report 0
        return (0.0, 0.0)
    er = math.exp(-0.2 * r)
    return (2.0 * x * er / r + math.pi * math.sin(_TWO_PI * x) * ec,
            2.0 * y * er / r + math.pi * math.sin(_TWO_PI * y) * ec)


def _double_well(coords):
    x = coords[0]
    return x ** 4 - 2.0 * (x * x) + 0.3 * x


def _double_well_grad(theta):
    x = theta[0]
    return (4.0 * x ** 3 - 4.0 * x + 0.3,)


def _one_plus_quadratic(coords):
    return coords[0] * coords[0] + 1.0


def _one_plus_quadratic_grad(theta):
    return (2.0 * theta[0],)


# every shipped field, declared once and built at import, in registry order;
# positional: name, dim, lower, upper, raw_value, raw_gradient
_FIELDS: dict[str, ScalarField] = {f.name: f for f in (
    ScalarField("quadratic-1d", 1, (-10.0,), (10.0,), _quadratic, _quadratic_grad,
                global_min=(0.0,)),
    ScalarField("quadratic-2d", 2, (-10.0, -10.0), (10.0, 10.0), _quadratic, _quadratic_grad,
                global_min=(0.0, 0.0)),
    ScalarField("rastrigin-1d", 1, (-5.12,), (5.12,), _rastrigin, _rastrigin_grad,
                global_min=(0.0,),
                bad_minima=(BadMinimum((RASTRIGIN_BAD_X,), RASTRIGIN_BAD_VALUE),
                            BadMinimum((RASTRIGIN_BAD_X2,), RASTRIGIN_BAD_VALUE2))),
    ScalarField("rastrigin-2d", 2, (-5.12, -5.12), (5.12, 5.12), _rastrigin, _rastrigin_grad,
                global_min=(0.0, 0.0),
                bad_minima=(BadMinimum((RASTRIGIN_BAD_X, 0.0), RASTRIGIN_BAD_VALUE),
                            BadMinimum((0.0, RASTRIGIN_BAD_X), RASTRIGIN_BAD_VALUE),
                            BadMinimum((RASTRIGIN_BAD_X, RASTRIGIN_BAD_X),
                                       RASTRIGIN_BAD_VALUE + RASTRIGIN_BAD_VALUE))),
    ScalarField("ackley-2d", 2, (-5.0, -5.0), (5.0, 5.0), _ackley, _ackley_grad,
                offset=ACKLEY_OFFSET, global_min=(0.0, 0.0),
                bad_minima=(BadMinimum(ACKLEY_BAD_1, ACKLEY_BAD_VALUE_1),
                            BadMinimum((ACKLEY_BAD_1[1], ACKLEY_BAD_1[0]), ACKLEY_BAD_VALUE_1),
                            BadMinimum(ACKLEY_BAD_2, ACKLEY_BAD_VALUE_2))),
    ScalarField("double-well-1d", 1, (-2.0,), (2.0,), _double_well, _double_well_grad,
                offset=DOUBLE_WELL_OFFSET, global_min=(DOUBLE_WELL_GLOBAL_X,),
                bad_minima=(BadMinimum((DOUBLE_WELL_BAD_X,), DOUBLE_WELL_BAD_VALUE),)),
    # min value is 1, deliberately breaking the zero-minimum convention;
    # never normalized, used by negative tests only
    ScalarField("quadratic-plus-one-1d", 1, (-10.0,), (10.0,),
                _one_plus_quadratic, _one_plus_quadratic_grad,
                zero_min=False, global_min=(0.0,), bad_minima=(BadMinimum((0.0,), 1.0),)),
)}


def field_names() -> list[str]:
    return list(_FIELDS)


def zero_min_field_names() -> list[str]:
    return [name for name, f in _FIELDS.items() if f.zero_min]


def get_field(name: str) -> ScalarField:
    if name not in _FIELDS:
        raise KeyError(f"unknown field {name!r}; available: {', '.join(_FIELDS)}")
    return _FIELDS[name]
