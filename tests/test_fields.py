"""Field registry: values, gradients, normalization, domain handling."""
import hashlib
import itertools
import math
import random
from types import SimpleNamespace

import pytest

from minfinity import (AugConfig, DimensionError, DomainError, FieldError, NonFiniteError,
                       NormalizationError, augment, field_names, get_field, normalize,
                       zero_min_field_names)
from minfinity.differentiation import Dual, fd_gradient
from minfinity.fields import (DOUBLE_WELL_GLOBAL_X, DOUBLE_WELL_OFFSET,
                              RASTRIGIN_BAD_VALUE, RASTRIGIN_BAD_X)

ALL_FIELDS = field_names()


def test_registry_contents():
    assert ALL_FIELDS == [
        "quadratic-1d", "quadratic-2d", "rastrigin-1d", "rastrigin-2d",
        "ackley-2d", "double-well-1d", "quadratic-plus-one-1d",
    ]
    assert "quadratic-plus-one-1d" not in zero_min_field_names()


def test_quadratic_at_origin_is_zero():
    assert get_field("quadratic-2d").value((0.0, 0.0)) == 0.0


def test_rastrigin_at_origin_is_zero():
    assert get_field("rastrigin-1d").value((0.0,)) == 0.0


def test_rastrigin_first_bad_minimum_value_near_one():
    # located by dense 1-d grid (step 1e-4) + bisection on the derivative
    field = get_field("rastrigin-1d")
    assert abs(field.value((RASTRIGIN_BAD_X,)) - 1.0) <= 1e-2
    assert field.value((RASTRIGIN_BAD_X,)) == pytest.approx(RASTRIGIN_BAD_VALUE, abs=1e-12)


def test_quadratic_gradient():
    assert get_field("quadratic-1d").gradient((3.0,)) == (6.0,)


def test_rastrigin_gradient_zero_at_origin():
    assert get_field("rastrigin-1d").gradient((0.0,)) == (0.0,)


def test_double_well_gradient_matches_fd_oracle():
    field = get_field("double-well-1d")
    (fd,) = fd_gradient(lambda x: field.value((x[0],)), [0.5])
    (an,) = field.gradient((0.5,))
    assert an == pytest.approx(-1.2, abs=1e-12)
    assert abs(an - fd) <= 1e-6 * max(1.0, abs(an))


def test_normalize_rastrigin_offset_is_zero():
    raw = get_field("rastrigin-1d")
    renorm = normalize(raw)
    assert abs(renorm.offset - raw.offset) <= 1e-9


def test_normalize_quadratic_offset_is_zero():
    renorm = normalize(get_field("quadratic-1d"))
    assert abs(renorm.offset) <= 1e-9


def test_zero_minimum_fields_read_an_exact_zero():
    # double-well's minimizer is the float with the smallest |L'| among its
    # +-3-ulp neighbours, and its offset is the raw value there, so L is an
    # exact 0.0 at every registered global minimum, where the gradient is flat
    field = get_field("double-well-1d")
    x = DOUBLE_WELL_GLOBAL_X
    neighbours = []
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(3):
            y = math.nextafter(y, direction)
            neighbours.append(y)
    slope = abs(field.raw_gradient([x])[0])
    assert all(slope < abs(field.raw_gradient([y])[0]) for y in neighbours)
    assert field.offset.hex() == DOUBLE_WELL_OFFSET.hex() == field.raw_value([x]).hex()
    for name in zero_min_field_names():
        field = get_field(name)
        assert field.value(field.global_min) == 0.0
        assert all(abs(c) <= 1e-14 for c in field.gradient(field.global_min))


def test_normalize_reports_failure():
    with pytest.raises(NormalizationError):
        normalize(get_field("double-well-1d"), grad_tol=0.0)


def test_violator_is_not_normalized():
    field = get_field("quadratic-plus-one-1d")
    assert field.offset == 0.0
    assert field.value((0.0,)) == 1.0
    assert not field.zero_min


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_values_nonnegative_on_samples(name):
    field = get_field(name)
    rng = random.Random(42)
    for _ in range(300):
        theta = field.interior_sample(rng, margin=0.0)
        assert field.value(theta) >= 0.0


@pytest.mark.parametrize("name", zero_min_field_names())
def test_registered_global_minimum_reads_zero(name):
    field = get_field(name)
    assert field.global_min is not None
    assert field.value(field.global_min) == 0.0


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_gradient_matches_central_differences(name):
    field = get_field(name)
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(1000):
        theta = field.interior_sample(rng)
        analytic = field.gradient(theta)
        fd = fd_gradient(lambda x, f=field: f.value(tuple(x)), list(theta))
        for ga, gf in zip(analytic, fd):
            worst = max(worst, abs(ga - gf) / max(1.0, abs(ga), abs(gf)))
    assert worst <= 1e-6


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_bad_minima_are_certified(name):
    # every registered entry: tiny gradient, value far above the finder's
    # loss tolerance so "bad" is unambiguous
    field = get_field(name)
    for bad in field.bad_minima:
        g = field.gradient(bad.point)
        assert math.sqrt(sum(c * c for c in g)) <= 1e-6
        assert bad.value >= 10 * 1e-4
        assert field.value(bad.point) == bad.value


def _raw_points(field):
    # seeded draws from the whole box, the registered minima and the corners
    rng = random.Random(7)
    points = [field.interior_sample(rng, margin=0.0) for _ in range(40)]
    return points + [field.global_min, *(m.point for m in field.bad_minima),
                     field.lower, field.upper]


def test_raw_formulas_are_bitwise_stable():
    # sha256 of float.hex of raw_value and raw_gradient on floats, recorded
    # before the formulas chose their primitives once per call, and
    # re-recorded when double-well's global minimum moved to its exact zero
    lines = []
    for name in ALL_FIELDS:
        f = get_field(name)
        for p in _raw_points(f):
            lines.append(" ".join([name, float.hex(f.raw_value(list(p))),
                                   *map(float.hex, f.raw_gradient(list(p)))]))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "3f4c385f5349f4afa2ade6d49f2caa4d4b9e73d305a9096cdbe6ac79ec3c2a40"


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_float_path_computes_the_lifted_formula(name):
    # each formula is written once; on floats it calls math's primitives, on
    # a vector holding any Dual the lifted ones.  Every coordinate vector,
    # all floats, all Duals or a float/Dual/int mix, gives the same value
    f = get_field(name)
    rng = random.Random(11)
    for p in _raw_points(f):
        want = float.hex(f.raw_value(list(p)))
        duals = [Dual(c, rng.uniform(-1.0, 1.0)) for c in p]
        assert float.hex(f.raw_value(duals).primal) == want
        ints = [float(int(c)) for c in p]  # integral, exact as int or float
        mixes = ([int(c) for c in ints],
                 [Dual(c) if i % 2 else int(c) for i, c in enumerate(ints)],
                 [c if i % 2 else Dual(c, 1.0) for i, c in enumerate(ints)])
        for mixed in mixes:
            out = f.raw_value(mixed)
            out = out.primal if isinstance(out, Dual) else float(out)
            assert float.hex(out) == float.hex(f.raw_value(ints))


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        get_field("quadratic-2d").value((1.0,))


def test_outside_domain_raises():
    with pytest.raises(DomainError):
        get_field("rastrigin-1d").value((6.0,))


# Every validated route checks theta the same way: length, then finiteness,
# then the closed box.  AugPoint refuses a non-finite theta itself, so the
# augmented routes get a bare (theta, a, b) record and the check that answers
# is the field's.
_CFG = AugConfig()
_ROUTES = {
    "ScalarField.value": lambda f, theta: f.value(theta),
    "ScalarField.gradient": lambda f, theta: f.gradient(theta),
    "augment.evaluate": lambda f, theta: augment.evaluate(
        f, SimpleNamespace(theta=theta, a=0.5, b=0.25), _CFG),
    "augment.gradient": lambda f, theta: augment.gradient(
        f, SimpleNamespace(theta=theta, a=0.5, b=0.25), _CFG),
}
_CHECKED = [(route, name) for route in _ROUTES for name in ("rastrigin-1d", "ackley-2d")]


def _hex(out) -> str:
    if isinstance(out, tuple):
        return "(" + " ".join(map(_hex, out)) + ")"
    return out.hex() if isinstance(out, float) else repr(out)


# sha256 of every accepted input with its result's bits, recorded while the
# routes could still skip the box test
_ACCEPTED_DIGESTS = {
    ("ScalarField.value", "rastrigin-1d"):
        "728de2ec8bd5a4a8265b1509bd71679e71e22913423b36ff0323a9adb6d50874",
    ("ScalarField.value", "ackley-2d"):
        "9185ad0cd9129ec22d1489020b87c6708f917d842653bacc5418159fe52edf3d",
    ("ScalarField.gradient", "rastrigin-1d"):
        "2b8ff91ddfbdcd113fe5ad57c921e2859349797ce43279cf9a0d9cd03c8c739a",
    ("ScalarField.gradient", "ackley-2d"):
        "d680cd9c9b4b32c2acf0c402f3165f39122e38d6c542200e5d17f6a7490bb198",
    ("augment.evaluate", "rastrigin-1d"):
        "0c1ca93c41c05611657b35132379b24ef7f7c14ba3b8f4034517afa9ef757c3c",
    ("augment.evaluate", "ackley-2d"):
        "7fa96b945b1de62060058b683778be2de06b929fe9cb1022f56f47b8bdc73c4e",
    ("augment.gradient", "rastrigin-1d"):
        "4e23473cc3b3fc7965734e4347233b0ff4dff8c75661dd0c1025a0f8e9f33ad6",
    ("augment.gradient", "ackley-2d"):
        "b464327b4f24a5ea565d8b71ca4444e8f0fe6cbed9be0f55225dde92dfc0bfc4",
}


@pytest.mark.parametrize("route, name", _CHECKED)
def test_routes_accept_the_closed_box_bit_for_bit(route, name):
    # each corner puts every bound in exactly; int coordinates (the ackley
    # ones on its corner) and -0.0 read as the floats they convert to
    f, call = get_field(name), _ROUTES[route]
    ints = [tuple(range(1, f.dim + 1)), tuple(-int(hi) for hi in f.upper)]
    inputs = [*itertools.product(*zip(f.lower, f.upper)), *ints, (-0.0,) * f.dim]
    for theta in ints:
        assert _hex(call(f, theta)) == _hex(call(f, tuple(map(float, theta))))
    text = "\n".join(f"{theta!r} {_hex(call(f, theta))}" for theta in inputs)
    assert hashlib.sha256(text.encode()).hexdigest() == _ACCEPTED_DIGESTS[route, name]


def _rejected(f):
    """(theta, error class, message) for inputs every route must refuse."""
    box = f"{f.lower}..{f.upper}"
    cases = []
    for i in range(f.dim):
        def at(c):
            return (0.0,) * i + (c,) + (0.0,) * (f.dim - 1 - i)
        for bound, away in ((f.lower[i], -math.inf), (f.upper[i], math.inf)):
            theta = at(math.nextafter(bound, away))
            cases.append((theta, DomainError, f"{f.name}: {theta} outside domain box {box}"))
        for c in (math.nan, math.inf, -math.inf):
            theta = at(c)
            cases.append((theta, NonFiniteError, f"{f.name}: non-finite coordinate in {theta}"))
    if f.dim == 2:  # a coordinate out of the box and the other nan: nan answers
        for theta in ((99.0, math.nan), (math.nan, -99.0)):
            cases.append((theta, NonFiniteError, f"{f.name}: non-finite coordinate in {theta}"))
    # the wrong length answers first, whatever the coordinates hold
    for theta in ((0.0,) * (f.dim - 1), (0.0,) * (f.dim + 1), (math.nan,) + (99.0,) * f.dim):
        cases.append((theta, DimensionError,
                      f"{f.name}: expected {f.dim} coordinates, got {len(theta)}"))
    return cases


@pytest.mark.parametrize("route, name", _CHECKED)
def test_routes_refuse_what_lies_outside_the_box(route, name):
    f, call = get_field(name), _ROUTES[route]
    for theta, error, message in _rejected(f):
        with pytest.raises(FieldError) as caught:
            call(f, theta)
        assert type(caught.value) is error, theta
        assert str(caught.value) == message


def test_clamp_reports_event():
    field = get_field("double-well-1d")
    clamped, moved = field.clamp((3.5,))
    assert clamped == (2.0,) and moved
    same, moved = field.clamp((1.0,))
    assert same == (1.0,) and not moved


def test_fields_are_shareable_values():
    # built once at import; evaluation never mutates
    a = get_field("ackley-2d")
    b = get_field("ackley-2d")
    assert a is b
    before = a.value((1.0, 1.0))
    for _ in range(10):
        a.gradient((0.3, -0.4))
    assert a.value((1.0, 1.0)) == before


def test_unknown_field_name():
    with pytest.raises(KeyError):
        get_field("himmelblau-2d")
