"""Field registry: values, gradients, normalization, domain handling."""
import math
import random
from dataclasses import replace

import pytest

from minfinity import (DimensionError, DomainError, NormalizationError,
                       field_names, get_field, normalize, zero_min_field_names)
from minfinity.differentiation import fd_gradient
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


def test_double_well_constants_are_what_normalize_returns():
    # the shipped field is a literal; normalize is the reference that located
    # its offset and minimizer, so re-deriving them must agree bit for bit
    field = get_field("double-well-1d")
    located = normalize(replace(field, offset=0.0, global_min=None))
    assert located.offset.hex() == field.offset.hex() == DOUBLE_WELL_OFFSET.hex()
    assert [x.hex() for x in located.global_min] == [x.hex() for x in field.global_min] \
        == [DOUBLE_WELL_GLOBAL_X.hex()]
    assert field.value(field.global_min) == 0.0


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
    assert field.value(field.global_min) <= 1e-9


@pytest.mark.parametrize("name", ALL_FIELDS)
def test_gradient_matches_central_differences(name):
    field = get_field(name)
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(1000):
        theta = field.interior_sample(rng)
        analytic = field.gradient(theta)
        fd = fd_gradient(lambda x, f=field: f.value(tuple(x), check_domain=False), list(theta))
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
        assert field.value(bad.point) == pytest.approx(bad.value, rel=1e-9)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        get_field("quadratic-2d").value((1.0,))


def test_outside_domain_raises():
    with pytest.raises(DomainError):
        get_field("rastrigin-1d").value((6.0,))


def test_domain_check_can_be_skipped():
    assert get_field("rastrigin-1d").value((6.0,), check_domain=False) > 0.0


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
