"""Augmented loss: frozen examples, exact identities, saturation policy."""
import hashlib
import math
import random
from dataclasses import replace
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfinity import (AugConfig, AugPoint, SaturationError, Thresholds, eval_u,
                       evaluate, field_names, get_field, gradient, probe_infimum)
from minfinity.augment import (POLICY_ERROR, POLICY_SATURATE, fast_kernel,
                               fast_value_and_grad, slice_value)

CFG = AugConfig()
ERR_CFG = AugConfig(saturation_policy=POLICY_ERROR)


# --- eval_u -----------------------------------------------------------------

def test_u_zero_times_anything():
    assert eval_u(0.0, 50.0, CFG) == (0.0, False)


def test_u_identity_by_construction():
    u, sat = eval_u(0.5, math.log(2.0), CFG)
    assert not sat
    assert u == pytest.approx(1.0, abs=1e-15)


def test_u_tiny_a_large_b_is_representable_and_unflagged():
    # log(1e-300) + 800 is about 109, comfortably inside the clamp
    u, sat = eval_u(1e-300, 800.0, CFG)
    assert not sat
    assert u == math.exp(math.log(1e-300) + 800.0)


def test_u_flag_fires_only_past_the_clamp():
    u, sat = eval_u(1.0, 800.0, CFG)
    assert sat and u == math.exp(700.0)
    u, sat = eval_u(1e-300, -50.0, CFG)  # exponent ~ -741
    assert sat and u == math.exp(-700.0)
    with pytest.raises(SaturationError):
        eval_u(1.0, 800.0, ERR_CFG)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       b=st.floats(min_value=-900, max_value=900, allow_nan=False))
def test_u_flag_matches_exponent_arithmetic(a, b):
    u, sat = eval_u(a, b, CFG)
    if a == 0.0:
        assert u == 0.0 and not sat
    else:
        assert sat == (abs(math.log(abs(a)) + b) > CFG.b_clamp)
        assert math.isfinite(u)


# --- evaluate ---------------------------------------------------------------

def test_value_vanishes_at_global_minimum_slice():
    field = get_field("quadratic-1d")
    out = evaluate(field, AugPoint((0.0,), 0.0, 5.0), CFG)
    assert out.value == 0.0 and out.base == 0.0


def test_value_doubles_base_when_a_zero():
    field = get_field("quadratic-1d")
    out = evaluate(field, AugPoint((1.0,), 0.0, 0.0), CFG)
    assert out.value == 2.0 and out.base == 1.0


def test_value_collapses_to_regularizer_when_u_is_one():
    field = get_field("quadratic-2d")  # L(1,1) = 2 exactly
    out = evaluate(field, AugPoint((1.0, 1.0), 0.5, math.log(2.0)), CFG)
    assert out.value == pytest.approx(2.25, abs=1e-12)
    # independent high-precision substitution of the defining formula
    getcontext().prec = 50
    b = Decimal(math.log(2.0))
    u = Decimal("0.5") * b.exp()
    expected = 2 * (1 + (u - 1) ** 2) + Decimal("0.25")
    assert out.value == pytest.approx(float(expected), abs=1e-12)


# --- gradient ---------------------------------------------------------------

def test_gradient_a_component_at_a_zero():
    # with a = 0 the a-derivative reduces to -2 L exp(b)
    field = get_field("quadratic-1d")
    g = gradient(field, AugPoint((1.0,), 0.0, 0.0), CFG)
    assert g.d_a == -2.0
    for b in (-2.0, 0.5, 3.0):
        g = gradient(field, AugPoint((2.0,), 0.0, b), CFG)
        assert g.d_a == pytest.approx(-2.0 * 4.0 * math.exp(b), rel=1e-12)


def test_gradient_b_component_vanishes_at_a_zero():
    for name in ("rastrigin-1d", "double-well-1d"):
        field = get_field(name)
        g = gradient(field, AugPoint((0.5,), 0.0, 1.7), CFG)
        assert g.d_b == 0.0


def test_gradient_theta_multiplier():
    field = get_field("quadratic-1d")
    g = gradient(field, AugPoint((1.0,), 0.0, 0.0), CFG)
    assert g.d_theta == (4.0,)


def test_gradient_saturation_policy():
    field = get_field("quadratic-1d")
    point = AugPoint((1.0,), 1.0, 800.0)
    g = gradient(field, point, CFG)
    assert g.saturated
    with pytest.raises(SaturationError):
        gradient(field, point, ERR_CFG)


# each guard alone on quadratic-1d: (theta, a, b) -> the routes it trips
GUARD_POINTS = {
    # log|a| + b is about -741: only the exponent clamp of u applies
    "exponent-clamp": (((1.0,), 1e-300, -50.0), {"evaluate", "gradient", "slice_value"}),
    # u is in range but exp(b) in dV/da is past the clamp
    "b-in-d/da": (((0.01,), 1e-300, 700.5), {"gradient"}),
    # u = exp(400) is in range but (u - 1)^2 overflows
    "overflow": (((1.0,), 1.0, 400.0), {"evaluate", "gradient", "slice_value"}),
}


def _saturated(route, theta, a, b, cfg):
    field = get_field("quadratic-1d")
    if route == "evaluate":
        return evaluate(field, AugPoint(theta, a, b), cfg).saturated
    if route == "gradient":
        return gradient(field, AugPoint(theta, a, b), cfg).saturated
    return slice_value(field.value(theta), a, b, cfg)[1]


@pytest.mark.parametrize("guard", list(GUARD_POINTS))
@pytest.mark.parametrize("route", ["evaluate", "gradient", "slice_value"])
def test_each_saturation_guard_alone(guard, route):
    (theta, a, b), routes = GUARD_POINTS[guard]
    trips = route in routes
    assert _saturated(route, theta, a, b, CFG) == trips
    if trips:
        with pytest.raises(SaturationError):
            _saturated(route, theta, a, b, ERR_CFG)
    else:
        assert not _saturated(route, theta, a, b, ERR_CFG)


# --- exact identities (property tests) --------------------------------------

FIELD_STRATS = {
    "quadratic-1d": st.tuples(st.floats(-10, 10)),
    "rastrigin-1d": st.tuples(st.floats(-5.12, 5.12)),
    "ackley-2d": st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    "double-well-1d": st.tuples(st.floats(-2, 2)),
    "quadratic-plus-one-1d": st.tuples(st.floats(-10, 10)),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(sorted(FIELD_STRATS)),
       a=st.floats(-10, 10),
       b=st.floats(-30, 30))
def test_lower_bound_is_exact_pointwise(data, name, a, b):
    field = get_field(name)
    theta = data.draw(FIELD_STRATS[name])
    out = evaluate(field, AugPoint(theta, a, b), CFG)
    assert out.value >= out.base
    assert out.value >= 0.0


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(sorted(FIELD_STRATS)),
       b1=st.floats(-30, 30),
       b2=st.floats(-30, 30))
def test_restriction_identity_and_b_invariance(data, name, b1, b2):
    field = get_field(name)
    theta = data.draw(FIELD_STRATS[name])
    v1 = evaluate(field, AugPoint(theta, 0.0, b1), CFG).value
    v2 = evaluate(field, AugPoint(theta, 0.0, b2), CFG).value
    assert v1 == 2.0 * field.value(theta)
    assert v1 == v2


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-10, 10), b=st.floats(-30, 30),
       lam=st.floats(min_value=1e-3, max_value=1e3))
def test_global_min_slice_is_pure_regularizer(a, b, lam):
    field = get_field("quadratic-1d")
    cfg = AugConfig(lam=lam)
    out = evaluate(field, AugPoint((0.0,), a, b), cfg)
    assert out.value == lam * a * a


def test_lower_bound_on_seeded_grid():
    import random
    rng = random.Random(99)
    field = get_field("rastrigin-2d")
    for _ in range(2000):
        theta = field.interior_sample(rng, margin=0.0)
        p = AugPoint(theta, rng.uniform(-3, 3), rng.uniform(-10, 25))
        out = evaluate(field, p, CFG)
        assert out.value >= out.base


def test_config_validation():
    with pytest.raises(ValueError):
        AugConfig(lam=0.0)
    with pytest.raises(ValueError):
        AugConfig(b_clamp=1000.0)
    with pytest.raises(ValueError):
        AugConfig(saturation_policy="ignore")
    with pytest.raises(ValueError):
        AugPoint((1.0,), math.inf, 0.0)
    assert POLICY_SATURATE == AugConfig().saturation_policy


# --- the certificate and the divergence signature -----------------------------

def test_certificate_edges():
    thr = Thresholds()
    tol, b_max = thr.grad_tol, thr.b_max
    assert thr.certifies(tol, 0.0, b_max) and thr.certifies(tol, 0.0, -b_max)
    assert not thr.certifies(tol, 0.0, math.nextafter(b_max, math.inf))
    assert not thr.certifies(tol, 0.0, math.nextafter(-b_max, -math.inf))
    assert not thr.certifies(math.nextafter(tol, math.inf), 0.0, 0.0)
    # the residual 2*L*exp(0) exactly at the tolerance, then one float above it
    assert thr.certifies(0.0, tol / 2, 0.0)
    assert not thr.certifies(0.0, math.nextafter(tol / 2, math.inf), 0.0)
    # past exp's range the residual reads exp(b) at the clamp: no OverflowError
    wide = Thresholds(b_max=1000.0)
    assert wide.certifies(0.0, 0.0, 1000.0)
    assert not wide.certifies(0.0, 1e-300, 1000.0)


def test_divergence_signature_edges():
    thr = Thresholds(u_window=0.25)  # dyadic: 1 +- u_window is exact
    b_max, a_edge = thr.b_max, 10.0 * thr.a_tol
    assert thr.diverging(a_edge, b_max, 1.25) and thr.diverging(-a_edge, b_max, 0.75)
    assert not thr.diverging(0.0, math.nextafter(b_max, -math.inf), 1.0)
    assert not thr.diverging(math.nextafter(a_edge, math.inf), b_max, 1.0)
    assert not thr.diverging(0.0, b_max, math.nextafter(1.25, math.inf))
    assert not thr.diverging(0.0, b_max, math.nextafter(0.75, -math.inf))


def test_channel_edges():
    thr = Thresholds()
    tol, bad = thr.grad_tol, thr.loss_tol
    just_bad = math.nextafter(bad, math.inf)
    assert thr.in_channel(tol, just_bad, 1.0)
    assert not thr.in_channel(math.nextafter(tol, math.inf), just_bad, 1.0)
    assert not thr.in_channel(0.0, bad, 1.0)
    # with u_window = 0.1, 1.1 - 1.0 rounds above the window and 0.9 - 1.0
    # does not: the last floats inside are the one below 1.1, and 0.9
    for inside, outside in ((math.nextafter(1.1, 1.0), 1.1), (0.9, math.nextafter(0.9, 0.0))):
        assert thr.in_channel(0.0, just_bad, inside)
        assert not thr.in_channel(0.0, just_bad, outside)


def test_thresholds_reject_a_grad_tol_that_is_not_a_positive_real():
    for tol in (0.0, -1e-8, math.inf, math.nan):
        with pytest.raises(ValueError, match="grad_tol must be a positive real"):
            Thresholds(grad_tol=tol)


# --- fast closures against the validated path --------------------------------

def _bits(values):
    return [float(v).hex() for v in values]


def _oracle_points(field, rng):
    thetas = [field.interior_sample(rng) for _ in range(4)]
    thetas += [field.global_min] + [m.point for m in field.bad_minima]
    pairs = [(0.0, 0.0), (0.0, 60.0), (1e-8, 0.0), (1e-8, 55.0), (-1e-300, 60.0),
             (-1e-300, -40.0), (1.0, 60.0), (-2.0, -40.0), (0.5, 31.0)]
    pairs += [(rng.uniform(-3.0, 3.0), rng.uniform(-40.0, 60.0)) for _ in range(8)]
    return [AugPoint(theta, a, b) for theta in thetas for a, b in pairs]


# sha256 over the float.hex outputs of eval_u, evaluate, gradient, slice_value,
# the fast closures and probe_infimum at the oracle points, recorded while each
# route still wrote the augmented formula out by hand, and re-recorded when
# double-well and ackley got exact zeros (the other fields' bytes held)
ORACLE_SHA = {
    AugConfig(): "202f445b88d2f2abfc69ebed943d5049bdb788697ac1fc8abd5067d6a018097b",
    AugConfig(lam=0.3, b_clamp=30.0): "a094dacea2821510179043c5eb28f89a019d48ebbd6928f2c39e1a2b246fb8b9",
}


@pytest.mark.parametrize("cfg", list(ORACLE_SHA))
def test_fast_kernel_matches_evaluate_and_gradient_bitwise(cfg):
    rng = random.Random(31)
    floored = 0
    digest = hashlib.sha256()
    for name in field_names():
        field = get_field(name)
        # the same field shifted up by 5e-10, so that L near the global
        # minimum lands in the [-1e-9, 0) band that the floor maps to 0
        for f in (field, replace(field, offset=field.offset + 5e-10)):
            kernel = fast_kernel(f, cfg)
            value_fn, grad_fn = fast_value_and_grad(f, cfg)
            points = _oracle_points(f, rng)
            for p in points:
                x = p.coords()
                ev = evaluate(f, p, cfg)
                gr = gradient(f, p, cfg)
                v, base, u, g = kernel(x)
                expected = _bits([ev.value, ev.base, ev.u, *gr.d_theta, gr.d_a, gr.d_b])
                assert _bits([v, base, u, *g]) == expected, (f.name, p)
                assert _bits([value_fn(x), *grad_fn(x)]) == _bits([v, *g]), (f.name, p)
                floored += -1e-9 <= f.raw_value(p.theta) - f.offset < 0.0
                eu, eu_sat = eval_u(p.a, p.b, cfg)
                sv, sv_sat = slice_value(ev.base, p.a, p.b, cfg)
                flags = [ev.saturated, gr.saturated, eu_sat, sv_sat]
                digest.update(" ".join(expected + _bits([eu, sv]) + [repr(flags)]).encode())
            for theta in dict.fromkeys(p.theta for p in points):
                digest.update(_bits([probe_infimum(f, theta, cfg)])[0].encode())
    assert floored > 0
    assert digest.hexdigest() == ORACLE_SHA[cfg]
