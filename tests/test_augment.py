"""Augmented loss: frozen examples, exact identities, saturation policy."""
import hashlib
import math
import random
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfinity import (AugConfig, AugPoint, SaturationError, Thresholds, evaluate,
                       field_names, get_field, gradient, probe_infimum)
from minfinity.augment import (B_CLAMP, POLICY_ERROR, POLICY_SATURATE, _terms, fast_kernel,
                               fast_value_and_grad, slice_value)
from test_landscape import _signed_field
from test_optimize import _counting

CFG = AugConfig()
ERR_CFG = AugConfig(saturation_policy=POLICY_ERROR)


# --- u = a*exp(b) in the scalar core -----------------------------------------

def _u(a, b):
    """(u, u_sat) as the core computes them; u does not depend on L or lam."""
    return _terms(0.0, a, b, CFG.lam)[2:]


def test_u_zero_times_anything():
    assert _u(0.0, 50.0) == (0.0, False)


def test_u_identity_by_construction():
    u, sat = _u(0.5, math.log(2.0))
    assert not sat
    assert u == pytest.approx(1.0, abs=1e-15)


def test_u_tiny_a_large_b_is_representable_and_unflagged():
    # log(1e-300) + 800 is about 109, comfortably inside the clamp
    u, sat = _u(1e-300, 800.0)
    assert not sat
    assert u == math.exp(math.log(1e-300) + 800.0)


def test_u_flag_fires_only_past_the_clamp():
    u, sat = _u(1.0, 800.0)
    assert sat and u == math.exp(700.0)
    u, sat = _u(1e-300, -50.0)  # exponent ~ -741
    assert sat and u == math.exp(-700.0)
    with pytest.raises(SaturationError):
        slice_value(0.0, 1.0, 800.0, ERR_CFG)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       b=st.floats(min_value=-900, max_value=900, allow_nan=False))
def test_u_flag_matches_exponent_arithmetic(a, b):
    u, sat = _u(a, b)
    if a == 0.0:
        assert u == 0.0 and not sat
    else:
        assert sat == (abs(math.log(abs(a)) + b) > B_CLAMP)
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
        AugConfig(saturation_policy="ignore")
    with pytest.raises(ValueError):
        AugPoint((1.0,), math.inf, 0.0)
    assert POLICY_SATURATE == AugConfig().saturation_policy


def test_aug_point_coerces_ints_to_floats():
    point = AugPoint((1, -2), 3, 0)
    assert point.theta == (1.0, -2.0) and (point.a, point.b) == (3.0, 0.0)
    assert all(type(c) is float for c in (*point.theta, point.a, point.b))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["theta", "a", "b"])
def test_aug_point_rejects_a_non_finite_coordinate(slot, bad):
    # the message shows the coordinates after float conversion
    coords = {"theta": (1, 2), "a": 0, "b": 0}
    coords[slot] = (1, bad) if slot == "theta" else bad
    shown = {"theta": "(1.0, 2.0)", "a": "0.0", "b": "0.0"}
    shown[slot] = f"(1.0, {bad!r})" if slot == "theta" else repr(bad)
    with pytest.raises(ValueError) as err:
        AugPoint(**coords)
    assert str(err.value) == \
        f"non-finite augmented point ({shown['theta']}, {shown['a']}, {shown['b']})"


# --- the certificate and the divergence signature -----------------------------

def _lowest_certified_b(thr):
    # the first float at or above log(grad_tol / (2*loss_tol)) that certifies
    # a zero-loss point, found within a few ulps of the closed form
    b = math.log(thr.grad_tol / (2.0 * thr.loss_tol))
    for _ in range(4):
        if thr.certifies(thr.grad_tol, 0.0, b):
            return b
        b = math.nextafter(b, math.inf)
    raise AssertionError(f"no certified b within 4 ulps of {b!r}")


def test_certificate_edges():
    thr = Thresholds()
    tol, b_max = thr.grad_tol, thr.b_max
    assert thr.certifies(tol, 0.0, b_max)
    assert not thr.certifies(tol, 0.0, math.nextafter(b_max, math.inf))
    assert not thr.certifies(math.nextafter(tol, math.inf), 0.0, 0.0)
    # the residual 2*L*exp(0) exactly at the tolerance, then one float above it
    assert thr.certifies(0.0, tol / 2, 0.0)
    assert not thr.certifies(0.0, math.nextafter(tol / 2, math.inf), 0.0)
    # the lower edge on b, log(grad_tol / (2*loss_tol)) = -9.90: one float on
    # each side.  Below it the certificate trades completeness for soundness:
    # (theta*, 0, -b_max) is a true global minimum of V and no longer certifies
    lo = _lowest_certified_b(thr)
    assert -9.9035 < lo < -9.9034
    assert thr.certifies(tol, 0.0, lo)
    assert not thr.certifies(tol, 0.0, math.nextafter(lo, -math.inf))
    assert not thr.certifies(tol, 0.0, -b_max)
    # the bound at a run's own grad_tol: -0.693 for 1e-4
    assert -0.6932 < _lowest_certified_b(Thresholds(grad_tol=1e-4)) < -0.6931


def test_certificate_is_sound_at_its_lower_edge():
    # the closed-form bound b >= log(grad_tol / (2*loss_tol)) alone would let a
    # loss 7 floats above loss_tol through at that b, where the rounded exp(b)
    # sits under grad_tol / (2*loss_tol); the certificate tests the bound on
    # that rounded exp(b), so no loss above loss_tol passes near the edge
    thr = Thresholds()
    lo = _lowest_certified_b(thr)
    just_bad = math.nextafter(thr.loss_tol, math.inf)
    b = lo
    for _ in range(4):
        b = math.nextafter(b, -math.inf)
    for _ in range(9):
        assert not thr.certifies(0.0, just_bad, b)
        assert not thr.certifies(0.0, thr.loss_tol, b)
        b = math.nextafter(b, math.inf)


_CERT_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e-4, 1e-8, 5e-5]))


@settings(max_examples=500, deadline=None)
@given(g=_CERT_FLOATS,
       # with a few floats just above loss_tol, where a rounding slip would show
       L=st.one_of(_CERT_FLOATS, st.floats(1e-4, 1.000000000000001e-4)),
       b=st.one_of(st.floats(), st.floats(-9.91, -9.90),
                   st.just(math.log(1e-8 / 2e-4))),
       tol=st.one_of(st.just(1e-8), st.floats(1e-300, 1e3)))
def test_certified_points_are_within_loss_tol(g, L, b, tol):
    # certifies(g, L, b) => L <= loss_tol, for every float input and any
    # positive finite grad_tol: a certified point sits at a global minimum
    thr = Thresholds(grad_tol=tol)
    if thr.certifies(g, L, b):
        assert L <= thr.loss_tol


def test_divergence_signature_edges():
    thr = Thresholds()
    b_max, a_edge = thr.b_max, 10.0 * thr.a_tol
    assert thr.diverging(a_edge, b_max, 1.0) and thr.diverging(-a_edge, b_max, 1.0)
    assert not thr.diverging(0.0, math.nextafter(b_max, -math.inf), 1.0)
    assert not thr.diverging(math.nextafter(a_edge, math.inf), b_max, 1.0)
    # the u edges of test_channel_edges: the float below 1.1 and 0.9 are inside
    for inside, outside in ((math.nextafter(1.1, 1.0), 1.1), (0.9, math.nextafter(0.9, 0.0))):
        assert thr.diverging(a_edge, b_max, inside) and thr.diverging(-a_edge, b_max, inside)
        assert not thr.diverging(0.0, b_max, outside)


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


# sha256 over the float.hex outputs of the core's u, evaluate, gradient, slice_value,
# the fast closures and probe_infimum at the oracle points, recorded while each
# route still wrote the augmented formula out by hand, and re-recorded when
# double-well and ackley got exact zeros (the other fields' bytes held).  The
# lam = 0.3 row was recorded when the exponent clamp became the constant B_CLAMP
ORACLE_SHA = {
    AugConfig(): "202f445b88d2f2abfc69ebed943d5049bdb788697ac1fc8abd5067d6a018097b",
    AugConfig(lam=0.3): "1921cec3672be645bf08b9b63238dc6f16ca9e83d64e6d363c6f5cc297d61830",
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
        for f in (field, field._replace(offset=field.offset + 5e-10)):
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
                eu, eu_sat = _terms(0.0, p.a, p.b, cfg.lam)[2:]
                sv, sv_sat = slice_value(ev.base, p.a, p.b, cfg)
                flags = [ev.saturated, gr.saturated, eu_sat, sv_sat]
                digest.update(" ".join(expected + _bits([eu, sv]) + [repr(flags)]).encode())
            for theta in dict.fromkeys(p.theta for p in points):
                digest.update(_bits([probe_infimum(f, theta, cfg)])[0].encode())
    assert floored > 0
    assert digest.hexdigest() == ORACLE_SHA[cfg]


def test_fast_kernel_reuses_the_base_loss_of_an_unchanged_theta_only():
    # raw_value and raw_gradient run again only when theta differs from the
    # last call's or holds a zero; every result is bitwise a fresh kernel's
    def fresh(f, x):
        v, base, u, g = fast_kernel(f, CFG)(list(x))
        return _bits([v, base, u, *g])

    cases = [
        # field, calls in order, raw evaluations expected after each call
        (get_field("rastrigin-2d"),
         # one list twice, then an equal but distinct list with new (a, b)
         [[0.3, -1.2, 0.05, 1.5], None, [0.3, -1.2, 0.7, -2.0],
          # a move away and back
          [0.3, -1.25, 0.7, -2.0], [0.3, -1.2, 0.7, -2.0]],
         [1, 1, 1, 2, 3]),
        # 0.0 then -0.0, and a zero repeated: each pays again
        (_signed_field(), [[0.0, 0.1, 0.2], [-0.0, 0.1, 0.2], [-0.0, 0.1, 0.2], [0.5, 0.1, 0.2],
                           [0.5, 0.1, 0.2]],
         [1, 2, 3, 4, 4]),
    ]
    for field, xs, want in cases:
        counted, calls = _counting(field)
        kernel = fast_kernel(counted, CFG)
        x = None
        for step, (nxt, n) in enumerate(zip(xs, want)):
            x = x if nxt is None else nxt
            v, base, u, g = kernel(x)
            assert _bits([v, base, u, *g]) == fresh(field, x), (field.name, step)
            assert calls == {"raw_value": n, "raw_gradient": n}, (field.name, step)


def test_fast_closures_ignore_the_saturation_policy_past_the_clamp():
    # past B_CLAMP, or where (u - 1)^2 overflows, the validated routes raise
    # under the error policy; the fast closures never raise, and return the
    # default policy's bits
    field = get_field("quadratic-1d")
    for a, b in ((1.0, 800.0), (-1e-300, -800.0), (1e-8, 710.0)):
        x = [1.0, a, b]
        outs = []
        for cfg in (CFG, ERR_CFG):
            value_fn, grad_fn = fast_value_and_grad(field, cfg)
            v, base, u, g = fast_kernel(field, cfg)(x)
            outs.append(_bits([v, base, u, *g, value_fn(x), *grad_fn(x)]))
        assert outs[0] == outs[1], (a, b)
        with pytest.raises(SaturationError):
            evaluate(field, AugPoint((1.0,), a, b), ERR_CFG)
