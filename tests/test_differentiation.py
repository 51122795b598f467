"""Dual-number arithmetic laws and the two derivative oracles."""
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfinity import (AugConfig, AugPoint, augment, cli, evaluate, field_names, get_field,
                       gradient, verify)
from minfinity.augment import AugGradient, lifted_loss
from minfinity.fields import ScalarField
from minfinity.landscape import random_start
from minfinity.verify import FD_TOL, grad_check_suite
from minfinity.differentiation import Dual, dual_gradient, fd_gradient

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# --- arithmetic laws --------------------------------------------------------

def test_product_rule_on_seeded_pairs():
    rng = random.Random(0)
    for _ in range(10_000):
        x = Dual(rng.uniform(-50, 50), rng.uniform(-5, 5))
        y = Dual(rng.uniform(-50, 50), rng.uniform(-5, 5))
        z = x * y
        assert z.primal == x.primal * y.primal
        assert z.tangent == x.primal * y.tangent + x.tangent * y.primal


def test_tangent_linearity_on_seeded_pairs():
    rng = random.Random(1)
    for _ in range(10_000):
        x = Dual(rng.uniform(-50, 50), rng.uniform(-5, 5))
        y = Dual(rng.uniform(-50, 50), rng.uniform(-5, 5))
        s = x + y
        assert s.tangent == x.tangent + y.tangent
        d = x - y
        assert d.tangent == x.tangent - y.tangent


def test_exp_chain_rule_on_seeded_pairs():
    rng = random.Random(2)
    for _ in range(10_000):
        x = Dual(rng.uniform(-20, 20), rng.uniform(-5, 5))
        e = x.exp()
        assert e.primal == math.exp(x.primal)
        assert e.tangent == math.exp(x.primal) * x.tangent


@settings(max_examples=300, deadline=None)
@given(p=finite, t=finite, q=finite, s=finite)
def test_product_rule_property(p, t, q, s):
    z = Dual(p, t) * Dual(q, s)
    assert z.tangent == p * s + t * q


@settings(max_examples=300, deadline=None)
@given(p=st.floats(min_value=0.1, max_value=1e3), t=finite)
def test_sqrt_power_consistency(p, t):
    x = Dual(p, t)
    r1 = x.sqrt()
    r2 = x ** 0.5
    assert r1.primal == pytest.approx(r2.primal, rel=1e-15)
    assert r1.tangent == pytest.approx(r2.tangent, rel=1e-12, abs=1e-300)


def test_division_and_float_mixing():
    x = Dual(3.0, 1.0)
    y = (2.0 * x + 1.0) / x  # f = 2 + 1/x, f' = -1/x^2
    assert y.primal == pytest.approx(7.0 / 3.0)
    assert y.tangent == pytest.approx(-1.0 / 9.0)
    with pytest.raises(ZeroDivisionError):
        x / Dual(0.0, 1.0)


# --- finite differences -----------------------------------------------------

def test_fd_square():
    (g,) = fd_gradient(lambda x: x[0] * x[0], [3.0])
    assert abs(g - 6.0) <= 1e-6


def test_fd_exp():
    (g,) = fd_gradient(lambda x: math.exp(x[0]), [0.0])
    assert abs(g - 1.0) <= 1e-9


def test_fd_matches_analytic_a_slice():
    # slice of the augmented loss in a at (L=1, b=0): derivative -2 at a=0
    field = get_field("quadratic-1d")
    cfg = AugConfig()

    def f(aa):
        return evaluate(field, AugPoint((1.0,), aa[0], 0.0), cfg).value

    (g,) = fd_gradient(f, [0.0])
    assert abs(g - (-2.0)) <= 1e-6


def test_fd_rejects_nonfinite_stencil():
    with pytest.raises(ValueError):
        fd_gradient(lambda x: math.inf, [1.0])


# --- dual gradients ---------------------------------------------------------

def test_dual_product_with_exp():
    (g,) = dual_gradient(lambda c: c[0] * c[0].exp(), [1.0])
    assert g == pytest.approx(2.0 * math.e, rel=1e-15)


def test_dual_constant_function():
    assert dual_gradient(lambda c: 7.5, [1.0, 2.0]) == [0.0, 0.0]


def _dual_gradient_all_seeded(f, x):
    """The reference oracle: every coordinate a Dual in every pass, tangent 1
    on the coordinate of the pass and 0 on the others."""
    x = list(x)
    n = len(x)
    grad = []
    for i in range(n):
        out = f([Dual(x[j], 1.0 if j == i else 0.0) for j in range(n)])
        grad.append(out.tangent if isinstance(out, Dual) else 0.0)
    return grad


def _edge_points(field):
    """Global and bad minima, box corners and signed zeros in theta, each with
    a and b at signed zeros and at the ends of their ranges."""
    thetas = [field.global_min, *(m.point for m in field.bad_minima)]
    thetas += itertools.product(*zip(field.lower, field.upper))
    thetas += itertools.product((0.0, -0.0), repeat=field.dim)
    for theta in thetas:
        for a in (0.0, -0.0, 1e-3, -0.5, 1.0):
            for b in (-700.0, -30.0, -0.0, 0.0, 0.5, 20.0):
                yield [*theta, a, b]


def test_one_seeded_dual_per_pass_matches_seeding_every_coordinate_bitwise():
    # seeding only the coordinate of the pass leaves the others floats; every
    # float that meets a Dual is lifted with a zero tangent, so the lifted
    # losses of all fields get the same bits as the all-Dual reference
    for name in field_names():
        field = get_field(name)
        lifted = lifted_loss(field, AugConfig().lam)
        points = list(_edge_points(field))
        for seed in (1, 2, 3, 5, 2025):
            rng = random.Random(seed)
            points += [random_start(field, rng, 1e-3).coords() for _ in range(200)]
        for x in points:
            got = list(map(float.hex, dual_gradient(lifted, x)))
            assert got == list(map(float.hex, _dual_gradient_all_seeded(lifted, x))), (name, x)


def test_dual_gradient_of_an_ignored_coordinate_is_zero():
    # the pass that seeds x1 sees no Dual in f's arithmetic: its result is a
    # float and the component reads +0.0 (the all-Dual route carried
    # -3 * 0 + 0 * -3 = -0.0 there)
    g = dual_gradient(lambda c: c[0] * c[0], [-3.0, 2.0])
    assert list(map(float.hex, g)) == [(-6.0).hex(), (0.0).hex()]


def test_dual_augmented_loss_where_u_is_one():
    # u = 1 kills both (u-1) factors: d/da = 2*lam*a = 1, d/db = 0
    field = get_field("quadratic-1d")
    g = dual_gradient(lifted_loss(field, 1.0), [1.0, 0.5, math.log(2.0)])
    assert abs(g[1] - 1.0) <= 1e-12
    assert abs(g[2]) <= 1e-12


# --- three-way agreement ----------------------------------------------------

@pytest.mark.parametrize("name", ["quadratic-2d", "rastrigin-1d", "ackley-2d"])
def test_three_way_agreement(name):
    field = get_field(name)
    cfg = AugConfig()
    lifted = lifted_loss(field, cfg.lam)
    rng = random.Random(31)

    def flat(x):
        return evaluate(field, AugPoint(tuple(x[:field.dim]), x[field.dim],
                                        x[field.dim + 1]), cfg).value

    for _ in range(200):
        theta = field.interior_sample(rng)
        p = AugPoint(theta, rng.uniform(-2, 2), rng.uniform(-3, 3))
        g = gradient(field, p, cfg)
        if g.saturated:
            continue
        analytic = list(g.d_theta) + [g.d_a, g.d_b]
        fd = fd_gradient(flat, p.coords())
        dual = dual_gradient(lifted, p.coords())
        for ga, gf, gd in zip(analytic, fd, dual):
            scale = max(1.0, abs(ga))
            assert abs(ga - gf) / scale <= 1e-6
            assert abs(ga - gd) / scale <= 1e-12


# --- the grad-check suite ---------------------------------------------------

def test_grad_check_allows_the_stencils_own_rounding():
    # at seed 108, point 61 of quadratic-2d has V = 16 777 and dV/dtheta0 =
    # -0.690: the central difference misses by 1.43e-6 relative, inside its
    # own rounding V*eps/h = 3.7e-6, while the dual oracle agrees to 3e-14.
    # The report reads that miss net of the rounding, floored at FD_TOL, so
    # it agrees with the verdict
    out = grad_check_suite(seed=108, fields=["quadratic-2d"])
    (check,) = out["checks"]
    assert check["worst_fd_rel_err"] == FD_TOL
    assert check["worst_dual_rel_err"] < 1e-13
    assert out["violations_total"] == 0


def test_grad_check_flags_a_gradient_off_by_1e_5(monkeypatch):
    # every component scaled by 1 + 1e-5: the checks flag 7989 of the 8000
    # comparisons at seed 108, as many as without the rounding allowance; the
    # other 11 are finite-difference comparisons of components under 0.1,
    # where 1e-5 of the component is inside FD_TOL
    exact = augment.gradient

    def off(field, point, cfg):
        g = exact(field, point, cfg)
        k = 1.0 + 1e-5
        return AugGradient(tuple(c * k for c in g.d_theta), g.d_a * k, g.d_b * k, g.saturated)

    monkeypatch.setattr(augment, "gradient", off)
    out = grad_check_suite(seed=108, fields=["quadratic-2d"])
    assert out["checks"][0]["points"] == 1000
    assert out["violations_total"] == 7989


def test_grad_check_evaluates_the_base_loss_once_per_stencil_theta(monkeypatch):
    # per sample: one L for the analytic gradient, two per theta coordinate
    # for the stencil, and one for the a and b stencil points, which share
    # the sample's theta
    calls = {"value": 0}
    value = ScalarField.value

    def counted(self, theta):
        calls["value"] += 1
        return value(self, theta)

    monkeypatch.setattr(ScalarField, "value", counted)
    for name in field_names():
        calls["value"] = 0
        (check,) = grad_check_suite(seed=1, n_points=50, fields=[name])["checks"]
        assert check["points"] == 50
        assert calls["value"] == 50 * (2 * get_field(name).dim + 2)


def test_grad_check_report_is_pinned():
    # sha256 of the report text, recorded while each stencil point built an
    # AugPoint and called augment.evaluate
    text = cli._json(grad_check_suite(seed=1, n_points=64))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3e536cc9f006b054467925ff96eef2e27da1c7c709293ae6517a7a14c4e49728"


@pytest.mark.parametrize("oracle", ["dual_gradient", "fd_gradient"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_oracle_is_a_violation(monkeypatch, oracle, bad):
    # every comparison against NaN or inf reads NaN; max() and "> tol" would
    # both pass it over and report a clean check
    def broken(f, x):
        f(x)  # the suite meters |V| at each point its stencil evaluates
        return [bad] * len(x)

    monkeypatch.setattr(verify, oracle, broken)
    out = grad_check_suite(seed=1, n_points=5, fields=["quadratic-1d"])
    (check,) = out["checks"]
    worst = "worst_dual_rel_err" if oracle == "dual_gradient" else "worst_fd_rel_err"
    assert check["points"] == 5
    assert check["violations"] == out["violations_total"] == 5 * 3
    assert check[worst] == math.inf


# --- the Dual contract ------------------------------------------------------

def test_dual_equality_and_hash_follow_the_value_tuple():
    x = Dual(1.5, -2.0)
    assert x == Dual(1.5, -2.0) and x == Dual(primal=1.5, tangent=-2.0)
    assert x != Dual(1.5, 2.0) and x != Dual(-1.5, -2.0)
    assert Dual(3.0) == Dual(3.0, 0.0)
    assert hash(x) == hash(Dual(1.5, -2.0)) == hash((1.5, -2.0))
    assert len({x, Dual(1.5, -2.0), Dual(3.0)}) == 2
    # against anything but a Dual, equality is left to the other operand
    assert x.__eq__((1.5, -2.0)) is NotImplemented
    assert Dual(3.0) != 3.0 and 3.0 != Dual(3.0) and Dual(3.0) != (3.0, 0.0)


def test_dual_nan_compares_like_a_tuple():
    # tuple comparison tries identity first: the very same NaN object is
    # equal to itself, two distinct NaNs are not
    nan = float("nan")
    assert Dual(nan, 1.0) == Dual(nan, 1.0)
    assert Dual(1.0, nan) == Dual(1.0, nan)
    assert Dual(nan, 1.0) != Dual(float("nan"), 1.0)
    x = Dual(float("nan"))
    assert x == x


def test_dual_repr():
    assert repr(Dual(1.5, -0.0)) == "Dual(primal=1.5, tangent=-0.0)"
    assert repr(Dual(2)) == "Dual(primal=2, tangent=0.0)"
    assert repr(Dual(math.inf, 1e-300)) == "Dual(primal=inf, tangent=1e-300)"


def test_dual_oracle_is_bitwise_stable():
    # sha256 of float.hex of dual_gradient of the lifted loss at seeded
    # grad-check points on every field, recorded while Dual was a frozen
    # dataclass, and re-recorded when double-well and ackley got exact zeros
    # (the other fields' bytes held)
    lines = []
    for name in field_names():
        field = get_field(name)
        lifted = lifted_loss(field, AugConfig().lam)
        rng = random.Random(23)
        for _ in range(40):
            coords = random_start(field, rng, 1e-3).coords()
            lines.append(" ".join([name, *map(float.hex, dual_gradient(lifted, coords))]))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "2adcda06bd99b1174f0ab241fe072618c66c7d94d7d9825521ba3e9d78d12cc9"
