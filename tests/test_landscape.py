"""Critical-point finder, infimum probe, contour grids, SVG rendering."""
import hashlib
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minfinity import (AugConfig, ContourGrid, Thresholds, cli,
                       field_names, find_critical_points, get_field, gradient, landscape,
                       probe_infimum, sample_contour, stationarity_scan, svgplot, verify)
from minfinity.augment import (POLICY_ERROR, POLICY_SATURATE, SaturationError, _terms,
                               fast_value_and_grad, slice_value)
from minfinity.minimize import _clip, descend
from minfinity.svgplot import default_levels, render_svg
from test_optimize import _counting

CFG = AugConfig()
ERR_CFG = AugConfig(saturation_policy=POLICY_ERROR)


# --- critical points ---------------------------------------------------------

def test_quadratic_critical_points_cluster_at_the_global_minimum():
    field = get_field("quadratic-1d")
    reports = find_critical_points(field, CFG, n_seeds=32, seed=3)
    converged = [r for r in reports if r.converged]
    assert len(converged) >= 24
    for r in converged:
        assert abs(r.point.theta[0]) <= 1e-4
        assert abs(r.point.a) <= 1e-3
        assert r.base_loss <= 1e-8
        assert abs(r.point.b) <= 20.0
    # b is free on the critical manifold: no clustering expected there
    bs = sorted(r.point.b for r in converged)
    assert bs[-1] - bs[0] > 0.5


def test_quadratic_keeps_every_certified_seed():
    # quadratic-1d has no bad minimum, so the channel exit must cost it no
    # certificate: before the exit, criterion 1's sweep certified all 256
    # starts but start 105, which spends its budget
    reports = find_critical_points(get_field("quadratic-1d"), CFG, n_seeds=256, seed=2025)
    assert [r.seed_index for r in reports if not r.converged] == [105]


def test_every_seed_is_reported():
    field = get_field("double-well-1d")
    reports = find_critical_points(field, CFG, n_seeds=16, seed=0)
    assert [r.seed_index for r in reports] == list(range(16))


def test_converged_reports_self_certify_through_public_gradient():
    field = get_field("rastrigin-1d")
    reports = find_critical_points(field, CFG, n_seeds=64, seed=11)
    converged = [r for r in reports if r.converged]
    assert converged, "expected at least one converged report"
    for r in converged:
        g = gradient(field, r.point, CFG)
        assert math.hypot(*g.d_theta, g.d_a, g.d_b) <= 1e-8
        assert r.base_loss <= 1e-4 and abs(r.point.a) <= 1e-3


def test_violator_yields_zero_converged_reports():
    # no finite critical point exists when the base loss cannot reach 0
    field = get_field("quadratic-plus-one-1d")
    reports = find_critical_points(field, CFG, n_seeds=64, seed=5)
    assert sum(r.converged for r in reports) == 0


def test_finder_reports_do_not_depend_on_the_saturation_policy():
    # the finder runs on the fast closures, which never raise (test_augment's
    # test_fast_closures_ignore_the_saturation_policy_past_the_clamp), so the
    # policy changes nothing
    for name in ("rastrigin-1d", "double-well-1d"):
        field = get_field(name)
        err, sat = (find_critical_points(field, AugConfig(saturation_policy=policy),
                                         n_seeds=16, seed=2)
                    for policy in (POLICY_ERROR, POLICY_SATURATE))
        assert err == sat


def test_finder_reports_are_bitwise_stable():
    # three seeds per field at seed 2: runs that converge in phase 1, that
    # leave by the |b| escape or a channel, that spend the whole
    # 3000-iteration budget, and that stall into the polish phase (ending
    # converged or not).  The sha256 of float.hex of every report field, one
    # digest for the converged reports and one for the rest.  Both were
    # re-recorded when double-well and ackley got exact zeros, with the other
    # fields' rows unmoved, so any change in the arithmetic or call order of
    # descend and the fast closures shows here
    lines = {True: [], False: []}
    for name in sorted(field_names()):
        for r in find_critical_points(get_field(name), CFG, n_seeds=3, seed=2):
            nums = (*r.point.theta, r.point.a, r.point.b, r.grad_norm, r.base_loss)
            lines[r.converged].append(" ".join([name, *map(float.hex, nums), str(r.converged),
                                                str(r.iterations), str(r.seed_index)]))
    digest = {k: hashlib.sha256("\n".join(v).encode()).hexdigest() for k, v in lines.items()}
    assert digest[True] == "6b7eeac023d52443bdc7ab8d188e78a212e6a738cc1e73eeadff6f67bf0ce39f"
    assert digest[False] == "301c2b0d4f2ad4b12f5f51be8756c39554ddbacdc2c880180ddb612c2c73ca9a"


def test_benchmark_pass_reports_are_bitwise_stable():
    # the finder-sweep pass shape: seed 1, 32 starts on each of the seven
    # fields, every report in one digest, unconverged rows and their
    # iteration counts included.  Recorded before descend's trial loop, its
    # Armijo test and the escape closure's channel test were reordered for
    # speed: the iterates, the reports and their order must not move
    lines = []
    for name in sorted(field_names()):
        for r in find_critical_points(get_field(name), CFG, n_seeds=32, seed=1):
            nums = (*r.point.theta, r.point.a, r.point.b, r.grad_norm, r.base_loss)
            lines.append(" ".join([name, *map(float.hex, nums), str(r.converged),
                                   str(r.iterations), str(r.seed_index)]))
    assert len(lines) == 7 * 32
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "c4a97187100e20754b260984f48754c7ec0188897597a78245b0eff961b135cb"


def test_critical_point_suite_text_is_pinned():
    # the verify report, which holds only converged reports and counts, is
    # the finder's visible output: re-recorded when double-well got its
    # exact zero, and otherwise the bytes recorded before the channel exit,
    # which may end only seeds that never certify
    text = cli._json(verify.critical_point_suite(seed=1, n_seeds=32))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "f13ac8db3d8666ac7b36d073bcdb7de60ef59da13814367afa06bd4411078d97"


def _finder_descent_from(field, x0, monkeypatch):
    # the finder's own descent, closures and escape, from a chosen start
    ended = []

    def from_x0(value_fn, grad_fn, _, **kwargs):
        ended.append(descend(value_fn, grad_fn, x0, **kwargs))
        return ended[-1]

    monkeypatch.setattr(landscape, "descend", from_x0)
    report, = find_critical_points(field, CFG, n_seeds=1)
    return ended[0], report


def test_the_finder_leaves_bad_minima_by_their_channel(monkeypatch):
    # from each registered bad minimum with a = 0.1 and b = 0, theta stays
    # put while (a, b) slide into the valley u = 1, and the channel exit ends
    # the run there, unconverged, with L at the bad value and |b| far from the
    # |b| escape.  Rastrigin's narrow wells are the exception: phase 1's
    # doubled steps throw theta about in them, with |grad_theta V| between
    # 0.03 and 1.  At 0.995 (in 1-d and on both 2-d axes) that lasts the whole
    # budget, as before the exit; at 1.99 theta settles after 2564 iterations
    thr = Thresholds()
    iterations = {}
    for name in sorted(field_names()):
        field = get_field(name)
        for k, bad in enumerate(field.bad_minima):
            res, report = _finder_descent_from(field, [*bad.point, 0.1, 0.0], monkeypatch)
            iterations[name, k] = res.iterations
            assert not report.converged and res.escaped == (res.iterations < 3000)
            if res.escaped:
                assert report.base_loss == pytest.approx(bad.value, rel=1e-14)
                assert abs(report.point.b) < thr.b_max
    assert iterations == {
        ("ackley-2d", 0): 3, ("ackley-2d", 1): 3, ("ackley-2d", 2): 3,
        ("double-well-1d", 0): 11, ("quadratic-plus-one-1d", 0): 4,
        ("rastrigin-1d", 0): 3000, ("rastrigin-1d", 1): 2564,
        ("rastrigin-2d", 0): 3000, ("rastrigin-2d", 1): 3000, ("rastrigin-2d", 2): 2,
    }


def test_in_place_projection_is_the_min_max_clamp():
    # descend clips each trial list in place; the reference is the list it
    # rebuilt before, min(max(c, lo), hi) per boxed coordinate, bit for bit,
    # and the flag says whether that list differs from the input
    lower, upper = (-1.0, 0.0, -0.0), (1.0, 0.0, 2.0)
    box = tuple(zip(range(3), lower, upper))
    values = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, math.inf, -math.inf, math.nan]
    for c in values:
        for d in values:
            x = [c, d, c, d, 7.0]
            want = [min(max(v, lo), hi) for v, lo, hi in zip(x, lower, upper)] + x[3:]
            got = list(x)
            moved = _clip(got, box)
            assert [repr(v) for v in got] == [repr(v) for v in want]
            assert moved == (want != x)


def test_an_overflowing_squared_norm_reads_inf():
    # at 1e154 each square is finite but their sum is not, and fsum raises
    # OverflowError on that; at 1e155 a square is inf already and fsum returns
    # inf.  descend reads both as an infinite norm
    for big in (1e154, 1e155):
        res = descend(lambda x: 0.0, lambda x: [big, big], [0.0, 0.0])
        assert (res.grad_norm, res.converged, res.iterations) == (math.inf, False, 0)


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_ANY_FLOAT = st.one_of(st.floats(), _SPECIAL)


@settings(max_examples=500, deadline=None)
@given(g=st.lists(_ANY_FLOAT, min_size=1, max_size=3),
       tol=st.floats(allow_nan=False, allow_infinity=False))
def test_theta_norm_at_tolerance_bounds_every_component(g, tol):
    # the finder's escape closure returns False at the first theta component
    # with not |g_i| <= grad_tol, before it computes hypot: that is in_channel's
    # first test only if hypot(*g) <= tol implies every |g_i| <= tol.  grad_tol
    # is finite (Thresholds refuses inf), and hypot(inf, nan) is inf
    if math.hypot(*g) <= tol:
        assert all(abs(c) <= tol for c in g)


@settings(max_examples=500, deadline=None)
@given(nv=_ANY_FLOAT, v=_ANY_FLOAT, s=_ANY_FLOAT, gn2=_ANY_FLOAT)
def test_armijo_test_order_keeps_every_verdict(nv, v, s, gn2):
    # descend tests sufficient decrease before finiteness; for every float,
    # nan and +-inf included, it accepts exactly the trials the finite-first
    # order accepted
    armijo = 0.1
    old = math.isfinite(nv) and nv <= v - armijo * s * gn2
    new = nv <= v - armijo * s * gn2 and math.isfinite(nv)
    assert new == old


def _bits(xs):
    return struct.pack(f"<{len(xs)}d", *xs)


def _signed_field():
    # L = 2 + sign(theta) and grad L = sign(theta): the sign of a zero
    # changes every bit of both
    return get_field("quadratic-1d")._replace(
        raw_value=lambda t: 2.0 + math.copysign(1.0, t[0]),
        raw_gradient=lambda t: (math.copysign(1.0, t[0]),))


def test_fast_grad_reuses_the_base_loss_of_the_same_list_only():
    # value then grad on one list: one raw_value, one raw_gradient.  Any
    # other list, even an equal one, pays for both again
    field, calls = _counting(get_field("rastrigin-2d"))
    value_fn, grad_fn = fast_value_and_grad(field, CFG)
    x = [0.3, -1.2, 0.05, 1.5]
    value_fn(x)
    g = grad_fn(x)
    assert calls == {"raw_value": 1, "raw_gradient": 1}
    g_copy = grad_fn(list(x))
    assert calls == {"raw_value": 2, "raw_gradient": 2}
    assert _bits(g_copy) == _bits(g)
    grad_fn([0.3, -1.25, 0.05, 1.5])
    assert calls == {"raw_value": 3, "raw_gradient": 3}
    # and a pair that never saw a value call gives the very same gradient
    fresh = fast_value_and_grad(get_field("rastrigin-2d"), CFG)[1](x)
    assert _bits(fresh) == _bits(g)
    # so do reused and fresh calls at a signed zero and at NaN
    for first, then in (([0.0, 0.1, 0.2], [-0.0, 0.1, 0.2]),
                        ([-0.0, 0.1, 0.2], [-0.0, 0.1, 0.2]),
                        ([math.nan, 0.1, 0.2], [float("nan"), 0.1, 0.2])):
        field, calls = _counting(_signed_field())
        value_fn, grad_fn = fast_value_and_grad(field, CFG)
        value_fn(first)
        g = grad_fn(first)
        g_then = grad_fn(then)
        assert calls == {"raw_value": 2, "raw_gradient": 2}
        fresh_value, fresh_grad = fast_value_and_grad(_signed_field(), CFG)
        assert _bits(g) == _bits(fresh_grad(list(first)))
        assert _bits(g_then) == _bits(fresh_grad(list(then)))
        assert _bits([value_fn(then)]) == _bits([fresh_value(list(then))])


def test_fast_grad_leaves_value_state_at_its_list():
    # grad on a list value never saw takes L and u through value, so a second
    # grad on that list pays raw_gradient alone, with the bits of a fresh pair
    field, calls = _counting(get_field("rastrigin-2d"))
    grad_fn = fast_value_and_grad(field, CFG)[1]
    x = [0.3, -1.2, 0.05, 1.5]
    g = grad_fn(x)
    assert calls == {"raw_value": 1, "raw_gradient": 1}
    g_again = grad_fn(x)
    assert calls == {"raw_value": 1, "raw_gradient": 2}
    fresh = fast_value_and_grad(get_field("rastrigin-2d"), CFG)[1](list(x))
    assert _bits(g_again) == _bits(g) == _bits(fresh)


def test_finder_evaluates_the_base_loss_once_per_new_point(monkeypatch):
    # every value call pays one raw_value and every grad call one
    # raw_gradient; a grad call pays a raw_value as well unless it gets the
    # very list value last saw.  The finder adds one validated field.value
    # per report
    # theta never moves on a flat base loss; at L = 5e-5, under loss_tol, the
    # channel exit leaves the start alone
    flat = get_field("double-well-1d")._replace(offset=-5e-5, raw_value=lambda t: 0.0,
                                                raw_gradient=lambda t: (0.0,))
    seen = {}

    def counted_pair(f, cfg):
        value_fn, grad_fn = fast_value_and_grad(f, cfg)

        def value(x):
            seen["value"] += 1
            seen["x"] = x
            return value_fn(x)

        def grad(x):
            seen["grad"] += 1
            seen["grad_elsewhere"] += x is not seen["x"]
            return grad_fn(x)
        return value, grad

    monkeypatch.setattr(landscape, "fast_value_and_grad", counted_pair)
    # seed 2 runs one start through the polish phase and one into a channel,
    # which the exit ends at iteration 22; seed 1 on the flat loss runs to
    # the budget, sitting still in theta while b creeps up
    grads = elsewhere = 0
    for base, n_seeds, seed in ((get_field("double-well-1d"), 3, 2), (flat, 1, 1)):
        field, calls = _counting(base)
        seen.update({"value": 0, "grad": 0, "grad_elsewhere": 0, "x": None})
        reports = find_critical_points(field, CFG, n_seeds=n_seeds, seed=seed)
        assert calls["raw_gradient"] == seen["grad"]
        assert calls["raw_value"] == seen["value"] + seen["grad_elsewhere"] + len(reports)
        grads += seen["grad"]
        elsewhere += seen["grad_elsewhere"]
    assert reports[-1].iterations == 3000
    assert 0 < elsewhere < grads  # both of grad's branches ran


def test_finder_rejects_bad_seed_count():
    with pytest.raises(ValueError):
        find_critical_points(get_field("quadratic-1d"), CFG, n_seeds=0)


# --- infimum probe -----------------------------------------------------------

def test_probe_exact_zero_at_global_minimum():
    field = get_field("quadratic-1d")
    assert probe_infimum(field, (0.0,), CFG) == 0.0


def test_probe_tracks_base_loss():
    field = get_field("quadratic-1d")
    theta = (math.sqrt(3.0),)
    base = field.value(theta)
    probe = probe_infimum(field, theta, CFG)
    assert base <= probe <= base + 1e-3


def test_probe_insensitive_to_large_lambda():
    field = get_field("quadratic-1d")
    probe = probe_infimum(field, (1.0,), AugConfig(lam=100.0))
    assert abs(probe - 1.0) <= 1e-3


def test_a_nan_probe_is_an_infimum_violation(monkeypatch):
    # |NaN - L| is NaN: "> tol" and max() would both pass it over
    monkeypatch.setattr(landscape, "probe_infimum", lambda field, theta, cfg: math.nan)
    (check,) = verify.infimum_suite(seed=1, n_points=5, fields=["quadratic-1d"])["checks"]
    assert check["violations"] == 5
    assert check["worst_deviation"] == math.inf


def test_probe_on_seeded_points():
    import random
    rng = random.Random(4)
    for name in ("rastrigin-1d", "ackley-2d"):
        field = get_field(name)
        for _ in range(25):
            theta = field.interior_sample(rng)
            base = field.value(theta)
            probe = probe_infimum(field, theta, CFG)
            assert base - 1e-12 <= probe <= base + 1e-3


def _curve():
    # the probe's curve a = exp(-b) at b = b_max*i/256, i = 0..256
    b_max = Thresholds().b_max
    return [(math.exp(-b), b) for b in (b_max * (i / 256) for i in range(257))]


def _probe_by_scan(field, theta, cfg):
    """The best of the a=0 value and the probe's whole curve, scanned point by
    point: the reference the probe must match bit for bit."""
    base = field.value(theta)
    best = base + base if base > 0.0 else 0.0
    for a, b in _curve():
        v, _ = slice_value(base, a, b, cfg)
        if v < best:
            best = v
    return best


def _fixed_loss_field(L):
    return get_field("quadratic-1d")._replace(raw_value=lambda t: L)


_PROBE_LOSSES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-30, 1.0, 1e300]),
    st.floats(0.03, 0.05),  # where lam*exp(-40) stops rounding away against L
    st.floats(0.0, 25.0),
    st.floats(0.0, 1e300))
_PROBE_LAMBDAS = st.one_of(
    st.sampled_from([1e-300, 1e-12, 0.3, 1.0, 7.0, 1e6, 1e300]),
    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))


@settings(max_examples=300, deadline=None)
@given(L=_PROBE_LOSSES, lam=_PROBE_LAMBDAS,
       policy=st.sampled_from([POLICY_SATURATE, POLICY_ERROR]))
def test_probe_matches_the_full_scan_bitwise(L, lam, policy):
    field = _fixed_loss_field(L)
    cfg = AugConfig(lam=lam, saturation_policy=policy)
    got = probe_infimum(field, (0.5,), cfg)
    assert got.hex() == _probe_by_scan(field, (0.5,), cfg).hex()


def test_probe_returns_L_at_5e307_under_the_error_policy():
    # a step to a = -1 would overflow to 5L; the probe reads only its curve
    field = _fixed_loss_field(5e307)
    assert probe_infimum(field, (0.5,), ERR_CFG) == 5e307


def test_probe_overflow_shows_at_the_curve_start():
    # L + lam overflows at a = 1, b = 0 though the curve's end, L + lam*exp(-40),
    # is finite: the error policy raises there, and saturate reads the end
    field = _fixed_loss_field(1e308)
    with pytest.raises(SaturationError, match="slice value overflow at a=1.0 b=0.0"):
        probe_infimum(field, (0.5,), AugConfig(lam=1e308, saturation_policy=POLICY_ERROR))
    assert probe_infimum(field, (0.5,), AugConfig(lam=1e308)) == 1e308


@settings(max_examples=300, deadline=None)
@given(L=st.one_of(_PROBE_LOSSES, st.floats(0.0, 1.7976931348623157e308)), lam=_PROBE_LAMBDAS)
def test_probe_lies_between_L_and_the_curve_end_and_at_most_2L(L, lam):
    a = math.exp(-Thresholds().b_max)
    probe = probe_infimum(_fixed_loss_field(L), (0.5,), AugConfig(lam=lam))
    assert L <= probe <= min(L + L, L + lam * a * a)


def test_the_probe_curve_never_rises():
    # the u of every curve point rounds 1 + (u - 1)^2 to 1, whatever L and lam,
    # and a falls along the curve
    curve = _curve()
    for a, b in curve:
        u = _terms(0.0, a, b, 1.0)[2]
        assert 1.0 + (u - 1.0) ** 2 == 1.0, b
    assert all(a1 >= a2 for (a1, _), (a2, _) in zip(curve, curve[1:]))


@settings(max_examples=500, deadline=None)
@given(L=st.floats(min_value=0.0, allow_infinity=False),
       a=st.floats(allow_nan=False, allow_infinity=False),
       b=st.floats(allow_nan=False, allow_infinity=False),
       lam=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_an_augmented_value_never_reads_below_L(L, a, b, lam):
    v = _terms(L, a, b, lam)[0]
    assert v >= L


def _slice_value_calls(monkeypatch, field, theta):
    """slice_value calls the probe makes."""
    calls = 0
    real_slice = landscape.slice_value

    def counted_slice(*args):
        nonlocal calls
        calls += 1
        return real_slice(*args)

    monkeypatch.setattr(landscape, "slice_value", counted_slice)
    probe_infimum(field, theta, CFG)
    return calls


@pytest.mark.parametrize("name, theta", [
    ("rastrigin-1d", get_field("rastrigin-1d").bad_minima[0].point),
    ("quadratic-1d", (0.0,)),
    ("quadratic-1d", (1e-15,)),  # L = 1e-30: lam*exp(-40) does not round away
], ids=["bad-minimum", "zero-loss", "above-curve-floor"])
def test_a_probe_reads_two_curve_points(monkeypatch, name, theta):
    assert _slice_value_calls(monkeypatch, get_field(name), theta) == 2


# --- contour grids -----------------------------------------------------------

def test_zero_slice_grid_minimum_is_the_a_zero_column():
    grid = sample_contour(0.0, 1.0)
    assert grid.a_axis[50] == 0.0
    col = [grid.values[50][j] for j in range(101)]
    assert col == [0.0] * 101
    others = [v for i, row in enumerate(grid.values) if i != 50 for v in row]
    assert min(others) > 1e-12
    scan = stationarity_scan(grid)
    assert scan == [(50, j) for j in range(1, 100)]


def test_positive_slice_scan_matches_brute_force_valley_cells():
    # the u=1 valley is narrower than the grid at moderate b, so the cells
    # where it aligns with the b-axis are genuine discrete local minima;
    # found by exhaustive 8-neighbor comparison, frozen here
    grid = sample_contour(1.0, 1.0)
    scan = stationarity_scan(grid)
    assert scan == [(51, 87), (52, 75), (53, 69), (54, 64), (55, 60)]
    gm = grid.grid_min()
    assert (gm["i"], gm["j"]) == (51, 87)
    assert gm["value"] == pytest.approx(1.0016012651913575, abs=1e-14)
    assert gm["u_deviation"] <= 0.1
    assert not gm["on_max_b_edge"]


def test_positive_slice_a_zero_column_reads_twice_the_slice():
    grid = sample_contour(1.0, 1.0)
    for j in range(101):
        assert grid.values[50][j] == 2.0


@pytest.mark.parametrize("l_slice,count", [(0.1, 7), (10.0, 9)])
def test_valley_minima_persist_across_slices(l_slice, count):
    # discrete valley-floor minima appear for every positive slice (their
    # number shifts with how the valley weighs against the a-penalty),
    # always led by the cell at (a=0.04, b=3.22)
    scan = stationarity_scan(sample_contour(l_slice, 1.0))
    assert len(scan) == count
    assert scan[0] == (51, 87) or (51, 87) in scan


def test_synthetic_bowl_and_plateau_scans():
    bowl = ContourGrid(a_axis=[0, 1, 2], b_axis=[0, 1, 2],
                       values=[[2, 2, 2], [2, 1, 2], [2, 2, 2]],
                       l_slice=0.0, lam=1.0, saturated=[])
    assert stationarity_scan(bowl) == [(1, 1)]
    flat = ContourGrid(a_axis=[0, 1, 2, 3], b_axis=[0, 1, 2, 3],
                       values=[[1.0] * 4 for _ in range(4)],
                       l_slice=0.0, lam=1.0, saturated=[])
    assert stationarity_scan(flat) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_scan_reports_no_non_finite_cell():
    # past b of about 355, (u - 1)^2 overflows and the plateau of +inf cells
    # ties every neighbour; 144 of them passed the neighbour test
    grid = sample_contour(1.0, b_range=(300.0, 420.0), resolution=21)
    V = grid.values
    scan = stationarity_scan(grid)
    assert len(scan) == 19
    assert all(math.isfinite(V[i][j]) for i, j in scan)
    plateau = [(i, j) for i in range(1, 20) for j in range(1, 20) if V[i][j] == math.inf
               and all(V[i + di][j + dj] == math.inf for di in (-1, 0, 1) for dj in (-1, 0, 1))]
    assert len(plateau) == 144
    # on a tilted background only (1, 4) is minimal; the NaN at (1, 1), the
    # centre of the +inf block at (3, 1) and the -inf at (3, 4) passed too
    nan, inf = math.nan, math.inf
    values = [[10.0 + i + j for j in range(6)] for i in range(5)]
    values[1][1], values[1][4], values[3][4] = nan, 0.0, -inf
    for i in (2, 3, 4):
        values[i][:3] = [inf, inf, inf]
    hand = ContourGrid([float(i) for i in range(5)], [float(j) for j in range(6)],
                       values, 1.0, 1.0, [])
    assert stationarity_scan(hand) == [(1, 4)]


def test_contour_validation():
    with pytest.raises(ValueError):
        sample_contour(1.0, 1.0, resolution=1)
    with pytest.raises(ValueError):
        sample_contour(-1.0, 1.0)
    with pytest.raises(ValueError):
        sample_contour(1.0, 1.0, b_range=(0.0, math.inf))
    for l_slice in (math.nan, math.inf):
        with pytest.raises(ValueError):
            sample_contour(l_slice, 1.0)


def test_grid_axes_hit_endpoints_exactly():
    grid = sample_contour(1.0, 1.0, a_range=(-2.0, 2.0), b_range=(-2.0, 4.0),
                          resolution=(11, 7))
    assert grid.a_axis[0] == -2.0 and grid.a_axis[-1] == 2.0
    assert grid.b_axis[0] == -2.0 and grid.b_axis[-1] == 4.0
    assert len(grid.a_axis) == 11 and len(grid.b_axis) == 7


def test_saturated_cells_are_flagged():
    grid = sample_contour(1.0, 1.0, a_range=(1.0, 2.0), b_range=(699.0, 720.0),
                          resolution=(3, 3))
    assert grid.saturated  # exponent guard must fire somewhere in this range


def test_contour_grid_is_byte_stable():
    # a grid out to b = 400, where (u - 1)^2 overflows in 234 of its 2 091
    # cells; the sha256 of its float.hex values and flagged cells was
    # recorded when the exponent clamp became a constant
    grid = sample_contour(0.7, 0.3, a_range=(-2.0, 2.0), b_range=(-40.0, 400.0),
                          resolution=(41, 51))
    assert len(grid.saturated) == 234
    text = " ".join(v.hex() for row in grid.values for v in row) + repr(grid.saturated)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "fe6be4f8aa6f5a28b45ac0f33f179881b1849d38bcdd7e55b0c5f44ea1c621e9"


# --- svg ---------------------------------------------------------------------

def test_svg_is_deterministic_and_well_formed():
    grid = sample_contour(1.0, 1.0, resolution=41)
    svg1 = render_svg(grid)
    svg2 = render_svg(grid)
    assert svg1 == svg2
    assert svg1.startswith("<svg ") and svg1.rstrip().endswith("</svg>")
    assert svg1.count("<path ") >= 5


def test_svg_saddle_centre_does_not_overflow():
    # at L = 1e308 the level 1.1e308 crosses saddle cells whose two high
    # corners sum past the largest float, where fsum raises OverflowError
    grid = sample_contour(1e308, 1.0)
    assert render_svg(grid, levels=[1.1e308]).count("<path ") == 1


def test_svg_levels_are_quantiles_of_grid_values():
    grid = sample_contour(1.0, 1.0, resolution=31)
    levels = default_levels(grid)
    flat = sorted(v for row in grid.values for v in row)
    assert levels == sorted(levels)
    assert all(flat[0] <= lv <= flat[-1] for lv in levels)


def test_svg_respects_explicit_levels():
    grid = sample_contour(1.0, 1.0, resolution=31)
    svg = render_svg(grid, levels=[2.0, 4.0])
    assert svg.count("<path ") == 2


def _checkerboard() -> ContourGrid:
    # alternate high and low corners with a tilt, so the saddle cases 5 and
    # 10 occur with the cell centre on either side of levels 1.0 and 1.3
    n = 7
    values = [[((i + j) % 2) * 2.0 + 0.13 * i - 0.07 * j for j in range(n)] for i in range(n)]
    return ContourGrid([float(i) for i in range(n)], [0.5 * j for j in range(n)],
                       values, 1.0, 1.0, [])


def _svg_cases():
    low, high = sample_contour(0.0), sample_contour(1.0)
    yield "default L=0", low, None
    yield "default L=1", high, None
    # levels equal to grid values put contour points exactly on corners
    on_grid = sample_contour(1.0, resolution=21)
    yield "on-grid levels", on_grid, [on_grid.values[10][12], on_grid.values[4][15],
                                      on_grid.values[17][3]]
    yield "on-grid levels L=0", low, [low.values[40][7], low.values[50][3]]
    yield "saddles", _checkerboard(), [1.0, 1.3]
    # (u - 1)^2 overflows past b of about 355 under flag-and-saturate
    overflow = sample_contour(1.0, b_range=(300.0, 420.0), resolution=21)
    assert sum(not math.isfinite(v) for row in overflow.values for v in row) > 0
    yield "non-finite", overflow, None


def test_svg_bytes_are_pinned():
    # sha256 of each render_svg document, recorded before marching squares
    # read its cases from precomputed rows
    got = {name: hashlib.sha256(render_svg(grid, levels).encode()).hexdigest()
           for name, grid, levels in _svg_cases()}
    assert got == {
        "default L=0": "9a8a215caa91b3003c2b5e5952da22842bb41ce2af3461dcab7a8e3f0af99f2d",
        "default L=1": "df7385f6568df6a4b374b5b3699224b16858f9fd6b7dd249a7595cd99081ab18",
        "on-grid levels": "2b2b51988e96e0e2d0b127733f8670abdc9ff47e45ba7ceb506c2d17e9254060",
        "on-grid levels L=0": "e81fdb14e9f54a55b6627468acc7ef1cc46653389657438f47fe72e43e5421af",
        "saddles": "847dd4e75cda5a33ad77cc925281b18a9bece9567009feaf08606b8594fad7f3",
        "non-finite": "8dfd701bbffeb33a8cee175ff67bb5d312e7337386d7adb9e270db8f24dcd6ee",
    }


def _reference_segments(grid, level):
    # the per-cell loop _segments ran before it skipped uncrossed cells by
    # packed rows: every cell's case from four booleans, row-major
    V, A, B = grid.values, grid.a_axis, grid.b_axis
    high = [[v > level for v in row] for row in V]
    segs = []
    for i in range(len(A) - 1):
        h0, h1 = high[i], high[i + 1]
        for j in range(len(B) - 1):
            case = h0[j] | h1[j] << 1 | h1[j + 1] << 2 | h0[j + 1] << 3
            if case == 0 or case == 15:
                continue
            corners = (V[i][j], V[i + 1][j], V[i + 1][j + 1], V[i][j + 1])
            if not all(map(math.isfinite, corners)):
                continue
            if case == 5 or case == 10:
                try:
                    center = 0.25 * math.fsum(corners)
                except OverflowError:
                    center = math.fsum([0.25 * c for c in corners])
                pairs = svgplot._SADDLE_JOINED if (case == 5) == (center > level) \
                    else svgplot._SADDLE_SPLIT
            else:
                pairs = svgplot._CASE_EDGES[case]
            xy = ((A[i], B[j]), (A[i + 1], B[j]), (A[i + 1], B[j + 1]), (A[i], B[j + 1]))
            for (k1, m1), (k2, m2) in pairs:
                x1, y1 = svgplot._lerp(level, xy[k1], xy[m1], corners[k1], corners[m1])
                x2, y2 = svgplot._lerp(level, xy[k2], xy[m2], corners[k2], corners[m2])
                segs.append((x1, y1, x2, y2))
    return segs


@st.composite
def _marching_cases(draw):
    # values from a small set so levels tie corners, cells go non-finite and
    # whole rows stay on one side; a checkerboard tilt makes saddles common
    level = draw(st.sampled_from([0.0, 0.5, -1.25, 1.0, 2.0]))
    na, nb = draw(st.integers(2, 9)), draw(st.integers(2, 13))
    palette = [level, math.nan, math.inf, -math.inf, 0.0, 1.0]
    palette += draw(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
    picks = draw(st.binary(min_size=na * nb, max_size=na * nb))
    values = [[palette[k % len(palette)] for k in picks[i * nb:(i + 1) * nb]]
              for i in range(na)]
    if draw(st.booleans()):
        values = [[v + 2.0 * ((i + j) % 2) - 1.0 for j, v in enumerate(row)]
                  for i, row in enumerate(values)]
    grid = ContourGrid([0.5 * i - 1.0 for i in range(na)], [0.25 * j for j in range(nb)],
                       values, 1.0, 1.0, [])
    return grid, level


@settings(max_examples=300, deadline=None)
@given(_marching_cases())
def test_segments_match_the_per_cell_reference(case):
    grid, level = case
    got, want = svgplot._segments(grid, level), _reference_segments(grid, level)
    assert [[v.hex() for v in seg] for seg in got] == [[v.hex() for v in seg] for seg in want]


@pytest.mark.parametrize("ranges", [{"a_range": (1.0, 1.0)}, {"b_range": (-0.0, 0.0)}])
def test_contour_rejects_a_zero_width_range(ranges):
    with pytest.raises(ValueError, match="range"):
        sample_contour(1.0, resolution=5, **ranges)
