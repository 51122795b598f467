"""Critical-point finder, infimum probe, contour grids, SVG rendering."""
import hashlib
import math
import struct
from dataclasses import replace

import pytest

from minfinity import (AugConfig, ContourGrid, eval_u, field_names, find_critical_points,
                       get_field, gradient, landscape, probe_infimum, sample_contour,
                       stationarity_scan)
from minfinity.augment import POLICY_ERROR, POLICY_SATURATE, fast_value_and_grad
from minfinity.minimize import _clip
from minfinity.svgplot import default_levels, render_svg
from test_optimize import _counting

CFG = AugConfig()


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
        g = gradient(field, r.point, CFG, check_domain=False)
        assert g.norm() <= 1e-8
        assert r.base_loss <= 1e-4 and abs(r.point.a) <= 1e-3


def test_violator_yields_zero_converged_reports():
    # no finite critical point exists when the base loss cannot reach 0
    field = get_field("quadratic-plus-one-1d")
    reports = find_critical_points(field, CFG, n_seeds=64, seed=5)
    assert sum(r.converged for r in reports) == 0


def test_finder_reports_do_not_depend_on_the_saturation_policy():
    # with a clamp of 5 some runs end past it, where the validated routes would
    # raise under the error policy; the fast closures never raise, so the
    # policy changes nothing
    for name in ("rastrigin-1d", "double-well-1d"):
        field = get_field(name)
        err, sat = (find_critical_points(field, AugConfig(b_clamp=5.0, saturation_policy=policy),
                                         n_seeds=16, seed=2)
                    for policy in (POLICY_ERROR, POLICY_SATURATE))
        assert err == sat
        assert any(eval_u(r.point.a, r.point.b, AugConfig(b_clamp=5.0))[1] for r in sat)


def test_finder_reports_are_bitwise_stable():
    # three seeds per field at seed 2: runs that converge in phase 1, that
    # spend the whole 3000-iteration budget, and that stall into the polish
    # phase (ending converged or not).  The sha256 of float.hex of every
    # report field was recorded before descend and the fast closures were
    # tuned, so any change in their arithmetic or call order shows here
    lines = []
    for name in sorted(field_names()):
        for r in find_critical_points(get_field(name), CFG, n_seeds=3, seed=2):
            nums = (*r.point.theta, r.point.a, r.point.b, r.grad_norm, r.base_loss)
            lines.append(" ".join([name, *map(float.hex, nums), str(r.converged),
                                   str(r.iterations), str(r.seed_index)]))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "10ca0fd609ad090a7946971541333acbc58fc854b1519c52589947776d52fc21"


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


def test_fast_grad_reuses_the_base_loss_of_the_same_list_only():
    # value then grad on one list: one raw_value, one raw_gradient.  An equal
    # but distinct list has a bitwise-equal theta, so it reuses both; only a
    # theta that moved pays for new ones
    field, calls = _counting(get_field("rastrigin-2d"))
    value_fn, grad_fn = fast_value_and_grad(field, CFG)
    x = [0.3, -1.2, 0.05, 1.5]
    value_fn(x)
    g = grad_fn(x)
    assert calls == {"raw_value": 1, "raw_gradient": 1}
    g_copy = grad_fn(list(x))
    assert calls == {"raw_value": 1, "raw_gradient": 1}
    assert list(map(float.hex, g_copy)) == list(map(float.hex, g))
    grad_fn([0.3, -1.25, 0.05, 1.5])
    assert calls == {"raw_value": 2, "raw_gradient": 2}
    # and a pair that never saw a value call gives the very same gradient
    fresh = fast_value_and_grad(get_field("rastrigin-2d"), CFG)[1](x)
    assert list(map(float.hex, fresh)) == list(map(float.hex, g))


def _bits(xs):
    return struct.pack(f"<{len(xs)}d", *xs)


def test_finder_evaluates_the_base_loss_once_per_new_point(monkeypatch):
    # the pair calls raw_value only when theta changed since its last
    # raw_value call, raw_gradient only when it changed since its last
    # raw_gradient call, a zero coordinate counting as a change; value calls
    # need L, and so do gradient calls at a list value has not just seen.
    # The counts predicted that way are exact; the finder adds one validated
    # field.value per report
    field, calls = _counting(get_field("double-well-1d"))
    seen = {"value": 0, "grad": 0, "grad_elsewhere": 0}
    want = {"raw_value": 0, "raw_gradient": 0}
    last = {"x": None, "raw_value": None, "raw_gradient": None}

    def moved(kind, x):
        theta = x[:field.dim]
        if last[kind] != _bits(theta) or 0.0 in theta:
            want[kind] += 1
            last[kind] = _bits(theta)

    def counted_pair(f, cfg):
        value_fn, grad_fn = fast_value_and_grad(f, cfg)

        def value(x):
            seen["value"] += 1
            moved("raw_value", x)
            last["x"] = x
            return value_fn(x)

        def grad(x):
            seen["grad"] += 1
            moved("raw_gradient", x)
            if x is not last["x"]:
                seen["grad_elsewhere"] += 1
                moved("raw_value", x)
            return grad_fn(x)
        return value, grad

    monkeypatch.setattr(landscape, "fast_value_and_grad", counted_pair)
    reports = find_critical_points(field, CFG, n_seeds=3, seed=2)
    # seed 2 runs one start through the polish phase, one to the budget, and
    # the budget run sits still in theta while b creeps up
    assert 0 < seen["grad_elsewhere"] < seen["grad"] // 2
    assert calls["raw_gradient"] == want["raw_gradient"] < seen["grad"] // 2
    assert calls["raw_value"] == want["raw_value"] + len(reports)
    assert want["raw_value"] < seen["value"] // 2


def _signed_field():
    # L = 2 + sign(theta) and grad L = sign(theta): the sign of a zero
    # changes every bit of both
    return replace(get_field("quadratic-1d"),
                   raw_value=lambda t: 2.0 + math.copysign(1.0, t[0]),
                   raw_gradient=lambda t: (math.copysign(1.0, t[0]),))


@pytest.mark.parametrize("first,then,raw_calls", [
    ([0.75, 0.1, 0.2], [0.75, 0.1, 0.2], 1),  # equal but distinct lists: reused
    ([0.0, 0.1, 0.2], [-0.0, 0.1, 0.2], 2),  # 0.0 == -0.0, but not the same bits
    ([-0.0, 0.1, 0.2], [-0.0, 0.1, 0.2], 2),  # a zero coordinate never counts
    ([math.nan, 0.1, 0.2], [float("nan"), 0.1, 0.2], 2),  # nan != nan
])
def test_fast_pair_reuses_only_at_a_bitwise_equal_theta(first, then, raw_calls):
    field, calls = _counting(_signed_field())
    value_fn, grad_fn = fast_value_and_grad(field, CFG)
    value_fn(first)
    grad_fn(first)
    g = grad_fn(then)
    assert calls == {"raw_value": raw_calls, "raw_gradient": raw_calls}
    fresh = fast_value_and_grad(_signed_field(), CFG)
    assert _bits(g) == _bits(fresh[1](list(then)))
    # the value closure keeps the same rule: a zero recomputes even against itself
    v = value_fn(then)
    assert calls["raw_value"] == raw_calls + (0.0 in then)
    assert _bits([v]) == _bits([fresh[0](list(then))])


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


def test_contour_rejects_a_config_lambda_that_disagrees():
    # the grid records lam; a cfg with another lam would sample a different
    # surface than the one it names
    with pytest.raises(ValueError):
        sample_contour(0.7, cfg=AugConfig(lam=0.3))


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
    # a grid across the exponent clamp of 30; the sha256 of its float.hex
    # values and flagged cells was recorded before slice_value shared its
    # arithmetic with evaluate and the fast closures
    cfg = AugConfig(lam=0.3, b_clamp=30.0)
    grid = sample_contour(0.7, 0.3, a_range=(-2.0, 2.0), b_range=(-40.0, 60.0),
                          resolution=(41, 51), cfg=cfg)
    assert grid.saturated
    text = " ".join(v.hex() for row in grid.values for v in row) + repr(grid.saturated)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "8bed724a8fd30b949a99abaf5d4b10f083ef78ac9f065c31c7c382d91d4a1128"


# --- svg ---------------------------------------------------------------------

def test_svg_is_deterministic_and_well_formed():
    grid = sample_contour(1.0, 1.0, resolution=41)
    svg1 = render_svg(grid)
    svg2 = render_svg(grid)
    assert svg1 == svg2
    assert svg1.startswith("<svg ") and svg1.rstrip().endswith("</svg>")
    assert svg1.count("<path ") >= 5


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
