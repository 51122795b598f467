"""Optimizer runs, trajectory recording, outcome classification."""
import gc
import hashlib
import io
import math
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from minfinity import (AugConfig, AugPoint, DimensionError, OptimizerSpec, Thresholds,
                       Trajectory, classify_trajectory, compare_baseline,
                       get_field, run_optimizer, run_plain)
from minfinity.augment import fast_kernel
from minfinity.fields import RASTRIGIN_BAD_X
from minfinity.minimize import _clip
from minfinity.optimize import (AT_INFINITY, CONVERGED, DENSE_RECORD_LIMIT, EXHAUSTED,
                                FAILED, UNCERTIFIED, _run, _updater)

CFG = AugConfig()


def gd(step, steps):
    return OptimizerSpec(kind="gd", step_size=step, max_steps=steps)


# --- smooth-bowl contraction, cross-checked by an independent loop ----------

def test_quadratic_descent_converges_to_certificate():
    field = get_field("quadratic-1d")
    spec = gd(0.1, 100_000)
    traj = run_optimizer(field, AugPoint((1.0,), 0.0, 0.0), spec, CFG)
    out = traj.outcome
    assert out.kind == CONVERGED
    assert out.final_base_loss <= 1e-8
    assert abs(out.final_a) <= 1e-3

    # independent simulation of the same update rule, direct arithmetic
    x, a, b = 1.0, 0.0, 0.0
    for _ in range(traj.total_steps):
        u = a * math.exp(b)
        da = 2.0 * (x * x) * (u - 1.0) * math.exp(b) + 2.0 * a
        db = 2.0 * (x * x) * (u - 1.0) * u
        dx = 2.0 * x * (1.0 + (u - 1.0) ** 2)
        gn = math.sqrt(dx * dx + da * da + db * db)
        if gn <= Thresholds().grad_tol:
            break
        x, a, b = x - 0.1 * dx, a - 0.1 * da, b - 0.1 * db
    assert traj.thetas[-1][0] == pytest.approx(x, abs=1e-9)
    assert traj.a_values[-1] == pytest.approx(a, abs=1e-9)
    assert traj.b_values[-1] == pytest.approx(b, abs=1e-9)


def test_immediate_convergence_at_global_minimum():
    field = get_field("rastrigin-2d")
    traj = run_optimizer(field, AugPoint((0.0, 0.0), 0.0, 7.0), gd(0.01, 1000), CFG)
    assert traj.outcome.kind == CONVERGED
    assert traj.total_steps == 0
    assert traj.outcome.final_b == 7.0


# --- the divergence narrative from a strictly positive local minimum --------

@pytest.mark.parametrize("kind,step", [("gd", 1e-3), ("momentum", 1e-3), ("adam", 1e-2)])
def test_bad_minimum_run_chases_infinity_but_never_fixes(kind, step):
    # quasi-static regime: b climbs, a tracks exp(-b), u hugs 1, the base loss
    # stays pinned at the bad minimum and no fixed point is reached; with
    # constant-step first-order updates b's growth is logarithmic, so the run
    # ends budget-exhausted far below the b >= 20 divergence certificate
    field = get_field("rastrigin-1d")
    bad = field.bad_minima[0]
    spec = OptimizerSpec(kind=kind, step_size=step, max_steps=100_000)
    traj = run_optimizer(field, AugPoint(bad.point, 0.1, 0.0), spec, CFG)
    out = traj.outcome
    assert out.kind == EXHAUSTED
    assert 2.5 <= out.final_b <= 4.5
    assert abs(out.final_u - 1.0) <= 0.01
    assert 0.0 < abs(out.final_a) <= 0.06  # shrank from 0.1, chasing exp(-b)
    assert out.final_base_loss == pytest.approx(bad.value, abs=1e-6)
    assert out.final_grad_norm > 1e-4  # not a fixed point
    bs = traj.b_values
    assert bs[-1] > bs[0] + 2.0  # b climbed throughout the run
    if kind == "gd":
        # quasi-static regime: the climb is monotone step by step
        tail = bs[-len(bs) // 4:]
        assert all(t2 >= t1 for t1, t2 in zip(tail, tail[1:]))


def test_plain_descent_stays_in_the_bad_basin():
    field = get_field("rastrigin-1d")
    bad = field.bad_minima[0]
    traj = run_plain(field, bad.point, gd(1e-3, 100_000))
    assert traj.outcome.kind == CONVERGED
    assert traj.outcome.final_base_loss >= 0.5


def test_compare_baseline_quadratic_both_reach_zero():
    field = get_field("quadratic-1d")
    plain, augmented = compare_baseline(field, (2.0,), gd(0.1, 50_000), CFG)
    assert plain.outcome.final_base_loss <= 1e-8
    assert augmented.outcome.final_base_loss <= 1e-8


def test_compare_baseline_from_global_minimum():
    field = get_field("quadratic-2d")
    plain, augmented = compare_baseline(field, (0.0, 0.0), gd(0.1, 10_000), CFG)
    assert plain.outcome.kind == CONVERGED and plain.outcome.final_base_loss == 0.0
    assert augmented.outcome.kind == CONVERGED
    assert augmented.outcome.final_base_loss == 0.0


def test_compare_baseline_bad_basin_dichotomy():
    field = get_field("rastrigin-1d")
    bad = field.bad_minima[0]
    plain, augmented = compare_baseline(field, bad.point, gd(1e-3, 60_000), CFG)
    assert plain.outcome.kind == CONVERGED
    assert plain.outcome.final_base_loss == pytest.approx(bad.value, abs=1e-6)
    assert augmented.outcome.kind == EXHAUSTED
    assert augmented.outcome.final_b > 2.0  # still climbing when the budget ran out


# --- classification of synthetic trajectories -------------------------------

def _synthetic(rows):
    t = Trajectory(field_name="synthetic")
    for k, (a, b, u, loss, base, gn) in enumerate(rows):
        t.record(k, (0.0,), a, b, loss, base, u, gn)
    t.total_steps = len(rows) - 1
    return t


def test_classify_converged():
    t = _synthetic([(1e-9, 3.0, 1.0, 0.0, 0.0, 0.0)])
    assert classify_trajectory(t).kind == CONVERGED


def test_classify_minimum_at_infinity():
    rows = [(10 ** -(k + 1), 5.0 + 2.5 * k, 1.0 + 0.02 * (-1) ** k, 1.0, 1.0, 0.5)
            for k in range(9)]
    t = _synthetic(rows)
    assert t.b_values[-1] == 25.0
    assert classify_trajectory(t).kind == AT_INFINITY


def test_classify_failure_on_nonfinite():
    t = _synthetic([(0.1, 0.0, 0.1, 1.0, 1.0, 1.0),
                    (0.1, 1.0, 0.3, math.inf, 1.0, math.inf)])
    assert classify_trajectory(t).kind == FAILED


def test_classify_budget_fallback():
    t = _synthetic([(0.5, 1.0, 1.0, 2.0, 1.0, 5.0)])
    assert classify_trajectory(t).kind == EXHAUSTED


def test_classify_rejects_negative_b_plateau():
    # gradient under tolerance and |b| in bounds, but the base loss is 1:
    # the a=0 stationarity residual 2*L*exp(b) ~ 2e-6 exposes the plateau,
    # and the run, stopped on grad_tol, reads tolerance-uncertified
    t = _synthetic([(1.2e-6, -13.6, 1.5e-12, 2.0, 1.0, 9.9e-9)])
    assert classify_trajectory(t).kind == UNCERTIFIED


def test_classify_tolerance_uncertified_below_the_b_bound():
    # at b = -19.5 the residual 2*L*exp(b) passes for L up to 1.5, so only
    # the lower bound on b keeps a bad minimum from certifying; one step
    # short of grad_tol the same point is budget-exhausted
    t = _synthetic([(0.0, -19.5, 0.0, 0.995, 0.995, 6.8e-9)])
    assert classify_trajectory(t).kind == UNCERTIFIED
    t = _synthetic([(0.0, -19.5, 0.0, 0.995, 0.995, 2e-8)])
    assert classify_trajectory(t).kind == EXHAUSTED
    # a plain run has no certificate: the gradient test alone converges it
    plain = Trajectory(field_name="synthetic", augmented=False)
    plain.record(0, (0.0,), 0.0, 0.0, 0.995, 0.995, 0.0, 6.8e-9)
    assert classify_trajectory(plain).kind == CONVERGED


def test_classify_rejects_nonmonotone_tail():
    rows = [(1e-9, b, 1.0, 1.0, 1.0, 0.5) for b in (5.0, 10.0, 15.0, 20.0, 25.0, 24.0)]
    assert classify_trajectory(_synthetic(rows)).kind == EXHAUSTED


def test_classify_empty_raises():
    with pytest.raises(ValueError):
        classify_trajectory(Trajectory(field_name="x"))


# --- invariants --------------------------------------------------------------

def test_determinism_bitwise():
    field = get_field("rastrigin-1d")
    spec = OptimizerSpec(kind="adam", step_size=1e-2, max_steps=3000)
    start = AugPoint(field.bad_minima[0].point, 0.1, 0.0)
    t1 = run_optimizer(field, start, spec, CFG)
    t2 = run_optimizer(field, start, spec, CFG)
    assert t1.losses == t2.losses
    assert (t1.thetas, t1.a_values, t1.b_values) == (t2.thetas, t2.a_values, t2.b_values)
    assert t1.grad_norms == t2.grad_norms
    assert t1.outcome == t2.outcome


def test_lower_bound_holds_along_trajectories():
    field = get_field("double-well-1d")
    spec = OptimizerSpec(kind="adam", step_size=5e-3, max_steps=5000)
    traj = run_optimizer(field, AugPoint((1.2,), -1.0, 2.0), spec, CFG)
    for v, base in zip(traj.losses, traj.base_losses):
        assert v >= base


@pytest.mark.parametrize("name,start,step", [
    ("quadratic-1d", AugPoint((1.5,), 0.5, 0.5), 1e-2),
    ("rastrigin-1d", AugPoint((0.3,), 0.5, 0.5), 1e-4),
])
def test_small_step_descent_is_monotone(name, start, step):
    field = get_field(name)
    traj = run_optimizer(field, start, gd(step, 5000), CFG)
    for prev, cur in zip(traj.losses, traj.losses[1:]):
        assert cur <= prev + 1e-12


def test_violator_never_converges_finite():
    field = get_field("quadratic-plus-one-1d")
    rng = random.Random(7)
    for _ in range(8):
        theta = field.interior_sample(rng, margin=0.0)
        a = rng.uniform(-2, 2)
        b = rng.uniform(-3, 3)
        for spec in (gd(1e-3, 20_000),
                     OptimizerSpec(kind="adam", step_size=1e-2, max_steps=20_000)):
            traj = run_optimizer(field, AugPoint(theta, a, b), spec, CFG)
            assert traj.outcome.kind in (EXHAUSTED, AT_INFINITY)


def test_violator_plateau_freeze_is_not_converged():
    # from a start with a*exp(b) >> 1, one fixed step throws b deep negative;
    # the run then freezes with a balancing L*exp(b)/lam and every gradient
    # component under tolerance even though the base loss is 1.  The
    # stationarity residual 2*L*exp(b) in the certificate keeps the label
    # honest: this is a plateau artifact, not finite convergence, and the run
    # stopped on grad_tol reads tolerance-uncertified
    field = get_field("quadratic-plus-one-1d")
    start = AugPoint((-6.213074620571222,), 0.8329195150116697, 2.8873570465777316)
    traj = run_optimizer(field, start, gd(1e-3, 20_000), CFG)
    assert traj.outcome.final_grad_norm <= 1e-8
    assert -20.0 < traj.outcome.final_b < -9.0
    assert traj.outcome.kind == UNCERTIFIED
    assert traj.outcome.final_base_loss == 1.0


def test_converged_runs_certify_the_main_claim():
    # over a seeded start grid, every converged-finite outcome lands at a
    # global minimum of the base loss with the regularized coordinate at 0
    rng = random.Random(1717)
    converged = 0
    for name in ("quadratic-1d", "quadratic-2d", "rastrigin-1d", "double-well-1d"):
        field = get_field(name)
        for _ in range(4):
            theta = field.interior_sample(rng, margin=0.0)
            start = AugPoint(theta, rng.uniform(-2, 2), rng.uniform(-3, 3))
            for spec in (gd(1e-3, 20_000),
                         OptimizerSpec(kind="adam", step_size=1e-2, max_steps=20_000)):
                traj = run_optimizer(field, start, spec, CFG)
                if traj.outcome.kind == CONVERGED:
                    converged += 1
                    assert traj.outcome.final_base_loss <= 1e-4
                    assert abs(traj.outcome.final_a) <= 1e-3
    assert converged >= 1


def test_theta_clamped_to_box_with_event_count():
    field = get_field("quadratic-2d")
    traj = run_optimizer(field, AugPoint((9.5, 0.0), 0.0, 0.0), gd(10.0, 50), CFG)
    assert traj.clamp_events >= 1
    for theta in traj.thetas:
        assert field.contains(theta)


def test_recording_stride_and_final_point():
    field = get_field("rastrigin-1d")
    traj = run_optimizer(field, AugPoint(field.bad_minima[0].point, 0.1, 0.0),
                         gd(1e-3, 25_000), CFG)
    assert traj.total_steps == 25_000
    assert traj.steps[-1] == 25_000
    dense = [s for s in traj.steps if s <= 10_000]
    assert dense == list(range(10_001))
    sparse = [s for s in traj.steps if s > 10_000]
    assert all(s % 10 == 0 for s in sparse)
    assert len(traj.steps) == 10_001 + 1_500


def test_csv_export_schema():
    field = get_field("quadratic-2d")
    traj = run_optimizer(field, AugPoint((1.0, -1.0), 0.1, 0.0), gd(0.05, 500), CFG)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "step,theta0,theta1,a,b,u,L,L_tilde,grad_norm"
    assert len(lines) == len(traj.steps) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        OptimizerSpec(kind="newton", step_size=0.1, max_steps=10)
    with pytest.raises(ValueError):
        OptimizerSpec(kind="gd", step_size=-0.1, max_steps=10)
    # nan and inf never satisfy step >= max_steps, so a run would not stop;
    # a fraction or a bool is no step count
    for bad in (0, math.nan, math.inf, 2.5, True):
        with pytest.raises(ValueError, match="max_steps"):
            OptimizerSpec(kind="gd", step_size=0.1, max_steps=bad)
    assert Thresholds().b_max == 20.0


@pytest.mark.parametrize("name,theta", [
    ("quadratic-1d", (3.0, 7.0)), ("quadratic-2d", (3.0,)), ("quadratic-2d", (1.0, 2.0, 3.0)),
])
def test_a_start_of_the_wrong_length_is_rejected(name, theta):
    # the box clamp zips theta against the bounds: extra coordinates would be
    # dropped and a missing one would end in an IndexError mid-run
    field = get_field(name)
    spec = gd(0.1, 10)
    with pytest.raises(DimensionError, match="expected"):
        run_plain(field, theta, spec)
    with pytest.raises(DimensionError, match="expected"):
        run_optimizer(field, AugPoint(theta, 0.1, 0.0), spec, CFG)
    with pytest.raises(DimensionError, match="expected"):
        compare_baseline(field, theta, spec, CFG)


@pytest.mark.parametrize("key,bad", [
    ("momentum", 1.0), ("momentum", -0.1), ("momentum", math.nan),
    ("beta1", 1.0), ("beta1", math.inf), ("beta2", 1.0), ("beta2", 2.0),
    ("eps", 0.0), ("eps", math.inf), ("eps", math.nan),
])
def test_spec_rejects_degenerate_hyperparameters(key, bad):
    # beta = 1 divides by zero in Adam's bias correction; nan eps or momentum
    # would run on to a numerical failure
    with pytest.raises(ValueError, match=key):
        OptimizerSpec(kind="adam", step_size=0.1, max_steps=10, **{key: bad})
    OptimizerSpec(kind="adam", step_size=0.1, max_steps=10, momentum=0.0, beta1=0.0,
                  beta2=0.0, eps=1e-300)


# --- byte-identical trajectories ----------------------------------------------

def _csv_sha256(traj):
    buf = io.StringIO()
    traj.write_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# sha256 of write_csv output, recorded before the optimizer loop was fused
# into one kernel call per step.  The plain runs start at the bad minimum and
# stop at step 0; the augmented runs cross DENSE_RECORD_LIMIT.
BAD_MIN_PLAIN_SHA = "021516a6940d1cbab1dd1ffa1eaaae0e4f31d6eeeaea5085e1c134a155544e55"
BAD_MIN_AUGMENTED_SHA = {
    "gd": "30aa84f26b81ed773878ce595fd23c6bf46a7c93a34897191cbfcde5cd391536",
    "momentum": "6fcb4f9722f3fcce38853d4ebc9afc099ce85fc5ae9f8683c2820ad4aede1a6d",
    "adam": "e83373ba356e33e6d327bff679cce532b60af0f9357485c45f13ed15ee07f4fd",
}
STEP_SIZES = {"gd": 1e-3, "momentum": 1e-3, "adam": 1e-2}


@pytest.mark.parametrize("kind", ["gd", "momentum", "adam"])
def test_compare_baseline_csv_is_byte_stable(kind):
    field = get_field("rastrigin-1d")
    spec = OptimizerSpec(kind=kind, step_size=STEP_SIZES[kind], max_steps=10_500)
    plain, augmented = compare_baseline(field, field.bad_minima[0].point, spec, CFG)
    assert augmented.steps[-1] == 10_500 and len(augmented.steps) == 10_051
    assert _csv_sha256(plain) == BAD_MIN_PLAIN_SHA
    assert _csv_sha256(augmented) == BAD_MIN_AUGMENTED_SHA[kind]


@pytest.mark.parametrize("augmented,name,theta,kind,step,steps,sha", [
    # the last step (10 503) falls between two sparse records
    (True, "rastrigin-1d", (RASTRIGIN_BAD_X,), "adam", 1e-2, 10_503,
     "06f254d87a3b47b66e4c324e4ed2e7b6c96320bfdda7b76d4d9ad32aa9cb9235"),
    # the first update overflows a: the saturated failure point is recorded
    (True, "quadratic-2d", (1.0, 1.0), "gd", 1e308, 100,
     "179d63adb5dca0378b54f8018a6c3453526252c828fd77c8caf07c6e3db74d93"),
    (False, "rastrigin-1d", (2.5,), "momentum", 1e-3, 10_503,
     "3b80d7a8ccf69b11b1b12ef1eac0577589517e9034bc605dab0277f04e064e32"),
    (False, "rastrigin-1d", (2.5,), "adam", 1e-2, 10_503,
     "92f7a390c89da21a161acf19dcadfb5f7189af8318fabb86671acc52d01c2936"),
    # recorded before run_plain shared the augmented loop: a stop between two
    # sparse records, and a start clamped into the box
    (False, "quadratic-1d", (1.0,), "gd", 1e-6, 10_503,
     "a42b3d1a7888c285440cb57bf229f8d07d381cea2b472534663186822d068a5a"),
    (False, "quadratic-2d", (12.0, -3.0), "adam", 0.5, 200,
     "eaf0b2b24a768f01fb1f0a5c8998f51fe662fa9e8ce9539214432097e879350b"),
])
def test_trajectory_csv_is_byte_stable(augmented, name, theta, kind, step, steps, sha):
    field = get_field(name)
    spec = OptimizerSpec(kind=kind, step_size=step, max_steps=steps)
    if augmented:
        traj = run_optimizer(field, AugPoint(theta, 0.1, 0.0), spec, CFG)
    else:
        traj = run_plain(field, theta, spec)
    assert _csv_sha256(traj) == sha


@pytest.mark.parametrize("kind", ["gd", "momentum", "adam"])
def test_plain_failure_row_keeps_a_and_b_at_positive_zero(kind):
    # with no box to clip it, theta overflows on the first update; _sanitize
    # saturates it, and the recorded a and b are still +0.0
    field = get_field("quadratic-1d")._replace(lower=(-math.inf,), upper=(math.inf,))
    traj = run_plain(field, (1.0,), OptimizerSpec(kind=kind, step_size=1e308, max_steps=100))
    assert traj.outcome.kind == FAILED and traj.total_steps == 1
    assert traj.thetas == [(1.0,), (-1e308,)] and traj.losses[-1] == math.inf
    assert [x.hex() for x in traj.a_values + traj.b_values] == ["0x0.0p+0"] * 4


def test_integer_box_bound_is_recorded_as_float():
    field = get_field("quadratic-1d")._replace(lower=(-1,), upper=(1,))
    traj = run_optimizer(field, AugPoint((-3.0,), 0.1, 0.0), gd(1e-2, 50), CFG)
    assert traj.clamp_events == 1
    buf = io.StringIO()
    traj.write_csv(buf)
    assert buf.getvalue().split("\n")[1].startswith("0,-1.0,0.1,0.0,")
    assert _csv_sha256(traj) == \
        "c985520d7b75728db5f9a38f5a8a3e80c9be26a5fc7bb8c884f486977e068d0c"


def _counting(field):
    calls = {"raw_value": 0, "raw_gradient": 0}

    def counted(name):
        fn = getattr(field, name)

        def wrapper(theta):
            calls[name] += 1
            return fn(theta)
        return wrapper

    return field._replace(raw_value=counted("raw_value"),
                          raw_gradient=counted("raw_gradient")), calls


def _assert_once_per_step(traj, calls):
    # steps 0..total_steps are each evaluated once; the final record may add one
    evaluated = traj.total_steps + 1
    for n in calls.values():
        assert evaluated <= n <= evaluated + 1


def _kernel_thetas(monkeypatch):
    """Wrap the kernel run_optimizer builds; returns the list that collects
    the theta of every kernel call, as float.hex strings."""
    thetas = []

    def recording(field, cfg):
        kernel = fast_kernel(field, cfg)

        def wrapper(x):
            thetas.append(tuple(map(float.hex, x[:field.dim])))
            return kernel(x)
        return wrapper

    monkeypatch.setattr("minfinity.optimize.fast_kernel", recording)
    return thetas


@pytest.mark.parametrize("name,start,spec", [
    # theta sits still at the bad minimum while (a, b) move
    ("rastrigin-1d", None, gd(1e-3, 10_503)),
    ("quadratic-1d", (1.0,), gd(0.1, 100_000)),
    ("quadratic-2d", (1.0, 1.0), gd(1e308, 100)),
])
def test_run_optimizer_evaluates_the_field_once_per_step(name, start, spec, monkeypatch):
    # one kernel call per step, and the final record may add one.  The field
    # is evaluated at exactly the calls whose theta differs in bits from the
    # previous call's or holds a zero
    field, calls = _counting(get_field(name))
    thetas = _kernel_thetas(monkeypatch)
    theta = start or field.bad_minima[0].point
    traj = run_optimizer(field, AugPoint(theta, 0.1, 0.0), spec, CFG)
    assert traj.total_steps + 1 <= len(thetas) <= traj.total_steps + 2
    fresh = sum(i == 0 or t != thetas[i - 1] or any(float.fromhex(c) == 0.0 for c in t)
                for i, t in enumerate(thetas))
    assert calls == {"raw_value": fresh, "raw_gradient": fresh}


@pytest.mark.parametrize("name,theta,spec", [
    # stops at step 10 503, between two sparse records
    ("quadratic-1d", (1.0,), gd(1e-6, 10_503)),
    # converges at once at the bad minimum
    ("rastrigin-1d", (RASTRIGIN_BAD_X,), gd(1e-3, 100)),
])
def test_run_plain_evaluates_the_field_once_per_step(name, theta, spec):
    field, calls = _counting(get_field(name))
    _assert_once_per_step(run_plain(field, theta, spec), calls)


# --- columnar trajectories: the same rows as one AugPoint per step -------------

def _reference_run(field, start, spec):
    """The loop as it was before trajectories went columnar: ScalarField.clamp
    after every update and one validated AugPoint per recorded step.
    Returns ``(points, clamp_events)``."""
    dim = field.dim
    thr = Thresholds()
    kernel = fast_kernel(field, CFG)
    update = _updater(spec, dim + 2)
    theta, clamped = field.clamp(start.theta)
    x = AugPoint(theta, start.a, start.b).coords()
    points, clamps = [], int(clamped)
    step = 0
    while True:
        loss, _, u, g = kernel(x)
        finite = math.isfinite(loss) and all(map(math.isfinite, g))
        gn = math.sqrt(math.fsum([c * c for c in g])) if finite else math.inf
        stop = (not finite or gn <= thr.grad_tol or step >= spec.max_steps
                or thr.diverging(x[dim], x[dim + 1], u))
        if stop or step <= DENSE_RECORD_LIMIT or step % 10 == 0:
            points.append(AugPoint(tuple(x[:dim]), x[dim], x[dim + 1]))
        if stop:
            return points, clamps
        x = update(x, g)
        theta, moved = field.clamp(x[:dim])
        if moved:
            clamps += 1
            x[:dim] = [float(t) for t in theta]
        step += 1
        if not all(map(math.isfinite, x)):
            x = [0.0 if c != c else min(max(c, -1e308), 1e308) for c in x]
            points.append(AugPoint(tuple(x[:dim]), x[dim], x[dim + 1]))
            return points, clamps


def _hex_rows(rows):
    return [tuple(map(float.hex, (*theta, a, b))) for theta, a, b in rows]


INT_BOX_QUADRATIC = get_field("quadratic-1d")._replace(lower=(-1,), upper=(1,))


@pytest.mark.parametrize("field,theta,spec,min_clamps", [
    # crosses DENSE_RECORD_LIMIT and stops between two sparse records
    (get_field("rastrigin-1d"), (RASTRIGIN_BAD_X,), gd(1e-3, 10_503), 0),
    # the first update overflows a: the sanitized failure point is the last row
    (get_field("quadratic-2d"), (1.0, 1.0), gd(1e308, 100), 0),
    # started outside the box, then thrown against its walls
    (get_field("quadratic-2d"), (12.0, -10.5), gd(10.0, 50), 2),
    (INT_BOX_QUADRATIC, (-3.0,), gd(0.9, 50), 1),
])
def test_points_view_is_the_per_step_points(field, theta, spec, min_clamps):
    start = AugPoint(theta, 0.1, 0.0)
    traj = run_optimizer(field, start, spec, CFG)
    want, clamps = _reference_run(field, start, spec)
    rows = list(zip(traj.thetas, traj.a_values, traj.b_values))
    assert _hex_rows(rows) == _hex_rows((p.theta, p.a, p.b) for p in want)
    assert all(type(c) is float for theta, a, b in rows for c in (*theta, a, b))
    assert traj.clamp_events == clamps >= min_clamps


@pytest.mark.parametrize("lower,upper", [
    ((0.0,), (1.0,)), ((-1.0,), (0.0,)), ((-1,), (1,)), ((0,), (0,)),
])
def test_in_place_theta_clip_is_scalar_field_clamp(lower, upper):
    # run_optimizer clips theta in place over float bounds; it must give the
    # float of ScalarField.clamp's value, bit for bit, and the same moved flag
    field = get_field("quadratic-1d")._replace(lower=lower, upper=upper)
    box = tuple(zip(range(1), map(float, lower), map(float, upper)))
    for c in (-0.0, 0.0, -3.0, -1.0, 0.5, 1.0, 3.0, math.inf, -math.inf, math.nan):
        x = [c, 0.25, -0.5]
        moved = _clip(x, box)
        (want,), want_moved = field.clamp([c])
        assert moved == want_moved
        assert type(x[0]) is float and x[0].hex() == float(want).hex()
        assert x[1:] == [0.25, -0.5]


def test_run_builds_a_constant_number_of_points(monkeypatch):
    field = get_field("rastrigin-1d")
    start = AugPoint(field.bad_minima[0].point, 0.1, 0.0)
    built = []
    new = AugPoint.__new__

    def counted_new(cls, *args, **kwargs):
        built.append("new")
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(AugPoint, "__new__", counted_new)
    traj = run_optimizer(field, start, gd(1e-3, 10_500), CFG)
    assert len(traj.steps) == 10_051
    assert built == ["new"]  # the validated start, and nothing per step


def test_channel_run_records_under_100_bytes_a_row():
    # 10 051 rows of packed columns, with the settled theta stored as one
    # tuple object; lists of boxed floats and a tuple per row took ~290 B a row
    field = get_field("rastrigin-1d")
    start = AugPoint(field.bad_minima[0].point, 0.1, 0.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = run_optimizer(field, start, gd(1e-3, 10_500), CFG)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(traj.steps) == 10_051
    assert held / len(traj.steps) < 100
    assert len({id(theta) for theta in traj.thetas}) < 100


EXTREMES = (-0.0, 5e-324, 1e308, math.inf, -math.inf)


@pytest.mark.parametrize("thetas", [
    [(0.0,), (-0.0,), (0.0,), (0.0,), (-0.0,)],
    [(1.5, 0.0), (1.5, 0.0), (1.5, -0.0), (-0.0, 1.5), (-0.0, 1.5)],
])
def test_record_keeps_every_bit_and_shares_no_theta_holding_a_zero(thetas):
    # a fresh tuple per row: the literals above may be one constant object
    thetas = [tuple(list(theta)) for theta in thetas]
    # every float column meets every extreme, each row in a different column
    a, b, loss, base, u, gn = ([EXTREMES[(k + c) % 5] for k in range(5)] for c in range(6))
    traj = Trajectory(field_name="synthetic")
    for row in zip(range(5), thetas, a, b, loss, base, u, gn):
        traj.record(*row)
    assert all(stored is theta for stored, theta in zip(traj.thetas, thetas))
    columns = (traj.a_values, traj.b_values, traj.losses, traj.base_losses, traj.us,
               traj.grad_norms)
    assert [list(map(float.hex, col)) for col in columns] == \
        [list(map(float.hex, col)) for col in (a, b, loss, base, u, gn)]
    assert [list(map(float.hex, theta)) for theta in traj.thetas] == \
        [list(map(float.hex, theta)) for theta in thetas]
    assert list(traj.steps) == [0, 1, 2, 3, 4]
    recorded = SimpleNamespace(steps=range(5), thetas=thetas, a_values=a, b_values=b, us=u,
                               base_losses=base, losses=loss, grad_norms=gn)
    buf = io.StringIO()
    traj.write_csv(buf)
    assert buf.getvalue() == _reference_csv(recorded)


def test_write_csv_passes_one_row_per_write():
    # streaming keeps a whole trajectory's text out of memory
    field = get_field("rastrigin-2d")
    traj = run_optimizer(field, AugPoint((1.0, -1.0), 0.1, 0.0), gd(1e-3, 10_200), CFG)

    class Chunks:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    out = Chunks()
    traj.write_csv(out)
    assert len(out.writes) == len(traj.steps) + 1
    assert all(w.endswith("\n") and w.count("\n") == 1 for w in out.writes)


# --- the reuse rules of the loop and of the CSV writer ------------------------

def _reference_csv(traj):
    """write_csv as one f-string per row, each float printed afresh."""
    dim = len(traj.thetas[0])
    text = ",".join(["step"] + [f"theta{i}" for i in range(dim)]
                    + ["a", "b", "u", "L", "L_tilde", "grad_norm"]) + "\n"
    for k, theta, a, b, u, base, v, gn in zip(
            traj.steps, traj.thetas, traj.a_values, traj.b_values, traj.us,
            traj.base_losses, traj.losses, traj.grad_norms):
        text += f"{k},{','.join(map(repr, theta))},{a!r},{b!r},{u!r},{base!r},{v!r},{gn!r}\n"
    return text


@pytest.mark.parametrize("rows", [
    # a theta coordinate 0.0 -> -0.0 -> 0.0, and L at 0.0 then -0.0
    [((0.0,), 0.0, 0.01, 0.2), ((-0.0,), 0.0, 0.01, 0.2), ((0.0,), -0.0, 0.01, 0.2),
     ((0.0,), 0.0, 0.01, 0.2), ((0.0,), -0.0, 0.02, 0.1)],
    # repeated nonzero theta and L, an equal theta in a distinct tuple, then
    # a saturated row with an inf loss and norm
    [((0.25,), 1.5, 2.0, 0.5), ((0.25,), 1.5, 2.5, 0.5), (tuple([0.5 / 2]), 1.5, 3.0, 0.4),
     ((0.3,), 1.5, 3.0, 0.4), ((0.3,), 1.5, math.inf, math.inf),
     ((0.3,), math.inf, math.inf, math.inf), ((0.3,), math.nan, math.inf, math.inf),
     ((0.3,), math.nan, 1.0, 1.0)],
    # a 2-d theta with one coordinate repeated, then with one at a signed zero
    [((1.0, -2.0), 0.5, 0.6, 1e-3), ((1.0, -2.5), 0.5, 0.6, 1e-3),
     ((1.5, -2.5), 0.5, 0.6, 1e-3), ((1.5, -2.5), 0.75, 0.8, 1e-3),
     ((-0.0, -2.5), 0.75, 0.8, 1e-3), ((0.0, -2.5), 0.75, 0.8, 1e-3),
     ((0.0, -2.5), 0.75, 0.8, 1e-3), ((1.5, -2.5), 0.75, 0.8, 1e-3)],
])
def test_write_csv_matches_the_per_row_reference(rows):
    traj = Trajectory(field_name="synthetic")
    for step, (theta, base, loss, gn) in enumerate(rows):
        traj.record(step, theta, 0.1, 0.25 * step, loss, base, 1.0, gn)
    buf = io.StringIO()
    traj.write_csv(buf)
    assert buf.getvalue() == _reference_csv(traj)


def _stub_run(loss, g):
    """Three gd steps on quadratic-1d from (0.5, 0.1, 0.0) with a kernel that
    always returns ``loss`` and the gradient ``g``."""
    def kernel(x):
        return loss, 0.5, 0.0, list(g)

    return _run(get_field("quadratic-1d"), kernel, (0.5,), 0.1, 0.0, gd(1e-3, 3),
                Thresholds(), augmented=True)


@pytest.mark.parametrize("loss,g,events,norms", [
    # every component finite: the norm is the square root of the sum
    (1.0, [3.0, 4.0, 0.0], 0, [5.0] * 4),
    # finite components whose squares overflow: an inf norm, no saturation
    (1.0, [1e200, 0.0, -1e200], 0, [math.inf] * 4),
    (1.0, [1e155, 0.0, 0.0], 0, [math.inf] * 4),
    # a non-finite component or loss: one saturation event, and the run stops
    (1.0, [math.nan, 0.0, 0.0], 1, [math.inf]),
    (1.0, [3.0, math.inf, 0.0], 1, [math.inf]),
    (1.0, [3.0, -math.inf, math.nan], 1, [math.inf]),
    (math.inf, [3.0, 4.0, 0.0], 1, [math.inf]),
    (math.nan, [3.0, 4.0, 0.0], 1, [math.inf]),
])
def test_run_finiteness_outcomes(loss, g, events, norms):
    traj = _stub_run(loss, g)
    assert traj.saturation_events == events
    assert list(map(float.hex, traj.grad_norms)) == list(map(float.hex, norms))
