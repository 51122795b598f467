"""The package's records: how each one is built, what it refuses, that the
frozen ones stay frozen, and how they compare, hash and print."""
import math
from array import array

import pytest

from minfinity import (AugConfig, AugPoint, ContourGrid, CriticalPointReport,
                       OptimizerSpec, OutcomeLabel, ScalarField, Thresholds,
                       Trajectory, get_field)
from minfinity.augment import POLICY_ERROR, POLICY_SATURATE, fast_kernel
from minfinity.minimize import DescentResult


def _square(coords):
    return coords[0] * coords[0]


def _square_grad(theta):
    return (2.0 * theta[0],)


# --- construction: positional, keyword and defaults ---------------------------

def test_aug_config_construction():
    assert (AugConfig().lam, AugConfig().saturation_policy) == (1.0, POLICY_SATURATE)
    for cfg in (AugConfig(0.5, POLICY_ERROR), AugConfig(lam=0.5, saturation_policy=POLICY_ERROR)):
        assert (cfg.lam, cfg.saturation_policy) == (0.5, POLICY_ERROR)
    assert AugConfig(2.0).saturation_policy == POLICY_SATURATE
    with pytest.raises(TypeError):
        AugConfig(1.0, POLICY_ERROR, 3)


def test_thresholds_construction_and_class_constants():
    assert Thresholds().grad_tol == 1e-8
    assert Thresholds(1e-6).grad_tol == Thresholds(grad_tol=1e-6).grad_tol == 1e-6
    for owner in (Thresholds, Thresholds(1e-6)):
        assert (owner.b_max, owner.a_tol, owner.loss_tol, owner.u_window) == \
            (20.0, 1e-3, 1e-4, 0.1)
    with pytest.raises(TypeError):
        Thresholds(b_max=10.0)


def test_aug_point_construction():
    for p in (AugPoint((1, 2), 3, 4), AugPoint(theta=[1, 2], a=3, b=4)):
        assert p.theta == (1.0, 2.0) and type(p.theta) is tuple
        assert [type(c) for c in p.coords()] == [float] * 4
        assert (p.a, p.b) == (3.0, 4.0)
    assert AugPoint((0.5,), -1.0, 2.0).coords() == [0.5, -1.0, 2.0]
    with pytest.raises(TypeError):
        AugPoint((1.0,), 0.0)


def test_optimizer_spec_construction():
    want = ("gd", 0.1, 10, 0.9, 0.9, 0.999, 1e-8)
    for spec in (OptimizerSpec("gd", 0.1, 10), OptimizerSpec(kind="gd", step_size=0.1, max_steps=10)):
        assert (spec.kind, spec.step_size, spec.max_steps, spec.momentum, spec.beta1,
                spec.beta2, spec.eps) == want
    spec = OptimizerSpec("adam", 1e-3, 5, 0.5, 0.8, 0.99, 1e-6)
    assert (spec.momentum, spec.beta1, spec.beta2, spec.eps) == (0.5, 0.8, 0.99, 1e-6)
    with pytest.raises(TypeError):
        OptimizerSpec("gd", 0.1)


def test_outcome_label_construction_and_as_dict():
    values = ("converged-finite", 1e-9, 0.5, 1e-9, 0.0, 1e-10)
    keys = ["kind", "final_a", "final_b", "final_u", "final_base_loss", "final_grad_norm"]
    label = OutcomeLabel(*values)
    assert label == OutcomeLabel(**dict(zip(keys, values)))
    d = label.as_dict()
    assert type(d) is dict and list(d) == keys and list(d.values()) == list(values)
    with pytest.raises(TypeError):
        OutcomeLabel("converged-finite", 0.0)


def test_descent_result_construction():
    res = DescentResult([1.0, 2.0], 0.5, 1e-9, 7, True)
    assert (res.x, res.value, res.grad_norm, res.iterations, res.converged, res.escaped) == \
        ([1.0, 2.0], 0.5, 1e-9, 7, True, False)
    kw = DescentResult(x=[1.0], value=0.0, grad_norm=0.0, iterations=0, converged=False,
                       escaped=True)
    assert kw.escaped is True and kw.x == [1.0]


def test_critical_point_report_and_contour_grid_construction():
    point = AugPoint((0.0,), 0.0, 0.0)
    report = CriticalPointReport(point, 1e-9, 0.0, 3, True, 12)
    assert report == CriticalPointReport(point=point, grad_norm=1e-9, base_loss=0.0,
                                         seed_index=3, converged=True, iterations=12)
    assert (report.point, report.seed_index, report.iterations) == (point, 3, 12)
    grid = ContourGrid([0.0, 1.0], [0.0], [[1.0], [2.0]], 1.0, 1.0, [])
    assert grid == ContourGrid(a_axis=[0.0, 1.0], b_axis=[0.0], values=[[1.0], [2.0]],
                               l_slice=1.0, lam=1.0, saturated=[])
    assert grid.grid_min()["value"] == 1.0


def test_scalar_field_construction():
    f = ScalarField("sq", 1, (-1.0,), (1.0,), _square, _square_grad)
    assert (f.name, f.dim, f.lower, f.upper) == ("sq", 1, (-1.0,), (1.0,))
    assert f.raw_value is _square and f.raw_gradient is _square_grad
    assert (f.offset, f.zero_min, f.global_min, f.bad_minima) == (0.0, True, None, ())
    g = ScalarField(name="sq", dim=1, lower=(-1.0,), upper=(1.0,), raw_value=_square,
                    raw_gradient=_square_grad, offset=0.5, zero_min=False,
                    global_min=(0.0,), bad_minima=())
    assert (g.offset, g.zero_min, g.global_min) == (0.5, False, (0.0,))
    assert g.value((1.0,)) == 0.5 and g.gradient((0.5,)) == (1.0,)
    with pytest.raises(TypeError):
        ScalarField("sq", 1, (-1.0,), (1.0,), _square)


def test_trajectory_construction():
    for traj, augmented in ((Trajectory("f"), True),
                            (Trajectory(field_name="f", augmented=False), False)):
        assert traj.field_name == "f" and traj.augmented is augmented
        assert type(traj.steps) is array and traj.steps.typecode == "q"
        for name in ("a_values", "b_values", "us", "base_losses", "losses", "grad_norms"):
            column = getattr(traj, name)
            assert type(column) is array and column.typecode == "d" and len(column) == 0
        assert traj.thetas == [] and len(traj.steps) == 0
        assert (traj.total_steps, traj.clamp_events, traj.saturation_events) == (0, 0, 0)
        assert traj.outcome is None
    one, two = Trajectory("f"), Trajectory("f")
    one.record(0, (1.0,), 0.0, 0.0, 1.0, 1.0, 0.0, 2.0)
    assert len(two.steps) == 0 and two.thetas == []  # no column is shared


# --- every invalid validated record, with its full message --------------------

@pytest.mark.parametrize("args, message", [
    ((0.0,), "lam must be a positive real, got 0.0"),
    ((-1.0,), "lam must be a positive real, got -1.0"),
    ((math.nan,), "lam must be a positive real, got nan"),
    ((math.inf,), "lam must be a positive real, got inf"),
    ((1.0, "clip"), "unknown saturation policy 'clip'"),
    ((0.0, "clip"), "lam must be a positive real, got 0.0"),  # lam is tested first
])
def test_aug_config_refusals(args, message):
    with pytest.raises(ValueError) as caught:
        AugConfig(*args)
    assert str(caught.value) == message


@pytest.mark.parametrize("grad_tol", [0.0, -1e-8, math.nan, math.inf])
def test_thresholds_refusals(grad_tol):
    with pytest.raises(ValueError) as caught:
        Thresholds(grad_tol)
    assert str(caught.value) == f"grad_tol must be a positive real, got {grad_tol!r}"


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind="sgd"), "unknown optimizer kind 'sgd'"),
    (dict(kind="sgd", step_size=-1.0, max_steps=0), "unknown optimizer kind 'sgd'"),
    (dict(step_size=0.0), "step_size must be positive"),
    (dict(step_size=math.inf, max_steps=0), "step_size must be positive"),
    (dict(step_size=math.nan), "step_size must be positive"),
    (dict(max_steps=0), "max_steps must be an int >= 1, got 0"),
    (dict(max_steps=2.5), "max_steps must be an int >= 1, got 2.5"),
    (dict(max_steps=True), "max_steps must be an int >= 1, got True"),
    (dict(max_steps=0, momentum=1.0), "max_steps must be an int >= 1, got 0"),
    (dict(momentum=1.0), "momentum must be in [0, 1), got 1.0"),
    (dict(momentum=-0.1, beta1=2.0), "momentum must be in [0, 1), got -0.1"),
    (dict(beta1=math.nan), "beta1 must be in [0, 1), got nan"),
    (dict(beta2=1.0, eps=0.0), "beta2 must be in [0, 1), got 1.0"),
    (dict(eps=0.0), "eps must be a positive real, got 0.0"),
    (dict(eps=math.inf), "eps must be a positive real, got inf"),
])
def test_optimizer_spec_refusals(kwargs, message):
    full = dict(kind="gd", step_size=0.1, max_steps=10)
    full.update(kwargs)
    with pytest.raises(ValueError) as caught:
        OptimizerSpec(**full)
    assert str(caught.value) == message


@pytest.mark.parametrize("args, message", [
    (((math.nan,), 0.0, 0.0), "non-finite augmented point ((nan,), 0.0, 0.0)"),
    (((1, 2), math.inf, 0), "non-finite augmented point ((1.0, 2.0), inf, 0.0)"),
    (((1.0,), 0, -math.inf), "non-finite augmented point ((1.0,), 0.0, -inf)"),
    ((("x",), math.nan, 0.0), "could not convert string to float: 'x'"),  # theta first
    (((math.nan,), "y", 0.0), "could not convert string to float: 'y'"),  # then a
    (((math.nan,), 0.0, "z"), "could not convert string to float: 'z'"),  # then b
])
def test_aug_point_refusals(args, message):
    with pytest.raises(ValueError) as caught:
        AugPoint(*args)
    assert str(caught.value) == message


# --- frozen records ------------------------------------------------------------

FROZEN = [
    (AugConfig(), "lam"),
    (Thresholds(), "grad_tol"),
    (AugPoint((1.0,), 0.0, 0.0), "a"),
    (OptimizerSpec("gd", 0.1, 10), "step_size"),
    (OutcomeLabel("budget-exhausted", 0.0, 0.0, 0.0, 1.0, 1.0), "kind"),
    (CriticalPointReport(AugPoint((1.0,), 0.0, 0.0), 0.0, 0.0, 0, True, 1), "converged"),
    (get_field("rastrigin-1d"), "offset"),
    (get_field("quadratic-2d"), "raw_value"),
]


@pytest.mark.parametrize("record, name", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_records_refuse_assignment(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


def test_scalar_field_replace_makes_a_changed_copy():
    field = get_field("quadratic-1d")
    copy = field._replace(offset=0.5, global_min=None)
    assert copy is not field and (copy.offset, copy.global_min) == (0.5, None)
    assert copy.raw_value is field.raw_value and copy.lower == field.lower
    assert (field.offset, field.global_min) == (0.0, (0.0,))
    with pytest.raises(TypeError):
        field._replace(not_a_field=1.0)


def test_tracer_may_swap_a_shipped_fields_raw_formula_and_undo_it():
    # the benchmark's tracer wraps raw_value with object.__setattr__ and puts
    # the original back afterwards
    field = get_field("quadratic-1d")
    original = field.raw_value
    try:
        object.__setattr__(field, "raw_value", lambda coords: 5.0)
        assert field.value((1.0,)) == 5.0
        assert fast_kernel(field, AugConfig())([1.0, 0.0, 0.0])[1] == 5.0
    finally:
        object.__setattr__(field, "raw_value", original)
    assert field.raw_value is original and field.value((1.0,)) == 1.0


# --- equality, hashing and printed form ----------------------------------------

def test_equal_records_compare_and_hash_alike():
    pairs = [
        (AugConfig(), AugConfig(1.0, POLICY_SATURATE)),
        (Thresholds(), Thresholds(grad_tol=1e-8)),
        (AugPoint((1, 2), 3, 4), AugPoint((1.0, 2.0), 3.0, 4.0)),
        (OptimizerSpec("gd", 0.1, 10), OptimizerSpec("gd", 0.1, 10, 0.9, 0.9, 0.999, 1e-8)),
        (OutcomeLabel("k", 0.0, 1.0, 2.0, 3.0, 4.0), OutcomeLabel("k", 0.0, 1.0, 2.0, 3.0, 4.0)),
        (CriticalPointReport(AugPoint((1.0,), 0.0, 0.0), 0.0, 0.0, 0, True, 1),
         CriticalPointReport(AugPoint((1,), 0, 0), 0.0, 0.0, 0, True, 1)),
    ]
    for one, two in pairs:
        assert one == two and not one != two and hash(one) == hash(two), one
    assert AugConfig() != AugConfig(2.0) and Thresholds() != Thresholds(1e-6)
    assert AugPoint((1.0,), 0.0, 0.0) != AugPoint((1.0,), 0.0, 1.0)
    assert DescentResult([1.0], 0.0, 0.0, 1, True) == DescentResult([1.0], 0.0, 0.0, 1, True)
    assert DescentResult([1.0], 0.0, 0.0, 1, True) != DescentResult([1.0], 0.0, 0.0, 1, True, True)
    assert ContourGrid([0.0], [0.0], [[1.0]], 1.0, 1.0, []) == \
        ContourGrid([0.0], [0.0], [[1.0]], 1.0, 1.0, [])


@pytest.mark.parametrize("record, text", [
    (AugConfig(), "AugConfig(lam=1.0, saturation_policy='flag-and-saturate')"),
    (Thresholds(), "Thresholds(grad_tol=1e-08)"),
    (AugPoint((1, 2), 3, 4), "AugPoint(theta=(1.0, 2.0), a=3.0, b=4.0)"),
    (OptimizerSpec("gd", 0.1, 10),
     "OptimizerSpec(kind='gd', step_size=0.1, max_steps=10, momentum=0.9, beta1=0.9, "
     "beta2=0.999, eps=1e-08)"),
    (OutcomeLabel("budget-exhausted", 0.0, 1.0, 2.0, 3.0, 4.0),
     "OutcomeLabel(kind='budget-exhausted', final_a=0.0, final_b=1.0, final_u=2.0, "
     "final_base_loss=3.0, final_grad_norm=4.0)"),
    (CriticalPointReport(AugPoint((1.0,), 0.0, 0.0), 0.5, 0.25, 3, False, 9),
     "CriticalPointReport(point=AugPoint(theta=(1.0,), a=0.0, b=0.0), grad_norm=0.5, "
     "base_loss=0.25, seed_index=3, converged=False, iterations=9)"),
    (DescentResult([1.0], 0.5, 0.25, 3, False),
     "DescentResult(x=[1.0], value=0.5, grad_norm=0.25, iterations=3, converged=False, "
     "escaped=False)"),
    (ContourGrid([0.0], [1.0], [[2.0]], 1.0, 0.5, [(0, 0)]),
     "ContourGrid(a_axis=[0.0], b_axis=[1.0], values=[[2.0]], l_slice=1.0, lam=0.5, "
     "saturated=[(0, 0)])"),
])
def test_record_repr_text(record, text):
    assert repr(record) == text
