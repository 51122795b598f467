"""First-order optimizers over the augmented space, with trajectory recording
and terminal-outcome classification.

Outcomes:
  converged-finite     gradient norm at tolerance with |b| still bounded
  minimum-at-infinity  b walked past the divergence bound while a*exp(b)
                       hugged 1 and a shrank: the run is chasing an infimum
                       that no finite point attains
  numerical-failure    a non-finite loss or gradient appeared
  budget-exhausted     none of the above within the step budget
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dc_field
from math import inf, isfinite, sqrt  # bare names: _run's loop is the hot path
from typing import IO, Callable, Sequence

from .augment import B_CLAMP, AugConfig, AugPoint, Thresholds, _terms, fast_kernel
from .fields import DimensionError, ScalarField
from .minimize import _clip, _sum_sq

CONVERGED = "converged-finite"
AT_INFINITY = "minimum-at-infinity"
EXHAUSTED = "budget-exhausted"
FAILED = "numerical-failure"

DENSE_RECORD_LIMIT = 10_000  # record every step up to here, then every 10th


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str  # gd | momentum | adam
    step_size: float
    max_steps: int
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("gd", "momentum", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError("step_size must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        # a decay of 1 never forgets (momentum) or divides by 1 - 1 (Adam's
        # bias correction); nan fails every comparison, so it lands here too
        for name in ("momentum", "beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be a positive real, got {self.eps!r}")


@dataclass(frozen=True)
class OutcomeLabel:
    kind: str
    final_a: float
    final_b: float
    final_u: float
    final_base_loss: float
    final_grad_norm: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Trajectory:
    """A recorded run, stored as columns: index ``i`` of every list is one
    recorded step, and :meth:`record` is the only code that appends a row.
    """

    field_name: str
    steps: list[int] = dc_field(default_factory=list)
    thetas: list[tuple[float, ...]] = dc_field(default_factory=list)
    a_values: list[float] = dc_field(default_factory=list)
    b_values: list[float] = dc_field(default_factory=list)
    us: list[float] = dc_field(default_factory=list)
    base_losses: list[float] = dc_field(default_factory=list)  # L(theta)
    losses: list[float] = dc_field(default_factory=list)       # augmented
    grad_norms: list[float] = dc_field(default_factory=list)
    total_steps: int = 0
    clamp_events: int = 0
    saturation_events: int = 0
    augmented: bool = True
    outcome: OutcomeLabel | None = None

    def record(self, step: int, theta: tuple[float, ...], a: float, b: float,
               loss: float, base: float, u: float, grad_norm: float) -> None:
        """Append one row.  ``theta`` is a tuple of finite floats and ``a``,
        ``b`` are finite floats."""
        self.steps.append(step)
        self.thetas.append(theta)
        self.a_values.append(a)
        self.b_values.append(b)
        self.us.append(u)
        self.base_losses.append(base)
        self.losses.append(loss)
        self.grad_norms.append(grad_norm)

    def write_csv(self, out: IO[str]) -> None:
        """One header line, then one ``out.write`` per recorded row."""
        dim = len(self.thetas[0]) if self.thetas else 0
        headers = ["step"] + [f"theta{i}" for i in range(dim)] + \
            ["a", "b", "u", "L", "L_tilde", "grad_norm"]
        write = out.write
        write(",".join(headers) + "\n")
        for k, theta, a, b, u, base, v, gn in zip(
                self.steps, self.thetas, self.a_values, self.b_values, self.us,
                self.base_losses, self.losses, self.grad_norms):
            write(f"{k},{','.join(map(repr, theta))},{a!r},{b!r},{u!r},{base!r},{v!r},{gn!r}\n")

    def summary(self) -> dict:
        return {
            "field": self.field_name,
            "outcome": self.outcome.as_dict() if self.outcome else None,
            "total_steps": self.total_steps,
            "recorded_steps": len(self.steps),
            "clamp_events": self.clamp_events,
            "saturation_events": self.saturation_events,
            "final_loss": self.losses[-1] if self.losses else None,
            "final_base_loss": self.base_losses[-1] if self.base_losses else None,
        }


def _updater(spec: OptimizerSpec, n: int) -> Callable[..., list[float]]:
    """The update rule of ``spec.kind`` over a flat vector of ``n`` coordinates,
    with its state (velocity, or Adam's moments and step count) in the closure."""
    eta = spec.step_size
    if spec.kind == "gd":
        def gd(x, g):
            return [xi - eta * gi for xi, gi in zip(x, g)]
        return gd

    # momentum and Adam update their state and x in one loop: for a handful of
    # coordinates that costs less than a comprehension per list
    if spec.kind == "momentum":
        mu = spec.momentum
        vel = [0.0] * n

        def momentum(x, g):
            out = []
            for i, gi in enumerate(g):
                vi = vel[i] = mu * vel[i] + gi
                out.append(x[i] - eta * vi)
            return out
        return momentum

    beta1, beta2, eps = spec.beta1, spec.beta2, spec.eps
    rest1, rest2 = 1.0 - beta1, 1.0 - beta2
    m = [0.0] * n
    v = [0.0] * n
    t = 0

    def adam(x, g):
        nonlocal t
        t += 1
        out = []
        c1 = 1.0 - beta1 ** t
        c2 = 1.0 - beta2 ** t
        for i, gi in enumerate(g):
            mi = m[i] = beta1 * m[i] + rest1 * gi
            vi = v[i] = beta2 * v[i] + rest2 * gi * gi
            out.append(x[i] - eta * (mi / c1) / (sqrt(vi / c2) + eps))
        return out
    return adam


def run_optimizer(field: ScalarField, start: AugPoint, spec: OptimizerSpec,
                  cfg: AugConfig | None = None,
                  thresholds: Thresholds | None = None) -> Trajectory:
    """Optimize the augmented loss from ``start``; never raises on overflow.

    theta is clamped to the field's box after every update (counted in
    ``clamp_events``); a and b roam free.  The run stops at
    ``thresholds.grad_tol``, a completed divergence signature, a non-finite
    value, or the step budget, and the trajectory is classified in place.
    """
    return _run(field, fast_kernel(field, cfg or AugConfig()), start.theta, start.a, start.b,
                spec, thresholds or Thresholds(), augmented=True)


def run_plain(field: ScalarField, theta_start: Sequence[float], spec: OptimizerSpec,
              thresholds: Thresholds | None = None) -> Trajectory:
    """Baseline: the same optimizer on the raw loss, theta only.

    Runs the loop of :func:`run_optimizer` over [theta..., 0.0, 0.0] with a
    kernel whose a and b gradient is 0, so a and b stay exactly 0.0 under
    every update rule.  Recorded points carry a = b = u = 0 so exports share
    one schema.
    """
    dim = field.dim
    raw_value = field.raw_value
    raw_grad = field.raw_gradient
    offset = field.offset

    def kernel(x):
        theta = x[:dim]
        # _terms applies the [-FLOOR_SLACK, 0) -> 0 floor and returns L second
        base = _terms(raw_value(theta) - offset, 0.0, 0.0, 1.0, B_CLAMP)[1]
        return base, base, 0.0, [*raw_grad(theta), 0.0, 0.0]

    return _run(field, kernel, theta_start, 0.0, 0.0, spec, thresholds or Thresholds(),
                augmented=False)


def _run(field: ScalarField, kernel, theta_start: Sequence[float], a_start: float,
         b_start: float, spec: OptimizerSpec, thr: Thresholds, augmented: bool) -> Trajectory:
    """The optimizer loop over the flat state [theta..., a, b].

    ``kernel(x)`` returns ``(V, L, u, grad V)``; one call per step.  Only an
    augmented run checks the divergence signature.  Steps up to
    ``DENSE_RECORD_LIMIT`` are all recorded, then every 10th, and always the
    last.  A theta start of the wrong length raises DimensionError.
    """
    dim = field.dim
    if len(theta_start) != dim:
        raise DimensionError(f"{field.name}: expected {dim} coordinates, got {len(theta_start)}")
    ia, ib = dim, dim + 1
    update = _updater(spec, dim + 2)
    diverging = thr.diverging  # bound once: checked every step
    grad_tol = thr.grad_tol
    max_steps = spec.max_steps
    dense = DENSE_RECORD_LIMIT
    # float bounds: a clipped coordinate is float() of ScalarField.clamp's, bit for bit
    box = tuple(zip(range(dim), map(float, field.lower), map(float, field.upper)))

    start_theta, clamped = field.clamp(theta_start)
    # validated once: a clamped coordinate may be an int bound, and recorded
    # rows hold finite floats
    x = AugPoint(start_theta, a_start, b_start).coords()
    traj = Trajectory(field_name=field.name, augmented=augmented)
    record = traj.record
    if clamped:
        traj.clamp_events += 1

    step = 0
    while True:
        loss, base, u, g = kernel(x)
        finite = isfinite(loss) and all(map(isfinite, g))
        if finite:
            gn = sqrt(_sum_sq(g))
        else:
            gn = inf
            traj.saturation_events += 1
        stop = (not finite or gn <= grad_tol or step >= max_steps
                or augmented and diverging(x[ia], x[ib], u))
        if stop or step <= dense or step % 10 == 0:
            # every coordinate is a finite float: checked after each update.  A
            # plain run records the literal 0.0: each update keeps its a and b
            # at 0.0, but as new float objects
            if augmented:
                record(step, tuple(x[:dim]), x[ia], x[ib], loss, base, u, gn)
            else:
                record(step, tuple(x[:dim]), 0.0, 0.0, loss, base, u, gn)
        if stop:
            break
        x = update(x, g)
        if _clip(x, box):
            traj.clamp_events += 1
        step += 1
        if not all(map(isfinite, x)):
            # update escaped the representable range: saturate coordinates so
            # the failure point is still a finite row, then stop
            x = _sanitize(x)
            _, base, u, _ = kernel(x)
            record(step, tuple(x[:dim]), x[ia], x[ib], inf, base, u, inf)
            traj.saturation_events += 1
            break

    traj.total_steps = step
    traj.outcome = classify_trajectory(traj, thr)
    return traj


def _sanitize(x: list[float]) -> list[float]:
    return [0.0 if c != c else min(max(c, -1e308), 1e308) for c in x]


def classify_trajectory(traj: Trajectory, thresholds: Thresholds | None = None) -> OutcomeLabel:
    """Assign exactly one outcome from the recorded evidence.

    At the last recorded point, converged-finite is
    :meth:`Thresholds.certifies` and minimum-at-infinity is
    :meth:`Thresholds.diverging` with b non-decreasing over the final quarter.
    """
    thr = thresholds or Thresholds()
    if not traj.steps:
        raise ValueError("cannot classify an empty trajectory")
    a = traj.a_values[-1]
    b = traj.b_values[-1]
    u = traj.us[-1]
    base = traj.base_losses[-1]
    gn = traj.grad_norms[-1]
    cert = dict(final_a=a, final_b=b, final_u=u,
                final_base_loss=base, final_grad_norm=gn)

    if not (all(map(isfinite, traj.losses)) and all(map(isfinite, traj.grad_norms))):
        return OutcomeLabel(FAILED, **cert)
    if not traj.augmented:
        kind = CONVERGED if gn <= thr.grad_tol else EXHAUSTED
        return OutcomeLabel(kind, **cert)
    if thr.certifies(gn, base, b):
        return OutcomeLabel(CONVERGED, **cert)
    if thr.diverging(a, b, u) and _b_monotone_tail(traj):
        return OutcomeLabel(AT_INFINITY, **cert)
    return OutcomeLabel(EXHAUSTED, **cert)


def _b_monotone_tail(traj: Trajectory) -> bool:
    """b non-decreasing over the final quarter of the recorded path."""
    bs = traj.b_values
    if len(bs) < 2:
        return True
    tail = bs[-max(2, len(bs) // 4):]
    return all(tail[i + 1] >= tail[i] for i in range(len(tail) - 1))


def compare_baseline(field: ScalarField, theta_start: Sequence[float],
                     spec: OptimizerSpec, cfg: AugConfig | None = None,
                     thresholds: Thresholds | None = None,
                     a_start: float = 0.1, b_start: float = 0.0
                     ) -> tuple[Trajectory, Trajectory]:
    """Paired runs from one theta start: raw loss vs augmented loss."""
    plain = run_plain(field, theta_start, spec, thresholds)
    augmented = run_optimizer(
        field, AugPoint(tuple(theta_start), a_start, b_start), spec, cfg, thresholds)
    return plain, augmented


def summary_json(traj: Trajectory, config: dict | None = None) -> str:
    doc = traj.summary()
    if config is not None:
        doc["config"] = config
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
