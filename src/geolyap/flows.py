"""Time-varying vector fields on manifolds: integration and flow analysis.

The integrator is a geometric fourth-order Runge-Kutta scheme: stage
derivatives are evaluated at points reached by the closed-form geodesic
(``Manifold.geodesic``, not projected), parallel transported back to the
tangent space at the step's base point along the geodesic that stage took
(``Manifold.transport_back``, a closed form with no logarithm), combined with
the classical RK4 weights, and the step is taken with one exponential map,
the step's only projection onto the manifold.  One loop (:func:`flow_samples`)
steps a batch of states, each from its own start time, on a shared
elapsed-time grid.  Flow pushforwards are computed by geodesic-variation
finite differences, and Lipschitz constants are estimated in the
parallel-transport sense (transported field differences over distance)
alongside the covariant-derivative form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .manifolds import (
    CUT_MARGIN,
    CutLocusError,
    Manifold,
    ManifoldMismatchError,
    ManifoldPoint,
    TangentVector,
)

DEFAULT_STEP = 1e-3
LIPSCHITZ_SAFETY = 1.05   # inflation factor applied before envelope use
LIPSCHITZ_FD_STEP = 1e-5  # parameter step of the covariant-derivative stencil
CUT_FLAG_MARGIN = 1e-3    # envelope rows this close to the cut locus are flagged
PUSHFORWARD_EPS = 1e-5    # arc length of the pushforward stencil
GRID_TOL = 1e-9           # relative slack before a gap gets one more substep


class IntegrationError(RuntimeError):
    """Field evaluation failed or produced non-finite values."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t={t})")
        self.t = t


@dataclass(frozen=True, eq=False)
class TimeVaryingField:
    """Evaluatable vector field f(t, x), optionally with an input channel.

    ``rhs(t, X) -> components`` is the raw kernel used by the integrator: ``X``
    holds one state or a batch ``(..., *ambient_shape)`` and ``t`` is a scalar
    or per-row times (broadcast per row with ``manifold.rows``).
    :meth:`eval_raw` projects its output onto the tangent spaces, so a field
    built on another composes that field's ``rhs`` and is projected once.
    ``input_rhs(t, X, u)`` realizes f(t, x, u), before that projection, for
    disturbance studies, with ``u`` shared or per row.  Handles must be pure
    with respect to observable state.
    """

    manifold: Manifold
    rhs: Callable[[float, np.ndarray], np.ndarray]
    input_rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None

    def eval_raw(self, t, coords: np.ndarray) -> np.ndarray:
        raw = np.asarray(self.rhs(t, coords), dtype=float)
        if raw.shape != np.shape(coords):
            raw = np.broadcast_to(raw, np.shape(coords))
        return self.manifold.project_tangent(coords, raw)

    def __call__(self, t: float, x: ManifoldPoint) -> TangentVector:
        if x.manifold != self.manifold:
            raise ManifoldMismatchError(
                f"field on {self.manifold.name} evaluated at a {x.manifold.name} point")
        return TangentVector(x, self.eval_raw(t, x.coords))

    def with_input_signal(self, signal: Callable[[float], np.ndarray]) -> "TimeVaryingField":
        """Close the input channel with a signal u(t), yielding f(t, x, u(t))."""
        if self.input_rhs is None:
            raise ValueError("field has no input channel")
        input_rhs = self.input_rhs

        def closed(t, coords: np.ndarray) -> np.ndarray:
            return input_rhs(t, coords, np.asarray(signal(t), dtype=float))

        return TimeVaryingField(self.manifold, closed)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled flow: strictly increasing times with on-manifold points."""

    manifold: Manifold
    times: np.ndarray
    points: np.ndarray  # shape (n,) + ambient_shape
    step: float

    def __post_init__(self):
        self.times.setflags(write=False)
        self.points.setflags(write=False)

    def __len__(self):
        return len(self.times)

    def distances_to(self, x: ManifoldPoint) -> np.ndarray:
        return self.manifold.dist(self.points, x.coords)


def _rk4_step(field: TimeVaryingField, t, x: np.ndarray, dt: float) -> np.ndarray:
    m = field.manifold
    t_mid = t + 0.5 * dt

    def stage(k, h, s):
        v = h * k
        end = m.geodesic(x, v)
        return m.transport_back(x, v, end, field.eval_raw(s, end))

    k1 = field.eval_raw(t, x)
    k2 = stage(k1, 0.5 * dt, t_mid)
    k3 = stage(k2, 0.5 * dt, t_mid)
    k4 = stage(k3, dt, t + dt)
    return m.exp(x, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def _check_finite(m: Manifold, x: np.ndarray, t):
    finite = np.isfinite(x)
    if not finite.all():
        row_ok = finite.all(axis=tuple(range(-len(m.ambient_shape), 0)))
        t_bad = np.broadcast_to(t, np.shape(row_ok))[~row_ok]
        raise IntegrationError("non-finite state during integration", float(np.ravel(t_bad)[0]))


def flow_samples(field: TimeVaryingField, t0, x0: np.ndarray, offsets: Sequence[float],
                 step: float = DEFAULT_STEP) -> np.ndarray:
    """Flow states at the elapsed times ``offsets`` after the start time ``t0``.

    ``x0`` holds one state or a batch ``(..., *ambient_shape)``; ``t0`` is a
    scalar or per-row start times.  All rows step together on one shared
    grid: each gap between consecutive offsets (nondecreasing, >= 0) is split
    into equal substeps no longer than ``step``, so the offsets are hit
    exactly.  Returns an array of shape ``(len(offsets),) + x0.shape``.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    nodes = [0.0]
    keep = []
    for s in offsets:
        s = float(s)
        gap = s - nodes[-1]
        if gap < -1e-12:
            raise ValueError("sample offsets must be nondecreasing and >= 0")
        if gap > 1e-15 * max(1.0, abs(s)):
            n_sub = max(1, math.ceil(gap / step - GRID_TOL))
            base = nodes[-1]
            nodes.extend(base + i * (gap / n_sub) for i in range(1, n_sub))
            nodes.append(s)
        keep.append(len(nodes) - 1)
    x = np.asarray(x0, dtype=float)
    states = [x]
    # A flow that blows up is reported by _check_finite, with its time.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for a, b in zip(nodes, nodes[1:]):
            x = _rk4_step(field, t0 + a, x, b - a)
            _check_finite(field.manifold, x, t0 + b)
            states.append(x)
    return np.stack([states[i] for i in keep])


def step_offsets(span: float, step: float) -> np.ndarray:
    """Elapsed grid 0, step, 2 step, ... ending on ``span`` exactly."""
    n = max(1, math.ceil(span / step - GRID_TOL)) if span > 0 else 0
    offsets = np.arange(n + 1) * step
    offsets[-1] = span
    return offsets


def _shared_span(t0, t1, message: str) -> float:
    """The common length of the rows' time intervals [t0, t1]."""
    spans = np.ravel(np.asarray(t1, dtype=float) - np.asarray(t0, dtype=float))
    if np.any(spans < 0):
        raise ValueError(message)
    span = float(spans.max())
    if np.any(spans < span - 1e-9 * max(1.0, span)):
        raise ValueError("batched rows must share one time span")
    return span


def flow(field: TimeVaryingField, t0, x0, t1, step: float = DEFAULT_STEP):
    """Numerical flow from (t0, x0) to t1, sampled at t0 + k*step and ending on t1.

    ``x0`` is a point, giving a :class:`Trajectory`, or a sequence of points
    with per-point ``t0`` and ``t1`` sharing one span, giving a list of
    trajectories integrated as one batch.
    """
    single = isinstance(x0, ManifoldPoint)
    points = [x0] if single else list(x0)
    if any(p.manifold != field.manifold for p in points):
        raise ManifoldMismatchError("initial condition manifold does not match the field")
    span = _shared_span(t0, t1, f"t1 must be >= t0, got [{t0}, {t1}]")
    if step <= 0:
        raise ValueError("step must be positive")
    m = field.manifold
    offsets = step_offsets(span, step)
    starts = np.broadcast_to(np.asarray(t0, dtype=float), (len(points),))
    ends = np.broadcast_to(np.asarray(t1, dtype=float), (len(points),))
    x = m.project(np.stack([p.coords for p in points]))
    pts = flow_samples(field, t0 if single else starts, x, offsets, step)
    trajectories = [Trajectory(m, np.append(start + offsets[:-1], end), pts[:, i], step)
                    for i, (start, end) in enumerate(zip(starts, ends))]
    return trajectories[0] if single else trajectories


def geodesic_stencil(m: Manifold, coords: np.ndarray, v: np.ndarray, eps_hat) -> np.ndarray:
    """exp_x(+eps_hat v) and exp_x(-eps_hat v), stacked on a new leading axis."""
    dv = m.rows(eps_hat) * v
    return np.stack([m.exp(coords, dv), m.exp(coords, -dv)])


def arc_stencil(m: Manifold, coords: np.ndarray, v: np.ndarray,
                eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row eps_hat = eps / |v| and the stencil exp_x(+/- eps_hat v) of arc length eps.

    A zero ``v`` keeps eps_hat = eps, so both stencil ends are x itself.
    """
    nv = m.norm(coords, v)
    eps_hat = eps / np.where(nv == 0.0, 1.0, nv)
    return eps_hat, geodesic_stencil(m, coords, v, eps_hat)


def pushforward_quotient(field: TimeVaryingField, t, coords: np.ndarray, v: np.ndarray,
                         eps_hat: np.ndarray, y0: np.ndarray, ends: np.ndarray,
                         offsets: Sequence[float], step: float) -> np.ndarray:
    """Pushforward components at the flowed base points ``y0``.

    ``ends`` is the :func:`arc_stencil` of (coords, v, eps_hat),
    flowed from the per-row times ``t`` over the elapsed grid ``offsets``;
    the difference of their logarithms at ``y0`` is divided by 2 eps_hat.
    Rows whose stencil ends within the cut margin of ``y0`` are rebuilt with
    eps_hat / 10 and flowed again alone, on the same grid, at most twice
    before a :class:`CutLocusError`.
    """
    m = field.manifold
    ends = np.array(ends)
    t_rows = np.broadcast_to(np.asarray(t, dtype=float), np.shape(eps_hat))
    zero = m.norm(coords, v) == 0.0
    bad = np.zeros(np.shape(eps_hat), dtype=bool)
    for attempt in range(3):
        if attempt:
            eps_hat = np.where(bad, 0.1 * eps_hat, eps_hat)
            retry = geodesic_stencil(m, coords[bad], v[bad], eps_hat[bad])
            ends[:, bad] = flow_samples(field, t_rows[bad], retry, offsets, step)[-1]
        bad = np.any(m.dist(y0, ends) > m.cut_locus_radius - CUT_MARGIN, axis=0)
        if not np.any(bad):
            w = (m.log(y0, ends[0]) - m.log(y0, ends[1])) / m.rows(2.0 * eps_hat)
            return np.where(m.rows(zero), 0.0, m.project_tangent(y0, w))
    raise CutLocusError("pushforward stencil kept hitting the cut locus", coords, y0)


def pushforward(field: TimeVaryingField, t, x: ManifoldPoint, v: TangentVector,
                tau, step: float = DEFAULT_STEP) -> TangentVector:
    """Flow pushforward of v under x -> phi(tau; t, x).

    The geodesic-variation central difference of :func:`pushforward_quotient`:
    the base point and its stencil of arc length PUSHFORWARD_EPS integrate as one
    batch over the step grid of [t, tau].  ``x`` and ``v`` may hold a batch
    of points (leading axes) with per-row ``t`` and ``tau`` sharing one span.
    Certificate verification runs the same stencil and quotient on V's
    quadrature-node flow.
    """
    span = _shared_span(t, tau, "tau must be >= t")
    if x.manifold != field.manifold:
        raise ManifoldMismatchError("point manifold does not match the field")
    if v.base.manifold != x.manifold or not np.array_equal(v.base.coords, x.coords):
        raise ManifoldMismatchError("tangent vector is not based at the given point")
    m = field.manifold
    if span == 0.0:
        return v
    eps_hat, stencil = arc_stencil(m, x.coords, v.components, PUSHFORWARD_EPS)
    offsets = step_offsets(span, step)
    start = np.concatenate([m.project(np.array(x.coords))[None], stencil])
    ends = flow_samples(field, t, start, offsets, step)[-1]
    w = pushforward_quotient(field, t, x.coords, v.components, eps_hat, ends[0], ends[1:],
                             offsets, step)
    return TangentVector(ManifoldPoint(m, ends[0]), w)


@dataclass(frozen=True, eq=False)
class Region:
    """Geodesic ball used for sampling-based estimation."""

    center: ManifoldPoint
    radius: float

    def sample(self, rng: np.random.Generator, on_boundary: bool = False) -> np.ndarray:
        m = self.center.manifold
        r = self.radius if on_boundary else self.radius * math.sqrt(rng.uniform(0.0, 1.0))
        v = m.random_tangent(rng, self.center.coords, norm=max(r, 1e-12))
        return m.exp(self.center.coords, v)


@dataclass(frozen=True, eq=False)
class LipschitzEstimate:
    """Sampled Lipschitz constants for a field on a region.

    ``transport_constant`` is the max of |P_p^q f(p) - f(q)| / d(p, q) over
    sampled pairs; ``covariant_constant`` is the max of |grad_v f| over
    sampled unit directions, by transport-corrected central differences.
    """

    transport_constant: float
    covariant_constant: float

    @property
    def combined(self) -> float:
        return max(self.transport_constant, self.covariant_constant)

    def inflated(self) -> float:
        """Estimate with the safety factor applied, as used in envelope checks."""
        return self.combined * LIPSCHITZ_SAFETY


def lipschitz_estimate(field: TimeVaryingField, region: Region,
                       t_samples: Sequence[float], n_pairs: int, seed: int) -> LipschitzEstimate:
    """Estimate the field's Lipschitz constant on a geodesic ball.

    Deterministic given the seed.  Half of the covariant-derivative sample
    points sit on the region boundary, where the covariant norm of the
    built-in attractors peaks.  Degenerate pairs (distance below 1e-10) are
    skipped.  Samples are drawn first; the field is then evaluated on all of
    them, at every sample time, in one call.
    """
    m = field.manifold
    if region.center.manifold != m:
        raise ManifoldMismatchError("region manifold does not match the field")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if not region.radius > 0:
        raise ValueError("region radius must be positive")
    if region.radius >= m.cut_locus_radius:
        raise ValueError("region radius must stay below the cut-locus radius")
    rng = np.random.default_rng(seed)
    t_list = np.asarray(list(t_samples) or [0.0], dtype=float)

    pairs = np.array([(region.sample(rng), region.sample(rng)) for _ in range(n_pairs)])
    d = m.dist(pairs[:, 0], pairs[:, 1])
    if not np.any(d >= 1e-10):
        raise ValueError("all sampled pairs were degenerate; enlarge the region")
    p, q, d = pairs[d >= 1e-10, 0], pairs[d >= 1e-10, 1], d[d >= 1e-10]
    x, v = [], []
    for i in range(n_pairs):
        x.append(region.sample(rng, on_boundary=(i % 2 == 0)))
        v.append(m.random_tangent(rng, x[-1], norm=1.0))
    x = np.array(x)
    x_plus, x_minus = geodesic_stencil(m, x, np.array(v), LIPSCHITZ_FD_STEP)

    # One field call: every sample point at every sample time (leading axis).
    points = np.concatenate([p, q, x_plus, x_minus])
    f = field.eval_raw(np.repeat(t_list, len(points)),
                       np.concatenate([points] * len(t_list))).reshape((len(t_list),) + points.shape)
    f_p, f_q, f_plus, f_minus = np.split(f, np.cumsum([len(p), len(q), len(x)]), axis=1)
    transport_max = float(np.max(m.norm(q, m.transport(p, q, f_p) - f_q) / d))
    dv = ((m.transport(x_plus, x, f_plus) - m.transport(x_minus, x, f_minus))
          / (2.0 * LIPSCHITZ_FD_STEP))
    covariant_max = float(np.max(m.norm(x, dv)))
    return LipschitzEstimate(transport_max, covariant_max)


@dataclass(frozen=True)
class ContractionRow:
    tau: float
    measured: float
    lower: float
    upper: float
    passed: bool
    flagged: bool  # pair came within the cut-locus margin; bound not certified


@dataclass(frozen=True)
class ContractionReport:
    """Two-sided exponential envelope check on one pair of initial states."""

    rows: tuple[ContractionRow, ...]
    worst_lower_margin: float
    worst_upper_margin: float
    passed: bool

    @property
    def flagged(self) -> bool:
        return any(r.flagged for r in self.rows)


def contraction_offsets(horizon: float, step: float) -> np.ndarray:
    """Elapsed times of the contraction check over ``horizon``.

    The step-grid offsets k * step nearest linspace(0, horizon, 7), none past
    the horizon and without repeats, so they are nodes of any flow on the
    step grid (such as the envelope fit's).  A horizon shorter than one step
    keeps [0, horizon], so that one offset is past the start.
    """
    last = math.floor(horizon / step + GRID_TOL)
    if last == 0:
        return np.array([0.0, horizon])
    k = np.minimum(np.rint(np.linspace(0.0, horizon, 7) / step), last)  # nondecreasing
    return k[np.diff(k, prepend=-1.0) > 0] * step


def contraction_envelope_check(field: TimeVaryingField, L: float,
                               x1: ManifoldPoint, x2: ManifoldPoint, t,
                               tau_grid: Sequence[float], step: float = DEFAULT_STEP,
                               slack: float = 1e-6):
    """Verify d0 e^{-L dt} <= d(phi, phi) <= d0 e^{L dt} along the flow.

    ``x1`` and ``x2`` may hold a batch of pairs (one leading axis) with
    per-pair start times ``t`` and one row of ``tau_grid`` per pair, all at
    the same offsets from their ``t``; the 2 x pairs states then integrate as
    one batch and one report per pair comes back.  The reports are those of
    :func:`contraction_report` on that flow.
    """
    m = field.manifold
    single = np.ndim(x1.coords) == len(m.ambient_shape)
    a, b = (x1.coords[None], x2.coords[None]) if single else (x1.coords, x2.coords)
    starts = np.broadcast_to(np.asarray(t, dtype=float), (len(a),))
    taus = np.sort(np.broadcast_to(np.asarray(tau_grid, dtype=float),
                                   (len(a), np.shape(tau_grid)[-1])), axis=-1)
    elapsed = taus - starts[:, None]
    if np.any(elapsed[:, 0] < 0):
        raise ValueError("tau grid must start at or after t")
    offsets = elapsed[0]
    if np.any(np.abs(elapsed - offsets) > 1e-9 * max(1.0, float(offsets[-1]))):
        raise ValueError("batched pairs must share one tau grid relative to their t")
    ends = flow_samples(field, starts, np.stack([a, b]), offsets, step)
    reports = contraction_report(m, L, taus, offsets, m.dist(a, b), ends, slack)
    return reports[0] if single else reports


def contraction_report(m: Manifold, L: float, taus: np.ndarray, offsets: np.ndarray,
                       d0: np.ndarray, ends: np.ndarray,
                       slack: float = 1e-6) -> list[ContractionReport]:
    """One :class:`ContractionReport` per pair from its flowed states.

    ``ends`` holds both states of every pair at each elapsed offset, shape
    ``(len(offsets), 2, pairs, *ambient_shape)``; ``taus`` gives each pair's
    row times and ``d0`` its starting distance.  The multiplicative slack
    absorbs integrator error.  Rows whose pair drifts within the cut-locus
    margin are flagged rather than failed, since the two-sided bound presumes
    a smoothly varying minimizing geodesic.
    """
    d = np.moveaxis(m.dist(ends[:, 0], ends[:, 1]), 0, -1)       # (pairs, taus)
    lower = d0[:, None] * np.exp(-L * offsets)
    upper = d0[:, None] * np.exp(L * offsets)
    flagged = math.isfinite(m.cut_locus_radius) & (d >= m.cut_locus_radius - CUT_FLAG_MARGIN)
    ok = (d * (1.0 + slack) >= lower) & (d <= upper * (1.0 + slack))
    # Margins count from tau > t: at tau = t both bounds equal d0, a margin of the slack.
    later = (offsets > 0) & (lower > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lower_margin = np.where(later, d * (1.0 + slack) / lower - 1.0, math.inf)
        upper_margin = np.where(later & (d > 0), upper * (1.0 + slack) / d - 1.0, math.inf)
    worst_lower, worst_upper = (np.where(np.isfinite(w), w, 0.0) for w in
                                (lower_margin.min(axis=-1), upper_margin.min(axis=-1)))
    reports = []
    for i in range(len(d0)):
        rows = map(ContractionRow, taus[i].tolist(), d[i].tolist(), lower[i].tolist(),
                   upper[i].tolist(), ok[i].tolist(), flagged[i].tolist())
        reports.append(ContractionReport(tuple(rows), float(worst_lower[i]),
                                         float(worst_upper[i]), bool(np.all(ok[i] | flagged[i]))))
    return reports


def lie_stencil(field: TimeVaryingField, t, coords: np.ndarray, h: float,
                step: float) -> np.ndarray:
    """Flow states at t + h and, integrating backward in time, at t - h.

    Both directions run as one batch; returns shape ``(2,) + coords.shape``.
    ``t`` is a scalar or per-row times.  The Lie derivative of V at (t, x) is
    the central difference (V(t + h, end+) - V(t - h, end-)) / 2h.
    """
    m = field.manifold
    lead = np.ndim(coords) - len(m.ambient_shape)
    sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * lead)

    def rhs(s, X):
        return m.rows(sign) * field.rhs(np.where(sign > 0, s, 2.0 * t - s), X)

    both = TimeVaryingField(m, rhs)
    return flow_samples(both, t, np.stack([coords, coords]), [h], step)[-1]

