"""Stability-envelope fitting and inequality certification.

This module fits exponential / sampled decay envelopes from trajectory batches,
verifies every inequality carried by a constructed certificate (two-sided contraction envelope, sandwich bounds,
decay rate, telescoped decay step, differential and pushforward bounds), and
executes the disturbance robustness check.  Every report row carries a
stable anchor string from the fixed checklist so failures are nameable.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .flows import (
    DEFAULT_STEP,
    GRID_TOL,
    PUSHFORWARD_EPS,
    DenseFlow,
    Region,
    TimeVaryingField,
    arc_stencil,
    contraction_report,
    flow_samples,
    pushforward_quotient,
)
from .lyapunov import (
    DIFF_EPS,
    LyapunovFunction,
    TheoreticalBounds,
    construct_exp_V,
    theoretical_bounds,
)
from .manifolds import Manifold, ManifoldPoint

# Fixed anchor checklist for certification reports.  The first five appear in
# converse-certificate reports, the last two in robustness reports; together
# they are exactly the certified inequality set.
ANCHOR_CONTRACTION = "contraction-envelope"
ANCHOR_SANDWICH = "sandwich-bounds"
ANCHOR_DECAY = "lie-decay"
ANCHOR_TELESCOPE = "telescoping-identity"
ANCHOR_DIFFERENTIAL = "differential-bound"
ANCHOR_ISS_POINTWISE = "iss-pointwise-decay"
ANCHOR_ISS_ULTIMATE = "iss-ultimate-bound"
CERTIFICATE_CHECKLIST = frozenset({
    ANCHOR_CONTRACTION, ANCHOR_SANDWICH, ANCHOR_DECAY, ANCHOR_TELESCOPE,
    ANCHOR_DIFFERENTIAL, ANCHOR_ISS_POINTWISE, ANCHOR_ISS_ULTIMATE,
})
# Stage anchors named by pipeline failures before any certificate exists.
ANCHOR_ENVELOPE_FIT = "les-envelope-fit"
ANCHOR_HORIZON = "les-horizon"

REL_TOL = 0.02          # relative slack of the sandwich, decay and differential rows
ABS_TOL = 1e-6          # absolute slack of the decay and ISS rows
PUSHFORWARD_TOL = 1e-3
TRAJ_TOL = 0.05         # relative slack of the ISS ultimate bound
MIN_RATE = 1e-3         # slowest decay rate an exponential fit accepts
MAX_LOG_RESIDUAL = 0.05  # largest log residual an exponential fit accepts outright
FLOOR_FACTOR = 1e10     # rounding_floor in roundings of x*


class EnvelopeFitError(ValueError):
    """Trajectory data does not support the requested envelope class."""


class InputBoundError(ValueError):
    """A disturbance signal violated its declared bound."""


@dataclass(frozen=True)
class CheckRow:
    """One certified inequality: theory vs. measurement with its margin."""

    name: str
    anchor: str
    theoretical: float
    measured: float
    margin: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name, "anchor": self.anchor,
            "theory": float(self.theoretical), "measured": float(self.measured),
            "margin": float(self.margin), "pass": bool(self.passed),
        }


@dataclass(frozen=True)
class CertificationReport:
    """Collection of check rows; the verdict is their conjunction.

    Converse-certificate verification also attaches the quantities of its
    state grid, one row per state with columns (t, distance, V, lie
    derivative).
    """

    rows: tuple[CheckRow, ...]
    samples: np.ndarray | None = dataclasses.field(default=None, compare=False)

    @property
    def verdict(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def anchors(self) -> set[str]:
        return {r.anchor for r in self.rows}

    def row(self, name: str) -> CheckRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "rows": [r.to_dict() for r in self.rows]}

    def to_text(self) -> str:
        header = (f"{'name':<26} {'anchor':<24} {'theory':>12} "
                  f"{'measured':>12} {'margin':>11} {'pass':>5}")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.name:<26} {r.anchor:<24} {r.theoretical:>12.6g} "
                f"{r.measured:>12.6g} {r.margin:>11.4g} {str(r.passed):>5}")
        lines.append(f"verdict: {'PASS' if self.verdict else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _upper_row(name: str, anchor: str, bound: float, measured: float,
               scale: float | None = None) -> CheckRow:
    """Row for a one-sided check ``measured <= bound`` with relative margin."""
    s = scale if scale is not None else max(abs(bound), 1e-12)
    margin = (bound - measured) / s
    return CheckRow(name, anchor, bound, measured, margin, margin >= 0.0)


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for certification grids.

    Uniformity in the start time is probed by cycling through ``t0_list``
    rather than assumed; radii spread over the sampling ball, bounded away
    from the equilibrium so relative checks stay well-conditioned.
    """

    n_points: int
    radius: float
    t0_list: tuple[float, ...] = (0.0, 1.0, math.e, 10.0)

    def __post_init__(self):
        if self.n_points < 1 or self.radius <= 0 or not self.t0_list:
            raise ValueError("grid needs n_points >= 1, radius > 0 and start times")


def sample_states(manifold: Manifold, x_star: ManifoldPoint, grid: GridSpec,
                  rng: np.random.Generator,
                  r_min_frac: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """``grid.n_points`` start times ``t`` (cycling through ``t0_list``) and
    states ``x`` at radii in [r_min_frac, 1] * radius from ``x_star``."""
    v = manifold.random_tangents(
        rng, x_star.coords, grid.n_points,
        lambda: grid.radius * (r_min_frac + (1.0 - r_min_frac) * rng.uniform()))
    return np.resize(grid.t0_list, grid.n_points), manifold.exp(x_star.coords, v)


# -- envelope fitting -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StabilityEnvelope:
    """Fitted stability classification of a batch of trajectories.

    ``stability_class`` is one of "LES", "UAS", "US".  For LES fits the data
    is dominated pointwise by K e^{-rate s} d0, with K >= 1.  Every class
    carries the decay profile g(s) = beta(region_radius, s) at ``decay_times``:
    nonincreasing, and dominating every trajectory of the batch.
    """

    stability_class: str
    K: float | None
    rate: float | None
    decay_times: np.ndarray
    decay_values: np.ndarray
    fit_residual: float
    region_radius: float
    n_samples: int

    @property
    def is_exponential(self) -> bool:
        return self.stability_class == "LES"

    def to_json(self) -> dict:
        return {
            "stability_class": self.stability_class,
            "K": self.K,
            "rate": self.rate,
            "fit_residual": self.fit_residual,
            "region_radius": self.region_radius,
            "n_samples": self.n_samples,
        }


def _pooled_rate(elapsed: np.ndarray, logs: np.ndarray) -> tuple[float, float, float]:
    """Least-squares rate for log(d/d0) ~ a - rate * s, with the fit residual."""
    design = np.stack([np.ones_like(elapsed), -elapsed], axis=1)
    (a, rate), *_ = np.linalg.lstsq(design, logs, rcond=None)
    residual = float(np.sqrt(np.mean((design @ np.array([a, rate]) - logs) ** 2)))
    return float(a), float(rate), residual


def _chord_slack(s: np.ndarray, y: np.ndarray, resolution: float) -> np.ndarray:
    """How far each column of y may rise above its samples' chords on a grid of
    step ``resolution``: 0 if the samples ``s`` are that fine, else gap^2 / 8
    times the column's most concave second difference."""
    gaps = np.diff(s)
    if len(s) < 3 or gaps.max() <= resolution * (1.0 + GRID_TOL):
        return np.zeros(y.shape[1])
    bend = 2.0 * np.diff(np.diff(y, axis=0) / gaps[:, None], axis=0) / (s[2:] - s[:-2])[:, None]
    return gaps.max() ** 2 / 8.0 * np.maximum(0.0, -bend.min(axis=0))


def rounding_floor(m: Manifold, x_star: np.ndarray) -> float:
    """FLOOR_FACTOR times the longest Riemannian length at ``x_star`` of one rounding of one
    ambient coordinate, eps max(1, |x*|_inf) (calibration in README, "Internal stage steps")."""
    eps = np.finfo(float).eps * max(1.0, float(np.max(np.abs(x_star))))
    axes = np.eye(x_star.size).reshape((x_star.size,) + m.ambient_shape)
    return FLOOR_FACTOR * eps * float(np.max(m.norm(x_star, m.project_tangent(x_star, axes))))


def classify_stability(elapsed: np.ndarray, d: np.ndarray, resolution: float,
                       floor: float = 0.0) -> StabilityEnvelope:
    """Classify a trajectory batch: LES fit first, sampled decay profile otherwise.

    ``d`` holds the distances to x* of each trajectory (a column) at the times
    ``elapsed`` since its start; columns that start at x* (or below ``floor``, a
    :func:`rounding_floor`) are dropped, and so are the times from the first below it.  The
    LES fit is K e^{-rate s} d0 over the batch.  A pooled least-squares fit of
    log(d/d0) against elapsed time gives the rate; K is then inflated
    minimally so the envelope dominates every sample exactly (which also
    forces K >= 1, since the start sample has ratio one).  Samples coarser than
    ``resolution`` add the :func:`_chord_slack` of log d to log K (of d to each
    column of the profile), so the envelope bounds the flow on that step's grid.
    The fit is accepted when the rate reaches MIN_RATE and the log residual
    stays below MAX_LOG_RESIDUAL, or, for decay with a bounded oscillation
    (time-varying gains), when the rate is stable between the early and late
    halves of the data; genuinely sub-exponential decay fails both, since its
    log slope collapses with time.  Rejected data falls back to a sampled
    profile: UAS when the batch still decays, US when it is merely bounded.
    """
    d = d[:, d[0] >= max(1e-9, floor)]
    if d.shape[1] == 0:
        raise EnvelopeFitError(f"no trajectory starts {max(1e-9, floor):.3g} or more from x*")
    n = int(np.argmax(np.any(d < floor, axis=1))) or len(d)
    if n < 2:
        raise EnvelopeFitError(f"trajectories fall below the rounding floor {floor:.3g} at once")
    elapsed, d = elapsed[:n], d[:n]
    d0 = d[0]
    s_all = np.tile(elapsed, d.shape[1])
    logs = np.log(np.maximum(d, 1e-300) / d0).T.ravel()
    _, rate, residual = _pooled_rate(s_all, logs)

    mid = 0.5 * float(elapsed[-1])
    early = s_all <= mid
    late = ~early
    rate_stable = False
    if early.sum() >= 4 and late.sum() >= 4:
        _, rate_early, _ = _pooled_rate(s_all[early], logs[early])
        _, rate_late, _ = _pooled_rate(s_all[late], logs[late])
        rate_stable = rate_late >= max(MIN_RATE, 0.5 * rate_early) and residual <= 2.0

    r_max = float(d0.max())
    s_grid = np.linspace(0.0, float(elapsed[-1]), 129)

    if rate >= MIN_RATE and (residual <= MAX_LOG_RESIDUAL or rate_stable):
        slack = _chord_slack(elapsed, np.log(np.maximum(d, 1e-300)), resolution)
        K = float(np.max(np.exp(slack) * np.max(d / (d0 * np.exp(-rate * elapsed)[:, None]),
                                                 axis=0)))
        return StabilityEnvelope("LES", K, rate, s_grid, r_max * (K * np.exp(-rate * s_grid)),
                                 residual, r_max, d.shape[1])

    # Slow (e.g. cubic) decay barely moves small starts over a short horizon,
    # so the decaying / merely-bounded split sits near one, not at one half.
    stability_class = "UAS" if float(np.max(d[-1] / d0)) < 0.9 else "US"
    slack = _chord_slack(elapsed, d, resolution)
    top = np.max([np.interp(s_grid, elapsed, col) + c for col, c in zip(d.T, slack)], axis=0)
    profile = np.maximum.accumulate(top[::-1])[::-1]
    return StabilityEnvelope(stability_class, None, None, s_grid, profile,
                             residual, r_max, d.shape[1])


# -- converse certificate verification -------------------------------------------


@dataclass(frozen=True, eq=False)
class Certificate:
    """Constructed certificate bundle: the function, its constants, inputs."""

    V: LyapunovFunction
    bounds: TheoreticalBounds
    envelope: StabilityEnvelope

    def to_json(self) -> dict:
        return {
            "mode": self.V.mode,
            "delta": self.V.horizon,
            "p": self.V.p,
            "constants": self.bounds.as_dict(),
            "tail_bound": self.V.tail_bound,
        }


def make_certificate(field: TimeVaryingField, x_star: ManifoldPoint, L: float,
                     envelope: StabilityEnvelope, delta: float, p: float,
                     step: float = DEFAULT_STEP) -> Certificate:
    """Assemble the certificate; rejects horizons with K' <= 0 up front."""
    if not envelope.is_exponential:
        raise EnvelopeFitError(
            f"certificate requires an exponential envelope, got {envelope.stability_class}")
    bounds = theoretical_bounds(L, envelope.K, envelope.rate, delta, p)
    V = construct_exp_V(field, x_star, delta, p, step=step)
    return Certificate(V, bounds, envelope)


@dataclass(frozen=True)
class VerificationInputs:
    """The seeded draws of one verification, in the order they are drawn:
    the grid states (``t``, ``x``), the contraction pairs (start times
    ``pair_t``; ``pair_x`` stacks the pairs' first and second states, shape
    ``(2, pairs, *ambient_shape)``) and one unit direction per state.  Then
    V's rows (``v_t``, ``v_x``): the states, their :func:`arc_stencil` of arc
    DIFF_EPS along the directions (``diff_eps_hat``), and that of arc
    PUSHFORWARD_EPS of the first ten states (``push_eps_hat``)."""

    t: np.ndarray
    x: np.ndarray
    pair_t: np.ndarray
    pair_x: np.ndarray
    directions: np.ndarray
    v_t: np.ndarray
    v_x: np.ndarray
    diff_eps_hat: np.ndarray
    push_eps_hat: np.ndarray

    @property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Start times and states of the flow :func:`verify_converse_certificate` reads:
        V's rows, then the pairs' first states, then their second states."""
        return (np.concatenate([self.v_t, self.pair_t, self.pair_t]),
                np.concatenate([self.v_x, *self.pair_x]))


def draw_verification_inputs(m: Manifold, x_star: ManifoldPoint, grid: GridSpec,
                             seed: int) -> VerificationInputs:
    """Everything :func:`verify_converse_certificate` samples, drawn up front."""
    rng = np.random.default_rng(seed)
    t, x = sample_states(m, x_star, grid, rng)
    n_pairs = max(4, grid.n_points // 4)
    v = m.random_tangents(rng, x_star.coords, 2 * n_pairs,
                          lambda: grid.radius * rng.uniform(0.1, 1.0))
    pair_x = m.exp(x_star.coords, v).reshape((n_pairs, 2) + m.ambient_shape).swapaxes(0, 1)
    directions = m.tangent_map(rng, x, rng.standard_normal(x.shape), 1.0)
    diff_eps_hat, diff = arc_stencil(m, x, directions, DIFF_EPS)
    n_push = min(10, len(x))
    push_eps_hat, push = arc_stencil(m, x[:n_push], directions[:n_push], PUSHFORWARD_EPS)
    return VerificationInputs(t, x, np.resize(grid.t0_list, n_pairs), pair_x, directions,
                              np.concatenate([t, t, t, t[:n_push], t[:n_push]]),
                              np.concatenate([x, *diff, *push]), diff_eps_hat, push_eps_hat)


def verify_converse_certificate(cert: Certificate, inputs: VerificationInputs,
                                flow: DenseFlow, offsets: np.ndarray) -> CertificationReport:
    """Verify every inequality of a constructed exponential certificate.

    Rows: the two-sided contraction envelope on sampled pairs, the sandwich
    c1 d^p <= V <= c2 d^p, the decay rate c3 of LV (the flow-integral identity
    LV = d(phi(t + delta))^p - d^p), the telescoped decay step d(phi(t +
    delta))^p <= (1 - K') d^p, the differential bound c4, and the pushforward
    growth bound, within REL_TOL (and ABS_TOL on the decay).  The field, equilibrium,
    step, p, L and delta are the certificate's; the samples are ``inputs``,
    from :func:`draw_verification_inputs`.  Everything is read from ``flow``, one
    :class:`DenseFlow` of ``inputs.rows`` (the pipeline's is the envelope fit's, continued
    past its span if delta lies beyond): the pairs at the elapsed ``offsets``
    (:func:`contraction_offsets`), and V's rows through :meth:`LyapunovFunction.quadrature`,
    which gives V, LV and the states at t + delta, where the telescoped step and the
    pushforward are based (its cut-locus retries flow to delta at V's step).
    """
    V, b = cert.V, cert.bounds
    field, x_star, p, delta, L = V.field, V.x_star, V.p, V.horizon, b.L
    m = field.manifold
    n_v = len(inputs.v_x)

    # Two-sided contraction envelope on sampled pairs.
    pair_states = flow.take(slice(n_v, None))(offsets).reshape(
        (len(offsets), 2, -1) + m.ambient_shape)
    lower, upper, passed, _ = contraction_report(m, L, offsets, m.dist(*inputs.pair_x),
                                                 pair_states)
    contraction_margin = float(min(lower.min(), upper.min()))
    contraction_pass = bool(passed.all())
    rows = [CheckRow("contraction-envelope", ANCHOR_CONTRACTION, 0.0,
                     -contraction_margin, contraction_margin, contraction_pass)]

    t, x, directions = inputs.t, inputs.x, inputs.directions
    n, n_push = len(x), len(inputs.push_eps_hat)
    d = m.dist(x, x_star.coords)
    # V's rows: the three V groups (states and the differential stencil), then the
    # pushforward stencil rows.
    values, lies, ends = V.quadrature(flow.take(slice(0, n_v)))
    (v_val, v_dplus, v_dminus), lie = np.split(values[:3 * n], 3), lies[:n]
    end = ends[:n]  # the flow at t + delta

    ratio = v_val / d ** p
    ratio_lo = float(np.min(ratio))
    ratio_hi = float(np.max(ratio))
    rate_lo = float(np.min((-lie + ABS_TOL) / np.maximum(v_val, 1e-300)))
    step_ratio = float(np.max(m.dist(end, x_star.coords) ** p / d ** p))
    lo_margin = ratio_lo / b.c1 - (1.0 - REL_TOL)
    hi_margin = (1.0 + REL_TOL) - ratio_hi / b.c2
    decay_margin = rate_lo / b.c3 - (1.0 - REL_TOL)
    step_margin = (1.0 + REL_TOL) - step_ratio / (1.0 - b.K_prime)
    rows.append(CheckRow("sandwich-lower", ANCHOR_SANDWICH, b.c1, ratio_lo,
                         lo_margin, lo_margin >= 0.0))
    rows.append(CheckRow("sandwich-upper", ANCHOR_SANDWICH, b.c2, ratio_hi,
                         hi_margin, hi_margin >= 0.0))
    rows.append(CheckRow("lie-decay", ANCHOR_DECAY, b.c3, rate_lo,
                         decay_margin, decay_margin >= 0.0))
    rows.append(CheckRow("telescoping-identity", ANCHOR_TELESCOPE, 1.0 - b.K_prime,
                         step_ratio, step_margin, step_margin >= 0.0))

    # Differential bound |dV(v)| <= c4 d^{p-1}|v| on the unit directions.
    dv = (v_dplus - v_dminus) / (2.0 * inputs.diff_eps_hat)
    diff_worst = float(np.max(np.abs(dv) / (b.c4 * d ** (p - 1.0))))
    rows.append(_upper_row("differential-bound", ANCHOR_DIFFERENTIAL,
                           1.0 + REL_TOL, diff_worst, 1.0))

    # Pushforward of the first directions to t + delta, based at their states' ends.
    y0 = end[:n_push]
    pushed = pushforward_quotient(
        field, t[:n_push], x[:n_push], directions[:n_push], inputs.push_eps_hat, y0,
        ends[3 * n:].reshape((2, n_push) + m.ambient_shape), delta, V.step)
    push_worst = float(np.max(m.norm(y0, pushed))) / math.exp(L * delta)
    rows.append(_upper_row("pushforward-growth", ANCHOR_DIFFERENTIAL,
                           1.0 + PUSHFORWARD_TOL, push_worst, 1.0))

    samples = np.stack([t, d, v_val, lie], axis=1)
    return CertificationReport(tuple(rows), samples=samples)


# -- disturbance robustness -------------------------------------------------------


def input_lipschitz_estimate(field: TimeVaryingField, region: Region,
                             u_samples: Sequence[np.ndarray], seed: int = 0) -> float:
    """Max of |f(t, x, u) - f(t, x, 0)| / |u| over sampled states and inputs.

    The states are 24 draws from the region, the times t = 0 and 1.
    Riemannian norm on the field difference, Euclidean norm on the input;
    deterministic given the seed.
    """
    if field.input_rhs is None:
        raise ValueError("field has no input channel")
    m = field.manifold
    us = [np.asarray(u, dtype=float) for u in u_samples]
    us = [u for u in us if float(np.linalg.norm(u)) > 0.0]
    if not us:
        raise ValueError("all input samples are zero")
    rng = np.random.default_rng(seed)
    x = region.samples(rng, 24)
    u = np.array(us)
    times = np.array([0.0, 1.0])
    # Rows: every (state, input, time) triple, forced and unforced in one call.
    rows_x = np.repeat(x, len(u) * len(times), axis=0)
    rows_u = np.tile(np.repeat(u, len(times), axis=0), (len(x), 1))
    rows_t = np.tile(times, len(x) * len(u))
    forced, free = field.input_rhs(rows_t, np.stack([rows_x, rows_x]),
                                   np.stack([rows_u, np.zeros_like(rows_u)]))
    diff = m.project_tangent(rows_x, forced - free)
    return float(np.max(m.norm(rows_x, diff) / np.linalg.norm(rows_u, axis=-1)))


@dataclass(frozen=True)
class ISSReport:
    """Robustness outcome: pointwise decay bound and ultimate trajectory bound,
    with the (t, distance, V, |u|) rows of the series trajectory."""

    c3: float
    c4: float
    input_lipschitz: float
    input_bound: float
    predicted_v_bound: float
    measured_v_limsup: float
    measured_d_limsup: float
    ultimate_distance_bound: float
    rows: tuple[CheckRow, ...]
    series: np.ndarray = dataclasses.field(compare=False)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def anchors(self) -> set[str]:
        return {r.anchor for r in self.rows}

    def to_dict(self) -> dict:
        return {
            "c3": self.c3, "c4": self.c4,
            "input_lipschitz": self.input_lipschitz,
            "input_bound": self.input_bound,
            "predicted_v_bound": self.predicted_v_bound,
            "measured_v_limsup": self.measured_v_limsup,
            "measured_d_limsup": self.measured_d_limsup,
            "ultimate_distance_bound": self.ultimate_distance_bound,
            "pass": self.passed,
            "rows": [r.to_dict() for r in self.rows],
        }

    def to_text(self) -> str:
        head = (f"predicted V bound: {self.predicted_v_bound:.6g}   "
                f"measured limsup V: {self.measured_v_limsup:.6g}   "
                f"measured limsup d: {self.measured_d_limsup:.6g}   "
                f"ultimate distance bound: {self.ultimate_distance_bound:.6g}\n")
        return head + CertificationReport(self.rows).to_text()


def _input_values(signal: Callable[[float], np.ndarray], times: np.ndarray) -> np.ndarray:
    """u at every time in one call, one row per time (a constant signal broadcasts)."""
    u = np.asarray(signal(times), dtype=float)
    return np.broadcast_to(u, np.shape(times) + u.shape[-1:])


def check_input_signal(signal: Callable[[float], np.ndarray], bound: float,
                       horizon: float) -> float:
    """Scan |u(t)| on 512 times over [0, horizon]; raise if the declared bound is violated."""
    sup = float(np.max(np.linalg.norm(_input_values(signal, np.linspace(0.0, horizon, 512)),
                                      axis=-1)))
    if sup > bound * (1.0 + 1e-9) + 1e-15:
        raise InputBoundError(
            f"disturbance reaches |u| = {sup:.6g}, above the declared bound {bound:.6g}")
    return sup


def iss_series_start(m: Manifold, x_star: np.ndarray, radius: float, seed: int) -> np.ndarray:
    """:func:`iss_certify`'s series start: a ``seed + 4`` draw at ``radius``."""
    return m.exp(x_star, m.random_tangent(np.random.default_rng(seed + 4), x_star, norm=radius))


def iss_certify(certificate: Certificate, input_signal: Callable[[float], np.ndarray],
                input_bound: float, horizons: Sequence[float], seed: int,
                grid: GridSpec, step: float) -> ISSReport:
    """Certify disturbance robustness of a verified exponential certificate.

    The field (with its input channel) and the equilibrium are V's.
    (a) pointwise: along the disturbed flow, the lie derivative of V stays
    below -c3 V + c4 L_u |u|_inf within REL_TOL (measured: the worst LV + c3 V),
    LV being V's flow-integral identity plus dV(w) for the disturbance's part w
    of the closed field, by a geodesic difference of arc length DIFF_EPS;
    (b) trajectory: tail suprema of V over each horizon stay below
    c4 L_u |u|_inf / c3 within TRAJ_TOL (plus the comparison-equation
    transient, which also covers the unforced |u|_inf = 0 case).  The
    ultimate distance bound follows through c1.  The trajectories of (b)
    integrate in one batched flow at ``step``; a series trajectory,
    started at the radius from a ``seed + 4`` draw, joins it and is sampled at
    t = k / 10 (exact decimals) up to the longest horizon.  Every V of (a), (b) and the series
    comes from one batched evaluation.  The caller scans the signal over [0,
    max(horizons) + max(grid.t0_list)] with :func:`check_input_signal`.
    """
    V, b = certificate.V, certificate.bounds
    field, x_star, m = V.field, V.x_star, V.field.manifold
    if field.input_rhs is None:
        raise ValueError("field has no input channel")
    if input_bound < 0:
        raise ValueError("input bound must be nonnegative")
    rng = np.random.default_rng(seed)

    max_horizon = max(horizons)
    region = Region(x_star, grid.radius)
    u_probe = list(_input_values(input_signal, np.linspace(0.0, max_horizon, 16)))
    u_probe.extend(rng.uniform(-max(input_bound, 1.0), max(input_bound, 1.0),
                               size=u_probe[0].shape) for _ in range(8))
    L_u = input_lipschitz_estimate(field, region, u_probe, seed=seed)

    closed = field.with_input_signal(input_signal)
    forcing = b.c4 * L_u * input_bound
    predicted = forcing / b.c3

    # (a) pointwise decay inequality on the sampled grid.
    t, x = sample_states(m, x_star, grid, rng)
    w = m.project_tangent(x, closed.eval_raw(t, x) - field.eval_raw(t, x))
    eps_hat, (plus, minus) = arc_stencil(m, x, w, DIFF_EPS)

    # (b) ultimate bound along disturbed trajectories: one flow from t = 0
    # through the union of every horizon's tail times and the series grid.
    starts = m.exp(x_star.coords, m.random_tangents(rng, x_star.coords, 3, lambda: grid.radius))
    tails = [np.arange(0.6 * horizon, horizon + 1e-9, 0.25) for horizon in horizons]
    series_t = np.arange(10.0 * max_horizon + 1e-6) / 10.0
    offsets = np.sort(np.concatenate(tails + [series_t]))  # a repeated time adds no step
    x0 = np.concatenate([starts, iss_series_start(m, x_star.coords, grid.radius, seed)[None]])
    pts = flow_samples(closed, 0.0, x0, offsets, step)
    n = len(starts)
    groups = [(0.0, starts)] + [(np.repeat(ts, n), pts[np.searchsorted(offsets, ts), :n])
                                for ts in tails]
    measured_d = max(float(np.max(m.dist(xs, x_star.coords))) for _, xs in groups[1:])
    series_x = pts[np.searchsorted(offsets, series_t), n]
    # Every V of both parts in one batch: (a)'s states and dV(w) stencil first.
    (v_val, v_plus, v_minus, v_starts, *v_tails, v_series), (lie, *_) = V.evaluate_groups(
        [(t, x), (t, plus), (t, minus)] + groups + [(series_t, series_x)])
    lie = lie + (v_plus - v_minus) / (2.0 * eps_hat)
    bound_val = -b.c3 * v_val + forcing
    scale = b.c3 * v_val + forcing + ABS_TOL
    worst_pointwise = float(np.min((bound_val + REL_TOL * scale + ABS_TOL - lie) / scale))
    rows = [CheckRow("iss-pointwise-decay", ANCHOR_ISS_POINTWISE, forcing,
                     float(np.max(lie + b.c3 * v_val)), worst_pointwise, worst_pointwise >= 0.0)]

    v0_max = float(np.max(v_starts))
    measured_limsup = max(float(np.max(v)) for v in v_tails)
    # Comparison equation: V(t) <= V0 e^{-c3 t} + predicted; the transient term
    # keeps the check meaningful for small or zero input bounds.
    transient = v0_max * math.exp(-b.c3 * (1.0 - REL_TOL) * 0.6 * min(horizons))
    allowed = predicted * (1.0 + TRAJ_TOL) + transient
    scale = max(allowed, ABS_TOL)
    traj_margin = (allowed - measured_limsup) / scale
    rows.append(CheckRow("iss-ultimate-bound", ANCHOR_ISS_ULTIMATE,
                         predicted, measured_limsup, traj_margin, traj_margin >= 0.0))

    ultimate_d = (max(predicted, 0.0) * (1.0 + TRAJ_TOL) / b.c1) ** (1.0 / b.p) \
        if predicted > 0 else 0.0
    series = np.stack([series_t, m.dist(series_x, x_star.coords), v_series,
                       np.linalg.norm(_input_values(input_signal, series_t), axis=-1)], axis=1)
    return ISSReport(b.c3, b.c4, L_u, input_bound, predicted, measured_limsup,
                     measured_d, ultimate_d, tuple(rows), series)


# -- geometry property suite -------------------------------------------------------


def run_geometry_suite(manifold: Manifold, seed: int, n: int,
                       inject_fault: bool = False) -> CertificationReport:
    """Property suite over the geometry kernel.

    Rows: exp/log round trips, transport isometry, triangle inequality,
    distance vs. extrapolated arc length, the first variation of distance's
    order of convergence, and constraint drift after projection.
    ``inject_fault`` deliberately skips the renormalization step of the round
    trip (test hook for the failure path).
    """
    rng = np.random.default_rng(seed)
    m = manifold
    reach = min(m.cut_locus_radius * 0.45, 1.5)

    # Draw each sample's variates as random_point and five random_tangent calls
    # draw them; map each stack in one batch.  Each check runs on whole stacks.
    points = np.empty((n,) + m.point_variates)
    normals = np.empty((n, 5) + m.ambient_shape)  # v, to_z, u1, u2, to_w
    lengths = np.empty((n, 3))  # of v, to_z, to_w
    for i in range(n):
        m.draw_point(rng, points[i])
        lengths[i, 0] = reach * rng.uniform(0.05, 1.0)
        rng.standard_normal(out=normals[i, 0])
        lengths[i, 1] = reach * rng.uniform(0.05, 1.0)
        rng.standard_normal(out=normals[i, 1:4])
        lengths[i, 2] = reach * rng.uniform(0.05, 1.0)
        rng.standard_normal(out=normals[i, 4])
    x = m.project(m.point_map(points))
    v, to_z, u1, u2, to_w = (m.tangent_map(rng, x, normals[:, k], norm) for k, norm in
                             enumerate((lengths[:, 0], lengths[:, 1], 1.0, 1.0, lengths[:, 2])))
    y = m.exp(x, v)
    if inject_fault:
        y = y + 1e-6  # simulated broken renormalization
    drift_worst = float(np.max(m.constraint_violation(y)))
    roundtrip_worst = float(np.max(m.norm(x, m.log(x, y) - v)))
    z = m.exp(x, to_z)
    before = m.inner(x, u1, u2)
    after = m.inner(z, m.transport(x, z, u1), m.transport(x, z, u2))
    isometry_worst = float(np.max(np.abs(after - before)))
    w = m.exp(x, to_w)
    triangle_worst = float(np.max(m.dist(x, w) - (m.dist(x, z) + m.dist(z, w))))

    # Distance vs. Richardson-extrapolated geodesic arc length.
    arc_worst = 0.0
    for _ in range(8):
        x = m.project(m.random_point(rng))
        v = m.random_tangent(rng, x, norm=reach * rng.uniform(0.3, 1.0))
        y = m.exp(x, v)
        d = m.dist(x, y)
        vlog = m.log(x, y)

        def chord_sum(k):
            pts = m.exp(x, m.rows(np.arange(k + 1) / k) * vlog)
            return float(np.sum(m.dist(pts[:-1], pts[1:])))

        extrapolated = (4.0 * chord_sum(128) - chord_sum(64)) / 3.0
        arc_worst = max(arc_worst, abs(extrapolated - d))

    # First-variation order: the gradient of d(x, .) at y is -log_y(x)/d (do
    # Carmo, ch. 9), so the central difference of d(x, exp_y(+/-h w)) over 2h
    # misses -<toward, w> by O(h^2); halving h should shrink the residual ~4x.
    # The endpoint moves obliquely (part stretching, part bending) so the
    # distance has genuine curvature in h.
    x = m.project(m.random_point(rng))
    v = m.random_tangent(rng, x, norm=min(reach, 1.0))
    y = m.exp(x, v)
    toward = m.log(y, x)
    toward = toward / m.norm(y, toward)
    side = next((e for e in m.tangent_basis(y) if abs(m.inner(y, e, toward)) < 0.9), toward)
    w_mix = 0.6 * toward + 0.8 * side
    hs = np.array([0.08, 0.04])
    d_plus, d_minus = m.dist(x, m.exp(y, m.rows(np.stack([hs, -hs])) * w_mix))
    res_h, res_h2 = np.abs((d_plus - d_minus) / (2.0 * hs) + m.inner(y, toward, w_mix))
    ratio = float(res_h2 / res_h) if res_h > 1e-12 else 0.25

    rows = [
        _upper_row("exp-log-roundtrip", "exp-log-roundtrip", 1e-8, roundtrip_worst, 1e-8),
        _upper_row("transport-isometry", "transport-isometry", 1e-10, isometry_worst, 1e-10),
        _upper_row("triangle-inequality", "triangle-inequality", 1e-9, triangle_worst, 1e-9),
        _upper_row("distance-arclength", "distance-arclength", 1e-6, arc_worst, 1e-6),
        CheckRow("first-variation-order", "first-variation-order", 0.25, ratio,
                 min(ratio - 0.15, 0.35 - ratio), 0.15 <= ratio <= 0.35),
        _upper_row("constraint-projection", "constraint-projection", 1e-12, drift_worst, 1e-12),
    ]
    return CertificationReport(tuple(rows))
