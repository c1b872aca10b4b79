"""Converse Lyapunov constructions.

Two constructions are provided.  For exponentially stable systems, the
finite-horizon flow integral

    V(t, x) = integral over [t, t+delta] of d(phi(tau; t, x), x*)^p dtau

evaluated by composite Simpson quadrature along one numerically integrated
trajectory, on nodes spaced at most one integrator step apart (so the flow
takes one step per node gap); p = 1 gives the exact theoretical constants,
p = 2 (the default) keeps the integrand differentiable at the equilibrium.  For asymptotically
stable systems, the integrand distance is first reshaped by a class-K
function G built from a sampled decay envelope, making the truncated
infinite-horizon integral finite with a certified tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .envelopes import KLEnvelope, StabilityEnvelope
from .flows import (
    DEFAULT_STEP,
    GRID_TOL,
    TimeVaryingField,
    arc_stencil,
    flow_samples,
    lie_stencil,
)
from .manifolds import ManifoldMismatchError, ManifoldPoint, TangentVector

MIN_QUADRATURE_INTERVALS = 64
DEFAULT_POWER = 2.0
LIE_H = 1e-3      # time half-width of the Lie-derivative stencil
DIFF_EPS = 1e-4   # arc length of the differential stencil


class InvalidDeltaError(ValueError):
    """The chosen horizon leaves no decay margin (K' <= 0)."""


class HorizonError(ValueError):
    """The truncation horizon cannot certify the requested tail bound."""


def _exp_ratio(a: float, delta: float) -> float:
    """(e^{a delta} - 1) / a, with the limit value delta as a -> 0."""
    if abs(a * delta) < 1e-12:
        return delta * (1.0 + 0.5 * a * delta)
    return math.expm1(a * delta) / a


@dataclass(frozen=True)
class DeltaChoice:
    """Horizon choice with its decay margin K' = 1 - K e^{-lambda delta}."""

    K: float
    rate: float
    delta: float
    K_prime: float


def choose_delta(K: float, rate: float, target: float) -> DeltaChoice:
    """Pick the horizon so the decay margin K' equals ``target`` in (0, 1)."""
    if not 0.0 < target < 1.0:
        raise InvalidDeltaError(f"target margin must lie in (0, 1), got {target}")
    if K < 1.0:
        raise InvalidDeltaError(f"envelope gain K must be >= 1, got {K}")
    if rate <= 0.0:
        raise InvalidDeltaError(f"decay rate must be positive, got {rate}")
    delta = math.log(K / (1.0 - target)) / rate
    return DeltaChoice(K, rate, delta, target)


@dataclass(frozen=True)
class TheoreticalBounds:
    """Certificate constants implied by (L, K, lambda, delta, p).

    c1, c2 sandwich V between c1 d^p and c2 d^p; c3 is the decay rate of V
    along the flow; c4 bounds the differential (|dV| <= c4 d^{p-1}).
    ``c2_alt`` is the alternative normalization of c2 with the field
    Lipschitz constant in the denominator, reported alongside the integral
    value for comparison.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    K_prime: float
    c2_alt: float
    L: float
    K: float
    rate: float
    delta: float
    p: float

    def as_dict(self) -> dict:
        return {
            "c1": self.c1, "c2": self.c2, "c3": self.c3, "c4": self.c4,
            "K": self.K, "lambda": self.rate, "L": self.L,
            "K_prime": self.K_prime, "c2_alt": self.c2_alt,
        }


def theoretical_bounds(L: float, K: float, rate: float, delta: float,
                       p: float = 1.0) -> TheoreticalBounds:
    """Certificate constants from the envelope data and the horizon.

    For p = 1: c1 = (1-e^{-L delta})/L, c2 = K(1-e^{-lambda delta})/lambda,
    K' = 1 - K e^{-lambda delta}, c3 = K'/c2, c4 = (e^{L delta}-1)/L.
    For p != 1 the same integrals of the p-th powers give
    c1 = (1-e^{-pL delta})/(pL), c2 = K^p (1-e^{-p lambda delta})/(p lambda),
    K'_p = 1 - K^p e^{-p lambda delta}, and
    c4 = p K^{p-1} (e^{(L-(p-1)lambda) delta}-1)/(L-(p-1)lambda).
    A horizon whose constants overflow or are not finite raises
    :class:`InvalidDeltaError`, like one with K' <= 0.
    """
    if L <= 0 or rate <= 0 or delta <= 0:
        raise ValueError("L, rate, and delta must be positive")
    if K < 1.0:
        raise ValueError(f"envelope gain K must be >= 1, got {K}")
    if p < 1.0:
        raise ValueError(f"power p must be >= 1, got {p}")
    try:
        K_prime = 1.0 - K ** p * math.exp(-p * rate * delta)
        if K_prime <= 0.0:
            raise InvalidDeltaError(
                f"K'={K_prime:.6g} <= 0: horizon delta={delta:.6g} is too short for K={K:.6g}")
        c1 = _exp_ratio(-p * L, delta)
        c2 = K ** p * _exp_ratio(-p * rate, delta)
        c2_alt = K ** p * (-math.expm1(-p * rate * delta)) / (p * L)
        c3 = K_prime / c2
        c4 = p * K ** (p - 1.0) * _exp_ratio(L - (p - 1.0) * rate, delta)
        finite = all(map(math.isfinite, (c1, c2, c2_alt, c3, c4)))
    except OverflowError:
        finite = False
    if not finite:
        raise InvalidDeltaError(f"certificate constants overflow at L={L:.6g}, K={K:.6g}, "
                                f"delta={delta:.6g}, p={p:.6g}")
    return TheoreticalBounds(c1, c2, c3, c4, K_prime, c2_alt, L, K, rate, delta, p)


def _simpson_weights(horizon: float, intervals: int) -> np.ndarray:
    """Composite Simpson weights on ``intervals + 1`` evenly spaced nodes."""
    w = np.ones(intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (horizon / intervals / 3.0)


@dataclass(frozen=True, eq=False)
class LyapunovFunction:
    """Flow-integral Lyapunov function; evaluation is pure and reentrant.

    ``mode`` is "exponential" (integrand d^p over horizon delta) or "massera"
    (integrand G(d) over the truncation horizon, with ``tail_bound`` the
    certified truncation error; ``reshaping`` maps distance arrays to G).
    Evaluations share the horizon, so states with their own times batch;
    so do the Lie and directional derivatives.  An evaluation is
    :meth:`node_flow` then :meth:`quadrature` (composite Simpson on
    :attr:`intervals`, whose nodes are at most one integrator step apart),
    so a caller that needs more of the flow over
    [t, t + horizon] runs it once.
    """

    field: TimeVaryingField
    x_star: ManifoldPoint
    horizon: float
    p: float
    step: float = DEFAULT_STEP
    mode: str = "exponential"
    reshaping: Callable[[np.ndarray], np.ndarray] | None = None
    tail_bound: float = 0.0

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.mode not in ("exponential", "massera"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "massera" and self.reshaping is None:
            raise ValueError("massera mode requires a reshaping function")

    @property
    def intervals(self) -> int:
        """Simpson intervals over the horizon: the fewest even count whose
        spacing is at most ``step``, and never fewer than MIN_QUADRATURE_INTERVALS."""
        return max(MIN_QUADRATURE_INTERVALS,
                   2 * math.ceil(self.horizon / (2.0 * self.step) - GRID_TOL))

    @property
    def node_offsets(self) -> np.ndarray:
        """The ``intervals + 1`` elapsed times from 0 to the horizon, evenly spaced."""
        return np.linspace(0.0, self.horizon, self.intervals + 1)

    def node_flow(self, t, coords: np.ndarray) -> np.ndarray:
        """Flow states at t + :attr:`node_offsets`, shape ``(intervals + 1,) + coords.shape``."""
        return flow_samples(self.field, t, coords, self.node_offsets, self.step)

    def quadrature(self, nodes: np.ndarray):
        """V from node states of :meth:`node_flow` (node axis first)."""
        m = self.field.manifold
        # Quadrature nodes last and contiguous: each row sums in the same order
        # whether it is evaluated alone or in a batch.
        dists = np.ascontiguousarray(np.moveaxis(m.dist(nodes, self.x_star.coords), 0, -1))
        vals = self.reshaping(dists) if self.mode == "massera" else dists ** self.p
        return np.sum(vals * _simpson_weights(self.horizon, self.intervals), axis=-1)

    def _evaluate_raw(self, t, coords: np.ndarray):
        """V at one state or a batch ``(..., *ambient_shape)``, t scalar or per row."""
        return self.quadrature(self.node_flow(t, coords))

    def evaluate(self, t, x: ManifoldPoint):
        """V(t, x); a batched point with per-row t gives one value per row."""
        if x.manifold != self.field.manifold:
            raise ManifoldMismatchError("point manifold does not match the certificate")
        value = self._evaluate_raw(t, x.coords)
        return float(value) if np.ndim(value) == 0 else value

    def evaluate_groups(self, groups: Sequence[tuple]) -> list[np.ndarray]:
        """V over ``(times, states)`` groups (one time per state, or shared)
        in one batched flow; the values come back split per group."""
        m = self.field.manifold
        states = [np.reshape(x, (-1,) + m.ambient_shape) for _, x in groups]
        times = np.concatenate([np.broadcast_to(np.asarray(t, dtype=float), (len(x),))
                                for (t, _), x in zip(groups, states)])
        values = self._evaluate_raw(times, np.concatenate(states))
        return np.split(values, np.cumsum([len(x) for x in states])[:-1])

    __call__ = evaluate

    def lie_derivative(self, t, x: ManifoldPoint):
        """LV(t, x): V's central difference at the ends of :func:`lie_stencil`
        of half-width LIE_H, both ends in one V batch."""
        m = self.field.manifold
        if x.manifold != m:
            raise ManifoldMismatchError("point manifold does not match the certificate")
        t = np.broadcast_to(np.asarray(t, dtype=float),
                            np.shape(x.coords)[:np.ndim(x.coords) - len(m.ambient_shape)])
        ends = lie_stencil(self.field, t, m.project(x.coords), LIE_H, self.step)
        v_plus, v_minus = self._evaluate_raw(np.stack([t + LIE_H, t - LIE_H]), ends)
        return (v_plus - v_minus) / (2.0 * LIE_H)

    def directional_derivative(self, t, x: ManifoldPoint, v: TangentVector):
        """dV(t, .)(v) by a central geodesic difference of arc length DIFF_EPS."""
        eps_hat, stencil = arc_stencil(self.field.manifold, x.coords, v.components, DIFF_EPS)
        t_rows = np.broadcast_to(np.asarray(t, dtype=float), np.shape(eps_hat))
        plus, minus = self._evaluate_raw(np.stack([t_rows, t_rows]), stencil)
        return (plus - minus) / (2.0 * eps_hat)


def construct_exp_V(field: TimeVaryingField, x_star: ManifoldPoint, delta: float,
                    p: float = DEFAULT_POWER, step: float = DEFAULT_STEP) -> LyapunovFunction:
    """Finite-horizon flow-integral certificate for exponential stability."""
    if p < 1.0:
        raise ValueError(f"power p must be >= 1, got {p}")
    if x_star.manifold != field.manifold:
        raise ManifoldMismatchError("equilibrium manifold does not match the field")
    return LyapunovFunction(field, x_star, delta, p, step, "exponential")


# -- class-K reshaping for asymptotic (non-exponential) decay ------------------

@dataclass(frozen=True, eq=False)
class MasseraFunction:
    """Constructive class-K reshaping G with integrable composition G(g(t)).

    Built so that G'(g(t_k)) = e^{-t_k} at the envelope knots; G' is then
    strictly increasing in its argument with G'(0) = 0, and G is its
    antiderivative (so G(0) = 0, G convex).  ``k1`` and ``k2`` bound the
    integrals of G(u) and G'(u) over the envelope times for any sampled u <= g.
    """

    s_knots: np.ndarray          # ascending, s_knots[0] == 0
    gprime_knots: np.ndarray
    envelope_times: np.ndarray
    envelope_values: np.ndarray
    k1: float
    k2: float
    grid_spacing: float

    def __post_init__(self):
        # G' is the monotone cubic Hermite interpolant (PCHIP: Fritsch & Carlson,
        # SIAM J. Numer. Anal. 17(2), 1980, SciPy's slope rule), G its quartic
        # antiderivative; coefficient rows are powers of s - s_i, highest first.
        h, y = np.diff(self.s_knots), self.gprime_knots
        m = np.diff(y) / h
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        same_sign = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(same_sign, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
        # Three-point end slopes, clamped to keep the end intervals' shape.
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        end = np.where(np.sign(end) != np.sign(m0), 0.0, np.where(
            (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0)), 3.0 * m0, end))
        d = np.concatenate(([end[0]], inner, [end[1]]))
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        cubic = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])
        # G at the left knots sums the pieces' integrals h (y0 + y1)/2 + h^2 (d0 - d1)/12.
        pieces = h * (y[:-1] + y[1:]) / 2.0 + h * h * (d[:-1] - d[1:]) / 12.0
        quartic = np.vstack([cubic / np.arange(4.0, 0.0, -1.0)[:, None],
                             np.concatenate(([0.0], np.cumsum(pieces[:-1])))])
        object.__setattr__(self, "_gprime", lambda s: self._interval_poly(cubic, s))
        object.__setattr__(self, "_g_integral", lambda s: self._interval_poly(quartic, s))

    def _interval_poly(self, coef, s):
        """Piecewise polynomial ``coef`` at s by Horner's rule, on the interval holding s."""
        i = np.clip(np.searchsorted(self.s_knots, s, side="right") - 1, 0, len(self.s_knots) - 2)
        u, out = s - self.s_knots[i], 0.0
        for row in coef[:, i]:
            out = out * u + row
        return out

    def _piecewise(self, s, inside: Callable, beyond: Callable):
        """``inside`` on (0, s_max), ``beyond`` from s_max on, 0 at s <= 0."""
        s = np.asarray(s, dtype=float)
        s_max = float(self.s_knots[-1])
        out = np.where(s >= s_max, beyond(s, s_max), inside(np.clip(s, 0.0, s_max)))
        out = np.where(s <= 0.0, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def derivative(self, s):
        """G'(s), elementwise; constant extension beyond the represented range."""
        return self._piecewise(s, self._gprime,
                               lambda s, s_max: np.full(s.shape, self.gprime_knots[-1]))

    def value(self, s):
        """G(s) = integral of G' from 0, elementwise; linear extension beyond the range."""
        return self._piecewise(s, self._g_integral, lambda s, s_max: (
            self._g_integral(s_max) + self.gprime_knots[-1] * (s - s_max)))

    __call__ = value

    def tail_bound(self, t_start: float) -> float:
        """Bound on the integral of G(g(t)) over [t_start, infinity).

        Uses G(s) <= s G'(s) (convexity with G(0) = 0) and the construction
        envelope G'(g(t)) <= e^{-(t - spacing)}; beyond the fitted horizon the
        e^{-t} design envelope is assumed to keep holding, which closes the
        integral as a geometric tail.
        """
        t_end = float(self.envelope_times[-1])
        if t_start > t_end:
            raise HorizonError(
                f"tail start {t_start} lies beyond the fitted envelope horizon {t_end}")
        mask = self.envelope_times >= t_start - 1e-12
        ts = self.envelope_times[mask]
        gs = self.envelope_values[mask]
        grid_part = float(np.trapezoid(self.value(gs), ts)) if len(ts) > 1 else 0.0
        beyond = float(gs[-1]) * math.exp(self.grid_spacing) * math.exp(-t_end)
        return grid_part + beyond


def massera_G(t_grid: Sequence[float], g_values: Sequence[float]) -> MasseraFunction:
    """Build the reshaping function for a strictly decreasing envelope.

    ``g_values`` must be positive and strictly decreasing over ``t_grid``.
    The returned object reports k1 and k2 such that for any sampled u <= g
    the grid integrals of G(u) and G'(u) stay below them.
    """
    ts = np.asarray(t_grid, dtype=float)
    gs = np.asarray(g_values, dtype=float)
    if len(ts) != len(gs) or len(ts) < 3:
        raise ValueError("need at least three aligned envelope samples")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if np.any(gs <= 0):
        raise ValueError("envelope values must be positive")
    if np.any(np.diff(gs) >= 0):
        raise ValueError("envelope must be strictly decreasing")

    gprime_at_knots = np.exp(-ts)
    # s ascending: reverse the (decreasing) envelope and pin G'(0) = 0.
    s_knots = np.concatenate(([0.0], gs[::-1]))
    gprime_knots = np.concatenate(([0.0], gprime_at_knots[::-1]))
    if np.any(np.diff(gprime_knots) <= 0):
        raise ValueError("constructed derivative is not strictly increasing; "
                         "check the envelope grid")
    spacing = float(np.max(np.diff(ts)))
    partial = MasseraFunction(s_knots, gprime_knots, ts, gs,
                              k1=0.0, k2=0.0, grid_spacing=spacing)
    grid_k1 = float(np.trapezoid(partial.value(gs), ts))
    grid_k2 = float(np.trapezoid(gprime_at_knots, ts))
    t_end = float(ts[-1])
    tail_k1 = float(gs[-1]) * math.exp(spacing) * math.exp(-t_end)
    tail_k2 = math.exp(spacing) * math.exp(-t_end)
    return MasseraFunction(s_knots, gprime_knots, ts, gs,
                           k1=grid_k1 + tail_k1, k2=grid_k2 + tail_k2,
                           grid_spacing=spacing)


def construct_ugas_V(field: TimeVaryingField, x_star: ManifoldPoint,
                     beta_fit: StabilityEnvelope | KLEnvelope, t_max: float,
                     tail_tol: float = 1e-8, step: float = DEFAULT_STEP) -> LyapunovFunction:
    """Truncated infinite-horizon certificate for asymptotic stability.

    The decay profile g(s) = beta(r_max, s) of the fitted envelope drives the
    reshaping construction; the truncation horizon must leave a certified
    tail below ``tail_tol``, otherwise a :class:`HorizonError` is raised.
    """
    if x_star.manifold != field.manifold:
        raise ManifoldMismatchError("equilibrium manifold does not match the field")
    kl = beta_fit.beta if isinstance(beta_fit, StabilityEnvelope) else beta_fit
    times, g_vals = kl.decay_profile()
    reshaping = massera_G(times, g_vals)
    if t_max > float(times[-1]):
        raise HorizonError(
            f"truncation horizon {t_max} exceeds the fitted envelope horizon {times[-1]}")
    tail = reshaping.tail_bound(t_max)
    if tail > tail_tol:
        raise HorizonError(
            f"certified tail {tail:.3e} exceeds the tolerance {tail_tol:.3e}; "
            "extend the envelope horizon or enlarge t_max")
    return LyapunovFunction(field, x_star, t_max, 1.0, step, "massera", reshaping, tail)
