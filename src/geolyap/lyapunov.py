"""Converse Lyapunov constructions.

Two constructions are provided.  For exponentially stable systems, the
finite-horizon flow integral

    V(t, x) = integral over [t, t+delta] of d(phi(tau; t, x), x*)^p dtau

evaluated along one numerically integrated trajectory by 7-point
Gauss-Legendre quadrature on each step of that flow, whose nodes are read
from the flow's interpolant; p = 1 gives the exact theoretical constants,
p = 2 (the default) keeps the integrand differentiable at the equilibrium.  Its
derivative along the flow, LV = d(phi(t+delta), x*)^p - d(x, x*)^p, is read
from the same trajectory.  For asymptotically stable systems, the integrand
distance is first reshaped by a class-K function G built from a sampled decay
envelope, making the truncated infinite-horizon integral finite with a
certified tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .flows import DEFAULT_STEP, GRID_TOL, DenseFlow, TimeVaryingField
from .manifolds import ManifoldMismatchError, ManifoldPoint

DEFAULT_POWER = 2.0
DIFF_EPS = 1e-4   # arc length of the differential stencil
# 7-point Gauss-Legendre (node, weight) pairs on [-1, 1], exact to degree 13: SciPy's
# literals (the G7 entries of scipy.integrate._quad_vec._quadrature_gk15).
G7 = ((-0.9491079123427585, 0.1294849661688697), (-0.7415311855993945, 0.27970539148927664),
      (-0.4058451513773972, 0.3818300505051189), (0.0, 0.4179591836734694),
      (0.4058451513773972, 0.3818300505051189), (0.7415311855993945, 0.27970539148927664),
      (0.9491079123427585, 0.1294849661688697))


class InvalidDeltaError(ValueError):
    """The chosen horizon leaves no decay margin (K' <= 0)."""


class HorizonError(ValueError):
    """The truncation horizon cannot certify the requested tail bound."""


def _exp_ratio(a: float, delta: float) -> float:
    """(e^{a delta} - 1) / a, with the limit value delta as a -> 0."""
    if abs(a * delta) < 1e-12:
        return delta * (1.0 + 0.5 * a * delta)
    return math.expm1(a * delta) / a


def choose_delta(K: float, rate: float, target: float) -> float:
    """The horizon delta whose decay margin K' = 1 - K e^{-lambda delta} is ``target``."""
    if not 0.0 < target < 1.0:
        raise InvalidDeltaError(f"target margin must lie in (0, 1), got {target}")
    if K < 1.0:
        raise InvalidDeltaError(f"envelope gain K must be >= 1, got {K}")
    if rate <= 0.0:
        raise InvalidDeltaError(f"decay rate must be positive, got {rate}")
    return math.log(K / (1.0 - target)) / rate


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
                       p: float) -> TheoreticalBounds:
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


@dataclass(frozen=True, eq=False)
class LyapunovFunction:
    """Flow-integral Lyapunov function; evaluation is pure and reentrant.

    ``mode`` is "exponential" (integrand d^p over horizon delta) or "massera"
    (integrand G(d) over the truncation horizon, with ``tail_bound`` the
    certified truncation error; ``reshaping`` maps distance arrays to G).
    Evaluations share the horizon, so states with their own times batch.
    ``step`` is the step of the flow V reads: :meth:`node_flow`'s, and in a
    certification that of the envelope fit's flow, or of its continuation past
    the fit's span, which the pushforward's cut-locus retries also take.  An
    evaluation is :meth:`quadrature` of :meth:`node_flow`, which also gives LV and
    the states at the horizon, so a caller that needs more of the flow runs it once.
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

    def node_flow(self, t, coords: np.ndarray) -> DenseFlow:
        """The :class:`DenseFlow` of ``coords`` from the times ``t`` over the horizon, at
        :attr:`step`."""
        return DenseFlow(self.field, t, coords).advance(self.horizon, self.step)

    def quadrature(self, flow: DenseFlow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """V, LV and the states at t + horizon of each row of ``flow``, such as :meth:`node_flow`'s.
        V is G7 on each of the flow's steps: the panel edges are its nodes below horizon -
        GRID_TOL step, then the horizon, and the nodes inside are read from its interpolant.
        LV = g(phi(t + horizon)) - g(x), g = d^p (G(d) in massera mode), is V's exact
        derivative along the flow (the flow-integral identity)."""
        grid = np.array(flow.nodes)
        grid = np.append(grid[grid < self.horizon - GRID_TOL * self.step], self.horizon)
        half = np.diff(grid)[:, None] / 2.0
        x, w = np.array(G7).T
        states = flow(np.concatenate(([0.0], ((grid[:-1, None] + half) + half * x).ravel(),
                                      [self.horizon])))
        m = self.field.manifold
        # Quadrature nodes last and contiguous: each row sums in the same order
        # whether it is evaluated alone or in a batch.
        dists = np.ascontiguousarray(np.moveaxis(m.dist(states, self.x_star.coords), 0, -1))
        g = self.reshaping(dists) if self.mode == "massera" else dists ** self.p
        weights = np.concatenate(([0.0], (half * w).ravel(), [0.0]))
        return np.sum(g * weights, axis=-1), g[..., -1] - g[..., 0], states[-1]

    def _evaluate_raw(self, t, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """V and LV at one state or a batch ``(..., *ambient_shape)``, t scalar or per row."""
        return self.quadrature(self.node_flow(t, coords))[:2]

    def evaluate(self, t, x: ManifoldPoint):
        """V(t, x); a batched point with per-row t gives one value per row."""
        if x.manifold != self.field.manifold:
            raise ManifoldMismatchError("point manifold does not match the certificate")
        value = self._evaluate_raw(t, x.coords)[0]
        return float(value) if np.ndim(value) == 0 else value

    def evaluate_groups(self, groups: Sequence[tuple]) -> tuple[list, list]:
        """V and LV over ``(times, states)`` groups (one time per state, or
        shared) in one batched flow; both come back split per group."""
        m = self.field.manifold
        states = [np.reshape(x, (-1,) + m.ambient_shape) for _, x in groups]
        times = np.concatenate([np.broadcast_to(np.asarray(t, dtype=float), (len(x),))
                                for (t, _), x in zip(groups, states)])
        cuts = np.cumsum([len(x) for x in states])[:-1]
        return tuple(np.split(q, cuts) for q in self._evaluate_raw(times, np.concatenate(states)))


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
        # Three-point end slopes, clamped to keep the end pieces' shape.
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
        """Piecewise polynomial ``coef`` at s clipped to the knots, by Horner's rule on the
        interval holding it; in place, one coefficient row at a time (V evaluates it on
        every quadrature node of every row at once)."""
        i = np.clip(np.searchsorted(self.s_knots, s, side="right") - 1, 0, len(self.s_knots) - 2)
        u, out = np.clip(s, 0.0, self.s_knots[-1]) - self.s_knots[i], coef[0][i]
        for row in coef[1:]:
            out *= u
            out += row[i]
        return out

    def _piecewise(self, s, inside: Callable, beyond: Callable):
        """``inside`` on (0, s_max), ``beyond`` from s_max on, 0 at s <= 0."""
        s = np.asarray(s, dtype=float)
        s_max = float(self.s_knots[-1])
        inner = inside(s)  # before beyond's array exists: a lower peak on V's node stacks
        out = np.where(s >= s_max, beyond(s, s_max), inner)
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

    @property
    def k1(self) -> float:
        """Bound on the integral of G(u) over the envelope times and beyond: the whole tail."""
        return self.tail_bound(float(self.envelope_times[0]))

    @property
    def k2(self) -> float:
        """The same bound for G'(u), whose knot values are e^{-t}."""
        ts = self.envelope_times
        return (float(np.trapezoid(np.exp(-ts), ts))
                + math.exp(self.grid_spacing) * math.exp(-float(ts[-1])))


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
    return MasseraFunction(s_knots, gprime_knots, ts, gs, float(np.max(np.diff(ts))))


def construct_ugas_V(field: TimeVaryingField, x_star: ManifoldPoint, times: np.ndarray,
                     g_vals: np.ndarray, t_max: float, tail_tol: float = 1e-8,
                     step: float = DEFAULT_STEP) -> LyapunovFunction:
    """Truncated infinite-horizon certificate for asymptotic stability.

    The decay profile g(s) = beta(r_max, s), sampled as ``g_vals`` at ``times``
    (a fitted envelope's ``decay_times`` and ``decay_values``), drives the
    reshaping construction; the truncation horizon must leave a certified
    tail below ``tail_tol``, otherwise a :class:`HorizonError` is raised.
    """
    if x_star.manifold != field.manifold:
        raise ManifoldMismatchError("equilibrium manifold does not match the field")
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
