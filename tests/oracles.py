"""Test-only oracles and compositions.

The library reads V's Lie derivative from the flow-integral identity
LV(t, x) = g(phi(t + horizon; t, x)) - g(x).  The oracle here differentiates V
numerically instead: a central difference in time over the flow's own
stencil, (V(t + h, phi(t + h)) - V(t - h, phi(t - h))) / 2h, which agrees
with the identity to O(h^2).  Below: dV(v), the pushforward and the contraction check
composed, as verification composes them, from the library's own primitives, V's
Gauss-Legendre rule on any panel grid, a verification on a flow of its own, and the
distance table an envelope fit reads.
"""

import numpy as np

from geolyap import flows
from geolyap.certify import verify_converse_certificate
from geolyap.flows import TimeVaryingField
from geolyap.lyapunov import DIFF_EPS, G7

LIE_H = 1e-3  # time half-width of the stencil


def lie_stencil(field: TimeVaryingField, t, coords: np.ndarray, h: float,
                step: float) -> np.ndarray:
    """Flow states at t + h and, integrating backward in time, at t - h.

    Both directions run as one batch; returns shape ``(2,) + coords.shape``.
    ``t`` is a scalar or per-row times.
    """
    m = field.manifold
    lead = np.ndim(coords) - len(m.ambient_shape)
    sign = np.array([1.0, -1.0]).reshape((2,) + (1,) * lead)

    def rhs(s, X):
        return m.rows(sign) * field.rhs(np.where(sign > 0, s, 2.0 * t - s), X)

    both = TimeVaryingField(m, rhs)
    return flows.flow_samples(both, t, np.stack([coords, coords]), [h], step)[-1]


def lie_difference(V, t, coords: np.ndarray, h: float = LIE_H, field=None):
    """LV by V's central difference at the ends of :func:`lie_stencil` of
    ``field`` (V's own by default, else a field V is differentiated along)."""
    m = V.field.manifold
    t = np.broadcast_to(np.asarray(t, dtype=float),
                        np.shape(coords)[:np.ndim(coords) - len(m.ambient_shape)])
    ends = lie_stencil(V.field if field is None else field, t, m.project(coords), h, V.step)
    v_plus, v_minus = V._evaluate_raw(np.stack([t + h, t - h]), ends)[0]
    return (v_plus - v_minus) / (2.0 * h)


def assert_second_order(oracle, lie, scale, what):
    """``oracle(h)`` at h = 2e-3 and 1e-3 lies within 10 h^2 of ``lie``, relative
    to ``scale``, and its gap falls by at least 3 per halving (or to 1e-10)."""
    gaps = [float(np.max(np.abs(oracle(h) - lie) / scale)) for h in (2e-3, 1e-3)]
    assert gaps[0] <= 10 * 2e-3 ** 2 and gaps[1] <= 10 * 1e-3 ** 2, (what, gaps)
    assert gaps[1] <= gaps[0] / 3.0 + 1e-10, (what, gaps)


def directional_derivative(V, t, coords: np.ndarray, v: np.ndarray):
    """dV(t, .)(v) as verification reads it: V at the DIFF_EPS arc stencil, one batch."""
    eps_hat, stencil = flows.arc_stencil(V.field.manifold, coords, v, DIFF_EPS)
    t = np.broadcast_to(np.asarray(t, dtype=float), np.shape(eps_hat))
    plus, minus = V.quadrature(V.node_flow(np.stack([t, t]), stencil))[0]
    return (plus - minus) / (2.0 * eps_hat)


def gauss_legendre(V, flow: flows.DenseFlow, grid: np.ndarray) -> np.ndarray:
    """V of each row of ``flow`` by ``lyapunov.G7`` on the panels of ``grid`` (elapsed
    times from 0 to V's horizon), its nodes read from the flow."""
    x, w = np.array(G7).T
    half = np.diff(grid)[:, None] / 2.0
    states = flow(((grid[:-1, None] + half) + half * x).ravel())
    d = np.moveaxis(V.field.manifold.dist(states, V.x_star.coords), 0, -1)
    g = V.reshaping(d) if V.mode == "massera" else d ** V.p
    return np.sum(g * (half * w).ravel(), axis=-1)


def verify_on_own_flow(cert, inputs, envelope_horizon: float):
    """``verify_converse_certificate`` on one flow of ``inputs.rows`` at V's step, over
    delta and the contraction offsets of ``envelope_horizon`` at that step."""
    V = cert.V
    offsets = flows.contraction_offsets(envelope_horizon, V.step)
    flow = flows.DenseFlow(V.field, *inputs.rows).advance(max(V.horizon, offsets[-1]), V.step)
    return verify_converse_certificate(cert, inputs, flow, offsets)


def pushforward(field: TimeVaryingField, t, coords: np.ndarray, v: np.ndarray, span, step):
    """(y0, w): ``coords`` flowed over ``span`` and v's pushforward at y0, as
    verification reads it (the PUSHFORWARD_EPS arc stencil flows with y0)."""
    m = field.manifold
    eps_hat, stencil = flows.arc_stencil(m, coords, v, flows.PUSHFORWARD_EPS)
    ends = flows.flow_samples(field, t, np.concatenate([m.project(coords)[None], stencil]),
                              [span], step)[-1]
    return ends[0], flows.pushforward_quotient(field, t, coords, v, eps_hat, ends[0], ends[1:],
                                               span, step)


def contraction_reports(field: TimeVaryingField, L, t, x1, x2, offsets, step, slack=1e-6):
    """The contraction check of the pairs (x1, x2), each from its own time ``t``:
    ``contraction_report``'s per-pair worst lower and upper margins, passes and
    flags, then the pairs' distances at the offsets, shape ``(pairs, offsets)``."""
    m = field.manifold
    ends = flows.flow_samples(field, t, np.stack([x1, x2]), offsets, step)
    report = flows.contraction_report(m, L, np.asarray(offsets), m.dist(x1, x2), ends, slack)
    return report + (m.dist(ends[:, 0], ends[:, 1]).T,)


def distance_table(trajectories, x_star):
    """(elapsed, d) of ``flow`` trajectories sharing one span, as
    ``classify_stability`` reads them: the first one's elapsed times and each
    trajectory's distances to ``x_star`` as a column."""
    elapsed = trajectories[0].times - trajectories[0].times[0]
    return elapsed, np.stack([t.distances_to(x_star) for t in trajectories], axis=1)
