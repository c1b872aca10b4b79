"""Time-varying vector fields on manifolds: integration and flow analysis.

The integrator is the projection method (Hairer, Lubich & Wanner, *Geometric
Numerical Integration*, 2nd ed., §IV.4): a step of DOP853's order-8 Runge-Kutta
scheme (:data:`RK8`) in the embedding space, then one projection onto the manifold
(``Manifold.project``), keeps the scheme's order on every smooth field.  One loop
(:meth:`DenseFlow.advance`) steps a batch of states, each from its own start time, on a
shared elapsed-time grid, and the times between its nodes are read from the interpolant.
Flow pushforwards are computed by geodesic-variation
finite differences, and Lipschitz constants are estimated in the
parallel-transport sense (transported field differences over distance)
alongside the covariant-derivative form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .manifolds import (
    CUT_MARGIN,
    CutLocusError,
    GeometryError,
    Manifold,
    ManifoldMismatchError,
    ManifoldPoint,
)

DEFAULT_STEP = 1e-3
LIPSCHITZ_SAFETY = 1.05   # inflation factor applied before envelope use
LIPSCHITZ_FD_STEP = 1e-5  # parameter step of the covariant-derivative stencil
CUT_FLAG_MARGIN = 1e-3    # envelope rows this close to the cut locus are flagged
PUSHFORWARD_EPS = 1e-5    # arc length of the pushforward stencil
GRID_TOL = 1e-9           # relative slack before a span gets one more step
STEP_TOL = 1.35e-8        # step_error allowed; calibration in README, "Internal stage steps"
PILOT_STEPS = 2           # coarse steps of a step_error pilot (the fine run takes twice as many)
RUNGS = (64, 32, 16, 8, 4, 2, 1)  # choose_step's ladder, in multiples of the base step
ROUNDING_ULPS = 8         # a pilot difference this many ulps of a row's coordinates is rounding

# An explicit Runge-Kutta scheme: stages (c_i, ((j, a_ij), ...)) and weights (j, b_j), nonzero
# entries only; a step adds dt times the weighted sum.  Its order on smooth fields, and its
# interpolant: the extra stages after the FSAL stage f(t + dt, x_new) and the rows (j, d_j)
# of the interpolant's upper coefficients (see _interpolate).
RungeKutta = NamedTuple("RungeKutta", [("stages", tuple), ("weights", tuple), ("order", int),
                                       ("dense", tuple)])
# DOP853's order-8 solution (Prince & Dormand, J. Comput. Appl. Math. 7 (1981) 67-75).
RK8 = RungeKutta(((0.0, ()), (0.05260015195876773, ((0, 0.05260015195876773),)),
    (0.0789002279381516, ((0, 0.0197250569845379), (1, 0.0591751709536137))),
    (0.1183503419072274, ((0, 0.02958758547680685), (2, 0.08876275643042054))),
    (0.2816496580927726, ((0, 0.2413651341592667), (2, -0.8845494793282861),
    (3, 0.924834003261792))), (0.3333333333333333, ((0, 0.037037037037037035),
    (3, 0.17082860872947386), (4, 0.12546768756682242))), (0.25, ((0, 0.037109375),
    (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125))),
    (0.3076923076923077, ((0, 0.03709200011850479), (3, 0.17038392571223998),
    (4, 0.10726203044637328), (5, -0.015319437748624402), (6, 0.008273789163814023))),
    (0.6512820512820513, ((0, 0.6241109587160757), (3, -3.3608926294469414),
    (4, -0.868219346841726), (5, 27.59209969944671), (6, 20.154067550477894),
    (7, -43.48988418106996))), (0.6, ((0, 0.47766253643826434), (3, -2.4881146199716677),
    (4, -0.590290826836843), (5, 21.230051448181193), (6, 15.279233632882423),
    (7, -33.28821096898486), (8, -0.020331201708508627))),
    (0.8571428571428571, ((0, -0.9371424300859873), (3, 5.186372428844064),
    (4, 1.0914373489967295), (5, -8.149787010746927), (6, -18.52006565999696),
    (7, 22.739487099350505), (8, 2.4936055526796523), (9, -3.0467644718982196))),
    (1.0, ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
    (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
    (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)))),
    ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.04471061572777259)), 8,
    # DOP853's order-7 interpolant (Hairer, Norsett & Wanner, *Solving ODEs I*, §II.6).
    (((0.1, ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
    (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
    (11, 0.007567897660545699), (12, -0.008298))), (0.2, ((0, 0.03183464816350214),
    (5, 0.028300909672366776), (6, 0.053541988307438566), (7, -0.05492374857139099),
    (10, -0.00010834732869724932), (11, 0.0003825710908356584), (12, -0.00034046500868740456),
    (13, 0.1413124436746325))), (0.7777777777777778, ((0, -0.42889630158379194),
    (5, -4.697621415361164), (6, 7.683421196062599), (7, 4.06898981839711),
    (8, 0.3567271874552811), (12, -0.0013990241651590145), (13, 2.9475147891527724),
    (14, -9.15095847217987)))),
    (((0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917),
    (7, 2.38466765651207), (8, 2.117034582445028), (9, -0.871391583777973),
    (10, 2.2404374302607883), (11, 0.6315787787694688), (12, -0.08899033645133331),
    (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028),
    (7, -374.5467547226902), (8, -22.113666853125306), (9, 7.733432668472264),
    (10, -30.674084731089398), (11, -9.332130526430229), (12, 15.697238121770845),
    (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758),
    (7, 527.8081592054236), (8, -11.57390253995963), (9, 6.8812326946963),
    (10, -1.0006050966910838), (11, 0.7777137798053443), (12, -2.778205752353508),
    (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455),
    (7, 357.6391179106141), (8, 93.40532418362432), (9, -37.45832313645163),
    (10, 104.0996495089623), (11, 29.8402934266605), (12, -43.53345659001114),
    (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564)))))


class IntegrationError(RuntimeError):
    """Field evaluation failed or produced non-finite values."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t={t})")
        self.t = t


@dataclass(frozen=True, eq=False)
class TimeVaryingField:
    """Evaluatable vector field f(t, x), optionally with an input channel.

    ``rhs(t, X) -> components`` is the field itself, as the integrator
    evaluates it: ``X`` holds one state or a batch ``(..., *ambient_shape)``
    and ``t`` is a scalar or per-row times (broadcast per row with
    ``manifold.rows``).  Its contract: tangent at manifold points, smooth off
    them.  The stage points ``X`` of a step are ambient points within
    O(step^2 |f|^2) of the manifold, where ``rhs`` must be a smooth formula
    of the embedding coordinates, as every registered system is; nothing
    projects its output (:func:`flow_samples` checks it at its start rows).
    ``input_rhs(t, X, u)`` realizes f(t, x, u) for disturbance studies, with
    ``u`` shared or per row, under the same contract.  Handles must be pure
    with respect to observable state.
    """

    manifold: Manifold
    rhs: Callable[[float, np.ndarray], np.ndarray]
    input_rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None

    def eval_raw(self, t, coords: np.ndarray) -> np.ndarray:
        raw = self.rhs(t, coords)
        if isinstance(raw, np.ndarray) and raw.dtype == float and raw.shape == np.shape(coords):
            return raw
        return np.broadcast_to(np.asarray(raw, dtype=float), np.shape(coords))

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


def _rk_stages(field: TimeVaryingField, t, x: np.ndarray, dt: float, stages, ks: list):
    """Append the ``stages`` (c_i, row) of a step from ``x`` to ``ks``; sums run left to right."""
    for c, row in stages:
        y = x
        for j, a in row:
            y = y + (a * dt) * ks[j]
        ks.append(field.eval_raw(t + c * dt if c else t, y))


def _rk_step(field: TimeVaryingField, t, x: np.ndarray, dt: float,
             ks: list | None = None) -> np.ndarray:
    """One :data:`RK8` step in the embedding, before projection; ``ks`` collects its stages."""
    ks = [] if ks is None else ks
    _rk_stages(field, t, x, dt, RK8.stages, ks)
    terms = [b * ks[j] for j, b in RK8.weights]
    return x + dt * sum(terms[1:], terms[0])


def _interpolate(field: TimeVaryingField, t, x: np.ndarray, x_new: np.ndarray, dt: float,
                 ks: list, thetas: np.ndarray) -> np.ndarray:
    """A step's dense output (SciPy's ``Dop853DenseOutput``) at the fractions ``thetas`` of
    ``dt``, stacked, before projection; ``ks`` holds the step's stages and f(t + dt, x_new)."""
    extra, rows = RK8.dense
    _rk_stages(field, t, x, dt, extra, ks)
    dx = x_new - x
    F = [dx, dt * ks[0] - dx, 2.0 * dx - dt * (ks[len(RK8.stages)] + ks[0])]
    F += [dt * sum(d * ks[j] for j, d in row) for row in rows]
    th, y = np.reshape(thetas, (-1,) + (1,) * x.ndim), 0.0
    for i, f in enumerate(reversed(F)):  # Horner form in th and 1 - th
        y = (y + f) * (th if i % 2 == 0 else 1.0 - th)
    return x + y


def _checked_project(m: Manifold, y: np.ndarray, t0, s: float) -> np.ndarray:
    """``y`` projected onto ``m``; a non-finite ``y`` or a failed projection fails the
    flow at the time t0 + s."""
    finite = np.isfinite(y)
    if np.count_nonzero(finite) != finite.size:
        row_ok = finite.all(axis=tuple(range(-len(m.ambient_shape), 0)))
        t_bad = np.broadcast_to(t0 + s, np.shape(row_ok))[~row_ok]
        raise IntegrationError("non-finite state during integration", float(np.ravel(t_bad)[0]))
    try:
        return m.project(y)
    except GeometryError as exc:
        raise IntegrationError(f"step left the manifold: {exc}",
                               float(np.ravel(t0 + s)[0])) from exc


class DenseFlow:
    """Projected :data:`RK8` steps of a batch ``x0`` ``(..., *ambient_shape)`` from the
    start times ``t0`` (scalar or per row) that keep what each step's interpolant reads
    (its states and stages k0, k5-k12): like SciPy's ``OdeSolution``, the flow is read at
    any elapsed time of its span after it has run, and :meth:`advance` continues it."""

    def __init__(self, field: TimeVaryingField, t0, x0: np.ndarray):
        m = field.manifold
        x = np.asarray(x0, dtype=float)
        # rhs, which nothing projects, must be tangent at the start rows to 1e-9 of its norm.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f = field.eval_raw(t0, x)
            rows = x.shape[:x.ndim - len(m.ambient_shape)] + (-1,)
            normal, f = (f - m.project_tangent(x, f)).reshape(rows), f.reshape(rows)
            if np.count_nonzero(np.vecdot(normal, normal) > 1e-18 * np.vecdot(f, f)):
                raise ValueError(f"the field's rhs is not tangent to {m.name} at the start states")
        self.field, self.t0 = field, t0
        self.nodes, self.states = [0.0], [x]  # elapsed times of the steps' ends, and states
        self._stages, self._step = [], 0.0    # each step's kept stages; the longest grid step

    def advance(self, span: float, step: float) -> "DenseFlow":
        """Step every row from the last node to the elapsed time ``span`` on the grid
        ``last + step_offsets(span - last, step)``, ending on ``span``; returns the flow.
        A step that blows up, or leaves the manifold beyond projection, fails the flow
        at that step's time."""
        if step <= 0:
            raise ValueError("step must be positive")
        grid = (self.nodes[-1] + step_offsets(span - self.nodes[-1], step)).tolist()
        grid[-1] = span
        field, t0, x = self.field, self.t0, self.states[-1]
        self._step = max(self._step, step)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for a, b in zip(grid, grid[1:]):
                ks = []
                x = _checked_project(field.manifold, _rk_step(field, t0 + a, x, b - a, ks), t0, b)
                ks[1:5] = [None] * 4  # stages the interpolant does not read
                self.nodes.append(b)
                self.states.append(x)
                self._stages.append(ks)
        return self

    def __call__(self, offsets: Sequence[float]) -> np.ndarray:
        """States at the elapsed times ``offsets`` of the flow's span, ``(len(offsets),) +
        x0.shape``: an offset within GRID_TOL of the longest step from a node reads that
        node, any other the projected interpolant of its step."""
        s = np.asarray(offsets, dtype=float).reshape(-1)
        nodes, tol = np.array(self.nodes), GRID_TOL * self._step
        keep = np.searchsorted(nodes, s - tol).tolist()  # first node >= s - tol
        if keep and max(keep) == len(nodes):
            raise ValueError(f"sample offsets past the flow's end {self.nodes[-1]}")
        reads = {}  # step ending at node i -> the samples read from its interpolant
        for k, i in enumerate(keep):
            if i and nodes[i] - s[k] > tol:  # inside (nodes[i - 1], nodes[i])
                reads.setdefault(i, []).append(k)
        samples = np.stack([self.states[i] for i in keep])
        field, t0 = self.field, self.t0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i, ks in reads.items():
                a, b, x_new = self.nodes[i - 1], self.nodes[i], self.states[i]
                # f(t0 + b, x_new): the next step's first stage.
                fsal = self._stages[i][0] if i < len(self._stages) else field.eval_raw(t0 + b, x_new)
                ys = _interpolate(field, t0 + a, self.states[i - 1], x_new, b - a,
                                  self._stages[i - 1] + [fsal], (s[ks] - a) / (b - a))
                samples[ks] = _checked_project(field.manifold, ys, t0, b)
        return samples

    def take(self, rows) -> "DenseFlow":
        """The flow of the rows ``rows`` (an index of the leading axis) alone."""
        flow = object.__new__(DenseFlow)
        flow.field, flow.t0 = self.field, self.t0[rows] if np.ndim(self.t0) else self.t0
        flow.nodes, flow._step = list(self.nodes), self._step
        flow.states = [x[rows] for x in self.states]
        flow._stages = [[k if k is None else k[rows] for k in ks] for ks in self._stages]
        return flow


def flow_samples(field: TimeVaryingField, t0, x0: np.ndarray, offsets: Sequence[float],
                 step: float = DEFAULT_STEP) -> np.ndarray:
    """States ``(len(offsets),) + x0.shape`` of a :class:`DenseFlow` on the grid
    ``step_offsets(max(offsets), step)`` at the nondecreasing elapsed times ``offsets``."""
    s = np.asarray(offsets, dtype=float).reshape(-1)
    if np.any(np.diff(s, prepend=0.0) < -1e-12):
        raise ValueError("sample offsets must be nondecreasing and >= 0")
    return DenseFlow(field, t0, x0).advance(float(np.max(s, initial=0.0)), step)(s)


def step_offsets(span: float, step: float) -> np.ndarray:
    """Elapsed grid 0, step, 2 step, ... ending on ``span`` exactly."""
    n = max(1, math.ceil(span / step - GRID_TOL)) if span > 0 else 0
    offsets = np.arange(n + 1) * step
    offsets[-1] = span
    return offsets


def step_error(field: TimeVaryingField, t0, x0: np.ndarray, x_star: np.ndarray,
               span: float, step: float) -> float:
    """Step-doubling estimate of a flow's relative error per unit time at ``step``.

    A pilot flows the rows (from times ``t0``) over s = min(span, 2 PILOT_STEPS step) in
    PILOT_STEPS and 2 PILOT_STEPS steps.  The fine run's Richardson estimate |x_h - x_{h/2}|
    / (2^p - 1), p = ``RK8.order`` (Hairer, Norsett & Wanner, *Solving ODEs I*, §II.4),
    relative to the row's distance to ``x_star`` at s and over s, bounds a fitted decay rate's error
    at any horizon.  A difference within ROUNDING_ULPS ulps of the row's largest coordinate
    is rounding, not truncation, and counts as 0 (else it would read as a large error per
    unit time over a tiny s).  The worst row's is scaled to ``step`` by h^p; a pilot that
    leaves the reals gives an infinite estimate (its coarse steps are unusable).
    """
    m, p = field.manifold, RK8.order
    s = min(span, 2 * PILOT_STEPS * step)
    try:
        coarse, fine = (flow_samples(field, t0, x0, [s], s / n)[-1]
                        for n in (PILOT_STEPS, 2 * PILOT_STEPS))
    except IntegrationError:
        return math.inf
    diff = m.dist(coarse, fine)
    ulp = np.finfo(float).eps * np.max(np.abs(fine), axis=tuple(range(-len(m.ambient_shape), 0)))
    diff = np.where(diff <= ROUNDING_ULPS * ulp, 0.0, diff)
    worst = float(np.max(diff / np.maximum(m.dist(fine, x_star), 1e-12)))
    scale = (2 * PILOT_STEPS * step / s) ** p / (2 ** p - 1)
    return worst * scale / s


def choose_step(field: TimeVaryingField, t0, x0: np.ndarray, x_star: np.ndarray,
                span: float, base_step: float) -> tuple[float, float]:
    """The largest :data:`RK8` step ``min(k * base_step, span)``, k = 64, 32, ..., 1,
    whose error meets STEP_TOL, and that error, from one :func:`step_error` pilot
    at the top rung scaled by h^8.  When no k does, the last rung and its own
    pilot's estimate (infinite when that pilot left the reals)."""
    rungs = [min(k * base_step, span) for k in RUNGS]
    error = step_error(field, t0, x0, x_star, span, rungs[0])
    for h in rungs:
        estimate = error * (h / rungs[0]) ** RK8.order
        if estimate <= STEP_TOL:
            return h, estimate
    return rungs[-1], step_error(field, t0, x0, x_star, span, rungs[-1])


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
    spans = np.ravel(np.asarray(t1, dtype=float) - np.asarray(t0, dtype=float))
    if np.any(spans < 0):
        raise ValueError(f"t1 must be >= t0, got [{t0}, {t1}]")
    span = float(spans.max())
    if np.any(spans < span - 1e-9 * max(1.0, span)):
        raise ValueError("batched rows must share one time span")
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
                         span: float, step: float) -> np.ndarray:
    """Pushforward components at the flowed base points ``y0``.

    ``ends`` is the :func:`arc_stencil` of (coords, v, eps_hat),
    flowed from the per-row times ``t`` over ``span`` on the grid
    ``step_offsets(span, step)``; the difference of their logarithms at ``y0``
    is divided by 2 eps_hat.  Rows whose stencil ends within the cut margin of
    ``y0`` are rebuilt with eps_hat / 10 and flowed again alone, on the same
    grid, at most twice before a :class:`CutLocusError`.
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
            ends[:, bad] = flow_samples(field, t_rows[bad], retry, [span], step)[-1]
        bad = np.any(m.dist(y0, ends) > m.cut_locus_radius - CUT_MARGIN, axis=0)
        if not np.any(bad):
            w = (m.log(y0, ends[0]) - m.log(y0, ends[1])) / m.rows(2.0 * eps_hat)
            return np.where(m.rows(zero), 0.0, m.project_tangent(y0, w))
    raise CutLocusError("pushforward stencil kept hitting the cut locus", coords, y0)


@dataclass(frozen=True, eq=False)
class Region:
    """Geodesic ball used for sampling-based estimation."""

    center: ManifoldPoint
    radius: float

    def draw_radius(self, rng: np.random.Generator, on_boundary: bool = False) -> float:
        """A sample's geodesic radius: its first draw, before its normal."""
        r = self.radius if on_boundary else self.radius * math.sqrt(rng.uniform(0.0, 1.0))
        return max(r, 1e-12)

    def samples(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` interior samples, each drawn as its radius, then its normal."""
        m, c = self.center.manifold, self.center.coords
        return m.exp(c, m.random_tangents(rng, c, count, lambda: self.draw_radius(rng)))


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

    pairs = region.samples(rng, 2 * n_pairs).reshape((n_pairs, 2) + m.ambient_shape)
    d = m.dist(pairs[:, 0], pairs[:, 1])
    if not np.any(d >= 1e-10):
        raise ValueError("all sampled pairs were degenerate; enlarge the region")
    p, q, d = pairs[d >= 1e-10, 0], pairs[d >= 1e-10, 1], d[d >= 1e-10]
    # Per sample: its radius (on the boundary for even i), its normal, its direction's.
    normals = np.empty((n_pairs, 2) + m.ambient_shape)
    radii = np.empty(n_pairs)
    for i in range(n_pairs):
        radii[i] = region.draw_radius(rng, on_boundary=(i % 2 == 0))
        rng.standard_normal(out=normals[i])
    c = region.center.coords
    x = m.exp(c, m.tangent_map(rng, c, normals[:, 0], radii))
    v = m.tangent_map(rng, x, normals[:, 1], 1.0)
    x_plus, x_minus = geodesic_stencil(m, x, v, LIPSCHITZ_FD_STEP)

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


def contraction_offsets(horizon: float, step: float) -> np.ndarray:
    """Elapsed times of the contraction check over ``horizon``.

    The step-grid offsets k * step nearest linspace(0, horizon, 7), none past
    the horizon and without repeats.  A flow at a longer step, such as the
    envelope fit's at its pick, has only 0 among its nodes and reads the others
    from its interpolant, within the check's 1e-6 slack.  A horizon shorter
    than one step keeps [0, horizon], so that one offset is past the start.
    """
    last = math.floor(horizon / step + GRID_TOL)
    if last == 0:
        return np.array([0.0, horizon])
    k = np.minimum(np.rint(np.linspace(0.0, horizon, 7) / step), last)  # nondecreasing
    return k[np.diff(k, prepend=-1.0) > 0] * step


def contraction_report(m: Manifold, L: float, offsets: np.ndarray, d0: np.ndarray,
                       ends: np.ndarray, slack: float = 1e-6) -> tuple[np.ndarray, ...]:
    """The two-sided exponential envelope check of pairs from their flowed states:
    per pair, its worst lower and upper margins, whether it passed and whether it
    was flagged.

    ``ends`` holds both states of every pair at each elapsed offset, shape
    ``(len(offsets), 2, pairs, *ambient_shape)``, and ``d0`` is each pair's
    starting distance.  The multiplicative slack absorbs integrator error.
    Offsets at which a pair drifts within the cut-locus margin flag it and
    are not failed, since the two-sided bound presumes a smoothly varying
    minimizing geodesic.
    """
    d = np.moveaxis(m.dist(ends[:, 0], ends[:, 1]), 0, -1)       # (pairs, offsets)
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
    return worst_lower, worst_upper, np.all(ok | flagged, axis=-1), np.any(flagged, axis=-1)
