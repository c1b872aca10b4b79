"""Batched kernel and integrator: every row of a batch is the row alone.

The geometry kernel, the integrator and V take leading batch axes; a row's
arithmetic must not depend on the other rows, so batched and one-at-a-time
results agree bit for bit, and checks that trip on one row raise for the
whole batch.
"""

import math

import numpy as np
import pytest

from geolyap.flows import IntegrationError, TimeVaryingField, flow, flow_samples
from geolyap.lyapunov import LyapunovFunction, construct_exp_V, massera_G
from geolyap.manifolds import (
    CutLocusError,
    Euclidean,
    Hyperbolic2,
    ManifoldMismatchError,
    ManifoldPoint,
    Sphere,
    SpecialOrthogonal3,
)
from geolyap.systems import attach_disturbance, make_system
from oracles import directional_derivative, pushforward

MANIFOLDS = [Euclidean(3), Sphere(2), SpecialOrthogonal3(), Hyperbolic2()]
N_ROWS = 5


def _rows(m, seed, reach=1.2):
    """Base points, tangents, and endpoints y = exp_x(v) with |v| spread up to ``reach``."""
    rng = np.random.default_rng(seed)
    x = np.array([m.project(m.random_point(rng)) for _ in range(N_ROWS)])
    norms = np.linspace(0.1, reach, N_ROWS)
    v = np.array([m.random_tangent(rng, xi, norm=r) for xi, r in zip(x, norms)])
    w = np.array([m.random_tangent(rng, xi, norm=1.0) for xi in x])
    return x, v, w, m.exp(x, v)


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
def test_kernel_batch_rows_are_single_rows(m):
    # The last so3 row lies past 2.9 rad, so both rotation-vector branches run.
    x, v, w, y = _rows(m, 1, reach=3.0 if m.name == "so3" else 1.2)
    batched = {
        "exp": m.exp(x, v), "log": m.log(x, y), "dist": m.dist(x, y),
        "transport": m.transport(x, y, w), "project": m.project(x + 1e-9),
        "inner": m.inner(x, v, w),
    }
    for i in range(N_ROWS):
        single = {
            "exp": m.exp(x[i], v[i]), "log": m.log(x[i], y[i]), "dist": m.dist(x[i], y[i]),
            "transport": m.transport(x[i], y[i], w[i]), "project": m.project(x[i] + 1e-9),
            "inner": m.inner(x[i], v[i], w[i]),
        }
        for op, value in single.items():
            assert np.array_equal(batched[op][i], value), f"{m.name} {op} row {i}"


def test_so3_project_mixes_newton_and_svd_rows():
    so3 = SpecialOrthogonal3()
    rng = np.random.default_rng(4)
    near = so3.random_point(rng) + 1e-12
    generic = rng.standard_normal((3, 3))
    batch = so3.project(np.array([near, generic]))
    assert np.array_equal(batch[0], so3.project(near))
    assert np.array_equal(batch[1], so3.project(generic))
    assert np.all(so3.constraint_violation(batch) < 1e-12)


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
def test_integrator_and_V_batch_rows_are_single_rows(m):
    x_star = m.project(m.random_point(np.random.default_rng(2)))
    spec = make_system("time_varying_attractor", m, x_star)
    rng = np.random.default_rng(3)
    x = np.array([m.exp(x_star, m.random_tangent(rng, x_star, norm=rng.uniform(0.2, 1.0)))
                  for _ in range(N_ROWS)])
    t = np.array([0.0, 1.0, math.e, 10.0, 0.3])
    offsets = [0.0, 0.05, 0.3]
    states = flow_samples(spec.field, t, x, offsets, 1e-2)
    V = construct_exp_V(spec.field, spec.equilibrium, 0.4, p=2.0, step=1e-2)
    values = V._evaluate_raw(t, x)[0]
    for i in range(N_ROWS):
        assert np.array_equal(states[:, i], flow_samples(spec.field, t[i], x[i], offsets, 1e-2))
        assert values[i] == V.evaluate(t[i], ManifoldPoint(m, x[i]))


def _certificate_grid(m, seed=7):
    """A time-varying certificate on ``m`` and N_ROWS states at their own start times."""
    x_star = m.project(m.random_point(np.random.default_rng(seed)))
    spec = make_system("time_varying_attractor", m, x_star)
    V = construct_exp_V(spec.field, spec.equilibrium, 0.4, p=2.0, step=1e-2)
    rng = np.random.default_rng(seed + 1)
    x = np.array([m.exp(x_star, m.random_tangent(rng, x_star, norm=rng.uniform(0.2, 1.0)))
                  for _ in range(N_ROWS)])
    return spec, V, np.array([0.0, 1.0, math.e, 10.0, 0.3]), x


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
def test_lie_derivative_batch_rows_are_single_rows(m):
    _, V, t, x = _certificate_grid(m)
    batch = V.quadrature(V.node_flow(t, x))[1]
    assert batch.shape == (N_ROWS,)
    for i in range(N_ROWS):
        assert batch[i] == V.quadrature(V.node_flow(t[i], x[i]))[1]
        # the flow-integral identity on the row's own node flow, row alone
        d = m.dist(V.node_flow(t[i], x[i])([0.0, V.horizon]), V.x_star.coords)
        assert batch[i] == d[-1] ** V.p - d[0] ** V.p


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
def test_directional_derivative_batch_rows_are_single_rows(m):
    _, V, t, x = _certificate_grid(m)
    rng = np.random.default_rng(9)
    v = np.array([m.random_tangent(rng, xi, norm=rng.uniform(0.5, 2.0)) for xi in x])
    v[2] = 0.0  # a zero direction differentiates to exactly zero
    batch = directional_derivative(V, t, x, v)
    assert batch.shape == (N_ROWS,)
    assert batch[2] == 0.0
    for i in range(N_ROWS):
        assert batch[i] == directional_derivative(V, t[i], x[i], v[i])


def test_lie_derivative_calls_V_once_on_the_states(monkeypatch):
    # LV comes with V from one node flow of the states themselves: no stencil.
    m = Sphere(2)
    _, V, t, x = _certificate_grid(m)
    values, want = V._evaluate_raw(t, x)
    calls = []
    raw = LyapunovFunction._evaluate_raw

    def recording(self, times, coords):
        calls.append((np.array(times), np.array(coords)))
        return raw(self, times, coords)

    monkeypatch.setattr(LyapunovFunction, "_evaluate_raw", recording)
    (got,), (lie,) = V.evaluate_groups([(t, x)])
    assert len(calls) == 1
    times, coords = calls[0]
    assert np.array_equal(times, t) and np.array_equal(coords, x)
    assert np.array_equal(lie, want) and np.array_equal(got, values)


def test_evaluate_rejects_a_point_on_another_manifold():
    _, V, t, x = _certificate_grid(Sphere(2))
    assert np.array_equal(V.evaluate(t, ManifoldPoint(Sphere(2), x)), V._evaluate_raw(t, x)[0])
    with pytest.raises(ManifoldMismatchError):
        V.evaluate(0.0, Euclidean(2).point([0.0, 0.0]))


def test_dense_flow_batch_rows_are_single_flows():
    sphere = Sphere(2)
    spec = attach_disturbance(make_system("geodesic_attractor", sphere, [0.0, 0.0, 1.0]),
                              "sinusoid", 0.1)
    closed = spec.field.with_input_signal(spec.input_signal)
    x0 = sphere.point([0.6, 0.0, 0.8])
    t0 = np.array([0.0, 1.0, math.e])
    batch = flow(closed, t0, [x0] * 3, t0 + 0.5, 1e-2)
    for start, traj in zip(t0, batch):
        alone = flow(closed, float(start), x0, float(start) + 0.5, 1e-2)
        assert np.array_equal(traj.points, alone.points)
        assert np.array_equal(traj.times, alone.times)


def test_pushforward_batch_rows_are_single_rows():
    sphere = Sphere(2)
    spec = make_system("geodesic_attractor", sphere, [0.0, 0.0, 1.0])
    x, _, w, _ = _rows(sphere, 5)
    x = sphere.exp(spec.equilibrium.coords, 0.5 * sphere.log(spec.equilibrium.coords, x))
    w = sphere.project_tangent(x, w)
    w[2] = 0.0  # a zero tangent row pushes forward to zero
    t = np.arange(float(N_ROWS))
    _, out = pushforward(spec.field, t, x, w, 0.5, 1e-2)
    for i in range(N_ROWS):
        assert np.array_equal(out[i], pushforward(spec.field, t[i], x[i], w[i], 0.5, 1e-2)[1])
    assert np.all(out[2] == 0.0)


@pytest.mark.parametrize("m, antipode", [
    (Sphere(2), lambda x: -x),
    (SpecialOrthogonal3(), lambda x: x @ np.diag([1.0, -1.0, -1.0])),
], ids=["sphere2", "so3"])
def test_batch_with_one_antipodal_row_raises(m, antipode):
    x, _, w, y = _rows(m, 6)
    y[3] = antipode(x[3])
    with pytest.raises(CutLocusError):
        m.log(x, y)
    with pytest.raises(CutLocusError):
        m.transport(x, y, w)
    m.log(np.delete(x, 3, axis=0), np.delete(y, 3, axis=0))  # the other rows are fine


def test_batch_with_one_nonfinite_row_raises_at_that_row_time():
    plane = Euclidean(2)

    def rhs(t, x):  # the second row, started at t = 1, blows up after t = 1.2
        blow_up = plane.rows((x[..., 0] > 0.5) & (np.asarray(t) > 1.2))
        return np.where(blow_up, np.inf, -x)

    field = TimeVaryingField(plane, rhs)
    with pytest.raises(IntegrationError) as err:
        flow_samples(field, np.array([0.0, 1.0]), np.array([[0.1, 0.0], [0.9, 0.0]]), [0.5], 1e-2)
    assert 1.2 < err.value.t <= 1.22


def test_massera_function_is_elementwise():
    times = np.linspace(0.0, 10.0, 41)
    G = massera_G(times, 1.0 / np.sqrt(2.0 * times + 1.0))
    s = np.linspace(-0.1, 1.3, 29)  # below zero, inside, and past the last knot
    assert np.array_equal(G.value(s), [G.value(float(si)) for si in s])
    assert np.array_equal(G.derivative(s), [G.derivative(float(si)) for si in s])
    assert isinstance(G.value(0.5), float)
