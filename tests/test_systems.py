import math

import numpy as np
import pytest

from geolyap import flows
from geolyap.certify import input_lipschitz_estimate
from geolyap.flows import Region, TimeVaryingField, flow
from geolyap.manifolds import (
    Euclidean,
    GeometryError,
    ManifoldPoint,
    Sphere,
    manifold_from_name,
)
from geolyap.systems import (
    INPUT_CHANNELS,
    attach_disturbance,
    available_systems,
    frame_input_channel,
    make_disturbance_signal,
    make_system,
)
from oracles import lie_stencil

EUCLID = Euclidean(2)
SPHERE = Sphere(2)
NORTH = np.array([0.0, 0.0, 1.0])


def test_registry_contents():
    names = available_systems()
    assert {"geodesic_attractor", "time_varying_attractor", "cubic_slowdown",
            "isometric_rotation"} <= set(names)
    with pytest.raises(KeyError):
        make_system("warp_drive", EUCLID, [0.0, 0.0])


@pytest.mark.parametrize("name, params", [
    ("geodesic_attractor", {"gain": 1.3}),
    ("time_varying_attractor", {"base_gain": 1.5, "amplitude": 0.5}),
    ("cubic_slowdown", {"gain": 1.0}),
])
def test_oracles_match_measured_decay(name, params):
    spec = make_system(name, SPHERE, NORTH, **params)
    eq = spec.equilibrium.coords
    assert max(SPHERE.norm(eq, spec.field.eval_raw(t, eq)) for t in (0.0, 1.0, 5.0, 10.0)) < 1e-10
    rng = np.random.default_rng(1)
    for t0 in (0.0, 2.0):
        v0 = SPHERE.random_tangent(rng, NORTH, norm=0.8)
        x0 = ManifoldPoint(SPHERE, SPHERE.exp(NORTH, v0))
        traj = flow(spec.field, t0, x0, t0 + 3.0, 1e-2)
        d = traj.distances_to(spec.equilibrium)
        for i in range(0, len(traj), 100):
            expected = spec.distance_oracle(d[0], t0, float(traj.times[i] - t0))
            assert d[i] == pytest.approx(expected, abs=1e-6)


def test_rotation_preserves_distance():
    spec = make_system("isometric_rotation", SPHERE, NORTH, rate=1.0)
    x0 = ManifoldPoint(SPHERE, SPHERE.exp(NORTH, np.array([0.7, 0.0, 0.0])))
    traj = flow(spec.field, 0.0, x0, 4.0, 1e-2)
    d = traj.distances_to(spec.equilibrium)
    assert np.max(np.abs(d - d[0])) < 1e-7  # integrator error at this step
    with pytest.raises(GeometryError):
        make_system("isometric_rotation", EUCLID, [0.0, 0.0])


def test_rotation_field_is_the_cross_product_bit_for_bit():
    rng = np.random.default_rng(4)
    axis = SPHERE.project(rng.normal(size=3))  # a tilted axis
    spec = make_system("isometric_rotation", SPHERE, axis, rate=0.7)
    x = SPHERE.project(rng.normal(size=(2, 5, 3)))
    assert np.array_equal(spec.field.rhs(0.0, x), 0.7 * np.cross(spec.equilibrium.coords, x))
    assert np.array_equal(spec.field.rhs(0.0, x[0, 0]),
                          0.7 * np.cross(spec.equilibrium.coords, x[0, 0]))


def test_time_varying_attractor_rejects_degenerate_gain():
    with pytest.raises(ValueError):
        make_system("time_varying_attractor", SPHERE, NORTH,
                    base_gain=0.5, amplitude=0.5)


def test_disturbance_signals_have_exact_norm():
    const = make_disturbance_signal("constant", 0.3, 2)
    assert np.linalg.norm(const(0.0)) == pytest.approx(0.3)
    assert np.array_equal(const(0.0), const(5.0))
    wave = make_disturbance_signal("sinusoid", 0.2, 2, frequency=2.0)
    for t in np.linspace(0.0, 5.0, 17):
        assert np.linalg.norm(wave(t)) == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ValueError):
        make_disturbance_signal("square", 0.1, 2)


def test_attached_disturbance_uses_orthonormal_frame():
    spec = attach_disturbance(make_system("geodesic_attractor", SPHERE, NORTH),
                              "constant", 0.1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = SPHERE.exp(NORTH, SPHERE.random_tangent(rng, NORTH, norm=0.8))
        u = rng.uniform(-1.0, 1.0, 2)
        diff = spec.field.input_rhs(0.0, x, u) - spec.field.input_rhs(0.0, x, np.zeros(2))
        assert SPHERE.norm(x, diff) == pytest.approx(float(np.linalg.norm(u)), abs=1e-12)
    assert spec.input_bound == 0.1


@pytest.mark.parametrize("name", ["euclidean3", "sphere2", "sphere3", "so3", "hyperbolic2"])
def test_transported_frame_is_orthonormal_and_tangent(name):
    # The full frame (one channel per dimension) under a zero base field, at
    # 200 points within radius 2.5 of x*; then the 2-channel disturbance.
    m = manifold_from_name(name)
    rng = np.random.default_rng(17)
    x_star = m.project(m.random_point(rng))
    region = Region(ManifoldPoint(m, x_star), 2.5)
    x = region.samples(rng, 200)
    zero = TimeVaryingField(m, lambda t, X: np.zeros(np.shape(X)))
    frame = frame_input_channel(zero, m.dim, x_star)(0.0, x[:, None], np.eye(m.dim))
    gram = m.inner(x[:, None, None], frame[:, :, None], frame[:, None, :])
    assert np.max(np.abs(gram - np.eye(m.dim))) <= 1e-12
    assert np.max(np.abs(frame - m.project_tangent(x[:, None], frame))) <= 1e-12
    spec = attach_disturbance(make_system("geodesic_attractor", m, x_star), "constant", 0.1)
    u_samples = [rng.uniform(-1.0, 1.0, INPUT_CHANNELS) for _ in range(4)]
    assert abs(input_lipschitz_estimate(spec.field, region, u_samples, seed=3) - 1.0) <= 1e-12


def test_disturbed_flow_stays_bounded():
    spec = attach_disturbance(make_system("geodesic_attractor", SPHERE, NORTH),
                              "sinusoid", 0.1)
    closed = spec.field.with_input_signal(spec.input_signal)
    x0 = ManifoldPoint(SPHERE, SPHERE.exp(NORTH, np.array([1.0, 0.0, 0.0])))
    traj = flow(closed, 0.0, x0, 12.0, 1e-2)
    tail = traj.distances_to(spec.equilibrium)[len(traj) // 2:]
    assert np.max(tail) <= 0.1 * 1.2  # ultimate bound |u|/gain with slack


def _normal_ratio(m, x, f):
    """Largest |normal part of f| / |f| over the rows of x (ambient norms)."""
    normal = (f - m.project_tangent(x, f)).reshape(len(x), -1)
    f = np.reshape(f, (len(x), -1))
    return float(np.max(np.linalg.norm(normal, axis=1)
                        / np.maximum(np.linalg.norm(f, axis=1), 1e-300)))


@pytest.mark.parametrize("name", ["euclidean2", "sphere2", "so3", "hyperbolic2"])
def test_every_field_is_tangent_at_manifold_points(name, monkeypatch):
    # Nothing projects a field's rhs, so every registered system, its closed
    # disturbed fields and the oracle's two-direction Lie-stencil field must
    # return tangent vectors at manifold points.
    m = manifold_from_name(name)
    rng = np.random.default_rng(31)
    x_star = m.project(m.random_point(rng))
    x = m.exp(x_star, m.random_tangents(rng, x_star, 16, lambda: rng.uniform(0.1, 1.5)))
    t = np.linspace(0.0, 10.0, 16)
    stencils = []
    monkeypatch.setattr(flows, "flow_samples",
                        lambda field, t0, X, *args: stencils.append((field, X)) or X[None])
    for system in available_systems():
        if system == "isometric_rotation" and name != "sphere2":
            continue
        spec = make_system(system, m, x_star)
        fields = {"plain": spec.field}
        for profile in ("constant", "sinusoid"):
            disturbed = attach_disturbance(spec, profile, 0.5)
            fields[profile] = disturbed.field.with_input_signal(disturbed.input_signal)
        for label, field in fields.items():
            assert _normal_ratio(m, x, field.eval_raw(t, x)) <= 1e-12, (system, label)
            lie_stencil(field, t, x, 0.3, 0.01)
            both, X = stencils.pop()
            f = both.eval_raw(t + 0.3, X).reshape((2 * len(x),) + m.ambient_shape)
            assert _normal_ratio(m, X.reshape(f.shape), f) <= 1e-12, (system, label, "stencil")
