import math

import numpy as np
import pytest

from geolyap.flows import flow
from geolyap.manifolds import Euclidean, GeometryError, Manifold, ManifoldPoint, Sphere
from geolyap.systems import (
    attach_disturbance,
    available_systems,
    make_disturbance_signal,
    make_system,
)

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


def test_sphere2_input_channel_matches_gram_schmidt_frame():
    # The closed-form frame, contracted with u, against the generic frame; the
    # first two rows sit within 1e-9 of -e0 and +e0, where the generic frame is used.
    spec = attach_disturbance(make_system("geodesic_attractor", SPHERE, NORTH), "constant", 0.1)
    rng = np.random.default_rng(23)
    x = SPHERE.project(np.concatenate([[[-1.0, 1e-10, 0.0], [1.0, 0.0, -1e-10]],
                                       rng.standard_normal((40, 3))]))
    frame = Manifold.tangent_basis(SPHERE, x)
    u = rng.uniform(-1.0, 1.0, (len(x), 2))
    for uu in (u, u[0]):  # one u per row, then one shared by all rows
        want = spec.field.rhs(0.5, x) + np.einsum("...i,...ij->...j", uu, frame)
        assert np.max(np.abs(spec.field.input_rhs(0.5, x, uu) - want)) <= 1e-12


def test_disturbed_flow_stays_bounded():
    spec = attach_disturbance(make_system("geodesic_attractor", SPHERE, NORTH),
                              "sinusoid", 0.1)
    closed = spec.field.with_input_signal(spec.input_signal)
    x0 = ManifoldPoint(SPHERE, SPHERE.exp(NORTH, np.array([1.0, 0.0, 0.0])))
    traj = flow(closed, 0.0, x0, 12.0, 1e-2)
    tail = traj.distances_to(spec.equilibrium)[len(traj) // 2:]
    assert np.max(tail) <= 0.1 * 1.2  # ultimate bound |u|/gain with slack
