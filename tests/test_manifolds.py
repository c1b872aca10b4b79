import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from geolyap.manifolds import (
    CutLocusError,
    Euclidean,
    GeometryError,
    Hyperbolic2,
    Sphere,
    SpecialOrthogonal3,
    manifold_from_name,
)

ALL_MANIFOLDS = [Euclidean(2), Euclidean(3), Sphere(2), Sphere(3),
                 SpecialOrthogonal3(), Hyperbolic2()]


def _random_pair(m, rng, max_reach=None):
    reach = max_reach if max_reach is not None else min(m.cut_locus_radius * 0.45, 1.5)
    x = m.project(m.random_point(rng))
    v = m.random_tangent(rng, x, norm=reach * rng.uniform(0.05, 1.0))
    return x, v


# -- metric ---------------------------------------------------------------


def test_inner_euclidean_orthogonal_axes():
    m = Euclidean(2)
    x = np.zeros(2)
    assert m.inner(x, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_inner_sphere_matches_embedding_dot():
    m = Sphere(2)
    v = np.array([1.0, 0.0, 0.0])
    assert m.inner(np.array([0.0, 0.0, 1.0]), v, v) == pytest.approx(1.0, abs=1e-15)


def test_inner_hyperbolic_minkowski_restriction():
    # At the origin (1,0,0) the tangent (0,1,0) has Minkowski square
    # -0^2 + 1^2 + 0^2 = 1.
    m = Hyperbolic2()
    v = np.array([0.0, 1.0, 0.0])
    assert m.inner(np.array([1.0, 0.0, 0.0]), v, v) == pytest.approx(1.0, abs=1e-15)


def test_kind_mismatch_rejected():
    # A manifold is its kind and dimension: the identity every manifold
    # mismatch check compares.
    assert Sphere(2) == Sphere(2) and hash(Sphere(2)) == hash(Sphere(2))
    assert Euclidean(3) != Euclidean(2)
    assert Sphere(2) != Hyperbolic2() and Sphere(2) != Euclidean(3)


# -- exp / log / distance -------------------------------------------------


def test_exp_euclidean_is_translation():
    y = Euclidean(2).exp(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    np.testing.assert_allclose(y, [4.0, 6.0])


def test_exp_sphere_quarter_turn():
    y = Sphere(2).exp(np.array([0.0, 0.0, 1.0]), np.array([math.pi / 2, 0.0, 0.0]))
    np.testing.assert_allclose(y, [1.0, 0.0, 0.0], atol=1e-15)


def test_exp_so3_matches_rodrigues_oracle():
    m = SpecialOrthogonal3()
    rng = np.random.default_rng(3)
    for _ in range(25):
        R = m.random_point(rng)
        w = rng.standard_normal(3)
        w *= rng.uniform(0.1, 2.9) / np.linalg.norm(w)
        ours = m.exp(R, R @ np.array([[0, -w[2], w[1]],
                                      [w[2], 0, -w[0]],
                                      [-w[1], w[0], 0]], dtype=float))
        oracle = R @ Rotation.from_rotvec(w).as_matrix()
        np.testing.assert_allclose(ours, oracle, atol=1e-12)


def test_log_euclidean():
    v = Euclidean(2).log(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    np.testing.assert_allclose(v, [3.0, 4.0])


def test_log_sphere_quarter_turn():
    v = Sphere(2).log(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(v, [math.pi / 2, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_log_of_same_point_is_zero(m):
    x = m.project(m.random_point(np.random.default_rng(1)))
    assert m.norm(x, m.log(x, x)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_exp_log_roundtrip(m):
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, v = _random_pair(m, rng)
        back = m.log(x, m.exp(x, v))
        assert m.norm(x, back - v) < 1e-8


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_distance_equals_log_norm_and_arc_length(m):
    rng = np.random.default_rng(11)
    x, v = _random_pair(m, rng)
    y = m.exp(x, v)
    d = m.dist(x, y)
    assert d == pytest.approx(m.norm(x, m.log(x, y)), abs=1e-12)
    # Richardson-extrapolated chord sums converge to the arc length.
    vlog = m.log(x, y)

    def chord(k):
        pts = [m.exp(x, (i / k) * vlog) for i in range(k + 1)]
        return sum(m.dist(pts[i], pts[i + 1]) for i in range(k))

    assert abs((4 * chord(128) - chord(64)) / 3 - d) < 1e-6


def test_distance_examples():
    assert Euclidean(2).dist(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0
    s = Sphere(2)
    assert s.dist(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])) == \
        pytest.approx(math.pi / 2)
    h = Hyperbolic2()
    y = h.point([math.cosh(1.0), math.sinh(1.0), 0.0]).coords
    assert h.dist(np.array([1.0, 0.0, 0.0]), y) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_triangle_inequality(m):
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, v = _random_pair(m, rng)
        y = m.exp(x, v)
        z = m.exp(x, m.random_tangent(rng, x, norm=rng.uniform(0.1, 1.0)))
        assert m.dist(x, y) <= m.dist(x, z) + m.dist(z, y) + 1e-9


@given(st.lists(st.floats(-1, 1), min_size=3, max_size=3),
       st.lists(st.floats(-1, 1), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_sphere_roundtrip_hypothesis(xs, vs):
    m = Sphere(2)
    x_raw = np.asarray(xs)
    if np.linalg.norm(x_raw) < 1e-3:
        return
    x = m.project(x_raw)
    v = m.project_tangent(x, np.asarray(vs))
    nv = m.norm(x, v)
    if nv < 1e-6:
        return
    v = v * min(1.0, 2.5 / nv)
    assert m.norm(x, m.log(x, m.exp(x, v)) - v) < 1e-8


# -- parallel transport ----------------------------------------------------


def test_transport_zero_length_is_identity():
    for m in ALL_MANIFOLDS:
        rng = np.random.default_rng(2)
        x = m.project(m.random_point(rng))
        v = m.random_tangent(rng, x)
        np.testing.assert_allclose(m.transport(x, x, v), v, atol=1e-12)


def test_transport_euclidean_is_component_identity():
    out = Euclidean(3).transport(np.zeros(3), np.array([5.0, -2.0, 1.0]),
                                 np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out, [1, 2, 3])


def test_transport_sphere_meridian_against_rotation_oracle():
    # Transport along the meridian from the pole to the equator: the rotation
    # taking x to y around axis = x cross y moves tangents the same way.
    m = Sphere(2)
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    out = m.transport(x, y, v)
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-14)
    axis = np.cross(x, y)
    axis /= np.linalg.norm(axis)
    theta = math.acos(float(np.dot(x, y)))
    oracle = Rotation.from_rotvec(theta * axis).as_matrix() @ v
    np.testing.assert_allclose(out, oracle, atol=1e-14)


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_transport_preserves_inner_products(m):
    rng = np.random.default_rng(9)
    for _ in range(100):
        x, v = _random_pair(m, rng)
        y = m.exp(x, v)
        u1 = m.random_tangent(rng, x)
        u2 = m.random_tangent(rng, x)
        before = m.inner(x, u1, u2)
        after = m.inner(y, m.transport(x, y, u1), m.transport(x, y, u2))
        assert abs(after - before) < 1e-10


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_transport_carries_geodesic_velocity(m):
    rng = np.random.default_rng(13)
    x, v = _random_pair(m, rng)
    y = m.exp(x, v)
    forward_velocity_at_y = -m.log(y, x)
    np.testing.assert_allclose(m.transport(x, y, v), forward_velocity_at_y, atol=1e-10)


def test_cut_locus_rejection():
    s = Sphere(2)
    north, south = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])
    with pytest.raises(CutLocusError) as err:
        s.log(north, south)
    assert err.value.pair[0] is not None
    so3 = SpecialOrthogonal3()
    half_turn = so3.point(Rotation.from_rotvec([math.pi, 0, 0]).as_matrix()).coords
    with pytest.raises(CutLocusError):
        so3.log(np.eye(3), half_turn)
    with pytest.raises(CutLocusError):
        s.transport(north, south, np.array([1.0, 0.0, 0.0]))


# -- geodesics ---------------------------------------------------------------


@pytest.mark.parametrize("m", [Sphere(2), SpecialOrthogonal3(), Hyperbolic2()],
                         ids=lambda m: m.name)
def test_geodesic_point_scales_distance(m):
    # The point at fraction s of the minimizing geodesic x -> y is s d(x, y) from x.
    rng = np.random.default_rng(17)
    x, v = _random_pair(m, rng)
    y = m.exp(x, v)
    d = m.dist(x, y)
    s = np.array([0.25, 0.5, 0.75])
    along = m.exp(x, m.rows(s) * m.log(x, y))
    np.testing.assert_allclose(m.dist(x, along), s * d, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_geodesic_segment_has_zero_covariant_acceleration(m):
    # On s -> exp_x(s v) over [0, 1] in 16 steps, the velocity at each node,
    # transported back one node, equals the velocity there.
    rng = np.random.default_rng(19)
    x, v = _random_pair(m, rng)
    h = 1.0 / 16
    pts = m.exp(x, m.rows(np.arange(17) * h) * v)
    velocity = m.log(pts[:-1], pts[1:]) / h
    assert np.max(m.norm(pts[:-1], velocity)) == pytest.approx(m.norm(x, v))
    residual = m.transport(pts[1:-1], pts[:-2], velocity[1:]) - velocity[:-1]
    assert np.max(m.norm(pts[:-2], residual)) < 1e-8


# -- first variation of distance ----------------------------------------------


def _first_variation(m, x, y, w, h):
    """The central difference of d(x, exp_y(+/-h w)) over 2h, and its limit
    -<log_y(x) / d, w>_y (do Carmo, ch. 9)."""
    toward = m.log(y, x)
    d_plus, d_minus = m.dist(x, m.exp(y, np.stack([h * w, -h * w])))
    return (d_plus - d_minus) / (2.0 * h), -m.inner(y, toward, w) / m.norm(y, toward)


def test_first_variation_euclidean_unit_stretch():
    m = Euclidean(2)
    difference, limit = _first_variation(m, np.zeros(2), np.array([1.0, 0.0]),
                                         np.array([1.0, 0.0]), 1e-4)
    assert difference == pytest.approx(1.0, abs=1e-10)
    assert limit == 1.0


def test_first_variation_sphere_orthogonal_endpoint_motion():
    # Moving the endpoint orthogonally to the geodesic leaves the distance
    # stationary; the central difference agrees.
    m = Sphere(2)
    y = np.array([math.sin(1.2), 0.0, math.cos(1.2)])
    w = np.array([0.0, 1.0, 0.0])  # orthogonal to the meridian
    difference, limit = _first_variation(m, np.array([0.0, 0.0, 1.0]), y, w, 1e-3)
    assert abs(limit) < 1e-15
    assert abs(difference) < 1e-12


@pytest.mark.parametrize("m", [Euclidean(2), Sphere(2), SpecialOrthogonal3(), Hyperbolic2()],
                         ids=lambda m: m.name)
def test_first_variation_residual_is_second_order(m):
    rng = np.random.default_rng(23)
    x, v = _random_pair(m, rng)
    y = m.exp(x, v)
    toward = m.log(y, x)
    toward /= m.norm(y, toward)
    side = next(e for e in m.tangent_basis(y) if abs(m.inner(y, e, toward)) < 0.9)
    r1, r2 = (abs(np.subtract(*_first_variation(m, x, y, 0.6 * toward + 0.8 * side, h)))
              for h in (0.08, 0.04))
    assert 0.15 <= r2 / r1 <= 0.35


# -- projections and constraints ----------------------------------------------


def test_point_constructor_projects_onto_manifold():
    s = Sphere(2)
    p = s.point([3.0, 0.0, 4.0])
    assert np.linalg.norm(p.coords) == pytest.approx(1.0, abs=1e-15)
    so3 = SpecialOrthogonal3()
    noisy = np.eye(3) + 1e-3 * np.random.default_rng(0).standard_normal((3, 3))
    assert so3.constraint_violation(so3.point(noisy).coords) < 1e-12
    h = Hyperbolic2()
    assert h.constraint_violation(h.point([2.0, 0.5, -0.3]).coords) < 1e-12


def test_so3_projection_fixes_reflection():
    so3 = SpecialOrthogonal3()
    reflected = np.diag([1.0, 1.0, -1.0])
    R = so3.point(reflected).coords
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_exp_output_constraint_drift():
    rng = np.random.default_rng(29)
    for m in ALL_MANIFOLDS:
        for _ in range(50):
            x, v = _random_pair(m, rng)
            assert m.constraint_violation(m.exp(x, v)) < 1e-12


# -- random draws ----------------------------------------------------------------


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_random_draws_equal_their_batched_map_rows(m):
    # random_point and random_tangent draw their variates, then map them; the
    # batched maps over variates drawn in the same order give the same bits.
    single, batched = np.random.default_rng(53), np.random.default_rng(53)
    points = [m.random_point(single) for _ in range(6)]
    variates = np.empty((6,) + m.point_variates)
    for row in variates:
        m.draw_point(batched, row)
    mapped = m.point_map(variates)
    assert [p.tobytes() for p in points] == [p.tobytes() for p in mapped]

    x = m.project(mapped)
    norms = 1.5 * single.uniform(0.05, 1.0, size=6)
    tangents = [m.random_tangent(single, p, norm=r) for p, r in zip(x, norms)]
    batched.uniform(size=6)  # the norms, which the other generator drew
    normals = batched.standard_normal((6,) + m.ambient_shape)
    mapped = m.tangent_map(batched, x, normals, norms)
    assert [v.tobytes() for v in tangents] == [v.tobytes() for v in mapped]

    # random_tangents: a norm drawn before each row's normal, as single calls draw them.
    tangents = [m.random_tangent(single, x[0], norm=single.uniform(0.1, 1.0)) for _ in range(6)]
    mapped = m.random_tangents(batched, x[0], 6, lambda: batched.uniform(0.1, 1.0))
    assert [v.tobytes() for v in tangents] == [v.tobytes() for v in mapped]


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_random_tangents_are_isotropic_in_the_metric(m):
    # Unit draws at a point far from the origin (distance 3 on hyperbolic2)
    # have coefficients c in an orthonormal frame with E[c c^T] = I / dim.
    rng = np.random.default_rng(11)
    x = m.project(m.random_point(rng))
    if m.name == "hyperbolic2":
        x = m.exp(np.array([1.0, 0.0, 0.0]), np.array([0.0, 3.0 * 0.6, 3.0 * 0.8]))
    v = m.random_tangents(rng, x, 4000, lambda: 1.0)
    basis = m.tangent_basis(x)
    c = np.stack([m.inner(x, v, e) for e in basis], axis=-1)
    np.testing.assert_allclose(np.sum(c * c, axis=-1), 1.0, rtol=1e-9)
    second = c.T @ c / len(c)
    assert np.max(np.abs(second - np.eye(m.dim) / m.dim)) < 0.03, second


class _QueuedNormals:
    """Generator stand-in that returns queued normals and mid-range uniforms."""

    def __init__(self, *normals):
        self.normals = [np.asarray(g, dtype=float) for g in normals]

    def standard_normal(self, size=None, out=None):
        g = self.normals.pop(0)
        if out is None:
            return g.reshape(size)
        out[...] = g.reshape(out.shape)
        return out

    def uniform(self, low=0.0, high=1.0):
        return 0.5 * (low + high)


def test_normal_draw_is_redrawn_to_a_unit_tangent():
    m, north = Sphere(2), np.array([0.0, 0.0, 1.0])
    rng = _QueuedNormals([0.0, 0.0, 2.0], [0.0, 3.0, 0.0])
    assert np.array_equal(m.random_tangent(rng, north), [0.0, 1.0, 0.0])
    assert rng.normals == []
    # Batched: only the degenerate row is redrawn, after the whole stack.
    rng = _QueuedNormals([[0.0, 0.0, -4.0]])
    x = np.array([north, [1.0, 0.0, 0.0]])
    v = m.tangent_map(rng, x, np.array([[2.0, 0.0, 0.0], [5.0, 0.0, 0.0]]), 1.0)
    assert np.array_equal(v, [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert rng.normals == []
    with pytest.raises(GeometryError, match="nondegenerate"):
        m.random_tangent(_QueuedNormals(*[north] * 16), north)


def test_degenerate_hyperbolic2_point_maps_to_the_origin():
    m = Hyperbolic2()
    origin = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(m.random_point(_QueuedNormals([5.0, 0.0, 0.0])), origin)
    mapped = m.point_map(np.array([[-2.0, 0.0, 0.0, 1.0], [0.0, 0.6, -0.8, 1.0]]))
    assert np.array_equal(mapped[0], origin)
    np.testing.assert_allclose(m.dist(origin, mapped[1]), 1.0, rtol=1e-14)


# -- serialization and naming ----------------------------------------------------


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_point_json_roundtrip(m):
    # A JSON list of row-major embedding coordinates (as configs give the
    # equilibrium) reads back through Manifold.point, a tangent through
    # Manifold.project_tangent.
    rng = np.random.default_rng(31)
    x = m.project(m.random_point(rng))
    v = m.random_tangent(rng, x)
    restored = m.point(json.loads(json.dumps(x.ravel().tolist())))
    assert restored.manifold == m
    np.testing.assert_allclose(restored.coords, x, atol=1e-12)
    tv = np.reshape(json.loads(json.dumps(v.ravel().tolist())), m.ambient_shape)
    np.testing.assert_allclose(m.project_tangent(restored.coords, tv), v, atol=1e-12)


def test_manifold_from_name():
    assert manifold_from_name("sphere2") == Sphere(2)
    assert manifold_from_name("euclidean5") == Euclidean(5)
    assert manifold_from_name("so3") == SpecialOrthogonal3()
    assert manifold_from_name("hyperbolic2") == Hyperbolic2()
    with pytest.raises(GeometryError):
        manifold_from_name("torus2")
    assert manifold_from_name("sphere1000").dim == 1000
    for name in ("euclidean0", "sphere1001", "euclidean100000000000"):
        with pytest.raises(GeometryError, match="between 1 and 1000"):
            manifold_from_name(name)
