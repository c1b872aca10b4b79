import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from geolyap.manifolds import (
    CutLocusError,
    Euclidean,
    GeodesicSegment,
    GeometryError,
    Hyperbolic2,
    Manifold,
    ManifoldMismatchError,
    ManifoldPoint,
    Sphere,
    SpecialOrthogonal3,
    TangentVector,
    distance,
    endpoint_variation,
    exp_map,
    first_variation_residual,
    first_variation_terms,
    geodesic_point,
    inner,
    interior_variation,
    log_map,
    manifold_from_name,
    parallel_transport,
    point_from_json,
    tangent_from_json,
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
    x = m.point([0.0, 0.0])
    assert inner(x, m.tangent(x, [1.0, 0.0]), m.tangent(x, [0.0, 1.0])) == 0.0


def test_inner_sphere_matches_embedding_dot():
    m = Sphere(2)
    x = m.point([0.0, 0.0, 1.0])
    v = m.tangent(x, [1.0, 0.0, 0.0])
    assert inner(x, v, v) == pytest.approx(1.0, abs=1e-15)


def test_inner_hyperbolic_minkowski_restriction():
    # At the origin (1,0,0) the tangent (0,1,0) has Minkowski square
    # -0^2 + 1^2 + 0^2 = 1.
    m = Hyperbolic2()
    x = m.point([1.0, 0.0, 0.0])
    v = m.tangent(x, [0.0, 1.0, 0.0])
    assert inner(x, v, v) == pytest.approx(1.0, abs=1e-15)


def test_inner_requires_matching_base():
    m = Sphere(2)
    x = m.point([0.0, 0.0, 1.0])
    y = m.point([1.0, 0.0, 0.0])
    v = m.tangent(x, [1.0, 0.0, 0.0])
    w = m.tangent(y, [0.0, 1.0, 0.0])
    with pytest.raises(ManifoldMismatchError):
        inner(x, v, w)


def test_kind_mismatch_rejected():
    with pytest.raises(ManifoldMismatchError):
        distance(Euclidean(2).point([0, 0]), Euclidean(3).point([0, 0, 0]))
    with pytest.raises(ManifoldMismatchError):
        distance(Sphere(2).point([0, 0, 1]), Hyperbolic2().point([1, 0, 0]))


# -- exp / log / distance -------------------------------------------------


def test_exp_euclidean_is_translation():
    m = Euclidean(2)
    x = m.point([1.0, 2.0])
    y = exp_map(x, m.tangent(x, [3.0, 4.0]))
    np.testing.assert_allclose(y.coords, [4.0, 6.0])


def test_exp_sphere_quarter_turn():
    m = Sphere(2)
    x = m.point([0.0, 0.0, 1.0])
    y = exp_map(x, m.tangent(x, [math.pi / 2, 0.0, 0.0]))
    np.testing.assert_allclose(y.coords, [1.0, 0.0, 0.0], atol=1e-15)


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
    m = Euclidean(2)
    v = log_map(m.point([0.0, 0.0]), m.point([3.0, 4.0]))
    np.testing.assert_allclose(v.components, [3.0, 4.0])


def test_log_sphere_quarter_turn():
    m = Sphere(2)
    v = log_map(m.point([0.0, 0.0, 1.0]), m.point([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(v.components, [math.pi / 2, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_log_of_same_point_is_zero(m):
    x = ManifoldPoint(m, m.project(m.random_point(np.random.default_rng(1))))
    assert log_map(x, x).norm == pytest.approx(0.0, abs=1e-12)


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
    assert distance(Euclidean(2).point([0, 0]), Euclidean(2).point([3, 4])) == 5.0
    s = Sphere(2)
    assert distance(s.point([0, 0, 1]), s.point([1, 0, 0])) == pytest.approx(math.pi / 2)
    h = Hyperbolic2()
    y = h.point([math.cosh(1.0), math.sinh(1.0), 0.0])
    assert distance(h.point([1, 0, 0]), y) == pytest.approx(1.0, abs=1e-12)


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
        x = ManifoldPoint(m, m.project(m.random_point(rng)))
        v = TangentVector(x, m.random_tangent(rng, x.coords))
        out = parallel_transport(x, x, v)
        np.testing.assert_allclose(out.components, v.components, atol=1e-12)


def test_transport_euclidean_is_component_identity():
    m = Euclidean(3)
    x, y = m.point([0, 0, 0]), m.point([5, -2, 1])
    v = m.tangent(x, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(parallel_transport(x, y, v).components, [1, 2, 3])


def test_transport_sphere_meridian_against_rotation_oracle():
    # Transport along the meridian from the pole to the equator: the rotation
    # taking x to y around axis = x cross y moves tangents the same way.
    m = Sphere(2)
    x = m.point([0.0, 0.0, 1.0])
    y = m.point([1.0, 0.0, 0.0])
    v = m.tangent(x, [0.0, 1.0, 0.0])
    out = parallel_transport(x, y, v)
    np.testing.assert_allclose(out.components, [0.0, 1.0, 0.0], atol=1e-14)
    axis = np.cross(x.coords, y.coords)
    axis /= np.linalg.norm(axis)
    theta = math.acos(float(np.dot(x.coords, y.coords)))
    oracle = Rotation.from_rotvec(theta * axis).as_matrix() @ v.components
    np.testing.assert_allclose(out.components, oracle, atol=1e-14)


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


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_transport_back_is_transport_along_the_step(m):
    # The integrator's stage transport: w at exp_x(v) back to x, |v| up to 1.5.
    rng = np.random.default_rng(17)
    for norm in np.linspace(0.0, 1.5, 31):
        x = m.project(m.random_point(rng))
        v = m.random_tangent(rng, x, norm=norm)
        y = m.exp(x, v)
        w = m.random_tangent(rng, y, norm=rng.uniform(0.5, 2.0))
        err = np.max(np.abs(m.transport_back(x, v, y, w) - m.transport(y, x, w)))
        assert err <= 1e-12, (norm, err)


def test_sphere2_frame_matches_gram_schmidt():
    s = Sphere(2)
    rng = np.random.default_rng(19)
    special = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
               [0.6, 0.8, 0.0], [0.6, -0.8, 0.0],   # x cross b0 normal to e1
               [1.0, 1e-9, 0.0], [-1.0, 0.0, 1e-10]]  # within 1e-8 of +-e0: generic rows
    x = s.project(np.concatenate([np.array(special, dtype=float),
                                  rng.standard_normal((500, 3))]))
    frame = s.tangent_basis(x)
    assert np.max(np.abs(frame - Manifold.tangent_basis(s, x))) <= 1e-10
    assert np.max(np.abs(np.einsum("nij,nkj->nik", frame, frame) - np.eye(2))) <= 1e-12
    assert np.max(np.abs(np.einsum("nij,nj->ni", frame, x))) <= 1e-12


def test_cut_locus_rejection():
    s = Sphere(2)
    north, south = s.point([0, 0, 1]), s.point([0, 0, -1])
    with pytest.raises(CutLocusError) as err:
        log_map(north, south)
    assert err.value.pair[0] is not None
    so3 = SpecialOrthogonal3()
    R = so3.point(np.eye(3))
    half_turn = so3.point(Rotation.from_rotvec([math.pi, 0, 0]).as_matrix())
    with pytest.raises(CutLocusError):
        log_map(R, half_turn)
    with pytest.raises(CutLocusError):
        parallel_transport(north, south, s.tangent(north, [1.0, 0, 0]))


# -- geodesics ---------------------------------------------------------------


def test_geodesic_point_endpoints_and_midpoint():
    m = Euclidean(2)
    x, y = m.point([0, 0]), m.point([2, 0])
    assert geodesic_point(x, y, 0.0) is x
    assert geodesic_point(x, y, 1.0) is y
    np.testing.assert_allclose(geodesic_point(x, y, 0.5).coords, [1, 0])
    with pytest.raises(GeometryError):
        geodesic_point(x, y, 1.5)


@pytest.mark.parametrize("m", [Sphere(2), SpecialOrthogonal3(), Hyperbolic2()],
                         ids=lambda m: m.name)
def test_geodesic_point_scales_distance(m):
    rng = np.random.default_rng(17)
    x, v = _random_pair(m, rng)
    xp = ManifoldPoint(m, x)
    yp = ManifoldPoint(m, m.exp(x, v))
    d = distance(xp, yp)
    for s in (0.25, 0.5, 0.75):
        assert distance(xp, geodesic_point(xp, yp, s)) == pytest.approx(s * d, abs=1e-10)


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_geodesic_segment_has_zero_covariant_acceleration(m):
    rng = np.random.default_rng(19)
    x, v = _random_pair(m, rng)
    xp = ManifoldPoint(m, x)
    seg = GeodesicSegment(xp, TangentVector(xp, v))
    assert seg.length == pytest.approx(m.norm(x, v))
    assert seg.covariant_acceleration_residual() < 1e-8


# -- first variation of arc length -------------------------------------------


def test_first_variation_fixed_endpoints_vanishes():
    m = Sphere(2)
    x = m.point([0.0, 0.0, 1.0])
    y = m.point([math.sin(1.0), 0.0, math.cos(1.0)])
    n = m.tangent(x, [0.0, 1.0, 0.0])
    terms = first_variation_terms(x, y, interior_variation(x, y, n), h=1e-3)
    assert abs(terms.boundary_term) < 1e-9
    assert abs(terms.length_derivative) < 1e-5


def test_first_variation_euclidean_unit_stretch():
    m = Euclidean(2)
    x, y = m.point([0.0, 0.0]), m.point([1.0, 0.0])
    w = m.tangent(y, [1.0, 0.0])
    terms = first_variation_terms(x, y, endpoint_variation(x, y, w), h=1e-4)
    assert terms.length_derivative == pytest.approx(1.0, abs=1e-7)
    assert terms.boundary_term == pytest.approx(1.0, abs=1e-7)


def test_first_variation_sphere_orthogonal_endpoint_motion():
    # Moving the endpoint orthogonally to the geodesic leaves the length
    # stationary; the arc-length finite difference agrees.
    m = Sphere(2)
    x = m.point([0.0, 0.0, 1.0])
    y = m.point([math.sin(1.2), 0.0, math.cos(1.2)])
    w = m.tangent(y, [0.0, 1.0, 0.0])  # orthogonal to the meridian
    terms = first_variation_terms(x, y, endpoint_variation(x, y, w), h=1e-3)
    assert abs(terms.boundary_term) < 1e-9
    assert abs(terms.length_derivative) < 1e-5


@pytest.mark.parametrize("m", [Euclidean(2), Sphere(2), Hyperbolic2()],
                         ids=lambda m: m.name)
def test_first_variation_residual_is_second_order(m):
    rng = np.random.default_rng(23)
    x, v = _random_pair(m, rng)
    xp, yp = ManifoldPoint(m, x), ManifoldPoint(m, m.exp(x, v))
    toward = m.log(yp.coords, x)
    toward /= m.norm(yp.coords, toward)
    side = next(e for e in m.tangent_basis(yp.coords)
                if abs(m.inner(yp.coords, e, toward)) < 0.9)
    family = endpoint_variation(xp, yp, TangentVector(yp, 0.6 * toward + 0.8 * side))
    r1 = first_variation_residual(xp, yp, family, h=0.08)
    r2 = first_variation_residual(xp, yp, family, h=0.04)
    assert 0.15 <= r2 / r1 <= 0.35


def test_first_variation_degenerate_geodesic_rejected():
    m = Euclidean(2)
    x = m.point([1.0, 1.0])
    with pytest.raises(GeometryError):
        first_variation_residual(x, x, lambda t, s: x, h=0.01)


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


# -- serialization and naming ----------------------------------------------------


@pytest.mark.parametrize("m", ALL_MANIFOLDS, ids=lambda m: m.name)
def test_point_json_roundtrip(m):
    rng = np.random.default_rng(31)
    x = ManifoldPoint(m, m.project(m.random_point(rng)))
    restored = point_from_json(x.to_json())
    assert restored.manifold == m
    np.testing.assert_allclose(restored.coords, x.coords, atol=1e-12)
    v = TangentVector(x, m.random_tangent(rng, x.coords))
    tv = tangent_from_json(v.to_json())
    np.testing.assert_allclose(tv.components, v.components, atol=1e-12)


def test_manifold_from_name():
    assert manifold_from_name("sphere2") == Sphere(2)
    assert manifold_from_name("euclidean5") == Euclidean(5)
    assert manifold_from_name("so3") == SpecialOrthogonal3()
    assert manifold_from_name("hyperbolic2") == Hyperbolic2()
    with pytest.raises(GeometryError):
        manifold_from_name("torus2")
