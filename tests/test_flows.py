import math

import numpy as np
import pytest

from geolyap import flows
from geolyap.flows import (
    PUSHFORWARD_EPS,
    IntegrationError,
    Region,
    TimeVaryingField,
    arc_stencil,
    contraction_envelope_check,
    contraction_offsets,
    flow,
    flow_samples,
    geodesic_stencil,
    lie_stencil,
    lipschitz_estimate,
    pushforward,
    pushforward_quotient,
    step_offsets,
)
from geolyap.manifolds import (
    CutLocusError,
    Euclidean,
    ManifoldPoint,
    Sphere,
    SpecialOrthogonal3,
    Hyperbolic2,
    TangentVector,
    manifold_from_name,
)
from geolyap.systems import make_system

EUCLID = Euclidean(2)
SPHERE = Sphere(2)
NORTH = np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def euclid_linear():
    return make_system("geodesic_attractor", EUCLID, [0.0, 0.0], gain=1.0)


@pytest.fixture(scope="module")
def sphere_attractor():
    return make_system("geodesic_attractor", SPHERE, [0.0, 0.0, 1.0], gain=1.0)


def _sphere_start(d0=1.0):
    return ManifoldPoint(SPHERE, SPHERE.exp(NORTH, np.array([d0, 0.0, 0.0])))


# -- integration ---------------------------------------------------------------


def test_zero_field_gives_constant_trajectory():
    field = TimeVaryingField(SPHERE, lambda t, x: np.zeros(3))
    x0 = _sphere_start()
    traj = flow(field, 0.0, x0, 2.0, step=1e-2)
    for p in traj.points:
        assert SPHERE.dist(p, x0.coords) < 1e-14


def test_euclidean_linear_decay(euclid_linear):
    traj = flow(euclid_linear.field, 0.0, EUCLID.point([1.0, 0.0]), 1.0, step=1e-3)
    np.testing.assert_allclose(traj.points[-1], [math.exp(-1.0), 0.0], atol=1e-8)


def test_sphere_attractor_distance_decay(sphere_attractor):
    traj = flow(sphere_attractor.field, 0.0, _sphere_start(1.0), 1.0, step=1e-3)
    d1 = SPHERE.dist(traj.points[-1], NORTH)
    assert abs(d1 - math.exp(-1.0)) < 1e-6


def test_flow_hits_final_time_exactly(sphere_attractor):
    traj = flow(sphere_attractor.field, 0.0, _sphere_start(), 0.5037, step=1e-2)
    assert traj.times[-1] == 0.5037
    assert np.all(np.diff(traj.times) > 0)


def test_flow_grid_has_no_sliver_step(sphere_attractor):
    # [0, 6] at step 0.01 is 600 steps: times t0 + k*step, ending on t1 exactly.
    traj = flow(sphere_attractor.field, 0.0, _sphere_start(), 6.0, step=1e-2)
    assert len(traj) == 601
    assert traj.times[-1] == 6.0
    assert np.min(np.diff(traj.times)) > 0.99e-2
    shifted = flow(sphere_attractor.field, math.e, _sphere_start(), math.e + 6.0, step=1e-2)
    assert len(shifted) == 601
    assert shifted.times[-1] == math.e + 6.0


def test_trajectory_step_reachability(sphere_attractor):
    traj = flow(sphere_attractor.field, 0.0, _sphere_start(1.0), 2.0, step=1e-2)
    max_speed = 1.0  # |f| = distance <= 1 on this run
    step_lengths = SPHERE.dist(traj.points[:-1], traj.points[1:])
    assert np.max(step_lengths) <= 1.01 * traj.step * max_speed
    for p in traj.points:
        assert SPHERE.constraint_violation(p) < 1e-12


def test_equilibrium_invariance(sphere_attractor):
    x_star = sphere_attractor.equilibrium
    traj = flow(sphere_attractor.field, 0.0, x_star, 10.0, step=1e-2)
    assert max(SPHERE.dist(p, x_star.coords) for p in traj.points) < 1e-9
    field, eq = sphere_attractor.field, x_star.coords
    assert max(SPHERE.norm(eq, field.eval_raw(t, eq)) for t in (0.0, 1.0, 5.0, 10.0)) < 1e-10


def test_integrator_fourth_order(sphere_attractor):
    x0 = _sphere_start(1.0)

    def endpoint_error(step):
        traj = flow(sphere_attractor.field, 0.0, x0, 1.0, step=step)
        return abs(SPHERE.dist(traj.points[-1], NORTH) - math.exp(-1.0))

    factor = endpoint_error(0.05) / endpoint_error(0.025)
    assert 8.0 <= factor <= 32.0


@pytest.mark.parametrize("name", ["sphere2", "so3", "hyperbolic2"])
def test_step_projects_onto_the_manifold_once(name, monkeypatch):
    # Stage points come from the bare geodesic; only the step's result is projected.
    m = manifold_from_name(name)
    rng = np.random.default_rng(43)
    x_star = m.project(m.random_point(rng))
    spec = make_system("geodesic_attractor", m, x_star, gain=1.0)
    x0 = np.array([m.exp(x_star, m.random_tangent(rng, x_star, norm=0.8)) for _ in range(6)])
    calls = []
    real = type(m).project
    monkeypatch.setattr(type(m), "project", lambda self, c: calls.append(1) or real(self, c))
    flow_samples(spec.field, 0.0, x0, step_offsets(0.1, 0.01), 0.01)
    assert len(calls) == 10


def test_flow_argument_validation(sphere_attractor):
    with pytest.raises(ValueError):
        flow(sphere_attractor.field, 1.0, _sphere_start(), 0.0)
    with pytest.raises(ValueError):
        flow(sphere_attractor.field, 0.0, _sphere_start(), 1.0, step=-0.1)


def test_nonfinite_field_raises_with_timestamp():
    def bad_rhs(t, x):
        return np.full(2, np.inf) if t > 0.5 else -x

    field = TimeVaryingField(EUCLID, bad_rhs)
    with pytest.raises(IntegrationError) as err:
        flow(field, 0.0, EUCLID.point([1.0, 0.0]), 2.0, step=1e-2)
    assert err.value.t > 0.5


def test_field_output_projected_to_tangent_space(sphere_attractor):
    x = _sphere_start(0.7)
    v = sphere_attractor.field(0.0, x)
    assert abs(float(np.dot(x.coords, v.components))) < 1e-12


# -- semigroup property -----------------------------------------------------------


def _semigroup_residual(field, t0, x0, t_mid, t1, step):
    """Distance between the direct flow to t1 and the flow restarted at t_mid,
    each leg on the step grid of its own span."""
    direct, mid = (flow_samples(field, t0, x0, step_offsets(span, step), step)[-1]
                   for span in (t1 - t0, t_mid - t0))
    via = flow_samples(field, t_mid, mid, step_offsets(t1 - t_mid, step), step)[-1]
    return field.manifold.dist(direct, via)


def test_semigroup_trivial_splits_are_exact(sphere_attractor):
    x0 = _sphere_start().coords
    assert _semigroup_residual(sphere_attractor.field, 0.0, x0, 0.0, 1.0, 1e-2) == 0.0
    assert _semigroup_residual(sphere_attractor.field, 0.0, x0, 1.0, 1.0, 1e-2) == 0.0


def test_semigroup_euclidean_closed_form(euclid_linear):
    res = _semigroup_residual(euclid_linear.field, 0.0, np.array([1.0, 0.4]), 0.5, 1.0, 1e-2)
    assert res < 1e-9


def test_semigroup_off_grid_splits(sphere_attractor):
    rng = np.random.default_rng(3)
    x0 = _sphere_start(0.8).coords
    for _ in range(100):
        t_mid = rng.uniform(0.0, 1.0)
        res = _semigroup_residual(sphere_attractor.field, 0.0, x0, t_mid, 1.0, 1e-2)
        assert res < 1e-7


def test_semigroup_ordering_validated(sphere_attractor):
    # A restart time past the end is a decreasing offset list.
    with pytest.raises(ValueError):
        flow_samples(sphere_attractor.field, 0.0, _sphere_start().coords, [2.0, 1.0], 1e-2)


# -- pushforward -------------------------------------------------------------------


def test_pushforward_zero_vector(sphere_attractor):
    x = _sphere_start(0.5)
    v = TangentVector(x, np.zeros(3))
    out = pushforward(sphere_attractor.field, 0.0, x, v, 1.0, step=1e-2)
    assert out.norm == 0.0


def test_pushforward_identity_when_tau_equals_t(sphere_attractor):
    x = _sphere_start(0.5)
    v = TangentVector(x, SPHERE.random_tangent(np.random.default_rng(0), x.coords))
    assert pushforward(sphere_attractor.field, 0.0, x, v, 0.0) is v


def test_pushforward_euclidean_linear_oracle(euclid_linear):
    x = EUCLID.point([0.6, -0.2])
    v = EUCLID.tangent(x, [0.3, 0.4])
    out = pushforward(euclid_linear.field, 0.0, x, v, 1.0, step=1e-3)
    np.testing.assert_allclose(out.components, math.exp(-1.0) * v.components, atol=1e-5)


def test_pushforward_growth_bound(sphere_attractor):
    rng = np.random.default_rng(5)
    region = Region(sphere_attractor.equilibrium, 1.0)
    L = lipschitz_estimate(sphere_attractor.field, region, [0.0], 100, seed=5).inflated()
    for _ in range(30):
        x = ManifoldPoint(SPHERE, region.sample(rng))
        v = TangentVector(x, SPHERE.random_tangent(rng, x.coords))
        tau = rng.uniform(0.1, 1.5)
        out = pushforward(sphere_attractor.field, 0.0, x, v, tau, step=1e-2)
        assert out.norm <= math.exp(L * tau) * v.norm * (1.0 + 1e-3)


def _cut_locus_stencil():
    """Three stencils under a zero field (the flowed ends are the stencil
    itself), with row 1's plus end moved within the cut margin of its base."""
    rng = np.random.default_rng(4)
    coords = np.array([SPHERE.exp(NORTH, SPHERE.random_tangent(rng, NORTH, norm=0.5))
                       for _ in range(3)])
    v = np.array([SPHERE.random_tangent(rng, c, norm=1.0) for c in coords])
    eps_hat, stencil = arc_stencil(SPHERE, coords, v, PUSHFORWARD_EPS)
    ends = stencil.copy()
    ends[0, 1] = SPHERE.exp(-coords[1], 1e-7 * v[1])  # pi - 1e-7 from its base
    field = TimeVaryingField(SPHERE, lambda t, X: np.zeros_like(X))
    return field, np.array([0.0, 1.0, 2.0]), coords, v, eps_hat, stencil, ends


def test_pushforward_retry_reruns_only_the_cut_locus_row(monkeypatch):
    field, t, coords, v, eps_hat, stencil, ends = _cut_locus_stencil()
    offsets = np.linspace(0.0, 0.5, 9)
    calls = []
    real_flow = flows.flow_samples

    def recording_flow_samples(f, t0, x0, offs, step):
        calls.append((np.array(t0), np.array(x0), np.asarray(offs), step))
        return real_flow(f, t0, x0, offs, step)

    monkeypatch.setattr(flows, "flow_samples", recording_flow_samples)
    w = pushforward_quotient(field, t, coords, v, eps_hat, coords, ends, offsets, 0.1)
    (t0, x0, offs, step), = calls
    assert np.array_equal(t0, [1.0]) and np.array_equal(offs, offsets) and step == 0.1
    assert np.array_equal(x0, geodesic_stencil(SPHERE, coords[[1]], v[[1]], 0.1 * eps_hat[[1]]))
    np.testing.assert_allclose(w[1], v[1], rtol=0, atol=1e-8)  # the zero flow pushes v to v
    keep = [0, 2]
    alone = pushforward_quotient(field, t[keep], coords[keep], v[keep], eps_hat[keep],
                                 coords[keep], stencil[:, keep], offsets, 0.1)
    assert np.array_equal(w[keep], alone)


def test_pushforward_retries_exhausted_raise(monkeypatch):
    field, t, coords, v, eps_hat, _, ends = _cut_locus_stencil()
    reruns = []

    def stuck_flow_samples(f, t0, x0, offs, step):  # every rerun lands at the cut locus again
        reruns.append(np.array(x0))
        return ends[None][:, :, [1]]

    monkeypatch.setattr(flows, "flow_samples", stuck_flow_samples)
    with pytest.raises(CutLocusError):
        pushforward_quotient(field, t, coords, v, eps_hat, coords, ends, [0.0, 0.5], 0.1)
    assert [x0.shape for x0 in reruns] == [(2, 1, 3), (2, 1, 3)]
    assert np.array_equal(reruns[1], geodesic_stencil(SPHERE, coords[[1]], v[[1]],
                                                      0.1 * (0.1 * eps_hat[[1]])))


# -- Lipschitz estimation -------------------------------------------------------------


def test_lipschitz_zero_field():
    field = TimeVaryingField(SPHERE, lambda t, x: np.zeros(3))
    est = lipschitz_estimate(field, Region(ManifoldPoint(SPHERE, NORTH), 1.0),
                             [0.0], 50, seed=1)
    assert est.transport_constant == 0.0
    assert est.covariant_constant == 0.0


def test_lipschitz_euclidean_linear(euclid_linear):
    est = lipschitz_estimate(euclid_linear.field,
                             Region(EUCLID.point([0.0, 0.0]), 1.0), [0.0], 100, seed=2)
    assert est.transport_constant == pytest.approx(1.0, rel=0.02)
    assert est.covariant_constant == pytest.approx(1.0, rel=0.02)


def test_lipschitz_sphere_attractor(sphere_attractor):
    est = lipschitz_estimate(sphere_attractor.field,
                             Region(sphere_attractor.equilibrium, 1.0),
                             [0.0], 200, seed=3)
    assert est.combined == pytest.approx(1.0, rel=0.05)


def test_lipschitz_transport_below_covariant():
    # A convex region: the covariant bound dominates the transport bound.
    for system, manifold, eq in [
        ("geodesic_attractor", SPHERE, [0.0, 0.0, 1.0]),
        ("geodesic_attractor", Hyperbolic2(), [1.0, 0.0, 0.0]),
    ]:
        spec = make_system(system, manifold, eq, gain=1.0)
        est = lipschitz_estimate(spec.field, Region(spec.equilibrium, 1.0),
                                 [0.0], 300, seed=4)
        assert est.transport_constant <= est.covariant_constant * 1.05


def test_lipschitz_deterministic_and_validated(sphere_attractor):
    region = Region(sphere_attractor.equilibrium, 1.0)
    a = lipschitz_estimate(sphere_attractor.field, region, [0.0], 50, seed=9)
    b = lipschitz_estimate(sphere_attractor.field, region, [0.0], 50, seed=9)
    assert a.transport_constant == b.transport_constant
    assert a.covariant_constant == b.covariant_constant
    with pytest.raises(ValueError):
        lipschitz_estimate(sphere_attractor.field, region, [0.0], 0, seed=1)
    with pytest.raises(ValueError):
        lipschitz_estimate(sphere_attractor.field,
                           Region(sphere_attractor.equilibrium, 4.0), [0.0], 10, seed=1)


# -- contraction envelope ---------------------------------------------------------------


def test_contraction_identical_points_pass(sphere_attractor):
    x = _sphere_start(0.5)
    report = contraction_envelope_check(sphere_attractor.field, 1.0, x, x, 0.0,
                                        [0.0, 1.0, 2.0], step=1e-2)
    assert report.passed
    assert all(r.measured == 0.0 for r in report.rows)


def test_contraction_euclidean_sits_on_lower_envelope(euclid_linear):
    x1 = EUCLID.point([1.0, 0.0])
    x2 = EUCLID.point([-0.3, 0.4])
    taus = np.linspace(0.0, 3.0, 7)
    report = contraction_envelope_check(euclid_linear.field, 1.0, x1, x2, 0.0,
                                        taus, step=1e-2)
    assert report.passed
    d0 = EUCLID.dist(x1.coords, x2.coords)
    for row in report.rows:
        assert abs(row.measured / (d0 * math.exp(-row.tau)) - 1.0) < 1e-8


def test_contraction_sphere_pairs(sphere_attractor):
    rng = np.random.default_rng(11)
    region = Region(sphere_attractor.equilibrium, 1.0)
    L = lipschitz_estimate(sphere_attractor.field, region, [0.0], 100, seed=11).inflated()
    taus = np.linspace(0.0, 3.0, 5)
    for _ in range(20):
        x1 = ManifoldPoint(SPHERE, region.sample(rng))
        x2 = ManifoldPoint(SPHERE, region.sample(rng))
        report = contraction_envelope_check(sphere_attractor.field, L, x1, x2, 0.0,
                                            taus, step=1e-2)
        assert report.passed and not report.flagged


def test_contraction_margin_skips_the_start_row(sphere_attractor):
    # At tau = t both bounds equal d0, so that row's margin is the slack itself;
    # the reported margins are the worst over the later rows.
    x1 = _sphere_start(0.5)
    x2 = ManifoldPoint(SPHERE, SPHERE.exp(NORTH, np.array([0.0, -0.8, 0.0])))
    slack = 1e-6
    report = contraction_envelope_check(sphere_attractor.field, 1.2, x1, x2, 0.0,
                                        np.linspace(0.0, 3.0, 7), step=1e-2, slack=slack)
    later = report.rows[1:]
    assert report.passed and report.rows[0].tau == 0.0
    assert report.worst_lower_margin == pytest.approx(
        min(r.measured * (1.0 + slack) / r.lower - 1.0 for r in later), rel=1e-12)
    assert report.worst_upper_margin == pytest.approx(
        min(r.upper * (1.0 + slack) / r.measured - 1.0 for r in later), rel=1e-12)
    assert min(report.worst_lower_margin, report.worst_upper_margin) > 100 * slack


@pytest.mark.parametrize("horizon, step, want", [
    (0.5, 0.01, [0, 8, 17, 25, 33, 42, 50]),   # nearest k to linspace(0, 0.5, 7) / 0.01
    (3.0, 0.02, [0, 25, 50, 75, 100, 125, 150]),
    (0.506, 0.01, [0, 8, 17, 25, 34, 42, 50]),  # 0.51 would pass the horizon
    (0.025, 0.01, [0, 1, 2]),                   # repeats dropped
])
def test_contraction_offsets_sit_on_the_step_grid(horizon, step, want):
    offsets = contraction_offsets(horizon, step)
    assert np.array_equal(offsets, np.array(want) * step)
    # The nodes of a step-grid flow over any longer span include them.
    assert set(offsets.tolist()) <= set(flows.step_offsets(horizon + 1.0, step).tolist())


def test_contraction_offsets_shorter_than_a_step():
    assert contraction_offsets(0.004, 0.01).tolist() == [0.0, 0.004]


# -- lie stencil ---------------------------------------------------------------------------


def test_lie_derivative_quadratic_euclidean(euclid_linear):
    # V = |x|^2 on the linear attractor has Lie derivative exactly -2 |x|^2.
    h = 5e-4
    plus, minus = lie_stencil(euclid_linear.field, 0.0, np.array([1.0, 0.0]), h, h / 4.0)
    lie = (np.vecdot(plus, plus) - np.vecdot(minus, minus)) / (2.0 * h)
    assert lie == pytest.approx(-2.0, abs=1e-6)


def test_lie_stencil_backward_end_runs_time_backward():
    # On d' = -(1.5 + 0.5 sin t) d, log d changes at rate -(1.5 + 0.5 sin t):
    # the backward end must see the field at the times from t down to t - h.
    spec = make_system("time_varying_attractor", EUCLID, [0.0, 0.0])
    h = 1e-3
    t = np.array([0.3, 1.0, 2.0])
    x = np.array([[1.0, 0.0], [0.0, 0.5], [0.3, -0.4]])
    plus, minus = lie_stencil(spec.field, t, x, h, h / 4.0)
    rate = (np.log(np.linalg.norm(plus, axis=-1))
            - np.log(np.linalg.norm(minus, axis=-1))) / (2.0 * h)
    np.testing.assert_allclose(rate, -(1.5 + 0.5 * np.sin(t)), rtol=0.0, atol=1e-6)


def test_distance_rate_matches_transported_field_difference(sphere_attractor):
    # d/dtau d(phi(tau,x1), phi(tau,x2)) at tau=t equals
    # <gamma'(0), P_{x2->x1} f(x2) - f(x1)> on the unit-speed geodesic.
    rng = np.random.default_rng(21)
    field = sphere_attractor.field
    for _ in range(20):
        x1 = SPHERE.exp(NORTH, SPHERE.random_tangent(rng, NORTH, norm=rng.uniform(0.2, 1.0)))
        x2 = SPHERE.exp(NORTH, SPHERE.random_tangent(rng, NORTH, norm=rng.uniform(0.2, 1.0)))
        if SPHERE.dist(x1, x2) < 0.05:
            continue
        h = 1e-4
        a_plus, = flow_samples(field, 0.0, x1, [h], step=h / 4)
        b_plus, = flow_samples(field, 0.0, x2, [h], step=h / 4)
        rev = TimeVaryingField(SPHERE, lambda t, c: -field.eval_raw(-t, c))
        a_minus, = flow_samples(rev, 0.0, x1, [h], step=h / 4)
        b_minus, = flow_samples(rev, 0.0, x2, [h], step=h / 4)
        fd_rate = (SPHERE.dist(a_plus, b_plus) - SPHERE.dist(a_minus, b_minus)) / (2 * h)
        gamma0 = SPHERE.log(x1, x2)
        gamma0 /= SPHERE.norm(x1, gamma0)
        diff = SPHERE.transport(x2, x1, field.eval_raw(0.0, x2)) - field.eval_raw(0.0, x1)
        assert fd_rate == pytest.approx(SPHERE.inner(x1, gamma0, diff), abs=1e-5)


# -- field wrappers -------------------------------------------------------------------------


def test_field_kind_check(sphere_attractor):
    with pytest.raises(Exception):
        sphere_attractor.field(0.0, EUCLID.point([0.0, 0.0]))


def test_with_input_signal_requires_channel(sphere_attractor):
    with pytest.raises(ValueError):
        sphere_attractor.field.with_input_signal(lambda t: np.zeros(2))


def test_trajectory_serialization_and_determinism(sphere_attractor):
    x0 = _sphere_start(0.9)
    a = flow(sphere_attractor.field, 0.0, x0, 1.0, step=1e-2)
    b = flow(sphere_attractor.field, 0.0, x0, 1.0, step=1e-2)
    assert np.array_equal(a.points, b.points)  # bit-identical reruns
    # The flow command's CSV rows: t, then the embedding coordinates.
    table = np.column_stack([a.times, a.points])
    assert table.shape == (len(a), 4) and table[0, 0] == 0.0


def test_so3_attractor_flow_decay():
    so3 = SpecialOrthogonal3()
    spec = make_system("geodesic_attractor", so3, np.eye(3), gain=1.0)
    rng = np.random.default_rng(8)
    v0 = so3.random_tangent(rng, np.eye(3), norm=1.0)
    x0 = ManifoldPoint(so3, so3.exp(np.eye(3), v0))
    traj = flow(spec.field, 0.0, x0, 1.0, step=1e-2)
    d1 = so3.dist(traj.points[-1], np.eye(3))
    assert d1 == pytest.approx(math.exp(-1.0), abs=1e-6)
