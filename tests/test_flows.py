import math

import numpy as np
import pytest

from geolyap import flows
from geolyap.certify import classify_stability
from geolyap.flows import (
    PUSHFORWARD_EPS,
    RK8,
    IntegrationError,
    Region,
    TimeVaryingField,
    arc_stencil,
    choose_step,
    contraction_offsets,
    flow,
    flow_samples,
    geodesic_stencil,
    lipschitz_estimate,
    pushforward_quotient,
    step_error,
    step_offsets,
)
from geolyap.manifolds import (
    CutLocusError,
    Euclidean,
    ManifoldMismatchError,
    ManifoldPoint,
    Sphere,
    SpecialOrthogonal3,
    Hyperbolic2,
    manifold_from_name,
)
from geolyap.systems import attach_disturbance, available_systems, make_system
from oracles import contraction_reports, lie_stencil, pushforward

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


@pytest.mark.parametrize("name", ["sphere2", "so3", "hyperbolic2"])
def test_step_projects_onto_the_manifold_once(name, monkeypatch):
    # Stage points are ambient sums off the manifold; only the step's result is projected.
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


def test_normal_rhs_fails_before_the_first_step(monkeypatch):
    # rhs is taken as tangent and never projected: a constant ambient rhs,
    # normal to the sphere at one start row, fails before any step.
    calls = []
    real = flows._rk_step
    monkeypatch.setattr(flows, "_rk_step", lambda *args: calls.append(1) or real(*args))
    field = TimeVaryingField(SPHERE, lambda t, X: np.array([1.0, 0.0, 0.0]))
    x0 = np.array([NORTH, _sphere_start(0.5).coords])
    with pytest.raises(ValueError, match="not tangent to sphere2"):
        flow_samples(field, 0.0, x0, [1.0], 0.1)
    assert calls == []


def test_rotation_flow_projects_once_per_step_and_checks_tangency_once(monkeypatch):
    # The rotation's rhs is a cross product: the flow calls Manifold.project
    # once per step and project_tangent only in the start-row check.
    spec = make_system("isometric_rotation", SPHERE, NORTH)
    rng = np.random.default_rng(44)
    x0 = SPHERE.exp(NORTH, SPHERE.random_tangents(rng, NORTH, 6, lambda: 0.8))
    calls = {"project": 0, "project_tangent": 0}

    def counting(name):
        real = getattr(Sphere, name)

        def wrapper(self, *args):
            calls[name] += 1
            return real(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Sphere, name, counting(name))
    flow_samples(spec.field, 0.0, x0, step_offsets(0.1, 0.01), 0.01)
    assert calls == {"project": 10, "project_tangent": 1}


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
    v = sphere_attractor.field.eval_raw(0.0, x.coords)
    assert abs(float(np.dot(x.coords, v))) < 1e-12


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
    # At step 0.1 each leg ends on a step shorter than the rest, off the
    # other legs' grids.
    rng = np.random.default_rng(3)
    x0 = _sphere_start(0.8).coords
    for _ in range(100):
        t_mid = rng.uniform(0.0, 1.0)
        res = _semigroup_residual(sphere_attractor.field, 0.0, x0, t_mid, 1.0, 0.1)
        assert res < 1e-7


def test_semigroup_ordering_validated(sphere_attractor):
    # A restart time past the end is a decreasing offset list.
    with pytest.raises(ValueError):
        flow_samples(sphere_attractor.field, 0.0, _sphere_start().coords, [2.0, 1.0], 1e-2)


# -- pushforward -------------------------------------------------------------------


def test_pushforward_zero_vector(sphere_attractor):
    x = _sphere_start(0.5).coords
    y0, out = pushforward(sphere_attractor.field, 0.0, x, np.zeros(3), 1.0, 1e-2)
    assert SPHERE.norm(y0, out) == 0.0


def test_pushforward_identity_when_tau_equals_t(sphere_attractor):
    # Over a zero span the quotient reads the stencil itself: v, to rounding.
    x = _sphere_start(0.5).coords
    v = SPHERE.random_tangent(np.random.default_rng(0), x)
    y0, out = pushforward(sphere_attractor.field, 0.0, x, v, 0.0, 1e-2)
    assert np.array_equal(y0, SPHERE.project(x))
    np.testing.assert_allclose(out, v, rtol=0, atol=1e-10)


def test_pushforward_euclidean_linear_oracle(euclid_linear):
    v = np.array([0.3, 0.4])
    _, out = pushforward(euclid_linear.field, 0.0, np.array([0.6, -0.2]), v, 1.0, 1e-3)
    np.testing.assert_allclose(out, math.exp(-1.0) * v, atol=1e-5)


def test_pushforward_growth_bound(sphere_attractor):
    rng = np.random.default_rng(5)
    region = Region(sphere_attractor.equilibrium, 1.0)
    L = lipschitz_estimate(sphere_attractor.field, region, [0.0], 100, seed=5).inflated()
    for _ in range(30):
        x = region.samples(rng, 1)[0]
        v = SPHERE.random_tangent(rng, x)
        tau = rng.uniform(0.1, 1.5)
        y0, out = pushforward(sphere_attractor.field, 0.0, x, v, tau, 1e-2)
        assert SPHERE.norm(y0, out) <= math.exp(L * tau) * SPHERE.norm(x, v) * (1.0 + 1e-3)


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
    calls = []
    real_flow = flows.flow_samples

    def recording_flow_samples(f, t0, x0, offs, step):
        calls.append((np.array(t0), np.array(x0), np.asarray(offs), step))
        return real_flow(f, t0, x0, offs, step)

    monkeypatch.setattr(flows, "flow_samples", recording_flow_samples)
    w = pushforward_quotient(field, t, coords, v, eps_hat, coords, ends, 0.5, 0.1)
    (t0, x0, offs, step), = calls
    assert np.array_equal(t0, [1.0]) and np.array_equal(offs, [0.5]) and step == 0.1
    assert np.array_equal(x0, geodesic_stencil(SPHERE, coords[[1]], v[[1]], 0.1 * eps_hat[[1]]))
    np.testing.assert_allclose(w[1], v[1], rtol=0, atol=1e-8)  # the zero flow pushes v to v
    keep = [0, 2]
    alone = pushforward_quotient(field, t[keep], coords[keep], v[keep], eps_hat[keep],
                                 coords[keep], stencil[:, keep], 0.5, 0.1)
    assert np.array_equal(w[keep], alone)


def test_pushforward_retries_exhausted_raise(monkeypatch):
    field, t, coords, v, eps_hat, _, ends = _cut_locus_stencil()
    reruns = []

    def stuck_flow_samples(f, t0, x0, offs, step):  # every rerun lands at the cut locus again
        reruns.append(np.array(x0))
        return ends[None][:, :, [1]]

    monkeypatch.setattr(flows, "flow_samples", stuck_flow_samples)
    with pytest.raises(CutLocusError):
        pushforward_quotient(field, t, coords, v, eps_hat, coords, ends, 0.5, 0.1)
    assert [x0.shape for x0 in reruns] == [(2, 1, 3), (2, 1, 3)]
    assert np.array_equal(reruns[1], geodesic_stencil(SPHERE, coords[[1]], v[[1]],
                                                      0.1 * (0.1 * eps_hat[[1]])))


# -- Lipschitz estimation -------------------------------------------------------------


@pytest.mark.parametrize("m", [SPHERE, SpecialOrthogonal3(), Hyperbolic2()], ids=lambda m: m.name)
def test_region_samples_equal_single_samples(m):
    # Region.samples draws each sample's radius, then its normal, as single
    # random_tangent calls do, and maps the stack in one batch, to the same bits.
    region = Region(ManifoldPoint(m, m.random_point(np.random.default_rng(3))), 0.8)
    single, batched = np.random.default_rng(19), np.random.default_rng(19)
    c = region.center.coords
    points = [m.exp(c, m.random_tangent(single, c, norm=region.draw_radius(single)))
              for _ in range(5)]
    assert [p.tobytes() for p in points] == [p.tobytes() for p in region.samples(batched, 5)]
    assert single.random() == batched.random()


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


@pytest.mark.parametrize("name", ["sphere2", "hyperbolic2"])
def test_lipschitz_estimate_reaches_the_closed_form(name):
    # The geodesic attractor's covariant derivative at distance r has
    # eigenvalue gain radially and gain r cot r (S^2) or gain r coth r (H^2)
    # transversally, so L(r) = gain max(1, r |cot r|) or gain r coth r.  Only
    # draws isotropic in the metric reach the transverse peak far out.
    m = manifold_from_name(name)
    equilibrium = [1.0, 0.0, 0.0] if name == "hyperbolic2" else [0.0, 0.0, 1.0]
    for gain in (1.0, 2.0):
        spec = make_system("geodesic_attractor", m, equilibrium, gain=gain)
        for r in (0.5, 1.0, 2.0, 3.0, 3.1):
            closed = gain * (r / math.tanh(r) if name == "hyperbolic2"
                             else max(1.0, abs(r / math.tan(r))))
            for seed in range(4):
                L = lipschitz_estimate(spec.field, Region(spec.equilibrium, r), [0.0], 64,
                                       seed=seed).inflated()
                assert L >= closed, (gain, r, seed, L, closed)


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
    x = _sphere_start(0.5).coords[None]
    _, _, passed, _, d = contraction_reports(sphere_attractor.field, 1.0, 0.0, x, x,
                                             [0.0, 1.0, 2.0], 1e-2)
    assert passed.tolist() == [True]
    assert np.all(d == 0.0)


def test_contraction_euclidean_sits_on_lower_envelope(euclid_linear):
    x1, x2 = np.array([[1.0, 0.0]]), np.array([[-0.3, 0.4]])
    taus = np.linspace(0.0, 3.0, 7)
    _, _, passed, _, d = contraction_reports(euclid_linear.field, 1.0, 0.0, x1, x2, taus, 1e-2)
    assert passed.tolist() == [True]
    d0 = EUCLID.dist(x1[0], x2[0])
    assert np.max(np.abs(d[0] / (d0 * np.exp(-taus)) - 1.0)) < 1e-8


def test_contraction_sphere_pairs(sphere_attractor):
    rng = np.random.default_rng(11)
    region = Region(sphere_attractor.equilibrium, 1.0)
    L = lipschitz_estimate(sphere_attractor.field, region, [0.0], 100, seed=11).inflated()
    taus = np.linspace(0.0, 3.0, 5)
    # 20 pairs, drawn first then second state in turn, checked in one batch.
    x1, x2 = np.moveaxis(region.samples(rng, 40).reshape((20, 2, 3)), 1, 0)
    _, _, passed, flagged, _ = contraction_reports(sphere_attractor.field, L, 0.0, x1, x2,
                                                   taus, 1e-2)
    assert passed.all() and not flagged.any() and len(passed) == 20


def test_contraction_margin_skips_the_start_row(sphere_attractor):
    # At tau = t both bounds equal d0, so that row's margin is the slack itself;
    # the reported margins are the worst over the later rows.
    x1 = _sphere_start(0.5).coords[None]
    x2 = SPHERE.exp(NORTH, np.array([0.0, -0.8, 0.0]))[None]
    slack = 1e-6
    taus = np.linspace(0.0, 3.0, 7)
    (lower_margin,), (upper_margin,), passed, _, (d,) = contraction_reports(
        sphere_attractor.field, 1.2, 0.0, x1, x2, taus, 1e-2, slack)
    d0, later = d[0], slice(1, None)
    assert passed.tolist() == [True] and taus[0] == 0.0
    assert lower_margin == pytest.approx(
        np.min(d[later] * (1.0 + slack) / (d0 * np.exp(-1.2 * taus[later])) - 1.0), rel=1e-12)
    assert upper_margin == pytest.approx(
        np.min(d0 * np.exp(1.2 * taus[later]) * (1.0 + slack) / d[later] - 1.0), rel=1e-12)
    assert min(lower_margin, upper_margin) > 100 * slack


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


# -- the Lie stencil of the central-difference oracle (tests/oracles.py) ------------


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
    # A flow starts only from points of its field's manifold.
    with pytest.raises(ManifoldMismatchError):
        flow(sphere_attractor.field, 0.0, EUCLID.point([0.0, 0.0]), 1.0)


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


def _attractor_rows(name, gain, n=6):
    """geodesic_attractor on ``name`` with n starts at radii in [0.3, 1], half at t = e."""
    m = manifold_from_name(name)
    x_star = m.project(m.random_point(np.random.default_rng(3)))
    spec = make_system("geodesic_attractor", m, x_star, gain=gain)
    rng = np.random.default_rng(4)
    x0 = m.exp(x_star, m.random_tangents(rng, x_star, n, lambda: rng.uniform(0.3, 1.0)))
    return spec.field, np.resize([0.0, math.e], n), x0, x_star


@pytest.mark.parametrize("name, gain", [("sphere2", 1.0), ("hyperbolic2", 1.0), ("so3", 2.0)])
def test_step_error_calibration_on_the_oracle(name, gain):
    # STEP_TOL is set so that gain * step = 0.32 passes and 0.64 fails on
    # every manifold, at every horizon: the estimate is per unit time, so a
    # short horizon does not shrink it.
    field, t0, x0, x_star = _attractor_rows(name, gain)
    for horizon in (0.25, 1.0, 3.0, 6.0):
        assert step_error(field, t0, x0, x_star, horizon, 0.32 / gain) <= flows.STEP_TOL
        assert step_error(field, t0, x0, x_star, horizon, 0.64 / gain) > flows.STEP_TOL


@pytest.mark.parametrize("name, gain, base, fine_step", [
    ("sphere2", 1.0, 0.01, 0.02), ("sphere2", 1.0, 0.005, 0.02),
    ("hyperbolic2", 1.0, 0.01, 0.02), ("hyperbolic2", 1.0, 0.005, 0.02),
    ("so3", 2.0, 0.005, 0.01), ("so3", 2.0, 0.0025, 0.01),
])
def test_choose_step_stays_within_the_calibrated_step(name, gain, base, fine_step):
    # fine_step is gain * step = 0.02.  The chooser, scaled by h^8 from its
    # 64x pilot, lands on 16 of them, gain * step = 0.32, which STEP_TOL
    # admits (test_step_error_calibration_on_the_oracle), never on 0.64, from
    # any base step and horizon, or on the horizon when that is shorter.
    field, t0, x0, x_star = _attractor_rows(name, gain)
    for horizon in (0.25, 1.0, 3.0, 6.0):
        step, estimate = choose_step(field, t0, x0, x_star, horizon, base)
        assert step == min(16 * fine_step, horizon), horizon
        assert 0.0 < estimate <= flows.STEP_TOL


def test_step_error_scales_with_the_step_and_takes_six_pilot_steps(monkeypatch):
    field, t0, x0, x_star = _attractor_rows("sphere2", 1.0)
    calls = []
    real = flows._rk_step

    def counting(f, t, x, dt, ks):
        calls.append(dt)
        return real(f, t, x, dt, ks)

    monkeypatch.setattr(flows, "_rk_step", counting)
    coarse = step_error(field, t0, x0, x_star, 6.0, 0.64)
    assert calls == pytest.approx([1.28] * 2 + [0.64] * 4)
    assert len(calls) == 3 * flows.PILOT_STEPS
    # A pilot of the same rows at half the step falls by about 2^8, the
    # scheme's order, which the chooser's h^8 (p = 8) scaling assumes.
    fine = step_error(field, t0, x0, x_star, 6.0, 0.32)
    assert coarse / fine >= 2.0 ** 7
    assert coarse / fine == pytest.approx(2.0 ** 8, rel=0.25)
    # A horizon shorter than the pilot integrates only the horizon.
    calls.clear()
    step_error(field, t0, x0, x_star, 0.1, 0.08)
    assert calls == pytest.approx([0.05] * 2 + [0.025] * 4)


def test_choose_step_keeps_the_base_step_for_a_stiff_field():
    # d' = -1e6 d^3.  The 64x pilot leaves the reals on the plane and, since
    # its stage points leave the sphere, on the sphere too, so no rung meets
    # STEP_TOL: the stage keeps the base step and reports that step's own
    # estimate, far above FLOW_TOL, so the stage then fails at its anchor.
    for name in ("euclidean2", "sphere2"):
        m = manifold_from_name(name)
        x_star = m.project(m.random_point(np.random.default_rng(0)))
        field = make_system("cubic_slowdown", m, x_star, gain=1e6).field
        rng = np.random.default_rng(1)
        x0 = m.exp(x_star, m.random_tangents(rng, x_star, 4, lambda: rng.uniform(0.3, 1.0)))
        step, estimate = choose_step(field, 0.0, x0, x_star, 6.0, 0.01)
        assert step == 0.01
        assert estimate == step_error(field, 0.0, x0, x_star, 6.0, 0.01)
        assert not estimate <= 1e-6
        assert step_error(field, 0.0, x0, x_star, 6.0, 0.64) == math.inf


def _non_radial_rows(name):
    """A smooth non-radial field on ``name`` and 6 states: the disturbed sinusoid
    on sphere2 and hyperbolic2, kept clear of the planes x2 = 0 where their
    input frames flip, and on so3 an attractor plus the tangent projection of
    cos(t) C for a fixed matrix C (a field's rhs must be tangent)."""
    m = manifold_from_name(name)
    rng = np.random.default_rng(21)
    if name == "so3":
        x_star = m.project(m.random_point(rng))
        C = rng.standard_normal((3, 3))
        attractor = make_system("geodesic_attractor", m, x_star).field
        field = TimeVaryingField(
            m, lambda t, X: attractor.rhs(t, X) + m.project_tangent(X, m.rows(np.cos(t)) * C))
    else:
        origin, v = (NORTH, [0.2, 0.4, 0.0]) if name == "sphere2" else ([1.0, 0.0, 0.0],
                                                                       [0.0, 0.3, 1.2])
        x_star = m.exp(np.array(origin), np.array(v))
        spec = attach_disturbance(make_system("geodesic_attractor", m, x_star), "sinusoid", 0.5)
        field = spec.field.with_input_signal(spec.input_signal)
    x0 = m.exp(x_star, m.random_tangents(rng, x_star, 6, lambda: rng.uniform(0.3, 0.6)))
    return field, np.resize([0.0, 1.0], 6), x0


@pytest.mark.parametrize("name", ["sphere2", "hyperbolic2", "so3"])
def test_rk8_eighth_order_on_non_radial_fields(name):
    # The projected DOP853 step keeps order 8: over span 1.6, its endpoint
    # error against a span / 64 run falls at least 2^7x per halving of the
    # step (span / 4 -> span / 16) while it stays above the rounding floor.
    field, t0, x0 = _non_radial_rows(name)
    m, span = field.manifold, 1.6
    reference = flow_samples(field, t0, x0, [span], span / 64)[-1]
    errors = [float(np.max(m.dist(flow_samples(field, t0, x0, [span], span / n)[-1],
                                  reference))) for n in (4, 8, 16)]
    assert errors[1] > 1e-13, errors
    for coarse, fine in zip(errors, errors[1:]):
        if fine > 1e-13:
            assert coarse / fine >= 2.0 ** 7, errors


@pytest.mark.parametrize("scheme", [RK8], ids=["RK8"])
def test_scheme_tableau_is_consistent(scheme):
    # Each stage's time is the sum of its coefficients, to 1e-15 of their
    # magnitude (DOP853's rows reach |a| ~ 40; the c = 0.6 row sums to
    # 0.6 - 1.8e-15), and the weights sum to one.
    for i, (c, row) in enumerate(scheme.stages):
        scale = max(1.0, math.fsum(abs(a) for _, a in row))
        assert abs(math.fsum(a for _, a in row) - c) <= 1e-15 * scale, c
        assert all(j < i and a != 0.0 for j, a in row)  # explicit, nonzero entries only
    assert math.fsum(b for _, b in scheme.weights) == 1.0


def test_rk8_tableau_matches_scipy_bit_for_bit():
    dop853 = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    A, B, C = np.zeros((12, 12)), np.zeros(12), np.zeros(12)
    for i, (c, row) in enumerate(RK8.stages):
        C[i] = c
        for j, a in row:
            A[i, j] = a
    for j, b in RK8.weights:
        B[j] = b
    assert (RK8.order, len(RK8.stages)) == (8, 12)
    assert sum(len(row) for _, row in RK8.stages) == 50 and len(RK8.weights) == 8
    assert A.tobytes() == np.ascontiguousarray(dop853.A[:12, :12]).tobytes()
    assert B.tobytes() == np.asarray(dop853.B, dtype=float).tobytes()
    assert C.tobytes() == np.asarray(dop853.C[:12], dtype=float).tobytes()


def test_rk8_interpolant_matches_scipy_bit_for_bit():
    # DOP853's dense output: 3 extra stages after the FSAL stage (index 12)
    # and the 4 rows of D, over the 16 stages.
    dop853 = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    extra, rows = RK8.dense
    A, C, D = np.zeros((3, 16)), np.zeros(3), np.zeros((4, 16))
    for i, (c, row) in enumerate(extra):
        C[i] = c
        for j, a in row:
            A[i, j] = a
    for i, row in enumerate(rows):
        for j, d in row:
            D[i, j] = d
    assert (len(extra), len(rows), dop853.INTERPOLATOR_POWER) == (3, 4, 7)
    assert all(a != 0.0 for _, row in extra for _, a in row)
    assert all(d != 0.0 for row in rows for _, d in row)
    assert A.tobytes() == np.ascontiguousarray(dop853.A[13:16]).tobytes()
    assert C.tobytes() == np.asarray(dop853.C[13:16], dtype=float).tobytes()
    assert D.tobytes() == np.ascontiguousarray(dop853.D, dtype=float).tobytes()


@pytest.mark.parametrize("name, system, params", [
    ("sphere2", "geodesic_attractor", {}), ("hyperbolic2", "geodesic_attractor", {}),
    ("so3", "geodesic_attractor", {"gain": 2.0}), ("euclidean2", "cubic_slowdown", {}),
    ("sphere2", "time_varying_attractor", {}), ("hyperbolic2", "time_varying_attractor", {}),
])
def test_interpolated_samples_match_the_closed_form(name, system, params):
    # `flow`'s setting: 4 starts at distance 1 (the shipped grid radius) and
    # start times 0, 1, e and 10, rows every 0.01 over 6, at the step the
    # chooser picks (0.16 or 0.32).  The samples between nodes come from the
    # order-7 interpolant, within 1e-7 of the closed-form distance (measured
    # 1.9e-8 at most, on hyperbolic2; 1.3e-9 at the nodes).
    m = manifold_from_name(name)
    rng = np.random.default_rng(2)
    x_star = m.project(m.random_point(rng))
    spec = make_system(system, m, x_star, **params)
    x0 = m.exp(x_star, m.random_tangents(rng, x_star, 4, lambda: 1.0))
    t0 = np.array([0.0, 1.0, math.e, 10.0])
    step, _ = choose_step(spec.field, t0, x0, x_star, 6.0, 0.01)
    offsets = step_offsets(6.0, 0.01)
    d = m.dist(flow_samples(spec.field, t0, x0, offsets, step), x_star)
    between = np.abs(offsets / step - np.rint(offsets / step)) > 1e-6
    assert step in (0.16, 0.32) and np.count_nonzero(between) >= 500
    for i, start in enumerate(t0):
        exact = np.array([spec.distance_oracle(d[0, i], start, s) for s in offsets])
        assert np.max(np.abs(d[:, i] - exact) / exact) <= 1e-7, (i, step)


@pytest.mark.parametrize("name", ["euclidean2", "sphere2", "so3", "hyperbolic2"])
def test_rk8_node_flow_is_the_projected_step_loop_bit_for_bit(name):
    # Offsets on the step grid read the projected nodes: the flow is a loop
    # of _rk_step and project.  Samples between the nodes (their interpolant
    # hands its f(t + dt, x_new) stage to the next step) leave the nodes'
    # bits as they are.
    m = manifold_from_name(name)
    rng = np.random.default_rng(12)
    x_star = m.project(m.random_point(rng))
    field = make_system("time_varying_attractor", m, x_star).field
    x0 = m.exp(x_star, m.random_tangents(rng, x_star, 3, lambda: rng.uniform(0.2, 1.0)))
    t_rows = rng.uniform(0.0, 10.0, 3)
    nodes, x, states = step_offsets(2.0, 0.32), x0, [x0]
    for a, b in zip(nodes, nodes[1:]):
        x = m.project(flows._rk_step(field, t_rows + a, x, b - a))
        states.append(x)
    assert flow_samples(field, t_rows, x0, nodes, 0.32).tobytes() \
        == np.stack(states).tobytes()
    mixed = np.sort(np.concatenate([nodes, [0.05, 0.4, 0.41, 1.99]]))
    flowed = flow_samples(field, t_rows, x0, mixed, 0.32)
    assert flowed[np.isin(mixed, nodes)].tobytes() == np.stack(states).tobytes()


@pytest.mark.parametrize("name, gain", [("sphere2", 1.0), ("hyperbolic2", 1.0), ("so3", 2.0)])
def test_rk8_chosen_step_keeps_the_oracle_rate(name, gain):
    # The ladder picks the largest RK8 rung that meets STEP_TOL: its estimate
    # does, the rung above (estimate * 2^8) does not unless it is the top one
    # (64 base steps, or the horizon when that is shorter), and the RK8 fit at
    # that step keeps K and rate / gain within 1e-8 of 1.
    field, t0, x0, x_star = _attractor_rows(name, gain)
    m = field.manifold
    for base in (0.01, 0.005, 0.0025):
        for horizon in (0.25, 1.0, 3.0, 6.0):
            step, estimate = choose_step(field, t0, x0, x_star, horizon, base)
            assert estimate <= flows.STEP_TOL and step >= 0.16 / gain - 1e-12, (base, horizon)
            assert (step == min(64 * base, horizon)
                    or estimate * 2 ** RK8.order > flows.STEP_TOL), (base, horizon, step)
            offsets = step_offsets(horizon, step)
            points = flow_samples(field, t0, x0, offsets, step)
            fit = classify_stability(offsets, m.dist(points, x_star), base)
            assert abs(fit.rate / gain - 1.0) <= 1e-8, (base, horizon, fit.rate)
            assert abs(fit.K - 1.0) <= 1e-8, (base, horizon, fit.K)


@pytest.mark.parametrize("name, gain", [("sphere2", 1.0), ("hyperbolic2", 1.0), ("so3", 2.0)])
def test_chosen_step_keeps_the_oracle_rate(name, gain):
    # On d(t) = e^{-gain t} d0 the RK8 envelope fit at the chosen step keeps K
    # and rate / gain within 1e-8 of 1, the benchmark's oracle bound, from any
    # base step and horizon.
    field, t0, x0, x_star = _attractor_rows(name, gain)
    m = field.manifold
    for base in (0.01, 0.005, 0.0025):
        for horizon in (0.25, 0.5, 1.0, 2.0, 3.0, 6.0):
            step, _ = choose_step(field, t0, x0, x_star, horizon, base)
            offsets = step_offsets(horizon, step)
            points = flow_samples(field, t0, x0, offsets, step)
            fit = classify_stability(offsets, m.dist(points, x_star), base)
            assert abs(fit.rate / gain - 1.0) <= 1e-8, (base, horizon, fit.rate)
            assert abs(fit.K - 1.0) <= 1e-8, (base, horizon, fit.K)


def _unit_normals(m, x, rng):
    """Unit normals to the manifold at the rows of x (x itself off so3)."""
    if m.name == "so3":
        S = rng.standard_normal(x.shape)
        n = x @ (S + S.mT)
    else:
        n = x.copy()
    return n / m.rows(np.sqrt(np.sum(n * n, axis=tuple(range(1, n.ndim)))))


def _frame_jump_rows(m, x_star):
    """Points where the input frames before parallel transport jumped, each
    with a unit ambient shift across the jump.

    On sphere2 and hyperbolic2, b1 flipped sign across the plane x2 = 0: rows
    at x2 = +-1e-6, shifted along e2.  On so3, the Gram-Schmidt frame jumped
    by 2.83 where the flow from state 1 of so3/disturbed in
    data/reference_values.json passed s = 0.135: that state, shifted along
    X hat(e0), which moves X[0, 2] across 0.
    """
    if m.name == "so3":
        x = m.project(np.array([[0.002941, 0.999996, -0.0000966],
                                [-0.973665, 0.002885, 0.227964],
                                [0.227963, -0.000576, 0.973670]]))
        return x[None], (x @ np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0],
                                       [0.0, 1.0, 0.0]]))[None] / math.sqrt(2.0)
    x = np.repeat(x_star[None], 2, axis=0)
    x[:, 2] = (1e-6, -1e-6)
    return m.project(x), np.broadcast_to(np.array([0.0, 0.0, 1.0]), x.shape)


@pytest.mark.parametrize("name", ["sphere2", "hyperbolic2", "so3"])
def test_fields_are_smooth_off_the_manifold(name):
    # Stage points sit off the manifold by O(step^2 |f|^2), so every field
    # must stay finite there and move by O(eps) at distance eps.  The last
    # rows also move across the sets where earlier input frames jumped, at
    # t = pi/2, where the sinusoid drives b1 alone.
    m = manifold_from_name(name)
    rng = np.random.default_rng(8)
    x_star = m.project(m.random_point(rng))
    x = m.exp(x_star, m.random_tangents(rng, x_star, 16, lambda: rng.uniform(0.05, 1.5)))
    n = _unit_normals(m, x, rng)
    jump_x, jump_n = _frame_jump_rows(m, x_star)
    x, n = np.concatenate([x, jump_x]), np.concatenate([n, jump_n])
    t = np.concatenate([np.linspace(0.0, 10.0, 16), np.full(len(jump_x), math.pi / 2)])
    fields = {system: make_system(system, m, x_star).field for system in available_systems()
              if system != "isometric_rotation" or name == "sphere2"}
    disturbed = attach_disturbance(make_system("geodesic_attractor", m, x_star), "sinusoid", 0.5)
    fields["disturbed"] = disturbed.field.with_input_signal(disturbed.input_signal)
    for system, field in fields.items():
        f0 = field.eval_raw(t, x)
        C = 10.0 * (1.0 + float(np.max(np.abs(f0))))
        for eps in (1e-3, -1e-3, 1e-4, 1e-5):
            shifted = field.eval_raw(t, x + eps * n)
            assert np.all(np.isfinite(shifted)), (system, eps)
            assert np.max(np.abs(shifted - f0)) <= C * abs(eps), (system, eps)
