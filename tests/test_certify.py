import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from geolyap import certify, flows, lyapunov, pipeline
from geolyap.certify import (
    CERTIFICATE_CHECKLIST,
    EnvelopeFitError,
    GridSpec,
    InputBoundError,
    check_input_signal,
    classify_stability,
    draw_verification_inputs,
    input_lipschitz_estimate,
    iss_certify,
    make_certificate,
    verify_converse_certificate,
)
from geolyap.envelopes import KLEnvelope, StabilityEnvelope
from geolyap.config import load_scenario
from geolyap.flows import (
    Region,
    TimeVaryingField,
    contraction_offsets,
    flow,
    flow_samples,
    lipschitz_estimate,
    pushforward,
)
from geolyap.lyapunov import InvalidDeltaError, LyapunovFunction, choose_delta
from geolyap.manifolds import Euclidean, ManifoldPoint, Sphere, TangentVector
from geolyap.systems import attach_disturbance, make_system

EUCLID = Euclidean(2)
SPHERE = Sphere(2)
NORTH = np.array([0.0, 0.0, 1.0])
T0_LIST = (0.0, 1.0, math.e, 10.0)


def _trajectories(spec, manifold, rng, horizon=6.0, n_per_start=3, radii=(0.3, 1.0)):
    trajs = []
    for t0 in T0_LIST:
        for _ in range(n_per_start):
            v0 = manifold.random_tangent(rng, spec.equilibrium.coords,
                                         norm=rng.uniform(*radii))
            x0 = ManifoldPoint(manifold, manifold.exp(spec.equilibrium.coords, v0))
            trajs.append(flow(spec.field, t0, x0, t0 + horizon, 1e-2))
    return trajs


@pytest.fixture(scope="module")
def sphere_attractor():
    return make_system("geodesic_attractor", SPHERE, [0.0, 0.0, 1.0], gain=1.0)


@pytest.fixture(scope="module")
def sphere_envelope(sphere_attractor):
    rng = np.random.default_rng(7)
    return classify_stability(_trajectories(sphere_attractor, SPHERE, rng),
                              sphere_attractor.equilibrium)


@pytest.fixture(scope="module")
def sphere_L(sphere_attractor):
    est = lipschitz_estimate(sphere_attractor.field,
                             Region(sphere_attractor.equilibrium, 1.0),
                             [0.0], 100, seed=7)
    return est.inflated()


# -- envelope fitting -------------------------------------------------------------


def test_fit_sphere_attractor(sphere_envelope):
    assert sphere_envelope.stability_class == "LES"
    assert sphere_envelope.K == pytest.approx(1.0, rel=0.02)
    assert sphere_envelope.rate == pytest.approx(1.0, rel=0.02)
    assert sphere_envelope.K >= 1.0


def test_fit_euclidean_double_gain():
    spec = make_system("geodesic_attractor", EUCLID, [0.0, 0.0], gain=2.0)
    rng = np.random.default_rng(3)
    env = classify_stability(_trajectories(spec, EUCLID, rng),
                             spec.equilibrium)
    assert env.stability_class == "LES"
    assert env.rate == pytest.approx(2.0, rel=0.02)


def test_fitted_envelope_dominates_samples(sphere_attractor, sphere_envelope):
    rng = np.random.default_rng(7)
    for traj in _trajectories(sphere_attractor, SPHERE, rng):
        d = traj.distances_to(sphere_attractor.equilibrium)
        bound = sphere_envelope.K * np.exp(
            -sphere_envelope.rate * (traj.times - traj.times[0])) * d[0]
        assert np.all(d <= bound * (1.0 + 1e-9))


def test_fit_rejects_equilibrium_resident_batch(sphere_attractor):
    x_star = sphere_attractor.equilibrium
    resident = [flow(sphere_attractor.field, 0.0, x_star, 2.0, 1e-2)] * 3
    with pytest.raises(EnvelopeFitError):
        classify_stability(resident, x_star)


def test_stationary_trajectory_classifies_us():
    still = TimeVaryingField(SPHERE, lambda t, x: np.zeros(3))
    x0 = ManifoldPoint(SPHERE, SPHERE.exp(NORTH, np.array([0.5, 0.0, 0.0])))
    env = classify_stability([flow(still, 0.0, x0, 4.0, 1e-2)],
                             SPHERE.point(NORTH))
    assert env.stability_class == "US"
    assert env.K is None


def test_classify_cubic_slowdown_as_uas():
    spec = make_system("cubic_slowdown", EUCLID, [0.0, 0.0], gain=1.0)
    rng = np.random.default_rng(5)
    env = classify_stability(_trajectories(spec, EUCLID, rng, horizon=10.0),
                             spec.equilibrium)
    assert env.stability_class == "UAS"
    assert env.fit_residual > 0.05
    # The sampled table dominates the closed-form decay profile.
    for r in (0.4, 0.8):
        for s in (0.0, 2.0, 8.0):
            true_d = spec.distance_oracle(r, 0.0, s)
            assert env.beta(r, s) >= true_d * (1.0 - 1e-6)


def test_classify_rotation_as_us():
    spec = make_system("isometric_rotation", SPHERE, [0.0, 0.0, 1.0], rate=1.0)
    rng = np.random.default_rng(9)
    env = classify_stability(_trajectories(spec, SPHERE, rng), spec.equilibrium)
    assert env.stability_class == "US"


def test_classify_time_varying_gain_as_les():
    spec = make_system("time_varying_attractor", SPHERE, [0.0, 0.0, 1.0],
                       base_gain=1.5, amplitude=0.5)
    rng = np.random.default_rng(13)
    env = classify_stability(_trajectories(spec, SPHERE, rng), spec.equilibrium)
    assert env.stability_class == "LES"
    assert env.K >= 1.0


def test_classify_kind_consistency(sphere_attractor):
    rng = np.random.default_rng(1)
    trajs = _trajectories(sphere_attractor, SPHERE, rng, n_per_start=1)
    with pytest.raises(Exception):
        classify_stability(trajs, EUCLID.point([0.0, 0.0]))


# -- converse certificate verification --------------------------------------------------


def test_verify_sphere_certificate(sphere_attractor, sphere_L, sphere_envelope):
    delta = choose_delta(sphere_envelope.K, sphere_envelope.rate, 0.5).delta
    report = verify_converse_certificate(
        sphere_attractor.field, sphere_attractor.equilibrium, sphere_L,
        sphere_envelope, delta, 1.0, GridSpec(16, 1.0, T0_LIST), seed=7, step=1e-2)
    assert report.verdict
    for row in report.rows:
        assert row.anchor in CERTIFICATE_CHECKLIST
    # The contraction margin is measured past the start row, not the 1e-6 slack.
    assert report.row("contraction-envelope").margin > 1e-3


def test_verify_horizon_quantities_share_one_flow(sphere_attractor, sphere_L, sphere_envelope,
                                                 monkeypatch):
    # V, the telescoping endpoints and the pushforward all read one flow over
    # V's quadrature nodes; the identity check no longer has a flow of its own.
    field, p, n, n_push = sphere_attractor.field, 2.0, 12, 10
    delta = choose_delta(sphere_envelope.K, sphere_envelope.rate, 0.5).delta
    calls, quotients = [], []
    real_flow, real_quotient = flows.flow_samples, flows.pushforward_quotient

    def recording_flow_samples(f, t0, x0, offsets, step):
        out = real_flow(f, t0, x0, offsets, step)
        calls.append((np.array(t0), np.array(x0), np.asarray(offsets, dtype=float), out))
        return out

    def recording_quotient(*args):
        out = real_quotient(*args)
        quotients.append((args, out))
        return out

    for module in (flows, lyapunov, certify):
        monkeypatch.setattr(module, "flow_samples", recording_flow_samples)
    monkeypatch.setattr(certify, "pushforward_quotient", recording_quotient)
    report = verify_converse_certificate(
        field, sphere_attractor.equilibrium, sphere_L, sphere_envelope, delta, p,
        GridSpec(n, 1.0, T0_LIST), seed=7, step=1e-2)
    assert report.verdict

    (t0, x0, offsets, out), = [c for c in calls if c[2][-1] == delta]
    # delta = ln 2 at step 0.01: 70 Simpson intervals, so each node gap is one step.
    assert np.array_equal(offsets, np.linspace(0.0, delta, 71))
    assert x0.shape == (5 * n + 2 * n_push, 3)
    t, d, _, lie = report.samples.T
    assert np.array_equal(t0[:n], t)
    end = out[-1, :n]
    telescoped = SPHERE.dist(end, NORTH) ** p - d ** p
    assert report.row("telescoping-identity").measured == float(np.max(np.abs(lie - telescoped)))

    (args, w), = quotients
    _, t_push, coords, directions, _, y0, ends, q_offsets, q_step = args
    assert np.array_equal(y0, end[:n_push])
    assert np.array_equal(ends, out[-1, 5 * n:].reshape(2, n_push, 3))
    assert np.array_equal(q_offsets, offsets) and q_step == 1e-2
    assert report.row("pushforward-growth").measured == \
        float(np.max(SPHERE.norm(y0, w))) / math.exp(sphere_L * delta)
    base = ManifoldPoint(SPHERE, coords)
    public = pushforward(field, t_push, base, TangentVector(base, directions),
                         t_push + delta, step=1e-2).components
    assert np.linalg.norm(w - public) <= 1e-8 * np.linalg.norm(public)


def test_contraction_pairs_ride_the_fit_flow_unchanged():
    # The pairs join the envelope fit's flow as extra rows: the fit is that
    # of a flow without them, and the pairs' states at the contraction
    # offsets are those of their own flow, whose substeps of the offsets'
    # gaps match the fit's step grid up to rounding.
    configs = Path(__file__).resolve().parent.parent / "configs"
    config = dataclasses.replace(load_scenario(configs / "time_varying_gain.json"),
                                 fit_horizon=2.0, envelope_horizon=0.5)
    field = config.build_system().field
    inputs = draw_verification_inputs(config.manifold, config.equilibrium, config.grid,
                                      config.seed)
    alone, no_pairs = pipeline._fit_trajectories(config, field, config.fit_horizon,
                                                 certify.ANCHOR_ENVELOPE_FIT)
    joint, pair_flow = pipeline._fit_trajectories(config, field, config.fit_horizon,
                                                  certify.ANCHOR_ENVELOPE_FIT, inputs)
    assert no_pairs is None
    assert joint.to_json() == alone.to_json()
    assert np.array_equal(joint.beta.table, alone.beta.table)
    offsets = contraction_offsets(config.envelope_horizon, config.step)
    alone = flow_samples(field, inputs.pair_t, inputs.pair_x, offsets, config.step)
    assert pair_flow.shape == alone.shape
    assert np.max(np.abs(pair_flow - alone)) <= 1e-14


def test_verify_rejects_bad_horizon_before_any_flow(sphere_envelope):
    calls = []

    def counting_rhs(t, coords):
        calls.append(t)
        return SPHERE.log(coords, NORTH)

    field = TimeVaryingField(SPHERE, counting_rhs)
    env = StabilityEnvelope("LES", 2.0, 1.0, sphere_envelope.beta, 0.0, 1.0, 3)
    with pytest.raises(InvalidDeltaError):
        verify_converse_certificate(field, SPHERE.point(NORTH), 1.05, env,
                                    delta=0.1, p=1.0, grid=GridSpec(8, 1.0, T0_LIST))
    assert calls == []


def test_verify_nonexponential_envelope_rejected(sphere_attractor):
    env = StabilityEnvelope("US", None, None,
                            KLEnvelope.from_exponential(1.0, 1.0, 1.0,
                                                        np.linspace(0, 6, 13)),
                            0.0, 1.0, 3)
    with pytest.raises(EnvelopeFitError):
        make_certificate(sphere_attractor.field, sphere_attractor.equilibrium,
                         1.0, env, math.log(2.0), 1.0)


def test_verify_time_varying_gain_with_uniform_lower_bound():
    # Gain 1.5 + 0.5 sin t: rate 1 is the uniform lower bound and
    # K = e covers the oscillation, so the certificate verifies.
    spec = make_system("time_varying_attractor", SPHERE, [0.0, 0.0, 1.0],
                       base_gain=1.5, amplitude=0.5)
    est = lipschitz_estimate(spec.field, Region(spec.equilibrium, 1.0),
                             [0.0, 1.0, 2.0, 4.0], 100, seed=3)
    L = est.inflated()
    env = StabilityEnvelope("LES", math.e, 1.0,
                            KLEnvelope.from_exponential(math.e, 1.0, 1.0,
                                                        np.linspace(0, 6, 13)),
                            0.0, 1.0, 12)
    delta = choose_delta(env.K, env.rate, 0.5).delta
    report = verify_converse_certificate(
        spec.field, spec.equilibrium, L, env, delta, 1.0,
        GridSpec(12, 1.0, T0_LIST), seed=3, step=1e-2)
    assert report.verdict


def test_report_serialization_and_column_order(sphere_attractor, sphere_L,
                                               sphere_envelope):
    delta = choose_delta(sphere_envelope.K, sphere_envelope.rate, 0.5).delta
    report = verify_converse_certificate(
        sphere_attractor.field, sphere_attractor.equilibrium, sphere_L,
        sphere_envelope, delta, 1.0, GridSpec(8, 1.0, T0_LIST), seed=7, step=1e-2)
    data = report.to_dict()
    assert data["verdict"] is True
    assert list(data["rows"][0]) == ["name", "anchor", "theory", "measured",
                                     "margin", "pass"]
    text = report.to_text()
    first_line = text.splitlines()[0].split()
    assert first_line == ["name", "anchor", "theory", "measured", "margin", "pass"]
    assert "verdict: PASS" in text


# -- disturbance robustness ----------------------------------------------------------------


@pytest.fixture(scope="module")
def sphere_certificate(sphere_attractor, sphere_L, sphere_envelope):
    delta = choose_delta(sphere_envelope.K, sphere_envelope.rate, 0.5).delta
    return make_certificate(sphere_attractor.field, sphere_attractor.equilibrium,
                            sphere_L, sphere_envelope, delta, 1.0, step=1e-2)


def test_input_lipschitz_unit_frame(sphere_attractor):
    spec = attach_disturbance(sphere_attractor, "constant", 0.1)
    region = Region(sphere_attractor.equilibrium, 1.0)
    samples = [np.array([0.1, 0.0]), np.array([0.0, 0.2]), np.array([0.05, -0.05])]
    assert input_lipschitz_estimate(spec.field, region, samples, seed=1) == \
        pytest.approx(1.0, rel=1e-6)


def test_input_lipschitz_scaled_channel(sphere_attractor):
    spec = attach_disturbance(sphere_attractor, "constant", 0.1)
    field = TimeVaryingField(SPHERE, spec.field.rhs,
                             input_rhs=lambda t, c, u: spec.field.input_rhs(t, c, 2.0 * u))
    region = Region(sphere_attractor.equilibrium, 1.0)
    est = input_lipschitz_estimate(field, region, [np.array([0.1, 0.0])], seed=1)
    assert est == pytest.approx(2.0, rel=0.01)


def test_input_lipschitz_rejects_zero_samples(sphere_attractor):
    spec = attach_disturbance(sphere_attractor, "constant", 0.1)
    with pytest.raises(ValueError):
        input_lipschitz_estimate(spec.field, Region(sphere_attractor.equilibrium, 1.0),
                                 [np.zeros(2)], seed=1)


def test_iss_zero_input_reduces_to_decay_check(sphere_attractor, sphere_certificate):
    spec = attach_disturbance(sphere_attractor, "constant", 0.1)
    report = iss_certify(spec.field, sphere_attractor.equilibrium, sphere_certificate,
                         lambda t: np.zeros(2), 0.0, [8.0], seed=1,
                         grid=GridSpec(8, 1.0, T0_LIST), step=1e-2)
    assert report.passed
    assert report.predicted_v_bound == 0.0


def test_iss_bounded_disturbance(sphere_attractor, sphere_certificate):
    spec = attach_disturbance(sphere_attractor, "constant", 0.1)
    report = iss_certify(spec.field, sphere_attractor.equilibrium, sphere_certificate,
                         spec.input_signal, 0.1, [8.0, 12.0], seed=1,
                         grid=GridSpec(12, 1.0, T0_LIST), step=1e-2)
    assert report.passed
    assert report.measured_v_limsup <= report.predicted_v_bound * 1.05
    assert report.anchors == {"iss-pointwise-decay", "iss-ultimate-bound"}


def test_iss_doubled_disturbance_scales(sphere_attractor, sphere_certificate):
    small = attach_disturbance(sphere_attractor, "constant", 0.1)
    large = attach_disturbance(sphere_attractor, "constant", 0.2)
    rep_small = iss_certify(small.field, sphere_attractor.equilibrium,
                            sphere_certificate, small.input_signal, 0.1, [10.0],
                            seed=1, grid=GridSpec(8, 1.0, T0_LIST), step=1e-2)
    rep_large = iss_certify(large.field, sphere_attractor.equilibrium,
                            sphere_certificate, large.input_signal, 0.2, [10.0],
                            seed=1, grid=GridSpec(8, 1.0, T0_LIST), step=1e-2)
    assert rep_large.predicted_v_bound == pytest.approx(
        2.0 * rep_small.predicted_v_bound, rel=1e-9)
    assert rep_large.measured_v_limsup <= 2.0 * rep_small.measured_v_limsup * 1.05
    assert rep_large.passed


def test_iss_fused_flow_matches_separate_flows(sphere_attractor, sphere_certificate,
                                              monkeypatch):
    # At step 0.05 every tail and series time sits on the step grid, so the
    # fused flow takes the same steps as separate flows from t = 0.
    spec = attach_disturbance(sphere_attractor, "constant", 0.1)
    closed = spec.field.with_input_signal(spec.input_signal)
    V = sphere_certificate.V
    step, horizons = 0.05, [2.0, 3.0]
    calls, evaluations = [], []
    real_evaluate_groups = LyapunovFunction.evaluate_groups

    def recording_flow_samples(field, t0, x0, offsets, step):
        calls.append(np.array(x0))
        return flow_samples(field, t0, x0, offsets, step)

    def recording_evaluate_groups(self, groups):
        out = real_evaluate_groups(self, groups)
        evaluations.append((groups, out))
        return out

    monkeypatch.setattr(certify, "flow_samples", recording_flow_samples)
    monkeypatch.setattr(LyapunovFunction, "evaluate_groups", recording_evaluate_groups)
    report = iss_certify(spec.field, sphere_attractor.equilibrium, sphere_certificate,
                         spec.input_signal, 0.1, horizons, seed=1,
                         grid=GridSpec(4, 1.0, T0_LIST), step=step)
    (x0,) = calls
    # Part (a)'s states and Lie stencil ride in part (b)'s V batch, bit for bit.
    (groups, values), = evaluations
    (t, _), (t_plus, _), (t_minus, _) = groups[:3]
    assert np.array_equal(t_plus, t + certify.LIE_H) and np.array_equal(t_minus, t - certify.LIE_H)
    for alone, fused in zip(real_evaluate_groups(V, groups[:3]), values[:3]):
        assert np.array_equal(alone, fused)
    starts, series_start = x0[:3], x0[3]
    assert SPHERE.dist(series_start, NORTH) == pytest.approx(1.0, abs=1e-12)

    tails = [np.arange(0.6 * h, h + 1e-9, 0.25) for h in horizons]
    tail_pts = [flow_samples(closed, 0.0, starts, ts, step) for ts in tails]
    tail_v = V.evaluate_groups([(np.repeat(ts, 3), pts) for ts, pts in zip(tails, tail_pts)])
    assert report.measured_d_limsup == pytest.approx(
        max(float(np.max(SPHERE.dist(pts, NORTH))) for pts in tail_pts), abs=1e-12)
    assert report.measured_v_limsup == pytest.approx(
        max(float(np.max(v)) for v in tail_v), abs=1e-12)

    traj = flow(closed, 0.0, ManifoldPoint(SPHERE, series_start), 3.0, step)
    times, points = traj.times[::2], traj.points[::2]
    assert np.array_equal(report.series[:, 0], np.arange(31) / 10.0)
    np.testing.assert_allclose(report.series[:, 0], times, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.series[:, 1], SPHERE.dist(points, NORTH),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.series[:, 2], V.evaluate(times, ManifoldPoint(
        SPHERE, points)), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(report.series[:, 3], 0.1)


def test_iss_detects_bound_violation():
    calls = []

    def signal(t):
        calls.append(np.shape(t))
        return np.array([0.2, 0.0])

    with pytest.raises(InputBoundError):
        check_input_signal(signal, 0.1, 10.0)
    assert calls == [(512,)]  # one call on the whole scan grid; the constant broadcasts
    wave = attach_disturbance(make_system("geodesic_attractor", SPHERE, NORTH), "sinusoid", 0.1)
    assert check_input_signal(wave.input_signal, 0.1, 10.0) == pytest.approx(0.1, rel=1e-15)


def test_iss_prediction_monotonicity(sphere_certificate):
    # Predicted ultimate bound c4 L_u |u|/c3: nondecreasing in |u| and L_u,
    # nonincreasing in c3.
    b = sphere_certificate.bounds
    grid_u = np.linspace(0.0, 0.5, 6)
    grid_L = np.linspace(0.5, 2.0, 4)
    for L_u in grid_L:
        bounds = [b.c4 * L_u * u / b.c3 for u in grid_u]
        assert all(np.diff(bounds) >= 0)
    for u in grid_u:
        bounds = [b.c4 * L_u * u / b.c3 for L_u in grid_L]
        assert all(np.diff(bounds) >= 0)
    c3_grid = np.linspace(0.5, 2.0, 4)
    bounds = [b.c4 * 1.0 * 0.1 / c3 for c3 in c3_grid]
    assert all(np.diff(bounds) <= 0)


# -- report completeness ---------------------------------------------------------------------


def test_anchor_checklist_is_exactly_covered(sphere_attractor, sphere_certificate,
                                             sphere_L, sphere_envelope):
    delta = sphere_certificate.bounds.delta
    verify_report = verify_converse_certificate(
        sphere_attractor.field, sphere_attractor.equilibrium, sphere_L,
        sphere_envelope, delta, 1.0, GridSpec(8, 1.0, T0_LIST), seed=7, step=1e-2)
    spec = attach_disturbance(sphere_attractor, "constant", 0.1)
    iss_report = iss_certify(spec.field, sphere_attractor.equilibrium,
                             sphere_certificate, spec.input_signal, 0.1, [8.0],
                             seed=1, grid=GridSpec(8, 1.0, T0_LIST), step=1e-2)
    assert verify_report.anchors | iss_report.anchors == set(CERTIFICATE_CHECKLIST)


def test_classifier_consistency_with_verification(sphere_attractor, sphere_L,
                                                  sphere_envelope):
    # Anything that verifies as a converse certificate must have been
    # classified exponentially stable from the same data.
    delta = choose_delta(sphere_envelope.K, sphere_envelope.rate, 0.5).delta
    report = verify_converse_certificate(
        sphere_attractor.field, sphere_attractor.equilibrium, sphere_L,
        sphere_envelope, delta, 1.0, GridSpec(8, 1.0, T0_LIST), seed=7, step=1e-2)
    assert report.verdict
    assert sphere_envelope.stability_class == "LES"
