import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from geolyap import certify, flows, pipeline
from geolyap.certify import (
    CERTIFICATE_CHECKLIST,
    FLOOR_FACTOR,
    EnvelopeFitError,
    GridSpec,
    InputBoundError,
    StabilityEnvelope,
    check_input_signal,
    classify_stability,
    draw_verification_inputs,
    input_lipschitz_estimate,
    iss_certify,
    make_certificate,
    rounding_floor,
)
from geolyap.config import load_scenario, parse_scenario
from geolyap.flows import (
    Region,
    TimeVaryingField,
    arc_stencil,
    choose_step,
    contraction_offsets,
    flow,
    flow_samples,
    lipschitz_estimate,
    step_offsets,
)
from geolyap.lyapunov import DIFF_EPS, InvalidDeltaError, LyapunovFunction, choose_delta
from geolyap.manifolds import Euclidean, ManifoldPoint, Sphere
from geolyap.systems import attach_disturbance, make_system
from oracles import (
    assert_second_order,
    directional_derivative,
    distance_table,
    gauss_legendre,
    lie_difference,
    pushforward,
    verify_on_own_flow,
)

EUCLID = Euclidean(2)
SPHERE = Sphere(2)
NORTH = np.array([0.0, 0.0, 1.0])
T0_LIST = (0.0, 1.0, math.e, 10.0)


def _trajectories(spec, manifold, rng, horizon=6.0, n_per_start=3, radii=(0.3, 1.0)):
    """``flow`` at step 1e-2 from ``n_per_start`` draws per start time, as one batch."""
    t0s, starts = [], []
    for t0 in T0_LIST:
        for _ in range(n_per_start):
            v0 = manifold.random_tangent(rng, spec.equilibrium.coords,
                                         norm=rng.uniform(*radii))
            t0s.append(t0)
            starts.append(ManifoldPoint(manifold, manifold.exp(spec.equilibrium.coords, v0)))
    return flow(spec.field, np.array(t0s), starts, np.array(t0s) + horizon, 1e-2)


@pytest.fixture(scope="module")
def sphere_attractor():
    return make_system("geodesic_attractor", SPHERE, [0.0, 0.0, 1.0], gain=1.0)


@pytest.fixture(scope="module")
def sphere_envelope(sphere_attractor):
    rng = np.random.default_rng(7)
    return _fit(_trajectories(sphere_attractor, SPHERE, rng), sphere_attractor.equilibrium)


@pytest.fixture(scope="module")
def sphere_L(sphere_attractor):
    est = lipschitz_estimate(sphere_attractor.field,
                             Region(sphere_attractor.equilibrium, 1.0),
                             [0.0], 100, seed=7)
    return est.inflated()


def _fit(trajectories, x_star):
    """classify_stability on the distance table of ``flow`` trajectories, at
    their own step 1e-2 (so no chord slack)."""
    return classify_stability(*distance_table(trajectories, x_star), 1e-2)


def _exponential(K, rate):
    """An LES envelope K e^{-rate s} over s in [0, 6] on the unit ball."""
    s = np.linspace(0.0, 6.0, 13)
    return StabilityEnvelope("LES", K, rate, s, K * np.exp(-rate * s), 0.0, 1.0, 12)


def _verify(spec, L, envelope, delta, p, n_points, seed):
    """Build the certificate, draw its inputs and verify it, with V at the step the
    chooser picks on the inputs' states from the base step 1e-2, as in the pipeline."""
    inputs = draw_verification_inputs(spec.field.manifold, spec.equilibrium,
                                      GridSpec(n_points, 1.0, T0_LIST), seed)
    step, _ = choose_step(spec.field, inputs.t, inputs.x, spec.equilibrium.coords, delta, 1e-2)
    cert = make_certificate(spec.field, spec.equilibrium, L, envelope, delta, p, step=step)
    return verify_on_own_flow(cert, inputs, 3.0)


# -- envelope fitting -------------------------------------------------------------


def test_fit_sphere_attractor(sphere_envelope):
    assert sphere_envelope.stability_class == "LES"
    assert sphere_envelope.K == pytest.approx(1.0, rel=0.02)
    assert sphere_envelope.rate == pytest.approx(1.0, rel=0.02)
    assert sphere_envelope.K >= 1.0


def test_fit_euclidean_double_gain():
    spec = make_system("geodesic_attractor", EUCLID, [0.0, 0.0], gain=2.0)
    rng = np.random.default_rng(3)
    env = _fit(_trajectories(spec, EUCLID, rng), spec.equilibrium)
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
        _fit(resident, x_star)


def test_fit_drops_the_times_below_the_rounding_floor():
    # d = d0 e^{-s} read to 1e-16, where rounding noise takes over, against the
    # same table cut at the floor: the first time any column is below it.
    floor = rounding_floor(SPHERE, NORTH)
    assert floor == FLOOR_FACTOR * np.finfo(float).eps
    s = np.linspace(0.0, 40.0, 401)
    d = np.array([[0.5], [1.0]]).T * np.exp(-s)[:, None]
    noisy = np.where(d < 1e-15, 1e-15 * (1.0 + (np.arange(401) % 3))[:, None], d)
    assert classify_stability(s, noisy, 0.1).K > 1.5
    kept = classify_stability(s, noisy, 0.1, floor=floor)
    assert kept.K == pytest.approx(1.0, abs=1e-12) and kept.rate == pytest.approx(1.0, rel=1e-12)
    assert kept.decay_times[-1] == s[np.argmax(d[:, 0] < floor) - 1]
    with pytest.raises(EnvelopeFitError, match="rounding floor"):
        classify_stability(s, noisy, 0.1, floor=0.48)


def test_stationary_trajectory_classifies_us():
    still = TimeVaryingField(SPHERE, lambda t, x: np.zeros(3))
    x0 = ManifoldPoint(SPHERE, SPHERE.exp(NORTH, np.array([0.5, 0.0, 0.0])))
    env = _fit([flow(still, 0.0, x0, 4.0, 1e-2)], SPHERE.point(NORTH))
    assert env.stability_class == "US"
    assert env.K is None


def test_classify_cubic_slowdown_as_uas():
    spec = make_system("cubic_slowdown", EUCLID, [0.0, 0.0], gain=1.0)
    rng = np.random.default_rng(5)
    trajs = _trajectories(spec, EUCLID, rng, horizon=10.0)
    env = _fit(trajs, spec.equilibrium)
    assert env.stability_class == "UAS"
    assert env.fit_residual > 0.05
    # The decay profile dominates every trajectory's closed-form decay.
    for traj in trajs:
        d0 = float(traj.distances_to(spec.equilibrium)[0])
        for s, g in zip(env.decay_times, env.decay_values):
            assert g >= spec.distance_oracle(d0, 0.0, s) * (1.0 - 1e-6)


def test_classify_rotation_as_us():
    spec = make_system("isometric_rotation", SPHERE, [0.0, 0.0, 1.0], rate=1.0)
    rng = np.random.default_rng(9)
    env = _fit(_trajectories(spec, SPHERE, rng), spec.equilibrium)
    assert env.stability_class == "US"


def test_classify_time_varying_gain_as_les():
    spec = make_system("time_varying_attractor", SPHERE, [0.0, 0.0, 1.0],
                       base_gain=1.5, amplitude=0.5)
    rng = np.random.default_rng(13)
    env = _fit(_trajectories(spec, SPHERE, rng), spec.equilibrium)
    assert env.stability_class == "LES"
    assert env.K >= 1.0


def test_chord_slack_covers_concave_stretches_of_coarse_samples():
    # -s^2 rises gap^2 / 8 * 2 above its chords; convex data never does, and
    # samples no coarser than the resolution need no slack.  One slack per column.
    s = np.linspace(0.0, 1.0, 11)
    columns = np.stack([-s ** 2, s ** 2], axis=1)
    assert certify._chord_slack(s, columns, 0.05) == pytest.approx([0.1 ** 2 / 8 * 2, 0.0])
    assert np.array_equal(certify._chord_slack(s, columns, 0.1), [0.0, 0.0])


def test_coarse_fit_dominates_the_fine_grid_at_its_resolution():
    # Every 4th sample of time-varying flows at step 1e-2: K fitted to those
    # alone undercuts the 1e-2 grid between them; with resolution 1e-2 it
    # covers the whole grid.
    spec = make_system("time_varying_attractor", SPHERE, [0.0, 0.0, 1.0],
                       base_gain=1.5, amplitude=0.5)
    elapsed, d = distance_table(_trajectories(spec, SPHERE, np.random.default_rng(13)),
                                spec.equilibrium)

    def worst_excess(env):
        return float(np.max(d / (env.K * np.exp(-env.rate * elapsed)[:, None] * d[0]))) - 1.0

    assert worst_excess(classify_stability(elapsed[::4], d[::4], 4e-2)) > 1e-5
    assert worst_excess(classify_stability(elapsed[::4], d[::4], 1e-2)) <= 0.0


def test_coarse_cubic_table_stays_above_the_fine_one():
    # The cubic decay is convex, so the chords of coarser samples lie higher:
    # the decay profile of every 4th sample needs no slack to dominate.
    spec = make_system("cubic_slowdown", EUCLID, [0.0, 0.0], gain=1.0)
    elapsed, d = distance_table(_trajectories(spec, EUCLID, np.random.default_rng(5),
                                              horizon=10.0), spec.equilibrium)
    profile = classify_stability(elapsed, d, 1e-2).decay_values
    coarse_env = classify_stability(elapsed[::4], d[::4], 1e-2)
    assert coarse_env.stability_class == "UAS"
    assert np.all(coarse_env.decay_values >= profile - 1e-15)
    assert np.max(coarse_env.decay_values - profile) > 1e-5


def test_decay_profile_dominates_trajectories_that_start_together():
    # Two algebraic decays from d0 = 1: the profile dominates both at every
    # sample (held from its last knot), the slower one too.
    elapsed = np.linspace(0.0, 8.0, 257)
    d = np.stack([1.0 / np.sqrt(1.0 + 4.0 * elapsed), 1.0 / np.sqrt(1.0 + 0.5 * elapsed)],
                 axis=1)
    env = classify_stability(elapsed, d, 1.0 / 32.0)
    assert env.stability_class == "UAS"
    held = env.decay_values[np.searchsorted(env.decay_times, elapsed, side="right") - 1]
    assert np.all(held[:, None] >= d)


def test_exponential_decay_profile_is_the_envelope_at_the_region_radius(sphere_envelope):
    env = sphere_envelope
    r_max, K, rate = env.region_radius, env.K, env.rate
    assert np.array_equal(env.decay_values, r_max * (K * np.exp(-rate * env.decay_times)))


# -- converse certificate verification --------------------------------------------------


def test_verify_sphere_certificate(sphere_attractor, sphere_L, sphere_envelope):
    delta = choose_delta(sphere_envelope.K, sphere_envelope.rate, 0.5)
    report = _verify(sphere_attractor, sphere_L, sphere_envelope, delta, 1.0, 16, seed=7)
    assert report.verdict
    for row in report.rows:
        assert row.anchor in CERTIFICATE_CHECKLIST
    # The contraction margin is measured past the start row, not the 1e-6 slack.
    assert report.row("contraction-envelope").margin > 1e-3


def test_verify_horizon_quantities_share_one_flow(monkeypatch):
    # V, LV (the flow-integral identity), the telescoped endpoints and the
    # pushforward all read V's rows of the envelope fit's one flow, at V's
    # quadrature nodes, from its interpolant; the contraction pairs are its last rows.
    configs = Path(__file__).resolve().parent.parent / "configs"
    config = dataclasses.replace(load_scenario(configs / "sphere_attractor.json"),
                                 fit_horizon=2.0, envelope_horizon=0.5)
    made, quotients, verified = [], [], []
    real_quotient, real_verify = certify.pushforward_quotient, pipeline.verify_converse_certificate

    class RecordingFlow(flows.DenseFlow):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def recording_quotient(*args):
        quotients.append((args, real_quotient(*args)))
        return quotients[-1][1]

    def recording_verify(*args):
        verified.append(args)
        return real_verify(*args)

    monkeypatch.setattr(pipeline, "DenseFlow", RecordingFlow)
    monkeypatch.setattr(certify, "pushforward_quotient", recording_quotient)
    monkeypatch.setattr(pipeline, "verify_converse_certificate", recording_verify)
    steps = {}
    cert, report = pipeline._certify_exponential(config, steps)
    assert report.verdict

    (shared,), ((_, inputs, rows, taus),) = made, verified
    V, p, n, n_push = cert.V, cert.V.p, len(inputs.x), len(inputs.push_eps_hat)
    # The fit's rows, then the verification's: V's (states, differential and
    # pushforward stencils), then the pairs' first and second states.
    n_fit = len(shared.states[0]) - len(inputs.rows[1])
    assert np.array_equal(shared.states[0][n_fit:], inputs.rows[1])
    assert np.array_equal(rows.states[0], inputs.rows[1]) and rows.nodes == shared.nodes
    assert inputs.v_x.shape == (3 * n + 2 * n_push, 3)
    assert np.array_equal(taus, contraction_offsets(0.5, config.step))
    # delta = ln(2 K) / rate, within the span 2: 3 steps of the flow at 0.32,
    # V's Gauss-Legendre panels.
    assert V.horizon < shared.nodes[-1] == 2.0 and len(step_offsets(V.horizon, 0.32)) == 4
    assert steps["les-verification"] == steps["les-envelope-fit"]
    assert V.step == steps["les-verification"]["step"] == 0.32
    v_rows = rows.take(slice(0, len(inputs.v_x)))
    values, lies, ends = V.quadrature(v_rows)
    on_steps = gauss_legendre(V, v_rows, step_offsets(V.horizon, 0.32))
    assert np.max(np.abs(values - on_steps)) <= 1e-15 * np.max(values)
    t, d, v, lie = report.samples.T
    assert np.array_equal(t, inputs.t)
    assert np.array_equal(v, values[:n]) and np.array_equal(lie, lies[:n])
    end = ends[:n]
    assert np.array_equal(ends, v_rows([V.horizon])[0])
    x_star = config.equilibrium.coords
    assert np.array_equal(lie, SPHERE.dist(end, x_star) ** p - SPHERE.dist(inputs.x, x_star) ** p)
    assert report.row("telescoping-identity").measured == \
        float(np.max(SPHERE.dist(end, x_star) ** p / d ** p))

    (args, w), = quotients
    field, t_push, coords, directions, _, y0, stencil_ends, q_span, q_step = args
    assert np.array_equal(y0, end[:n_push])
    assert np.array_equal(stencil_ends, ends[3 * n:].reshape(2, n_push, 3))
    assert q_span == V.horizon and q_step == V.step
    assert report.row("pushforward-growth").measured == \
        float(np.max(SPHERE.norm(y0, w))) / math.exp(cert.bounds.L * V.horizon)
    public = pushforward(field, t_push, coords, directions, V.horizon, 1e-2)[1]
    assert np.linalg.norm(w - public) <= 1e-8 * np.linalg.norm(public)


def test_massera_V_is_close_to_its_fine_quadrature(tmp_path, monkeypatch):
    # The Massera stage's V on configs/cubic_massera.json reads its 50 states'
    # nodes from the fit's flow at step 0.32; the same V on Gauss-Legendre
    # steps of 0.02, with its own flow at 0.02, is within 5e-7 relative.
    configs = Path(__file__).resolve().parent.parent / "configs"
    config = load_scenario(configs / "cubic_massera.json")
    read, real_continue = [], pipeline._continue_for_V

    def recording_continue(config, V, flow, n, *args):
        read.append((flow, n, real_continue(config, V, flow, n, *args)))
        return read[-1][2]

    monkeypatch.setattr(pipeline, "_continue_for_V", recording_continue)
    assert pipeline.run_certify(config, tmp_path, mode="massera") == 0
    (flow, n, V), = read
    assert n == 50 and V.step == 0.32
    values = V.quadrature(flow)[0][:n]
    fine = dataclasses.replace(V, step=0.02)._evaluate_raw(flow.t0[:n], flow.states[0][:n])[0]
    assert np.max(np.abs(values - fine) / fine) <= 5e-7


@pytest.mark.parametrize("manifold, equilibrium, radius, seed", [
    ("sphere2", [0.0, 0.0, 1.0], 3.1, 10), ("hyperbolic2", [1.0, 0.0, 0.0], 3.0, 18)])
def test_pipeline_lipschitz_estimate_reaches_the_closed_form(manifold, equilibrium, radius,
                                                             seed):
    # The geodesic attractor's L(r) is max(1, r |cot r|) on S^2 and r coth r
    # on H^2.  Drawing 32 pairs, these seeds read 0.906 and 0.998 of it; the
    # pipeline draws at least 64 on a grid of 24 points.
    config = parse_scenario({
        "schema_version": 1, "manifold": manifold, "equilibrium": equilibrium,
        "system": {"name": "geodesic_attractor", "params": {"gain": 1.0}},
        "delta": {"policy": "auto", "target": 0.5}, "p": 1, "seed": seed, "step": 0.01,
        "grids": {"n_points": 24, "radius": radius, "t0_list": [0.0]}, "fit_horizon": 2.0})
    closed = (radius / math.tanh(radius) if manifold == "hyperbolic2"
              else max(1.0, abs(radius / math.tan(radius))))
    assert pipeline._estimate_lipschitz(config) >= closed


def test_contraction_pairs_ride_the_fit_flow_unchanged():
    # The pairs join the envelope fit's flow (with V's rows) as extra rows: the
    # fit is that of a flow without them, since the fit's grid carries the
    # contraction offsets either way, and the pairs' states at those offsets (of the
    # config step) are those of their own order-8 flow on the fit's grid.
    # Off the fit's nodes they are read from the step's order-7 interpolant,
    # within 1e-8 of an order-8 flow at the config step (measured 5.1e-9 on
    # the geodesic attractor, 1.0e-9 on the time-varying one).  The geodesic
    # attractor's fit step is 32 config steps, the time-varying one's 16.
    configs = Path(__file__).resolve().parent.parent / "configs"
    for name, fit_step in (("time_varying_gain", 0.16), ("sphere_attractor", 0.32)):
        config = dataclasses.replace(load_scenario(configs / f"{name}.json"),
                                     fit_horizon=2.0, envelope_horizon=0.5)
        field = config.build_system().field
        inputs = draw_verification_inputs(config.manifold, config.equilibrium, config.grid,
                                          config.seed)
        alone_steps, joint_steps = {}, {}
        alone, _, _ = pipeline._fit_trajectories(
            config, config.fit_horizon, certify.ANCHOR_ENVELOPE_FIT, alone_steps,
            (inputs.v_t, inputs.v_x), len(inputs.x))
        joint, rows, _ = pipeline._fit_trajectories(
            config, config.fit_horizon, certify.ANCHOR_ENVELOPE_FIT, joint_steps, inputs.rows,
            len(inputs.x))
        assert joint_steps == alone_steps
        assert joint_steps[certify.ANCHOR_ENVELOPE_FIT]["step"] == fit_step
        assert joint.to_json() == alone.to_json()
        assert np.array_equal(joint.decay_values, alone.decay_values)
        offsets = contraction_offsets(config.envelope_horizon, config.step)
        assert len(offsets) == 7
        pair_flow = rows.take(slice(len(inputs.v_x), None))(offsets).reshape(
            (len(offsets),) + inputs.pair_x.shape)
        grid = np.sort(np.concatenate([step_offsets(config.fit_horizon, fit_step), offsets]))
        alone = flow_samples(field, inputs.pair_t, inputs.pair_x, grid, fit_step)
        alone = alone[np.searchsorted(grid, offsets)]
        assert pair_flow.shape == alone.shape
        assert np.max(np.abs(pair_flow - alone)) <= 1e-14
        fine = flow_samples(field, inputs.pair_t, inputs.pair_x, offsets, config.step)
        assert np.max(np.abs(pair_flow - fine)) <= 1e-8


def test_verify_rejects_bad_horizon_before_any_flow(sphere_envelope):
    calls = []

    def counting_rhs(t, coords):
        calls.append(t)
        return SPHERE.log(coords, NORTH)

    field = TimeVaryingField(SPHERE, counting_rhs)
    env = dataclasses.replace(sphere_envelope, K=2.0, rate=1.0)
    with pytest.raises(InvalidDeltaError):
        make_certificate(field, SPHERE.point(NORTH), 1.05, env, delta=0.1, p=1.0)
    assert calls == []


def test_verify_nonexponential_envelope_rejected(sphere_attractor):
    env = dataclasses.replace(_exponential(1.0, 1.0), stability_class="US", K=None, rate=None)
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
    env = _exponential(math.e, 1.0)
    delta = choose_delta(env.K, env.rate, 0.5)
    report = _verify(spec, L, env, delta, 1.0, 12, seed=3)
    assert report.verdict


def test_report_serialization_and_column_order(sphere_attractor, sphere_L,
                                               sphere_envelope):
    delta = choose_delta(sphere_envelope.K, sphere_envelope.rate, 0.5)
    report = _verify(sphere_attractor, sphere_L, sphere_envelope, delta, 1.0, 8, seed=7)
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
    delta = choose_delta(sphere_envelope.K, sphere_envelope.rate, 0.5)
    return make_certificate(sphere_attractor.field, sphere_attractor.equilibrium,
                            sphere_L, sphere_envelope, delta, 1.0, step=1e-2)


def _on_field(certificate, spec):
    """``certificate`` with V on ``spec``'s field, whose input channel iss_certify drives."""
    return dataclasses.replace(certificate, V=dataclasses.replace(certificate.V, field=spec.field))


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
    report = iss_certify(_on_field(sphere_certificate, spec), lambda t: np.zeros(2), 0.0,
                         [8.0], seed=1, grid=GridSpec(8, 1.0, T0_LIST), step=1e-2)
    assert report.passed
    assert report.predicted_v_bound == 0.0


def test_iss_bounded_disturbance(sphere_attractor, sphere_certificate):
    spec = attach_disturbance(sphere_attractor, "constant", 0.1)
    report = iss_certify(_on_field(sphere_certificate, spec), spec.input_signal, 0.1,
                         [8.0, 12.0], seed=1, grid=GridSpec(12, 1.0, T0_LIST), step=1e-2)
    assert report.passed
    assert report.measured_v_limsup <= report.predicted_v_bound * 1.05
    assert report.anchors == {"iss-pointwise-decay", "iss-ultimate-bound"}


def test_iss_doubled_disturbance_scales(sphere_attractor, sphere_certificate):
    small = attach_disturbance(sphere_attractor, "constant", 0.1)
    large = attach_disturbance(sphere_attractor, "constant", 0.2)
    rep_small = iss_certify(_on_field(sphere_certificate, small), small.input_signal, 0.1, [10.0],
                            seed=1, grid=GridSpec(8, 1.0, T0_LIST), step=1e-2)
    rep_large = iss_certify(_on_field(sphere_certificate, large), large.input_signal, 0.2, [10.0],
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
    certificate = _on_field(sphere_certificate, spec)
    V = certificate.V
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
    report = iss_certify(certificate, spec.input_signal, 0.1, horizons, seed=1,
                         grid=GridSpec(4, 1.0, T0_LIST), step=step)
    (x0,) = calls
    # Part (a)'s states and the dV(w) stencil of the disturbance's part w of
    # the closed field ride in part (b)'s V batch, bit for bit.
    (groups, (values, lies)), = evaluations
    (t, x), (t_plus, plus), (t_minus, minus) = groups[:3]
    assert np.array_equal(t_plus, t) and np.array_equal(t_minus, t)
    w = SPHERE.project_tangent(x, closed.eval_raw(t, x) - V.field.eval_raw(t, x))
    assert np.array_equal(np.stack([plus, minus]), arc_stencil(SPHERE, x, w, DIFF_EPS)[1])
    alone_values, alone_lies = real_evaluate_groups(V, groups[:3])
    for alone, fused in zip(alone_values + alone_lies, values[:3] + lies[:3]):
        assert np.array_equal(alone, fused)
    starts, series_start = x0[:3], x0[3]
    assert SPHERE.dist(series_start, NORTH) == pytest.approx(1.0, abs=1e-12)

    tails = [np.arange(0.6 * h, h + 1e-9, 0.25) for h in horizons]
    tail_pts = [flow_samples(closed, 0.0, starts, ts, step) for ts in tails]
    tail_v, _ = V.evaluate_groups([(np.repeat(ts, 3), pts) for ts, pts in zip(tails, tail_pts)])
    assert report.measured_d_limsup == pytest.approx(
        max(float(np.max(SPHERE.dist(pts, NORTH))) for pts in tail_pts), abs=1e-12)
    assert report.measured_v_limsup == pytest.approx(
        max(float(np.max(v)) for v in tail_v), abs=1e-12)

    times = step_offsets(3.0, step)[::2]
    points = flow_samples(closed, 0.0, series_start, times, step)
    assert np.array_equal(report.series[:, 0], np.arange(31) / 10.0)
    np.testing.assert_allclose(report.series[:, 0], times, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.series[:, 1], SPHERE.dist(points, NORTH),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.series[:, 2], V.evaluate(times, ManifoldPoint(
        SPHERE, points)), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(report.series[:, 3], 0.1)


@pytest.mark.parametrize("profile", ["constant", "sinusoid"])
def test_iss_lie_derivative_matches_the_central_difference_to_second_order(
        sphere_attractor, sphere_certificate, monkeypatch, profile):
    # Along the disturbed field, LV is V's flow-integral identity plus dV(w),
    # w the disturbance's part of the closed field: the pointwise row reads
    # it, and a central difference of V along the closed flow converges to it.
    spec = attach_disturbance(sphere_attractor, profile, 0.1)
    closed = spec.field.with_input_signal(spec.input_signal)
    certificate = _on_field(sphere_certificate, spec)
    V, b = certificate.V, certificate.bounds
    states = []
    real_evaluate_groups = LyapunovFunction.evaluate_groups

    def recording_evaluate_groups(self, groups):
        states.append(groups[0])
        return real_evaluate_groups(self, groups)

    monkeypatch.setattr(LyapunovFunction, "evaluate_groups", recording_evaluate_groups)
    report = iss_certify(certificate, spec.input_signal, 0.1, [2.0], seed=1,
                         grid=GridSpec(8, 1.0, T0_LIST), step=0.05)
    (t, x), = states
    w = SPHERE.project_tangent(x, closed.eval_raw(t, x) - V.field.eval_raw(t, x))
    values, lie, _ = V.quadrature(V.node_flow(t, x))
    lie = lie + directional_derivative(V, t, x, w)
    assert report.rows[0].measured == pytest.approx(float(np.max(lie + b.c3 * values)),
                                                    rel=1e-12)
    assert_second_order(lambda h: lie_difference(V, t, x, h, field=closed), lie,
                        np.abs(lie) + values, profile)


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


def test_anchor_checklist_is_exactly_covered(sphere_attractor, sphere_certificate):
    inputs = draw_verification_inputs(SPHERE, sphere_attractor.equilibrium,
                                      GridSpec(8, 1.0, T0_LIST), 7)
    verify_report = verify_on_own_flow(sphere_certificate, inputs, 3.0)
    spec = attach_disturbance(sphere_attractor, "constant", 0.1)
    iss_report = iss_certify(_on_field(sphere_certificate, spec), spec.input_signal, 0.1, [8.0],
                             seed=1, grid=GridSpec(8, 1.0, T0_LIST), step=1e-2)
    assert verify_report.anchors | iss_report.anchors == set(CERTIFICATE_CHECKLIST)


def test_classifier_consistency_with_verification(sphere_attractor, sphere_L,
                                                  sphere_envelope):
    # Anything that verifies as a converse certificate must have been
    # classified exponentially stable from the same data.
    delta = choose_delta(sphere_envelope.K, sphere_envelope.rate, 0.5)
    report = _verify(sphere_attractor, sphere_L, sphere_envelope, delta, 1.0, 8, seed=7)
    assert report.verdict
    assert sphere_envelope.stability_class == "LES"
