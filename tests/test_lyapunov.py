import math

import numpy as np
import pytest

from geolyap.certify import GridSpec, classify_stability, sample_states
from geolyap.flows import (
    DenseFlow,
    TimeVaryingField,
    choose_step,
    flow,
    flow_samples,
    step_offsets,
)
from geolyap.lyapunov import (
    G7,
    HorizonError,
    InvalidDeltaError,
    LyapunovFunction,
    MasseraFunction,
    choose_delta,
    construct_exp_V,
    construct_ugas_V,
    massera_G,
    theoretical_bounds,
)
from geolyap.manifolds import (
    Euclidean,
    ManifoldPoint,
    Sphere,
    manifold_from_name,
)
from geolyap.systems import available_systems, make_system
from oracles import (
    assert_second_order,
    directional_derivative,
    distance_table,
    gauss_legendre,
    lie_difference,
)

EUCLID = Euclidean(2)
SPHERE = Sphere(2)
NORTH = np.array([0.0, 0.0, 1.0])
LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def sphere_attractor():
    return make_system("geodesic_attractor", SPHERE, [0.0, 0.0, 1.0], gain=1.0)


@pytest.fixture(scope="module")
def euclid_linear():
    return make_system("geodesic_attractor", EUCLID, [0.0, 0.0], gain=1.0)


@pytest.fixture(scope="module")
def sphere_V1(sphere_attractor):
    return construct_exp_V(sphere_attractor.field, sphere_attractor.equilibrium,
                           LN2, p=1.0, step=1e-2)


def _sphere_state(rng, r_lo=0.1, r_hi=1.0):
    v = SPHERE.random_tangent(rng, NORTH, norm=rng.uniform(r_lo, r_hi))
    return ManifoldPoint(SPHERE, SPHERE.exp(NORTH, v))


# -- LV: the flow-integral identity against a central-difference oracle ---------------


@pytest.mark.parametrize("name", ["euclidean2", "sphere2", "so3", "hyperbolic2"])
def test_lie_identity_matches_the_central_difference_to_second_order(name):
    m = manifold_from_name(name)
    rng = np.random.default_rng(5)
    x_star = m.project(m.random_point(rng))
    x = m.exp(x_star, m.random_tangents(rng, x_star, 6, lambda: rng.uniform(0.2, 1.2)))
    t = np.array([0.0, 1.0, math.e, 10.0, 0.3, 5.0])
    for system in available_systems():
        if system == "isometric_rotation" and name != "sphere2":
            continue
        spec = make_system(system, m, x_star)
        V = construct_exp_V(spec.field, spec.equilibrium, 0.5, p=2.0, step=1e-2)
        values, lie = V._evaluate_raw(t, x)
        assert_second_order(lambda h: lie_difference(V, t, x, h), lie, np.abs(lie) + values,
                            (name, system))


# -- horizon choice -------------------------------------------------------------


def test_choose_delta_closed_forms():
    assert choose_delta(1.0, 1.0, 0.5) == pytest.approx(LN2)
    assert choose_delta(2.0, 1.0, 0.5) == pytest.approx(math.log(4.0))
    assert choose_delta(1.0, 2.0, 0.5) == pytest.approx(LN2 / 2.0)
    assert 1.0 - 1.3 * math.exp(-0.7 * choose_delta(1.3, 0.7, 0.25)) == pytest.approx(0.25)


def test_choose_delta_validation():
    for target in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidDeltaError):
            choose_delta(1.0, 1.0, target)
    with pytest.raises(InvalidDeltaError):
        choose_delta(0.5, 1.0, 0.5)
    with pytest.raises(InvalidDeltaError):
        choose_delta(1.0, -1.0, 0.5)


# -- theoretical constants ---------------------------------------------------------


def test_bounds_unit_case():
    b = theoretical_bounds(1.0, 1.0, 1.0, LN2, p=1.0)
    assert b.c1 == pytest.approx(0.5)
    assert b.c2 == pytest.approx(0.5)
    assert b.K_prime == pytest.approx(0.5)
    assert b.c3 == pytest.approx(1.0)
    assert b.c4 == pytest.approx(1.0)


def test_bounds_substitution_case():
    b = theoretical_bounds(2.0, 2.0, 1.0, math.log(4.0), p=1.0)
    assert b.c1 == pytest.approx((1.0 - 1.0 / 16.0) / 2.0)
    assert b.c2 == pytest.approx(2.0 * (1.0 - 0.25))
    assert b.c3 == pytest.approx(0.5 / (2.0 * 0.75))
    assert b.c4 == pytest.approx((16.0 - 1.0) / 2.0)


def test_bounds_alternative_c2_normalization():
    b = theoretical_bounds(2.0, 1.0, 1.0, LN2, p=1.0)
    assert b.c2 == pytest.approx(0.5)          # integral value, rate denominator
    assert b.c2_alt == pytest.approx(0.25)     # same numerator over L


def test_bounds_power_two_reduction():
    # Unit-gain case with p = 2 reproduces the quadratic construction:
    # c1 = c2 = (1 - e^{-2 delta}) / 2.
    b = theoretical_bounds(1.0, 1.0, 1.0, 1.0, p=2.0)
    expected = (1.0 - math.exp(-2.0)) / 2.0
    assert b.c1 == pytest.approx(expected)
    assert b.c2 == pytest.approx(expected)
    assert b.c4 == pytest.approx(2.0)  # limit value p K delta at L = rate (p-1)


def test_bounds_invalid_horizon_rejected():
    with pytest.raises(InvalidDeltaError):
        theoretical_bounds(1.0, 2.0, 1.0, 0.1, p=1.0)
    with pytest.raises(ValueError):
        theoretical_bounds(1.0, 1.0, 1.0, LN2, p=0.5)


@pytest.mark.parametrize("L, K, delta, p", [
    (2065.0, 1.5, 10.0, 1.0),    # e^{L delta} in c4 overflows
    (2.0, 2.3, 10.0, 1000.0),    # K ** p overflows
    (2.5, 1e150, 400.0, 2.0),    # finite factors of c4 whose product is infinite
], ids=["exp", "power", "product"])
def test_bounds_overflow_rejected(L, K, delta, p):
    with pytest.raises(InvalidDeltaError):
        theoretical_bounds(L, K, 1.0, delta, p=p)


# -- exponential-mode construction ---------------------------------------------------


def test_V_vanishes_at_equilibrium(sphere_V1, sphere_attractor):
    for t in (0.0, 1.0, 7.3):
        assert sphere_V1.evaluate(t, sphere_attractor.equilibrium) == pytest.approx(0.0, abs=1e-14)


def test_sphere_V_closed_form_ratio(sphere_V1):
    # d(tau) = e^{-(tau - t)} d integrates to (1 - e^{-delta}) d = 0.5 d.
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = _sphere_state(rng)
        d = SPHERE.dist(x.coords, NORTH)
        assert sphere_V1.evaluate(0.4, x) == pytest.approx(0.5 * d, abs=1e-5)


# Largest |V - d0^p (1 - e^{-p g delta}) / (p g)| over the states of the tests
# below, measured and rounded up: pins against accuracy regressions.  With
# the node flow at step 0.01 both the flow's and the quadrature's errors are
# at rounding; at the chooser's pick the interpolant's error is all of it.
V_ERR_MEASURED = {("sphere2", 1.0): 2.4e-16, ("sphere2", 2.0): 2.3e-16,
                  ("so3", 1.0): 5.6e-17, ("so3", 2.0): 5.6e-17,
                  ("hyperbolic2", 1.0): 7.3e-16, ("hyperbolic2", 2.0): 1.2e-15}
V_ERR_AT_PICK = {("sphere2", 1.0): 2.7e-10, ("sphere2", 2.0): 2.7e-10,
                 ("so3", 1.0): 1.6e-10, ("so3", 2.0): 2.2e-10,
                 ("hyperbolic2", 1.0): 5.2e-10, ("hyperbolic2", 2.0): 6.8e-10}
PICKS = {"sphere2": 0.32, "so3": 0.16, "hyperbolic2": 0.32}


def _closed_form_cases():
    """Per manifold: the attractor, its gain, delta = ln 2 / gain and 8 states (t, x)."""
    rng = np.random.default_rng(5)
    for name, gain in (("sphere2", 1.0), ("so3", 2.0), ("hyperbolic2", 1.0)):
        m = manifold_from_name(name)
        x_star = m.project(m.random_point(rng))
        spec = make_system("geodesic_attractor", m, x_star, gain=gain)
        delta = LN2 / gain  # 3 steps at the pick, 70 (so3: 35) at step 0.01
        x = np.array([m.exp(x_star, m.random_tangent(rng, x_star, norm=r))
                      for r in np.linspace(0.2, 1.0, 8)])
        yield name, spec, gain, delta, np.linspace(0.0, 10.0, 8), x


def _closed_form_error(V, gain, t, x) -> float:
    m = V.field.manifold
    d0 = m.dist(x, V.x_star.coords)
    exact = d0 ** V.p * -math.expm1(-V.p * gain * V.horizon) / (V.p * gain)
    return float(np.max(np.abs(V.evaluate(t, ManifoldPoint(m, x)) - exact)))


def test_V_closed_form_error_does_not_grow():
    for name, spec, gain, delta, t, x in _closed_form_cases():
        for p in (1.0, 2.0):
            V = construct_exp_V(spec.field, spec.equilibrium, delta, p=p, step=0.01)
            err = _closed_form_error(V, gain, t, x)
            assert err <= V_ERR_MEASURED[name, p], (name, p, err)


def test_V_at_the_chosen_step_keeps_its_closed_form():
    # The pipeline's V: Gauss-Legendre nodes on the steps of a flow at the
    # step the chooser picks on V's own states over delta, read from its
    # interpolant.
    for name, spec, gain, delta, t, x in _closed_form_cases():
        pick, _ = choose_step(spec.field, t, x, spec.equilibrium.coords, delta, 0.01)
        assert pick == PICKS[name]
        for p in (1.0, 2.0):
            V = construct_exp_V(spec.field, spec.equilibrium, delta, p=p, step=pick)
            err = _closed_form_error(V, gain, t, x)
            assert err <= V_ERR_AT_PICK[name, p], (name, p, err)


def test_V_at_the_chosen_step_is_the_exact_integral_of_its_flow():
    # Gauss-Legendre on a quarter of each step reads the same interpolant as
    # V's nodes: the two agree to rounding, so V's error is the flow's alone.
    for name, spec, gain, delta, t, x in _closed_form_cases():
        pick = PICKS[name]
        flow = DenseFlow(spec.field, t, x).advance(delta, pick)
        for p in (1.0, 2.0):
            V = construct_exp_V(spec.field, spec.equilibrium, delta, p=p, step=pick)
            gap = np.max(np.abs(V.quadrature(flow)[0]
                                - gauss_legendre(V, flow, step_offsets(delta, pick / 4))))
            assert gap <= 1e-13, (name, p, gap)


def test_gauss_legendre_rule_integrates_degree_13_exactly():
    x, w = np.array(G7).T
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    for k in range(14):
        assert abs(np.sum(w * x ** k) - (1.0 + (-1.0) ** k) / (k + 1)) <= 1e-15, k
    # V's panels are its flow's steps 0.3, 0.3, 0.3 and 0.1: it reads the two ends,
    # then 7 nodes inside each.  From x* under a unit drift d(tau) = tau, so V with
    # integrand d^k (k = 0 sums the weights) is the integral of tau^k over [0, 1].
    drift = TimeVaryingField(EUCLID, lambda t, x: np.broadcast_to([1.0, 0.0], np.shape(x)))
    reads = []

    class RecordingFlow(DenseFlow):
        def __call__(self, offsets):
            reads.append(np.asarray(offsets))
            return super().__call__(offsets)

    for k in range(14):
        V = LyapunovFunction(drift, EUCLID.point([0.0, 0.0]), 1.0, float(k), step=0.3)
        value = V.quadrature(RecordingFlow(drift, 0.0, np.zeros(2)).advance(1.0, 0.3))[0]
        assert abs(value - 1.0 / (k + 1)) <= 1e-15, k
    offsets = reads[0]
    assert offsets[0] == 0.0 and offsets[-1] == 1.0
    assert np.all(np.diff(offsets) > 0) and len(offsets) == 30
    assert np.allclose(offsets[-8:-1], 0.9 + 0.05 * (1.0 + x), rtol=0, atol=1e-15)


def test_gauss_legendre_constants_match_scipy_bit_for_bit(monkeypatch):
    quad_vec = pytest.importorskip("scipy.integrate._quad_vec")
    seen = []
    monkeypatch.setattr(quad_vec, "_quadrature_gk", lambda a, b, f, norm, x, w, v: seen.append(
        (x, w)))
    quad_vec._quadrature_gk15(0.0, 1.0, None, None)
    (kronrod, gauss_weights), = seen
    x, w = np.array(G7).T
    # G7's nodes are K15's odd entries, in descending order.
    assert x[::-1].tobytes() == np.array(kronrod[1::2], dtype=float).tobytes()
    assert w[::-1].tobytes() == np.array(gauss_weights, dtype=float).tobytes()


def test_gauss_legendre_constants_match_numpy_within_four_ulp():
    # NumPy computes its rule (by a Golub-Welsch eigensolve and one Newton
    # step) where SciPy types in correctly rounded values: the nodes differ
    # by at most 1 ulp, the weights by up to 4.
    nodes, weights = np.polynomial.legendre.leggauss(7)
    x, w = np.array(G7).T
    assert np.all(np.abs(x - nodes) <= 2 * np.spacing(np.abs(nodes)))
    assert np.all(np.abs(w - weights) <= 4 * np.spacing(weights))


def test_euclid_quadratic_closed_form(euclid_linear):
    V = construct_exp_V(euclid_linear.field, euclid_linear.equilibrium, 1.0,
                        p=2.0, step=1e-2)
    x = EUCLID.point([0.8, -0.6])
    expected = (1.0 - math.exp(-2.0)) / 2.0
    assert V.evaluate(0.0, x) == pytest.approx(expected, abs=1e-6)


def test_doubling_horizon_scales_by_integral_ratio(euclid_linear):
    V1 = construct_exp_V(euclid_linear.field, euclid_linear.equilibrium, 1.0,
                         p=1.0, step=1e-2)
    V2 = construct_exp_V(euclid_linear.field, euclid_linear.equilibrium, 2.0,
                         p=1.0, step=1e-2)
    x = EUCLID.point([0.5, 0.5])
    ratio = (1.0 - math.exp(-2.0)) / (1.0 - math.exp(-1.0))
    assert V2.evaluate(0.0, x) / V1.evaluate(0.0, x) == pytest.approx(ratio, abs=1e-6)


def test_sphere_power_scaling(sphere_attractor):
    # With unit distance, d(tau)^p = e^{-p tau}, so V(p=2) = (1 - e^{-2 delta})/2.
    V2 = construct_exp_V(sphere_attractor.field, sphere_attractor.equilibrium,
                         LN2, p=2.0, step=1e-2)
    x = ManifoldPoint(SPHERE, SPHERE.exp(NORTH, np.array([1.0, 0.0, 0.0])))
    assert V2.evaluate(0.0, x) == pytest.approx((1.0 - 0.25) / 2.0, abs=1e-5)


def test_construction_validation(sphere_attractor):
    with pytest.raises(ValueError):
        construct_exp_V(sphere_attractor.field, sphere_attractor.equilibrium, LN2, p=0.5)
    with pytest.raises(ValueError):
        LyapunovFunction(sphere_attractor.field, sphere_attractor.equilibrium,
                         -1.0, 1.0)
    with pytest.raises(ValueError):
        LyapunovFunction(sphere_attractor.field, sphere_attractor.equilibrium,
                         1.0, 1.0, mode="massera")


# -- certificate inequalities on the unit sphere scenario ------------------------------


def test_telescoping_identity(sphere_V1, sphere_attractor):
    # LV is the identity d(phi(t + delta)) - d(x) on V's own node flow: an
    # independent flow to t + delta gives it to rounding, and V's central
    # difference converges to it.
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = _sphere_state(rng)
        t = rng.uniform(0.0, 5.0)
        lie = sphere_V1.quadrature(sphere_V1.node_flow(t, x.coords))[1]
        end = flow_samples(sphere_attractor.field, t, x.coords, [LN2], 1e-2)[0]
        telescoped = SPHERE.dist(end, NORTH) - SPHERE.dist(x.coords, NORTH)
        assert abs(lie - telescoped) < 1e-12
        assert abs(lie_difference(sphere_V1, t, x.coords) - lie) < 1e-5


def test_sandwich_and_decay(sphere_V1):
    b = theoretical_bounds(1.0, 1.0, 1.0, LN2, p=1.0)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = _sphere_state(rng)
        t = rng.uniform(0.0, 3.0)
        d = SPHERE.dist(x.coords, NORTH)
        v, lie, _ = sphere_V1.quadrature(sphere_V1.node_flow(t, x.coords))
        assert v == sphere_V1.evaluate(t, x)
        assert b.c1 * d * 0.98 <= v <= b.c2 * d * 1.02
        assert lie <= -b.c3 * v * 0.98 + 1e-6


def test_directional_derivative_bound(sphere_V1):
    b = theoretical_bounds(1.0, 1.0, 1.0, LN2, p=1.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = _sphere_state(rng, r_lo=0.2)
        v = SPHERE.random_tangent(rng, x.coords)
        dv = directional_derivative(sphere_V1, 0.0, x.coords, v)
        assert abs(dv) <= b.c4 * SPHERE.norm(x.coords, v) * 1.02
    assert directional_derivative(sphere_V1, 0.0, x.coords, np.zeros(3)) == 0.0


# -- reshaping construction -------------------------------------------------------------


def _grid_integrals(G, u):
    """Trapezoid integrals of G(u) and G'(u) over the envelope times, which k1
    and k2 bound for any sampled u <= g."""
    return (float(np.trapezoid(G.value(u), G.envelope_times)),
            float(np.trapezoid(G.derivative(u), G.envelope_times)))


def test_massera_exponential_envelope():
    ts = np.linspace(0.0, 20.0, 201)
    G = massera_G(ts, np.exp(-ts))
    assert G.value(0.0) == 0.0
    assert math.isfinite(G.k1) and math.isfinite(G.k2)
    i1, i2 = _grid_integrals(G, np.exp(-ts))
    assert i1 <= G.k1 and i2 <= G.k2
    assert G.tail_bound(20.0) < 1e-6


def test_massera_zero_input_integrals():
    ts = np.linspace(0.0, 20.0, 201)
    G = massera_G(ts, np.exp(-ts))
    i1, i2 = _grid_integrals(G, np.zeros_like(ts))
    assert i1 == 0.0 and i2 == 0.0


def test_massera_dominates_any_smaller_signal():
    ts = np.linspace(0.0, 20.0, 201)
    g = np.exp(-ts)
    G = massera_G(ts, g)
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = g * rng.uniform(0.0, 1.0, size=len(ts))
        i1, i2 = _grid_integrals(G, u)
        assert i1 <= G.k1 and i2 <= G.k2


def test_massera_strict_monotonicity():
    ts = np.linspace(0.0, 20.0, 201)
    G = massera_G(ts, np.exp(-ts))
    s = np.linspace(0.0, 1.0, 100)
    values = [G.value(si) for si in s]
    derivs = [G.derivative(si) for si in s]
    assert all(np.diff(values) > 0)
    assert all(np.diff(derivs) > 0)
    assert G.derivative(0.0) == 0.0


def _knot_reshaping(s_knots, gprime_knots):
    """A reshaping on given knots (interpolation only; envelope data is unused)."""
    s_knots, gprime_knots = np.asarray(s_knots, float), np.asarray(gprime_knots, float)
    return MasseraFunction(s_knots, gprime_knots, np.zeros(1), np.ones(1), grid_spacing=1.0)


PCHIP_TIMES = np.linspace(0.0, 10.0, 41)
PCHIP_CASES = {
    # Algebraic (the reference-value fixture's) and exponential decay envelopes.
    "algebraic": lambda: massera_G(PCHIP_TIMES, 1.0 / np.sqrt(2.0 * PCHIP_TIMES + 1.0)),
    "exponential": lambda: massera_G(2.0 * PCHIP_TIMES, np.exp(-2.0 * PCHIP_TIMES)),
    # Steep second interval: the three-point start slope turns negative -> 0.
    "end-clamp-zero": lambda: _knot_reshaping([0.0, 1.0, 2.0, 3.0, 4.0],
                                              [0.0, 0.01, 1.0, 1.2, 1.3]),
    # Slope sign changes next to both ends: the end slopes clamp to 3 m.
    "end-clamp-three": lambda: _knot_reshaping([0.0, 1.0, 2.0, 3.0, 4.5, 5.0],
                                               [0.0, 1.0, -4.0, -3.5, 0.2, 0.1]),
}


@pytest.mark.parametrize("case", sorted(PCHIP_CASES))
def test_massera_pchip_matches_scipy(case):
    interpolate = pytest.importorskip("scipy.interpolate")
    G = PCHIP_CASES[case]()
    x, y = G.s_knots, G.gprime_knots
    ref = interpolate.PchipInterpolator(x, y)
    ref_integral = ref.antiderivative()
    s_max = float(x[-1])
    s = np.concatenate([np.linspace(-0.1, 1.3 * s_max, 4001), x])
    inside = np.clip(s, 0.0, s_max)
    want_gp = np.where(s <= 0.0, 0.0, np.where(s >= s_max, y[-1], ref(inside)))
    want_g = np.where(s <= 0.0, 0.0, np.where(
        s >= s_max, ref_integral(s_max) + y[-1] * (s - s_max), ref_integral(inside)))
    assert np.max(np.abs(G.derivative(s) - want_gp)) <= 1e-14
    assert np.max(np.abs(G.value(s) - want_g)) <= 1e-14
    end_slopes = ref.derivative()([x[0], x[-1]])
    if case == "end-clamp-zero":
        assert end_slopes[0] == 0.0
    if case == "end-clamp-three":
        first, last = (y[1] - y[0]) / (x[1] - x[0]), (y[-1] - y[-2]) / (x[-1] - x[-2])
        assert end_slopes == pytest.approx([3.0 * first, 3.0 * last], rel=1e-12)


def test_massera_rejects_bad_envelopes():
    ts = np.linspace(0.0, 5.0, 21)
    with pytest.raises(ValueError):
        massera_G(ts, np.ones_like(ts))               # not decreasing
    with pytest.raises(ValueError):
        massera_G(ts, -np.exp(-ts))                   # not positive


# -- asymptotic-mode construction ----------------------------------------------------------


@pytest.fixture(scope="module")
def cubic_envelope():
    spec = make_system("cubic_slowdown", EUCLID, [0.0, 0.0], gain=1.0)
    rng = np.random.default_rng(7)
    starts = [EUCLID.point(EUCLID.random_tangent(rng, np.zeros(2), norm=r))
              for r in (0.5, 0.75, 1.0)]
    trajs = flow(spec.field, 0.0, starts, 22.0, 1e-2)  # one batch
    envelope = classify_stability(*distance_table(trajs, spec.equilibrium), 1e-2)
    return spec, (envelope.decay_times, envelope.decay_values)


def test_ugas_construction_positive_and_decaying(cubic_envelope):
    spec, profile = cubic_envelope
    V = construct_ugas_V(spec.field, spec.equilibrium, *profile, 20.0, step=0.05)
    assert V.tail_bound < 1e-8
    assert V.evaluate(0.0, spec.equilibrium) == 0.0
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = EUCLID.point(EUCLID.random_tangent(rng, np.zeros(2), norm=rng.uniform(0.4, 1.0)))
        value, lie, _ = V.quadrature(V.node_flow(0.0, x.coords))
        assert value > 0.0 and value == V.evaluate(0.0, x)
        assert lie < 0.0


def test_massera_lie_identity_matches_the_central_difference_to_second_order(cubic_envelope):
    # LV = G(d(end)) - G(d(x)).  At step 0.0125 the discretization's own gap
    # between the two (fourth order in the step, 1.8e-5 at step 0.05) sits
    # below the central difference's h^2 term.
    spec, profile = cubic_envelope
    V = construct_ugas_V(spec.field, spec.equilibrium, *profile, 20.0, step=0.0125)
    t, x = sample_states(EUCLID, spec.equilibrium, GridSpec(6, 1.0, (0.0, 1.0, math.e, 10.0)),
                         np.random.default_rng(3), r_min_frac=0.4)
    values, lie = V._evaluate_raw(t, x)
    assert np.all(lie < 0.0)
    assert_second_order(lambda h: lie_difference(V, t, x, h), lie, np.abs(lie) + values,
                        "massera")


def test_ugas_monotone_along_ray(cubic_envelope):
    spec, profile = cubic_envelope
    V = construct_ugas_V(spec.field, spec.equilibrium, *profile, 20.0, step=0.05)
    values = [V.evaluate(0.0, EUCLID.point([r, 0.0]))
              for r in np.linspace(0.4, 1.0, 10)]
    assert all(np.diff(values) > 0)


def test_ugas_horizon_errors(cubic_envelope):
    spec, profile = cubic_envelope
    with pytest.raises(HorizonError):
        construct_ugas_V(spec.field, spec.equilibrium, *profile, 50.0)
    with pytest.raises(HorizonError):
        construct_ugas_V(spec.field, spec.equilibrium, *profile, 5.0, tail_tol=1e-12)
