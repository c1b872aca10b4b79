import math

import numpy as np
import pytest

from geolyap.certify import classify_stability
from geolyap.flows import flow, flow_samples
from geolyap.lyapunov import (
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
    TangentVector,
    manifold_from_name,
)
from geolyap.systems import make_system

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


# -- horizon choice -------------------------------------------------------------


def test_choose_delta_closed_forms():
    assert choose_delta(1.0, 1.0, 0.5).delta == pytest.approx(LN2)
    assert choose_delta(2.0, 1.0, 0.5).delta == pytest.approx(math.log(4.0))
    assert choose_delta(1.0, 2.0, 0.5).delta == pytest.approx(LN2 / 2.0)
    choice = choose_delta(1.3, 0.7, 0.25)
    assert choice.K_prime == pytest.approx(
        1.0 - choice.K * math.exp(-choice.rate * choice.delta))


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


# Largest |V - d0^p (1 - e^{-p g delta}) / (p g)| over the states of the test
# below when V used 65 nodes whatever the step (rounded up); the step-grid
# node rule must not be less accurate.
V_ERR_AT_65_NODES = {("sphere2", 1.0): 3.94e-11, ("sphere2", 2.0): 4.61e-10,
                     ("so3", 1.0): 2.80e-11, ("so3", 2.0): 2.41e-10,
                     ("hyperbolic2", 1.0): 3.94e-11, ("hyperbolic2", 2.0): 4.61e-10}


def test_V_closed_form_error_does_not_grow():
    rng = np.random.default_rng(5)
    for name, gain in (("sphere2", 1.0), ("so3", 2.0), ("hyperbolic2", 1.0)):
        m = manifold_from_name(name)
        x_star = m.project(m.random_point(rng))
        spec = make_system("geodesic_attractor", m, x_star, gain=gain)
        delta = LN2 / gain  # 71 nodes on sphere2 and hyperbolic2 at step 0.01; so3 keeps 65
        x = np.array([m.exp(x_star, m.random_tangent(rng, x_star, norm=r))
                      for r in np.linspace(0.2, 1.0, 8)])
        t = np.linspace(0.0, 10.0, 8)
        d0 = m.dist(x, x_star)
        for p in (1.0, 2.0):
            V = construct_exp_V(spec.field, spec.equilibrium, delta, p=p, step=0.01)
            exact = d0 ** p * -math.expm1(-p * gain * delta) / (p * gain)
            err = np.max(np.abs(V.evaluate(t, ManifoldPoint(m, x)) - exact))
            assert err <= V_ERR_AT_65_NODES[name, p], (name, p, err)


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
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = _sphere_state(rng)
        t = rng.uniform(0.0, 5.0)
        lie = sphere_V1.lie_derivative(t, x)
        end = flow_samples(sphere_attractor.field, t, x.coords, [LN2], 1e-2)[0]
        telescoped = SPHERE.dist(end, NORTH) - SPHERE.dist(x.coords, NORTH)
        assert abs(lie - telescoped) < 1e-5


def test_sandwich_and_decay(sphere_V1):
    b = theoretical_bounds(1.0, 1.0, 1.0, LN2, p=1.0)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = _sphere_state(rng)
        t = rng.uniform(0.0, 3.0)
        d = SPHERE.dist(x.coords, NORTH)
        v = sphere_V1.evaluate(t, x)
        assert b.c1 * d * 0.98 <= v <= b.c2 * d * 1.02
        lie = sphere_V1.lie_derivative(t, x)
        assert lie <= -b.c3 * v * 0.98 + 1e-6


def test_directional_derivative_bound(sphere_V1):
    b = theoretical_bounds(1.0, 1.0, 1.0, LN2, p=1.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = _sphere_state(rng, r_lo=0.2)
        v = TangentVector(x, SPHERE.random_tangent(rng, x.coords))
        dv = sphere_V1.directional_derivative(0.0, x, v)
        assert abs(dv) <= b.c4 * v.norm * 1.02
    zero = TangentVector(x, np.zeros(3))
    assert sphere_V1.directional_derivative(0.0, x, zero) == 0.0


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
    return MasseraFunction(s_knots, gprime_knots, np.zeros(1), np.ones(1),
                           k1=0.0, k2=0.0, grid_spacing=1.0)


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
    trajs = []
    for r in (0.5, 0.75, 1.0):
        v0 = EUCLID.random_tangent(rng, np.zeros(2), norm=r)
        trajs.append(flow(spec.field, 0.0, EUCLID.point(v0), 22.0, 1e-2))
    return spec, classify_stability(trajs, spec.equilibrium)


def test_ugas_construction_positive_and_decaying(cubic_envelope):
    spec, envelope = cubic_envelope
    V = construct_ugas_V(spec.field, spec.equilibrium, envelope, 20.0, step=0.05)
    assert V.tail_bound < 1e-8
    assert V.evaluate(0.0, spec.equilibrium) == 0.0
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = EUCLID.point(EUCLID.random_tangent(rng, np.zeros(2), norm=rng.uniform(0.4, 1.0)))
        assert V.evaluate(0.0, x) > 0.0
        assert V.lie_derivative(0.0, x) < 0.0


def test_ugas_monotone_along_ray(cubic_envelope):
    spec, envelope = cubic_envelope
    V = construct_ugas_V(spec.field, spec.equilibrium, envelope, 20.0, step=0.05)
    values = [V.evaluate(0.0, EUCLID.point([r, 0.0]))
              for r in np.linspace(0.4, 1.0, 10)]
    assert all(np.diff(values) > 0)


def test_ugas_horizon_errors(cubic_envelope):
    spec, envelope = cubic_envelope
    with pytest.raises(HorizonError):
        construct_ugas_V(spec.field, spec.equilibrium, envelope, 50.0)
    with pytest.raises(HorizonError):
        construct_ugas_V(spec.field, spec.equilibrium, envelope, 5.0, tail_tol=1e-12)
