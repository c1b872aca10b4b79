"""Acceptance suite: one test per shipped criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from geolyap.certify import (
    GridSpec,
    classify_stability,
    iss_certify,
    make_certificate,
    run_geometry_suite,
    sample_states,
)
from geolyap.cli import main as cli_main
from geolyap.flows import Region, choose_step, flow, flow_samples, lipschitz_estimate
from geolyap.lyapunov import (
    construct_exp_V,
    construct_ugas_V,
    massera_G,
    theoretical_bounds,
)
from geolyap.manifolds import (
    Euclidean,
    Hyperbolic2,
    ManifoldPoint,
    Sphere,
    SpecialOrthogonal3,
)
from geolyap.systems import attach_disturbance, make_system
from oracles import (
    contraction_reports,
    directional_derivative,
    distance_table,
    lie_difference,
    pushforward,
)

LN2 = math.log(2.0)
SPHERE = Sphere(2)
EUCLID = Euclidean(2)
NORTH = np.array([0.0, 0.0, 1.0])
T0_LIST = (0.0, 1.0, math.e, 10.0)


def _verdict(number: int, passed: bool, detail: str):
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def sphere_attractor():
    return make_system("geodesic_attractor", SPHERE, [0.0, 0.0, 1.0], gain=1.0)


@pytest.fixture(scope="module")
def sphere_grid(sphere_attractor):
    rng = np.random.default_rng(42)
    return sample_states(SPHERE, sphere_attractor.equilibrium,
                         GridSpec(200, 1.0, T0_LIST), rng)


def _at_chosen_step(V, t, x):
    """``V`` at the step the chooser picks on the states (its node flow's, and its
    quadrature's steps), as in the pipeline."""
    pick, _ = choose_step(V.field, t, x, V.x_star.coords, V.horizon, V.step)
    return dataclasses.replace(V, step=pick)


@pytest.fixture(scope="module")
def sphere_V1(sphere_attractor, sphere_grid):
    return _at_chosen_step(construct_exp_V(sphere_attractor.field, sphere_attractor.equilibrium,
                                           LN2, p=1.0, step=1e-2), *sphere_grid)


@pytest.fixture(scope="module")
def sphere_grid_quantities(sphere_attractor, sphere_V1, sphere_grid):
    """Shared per-state quantities for the sandwich / decay / identity criteria.

    Each quantity is one batch over the grid; a batch row equals the row
    evaluated alone (tests/test_batching.py).  LV is V's flow-integral
    identity; the central-difference oracle differentiates V independently.
    """
    t, x = sphere_grid
    d = SPHERE.dist(x, NORTH)
    (v,), (lie,) = sphere_V1.evaluate_groups([(t, x)])
    oracle = lie_difference(sphere_V1, t, x)
    end = flow_samples(sphere_attractor.field, t, x, [LN2], 1e-2)[0]
    telescoped = SPHERE.dist(end, NORTH) - d
    return list(zip(d, v, lie, telescoped, oracle))


def test_criterion_01_geometry_kernel():
    manifolds = [Euclidean(2), Sphere(2), SpecialOrthogonal3(), Hyperbolic2()]
    worst = {}
    for m in manifolds:
        report = run_geometry_suite(m, seed=7, n=1000)
        for row in report.rows:
            assert row.passed, f"{m.name}: {row.name} measured {row.measured}"
        worst[m.name] = report.row("first-variation-order").measured
    _verdict(1, True, f"1000 samples/manifold; h-halving ratios {worst}")


def test_criterion_02_contraction_envelope():
    taus = np.linspace(0.0, 3.0, 7)
    details = []
    for manifold, equilibrium in [
            (Sphere(2), [0.0, 0.0, 1.0]),
            (SpecialOrthogonal3(), np.eye(3)),
            (Hyperbolic2(), [1.0, 0.0, 0.0])]:
        spec = make_system("geodesic_attractor", manifold, equilibrium, gain=1.0)
        region = Region(spec.equilibrium, 1.0)
        L = lipschitz_estimate(spec.field, region, [0.0], 200, seed=2).inflated()
        rng = np.random.default_rng(2)
        # The 100 pairs, drawn first then second state in turn, checked in one batch.
        x1, x2 = np.moveaxis(
            region.samples(rng, 200).reshape((100, 2) + manifold.ambient_shape), 1, 0)
        lower, upper, passed, flagged, _ = contraction_reports(spec.field, L, 0.0, x1, x2, taus,
                                                               0.02, slack=1e-6)
        assert passed.all() and not flagged.any(), manifold.name
        worst = min(lower.min(), upper.min())
        details.append(f"{manifold.name}: L={L:.3f} margin={worst:.2e}")

    # The linear Euclidean case sits exactly on the lower envelope.
    spec = make_system("geodesic_attractor", EUCLID, [0.0, 0.0], gain=1.0)
    rng = np.random.default_rng(3)
    x1, x2 = np.moveaxis(rng.uniform(-1, 1, (10, 2, 2)), 1, 0)
    d = contraction_reports(spec.field, 1.0, 0.0, x1, x2, taus, 1e-2)[-1]
    lower = EUCLID.dist(x1, x2)[:, None] * np.exp(-taus)
    assert np.max(np.abs(d / lower - 1.0)) <= 1e-8
    _verdict(2, True, "; ".join(details) + "; euclidean on lower envelope to 1e-8")


def test_criterion_03_sandwich_constants(sphere_grid_quantities):
    # Unit-gain sphere attractor, delta = ln 2, p = 1: V/d = (1 - e^-delta) = 0.5.
    b = theoretical_bounds(1.0, 1.0, 1.0, LN2, p=1.0)
    assert b.c1 == pytest.approx(0.5) and b.c2 == pytest.approx(0.5)
    ratios = [v / d for d, v, _, _, _ in sphere_grid_quantities]
    worst = max(abs(r - 0.5) for r in ratios)
    _verdict(3, worst <= 0.01,
             f"V/d within {worst:.2e} of 0.5 on {len(ratios)} states (2% = 1e-2)")


def test_criterion_04_decay_and_telescoping(sphere_grid_quantities):
    b = theoretical_bounds(1.0, 1.0, 1.0, LN2, p=1.0)
    decay_ok = all(lie <= -b.c3 * v * 0.98 + 1e-6
                   for _, v, lie, _, _ in sphere_grid_quantities)
    # The central difference of V (O(h^2) from LV) against an independent flow.
    telescope_worst = max(abs(oracle - tel) for _, _, _, tel, oracle in sphere_grid_quantities)
    _verdict(4, decay_ok and telescope_worst <= 1e-5,
             f"lie <= -c3 V within 2%; telescoping residual {telescope_worst:.2e} <= 1e-5")


def test_criterion_05_differential_and_pushforward(sphere_attractor, sphere_V1,
                                                   sphere_grid):
    b = theoretical_bounds(1.0, 1.0, 1.0, LN2, p=1.0)
    assert b.c4 == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    dv_worst = 0.0
    push_worst = 0.0
    for t, x in zip(*(a[:100] for a in sphere_grid)):
        v = SPHERE.random_tangent(rng, x, norm=1.0)
        dv_worst = max(dv_worst, abs(directional_derivative(sphere_V1, t, x, v)))
        tau = t + rng.uniform(0.2, 1.0)
        y0, w = pushforward(sphere_attractor.field, t, x, v, tau - t, 1e-2)
        push_worst = max(push_worst, SPHERE.norm(y0, w) / math.exp(1.0 * (tau - t)))
    _verdict(5, dv_worst <= b.c4 * 1.02 and push_worst <= 1.0 + 1e-3,
             f"|dV| worst {dv_worst:.4f} <= c4(1+2%); pushforward ratio "
             f"{push_worst:.4f} <= 1+1e-3")


def test_criterion_06_power_two_reduction():
    spec = make_system("geodesic_attractor", EUCLID, [0.0, 0.0], gain=1.0)
    b = theoretical_bounds(1.0, 1.0, 1.0, 1.0, p=2.0)
    rng = np.random.default_rng(6)
    ts, xs = sample_states(EUCLID, spec.equilibrium, GridSpec(100, 1.0, T0_LIST), rng)
    V = _at_chosen_step(construct_exp_V(spec.field, spec.equilibrium, 1.0, p=2.0, step=1e-2),
                        ts, xs)
    sandwich_ok = True
    dv_ok = True
    for t, coords in zip(ts, xs):
        x = ManifoldPoint(EUCLID, coords)
        d = EUCLID.dist(x.coords, np.zeros(2))
        v = V.evaluate(t, x)
        sandwich_ok &= b.c1 * d * d * 0.98 <= v <= b.c2 * d * d * 1.02
        w = EUCLID.random_tangent(rng, x.coords, norm=1.0)
        dv_ok &= abs(directional_derivative(V, t, x.coords, w)) <= b.c4 * d * 1.02
    _verdict(6, sandwich_ok and dv_ok,
             f"p=2: c1=c2={b.c1:.4f} sandwich and |dV| <= c4 d within 2%")


def test_criterion_07_massera_construction():
    spec = make_system("cubic_slowdown", EUCLID, [0.0, 0.0], gain=1.0)
    rng = np.random.default_rng(7)
    starts = [EUCLID.point(EUCLID.random_tangent(rng, np.zeros(2), norm=r))
              for r in (0.5, 0.75, 1.0)]
    trajs = flow(spec.field, 0.0, starts, 22.0, 1e-2)  # one batch
    envelope = classify_stability(*distance_table(trajs, spec.equilibrium), 1e-2)
    assert envelope.stability_class == "UAS"

    times, g_vals = envelope.decay_times, envelope.decay_values
    reshaping = massera_G(times, g_vals)
    s = np.linspace(0.0, float(reshaping.s_knots[-1]), 64)
    g_strict = all(np.diff([reshaping.value(si) for si in s]) > 0)
    gp_strict = all(np.diff([reshaping.derivative(si) for si in s]) > 0)

    V = construct_ugas_V(spec.field, spec.equilibrium, times, g_vals, 20.0, step=0.05)
    t, coords = sample_states(EUCLID, spec.equilibrium, GridSpec(50, 1.0, T0_LIST),
                              np.random.default_rng(8), r_min_frac=0.3)
    values, lies, _ = V.quadrature(V.node_flow(t, coords))
    positive = bool(np.all(values > 0))
    decaying = bool(np.all(lies < 0))
    ok = (reshaping.value(0.0) == 0.0 and g_strict and gp_strict
          and math.isfinite(reshaping.k1) and V.tail_bound < 1e-8
          and positive and decaying)
    _verdict(7, ok,
             f"G(0)=0, strict G/G', k1={reshaping.k1:.3e}, tail={V.tail_bound:.2e}"
             f" < 1e-8, V>0 and decaying at 50 states")


def test_criterion_08_iss_scaling(sphere_attractor):
    rng = np.random.default_rng(9)
    t0s, starts = np.repeat(T0_LIST, 3), []
    for _ in t0s:
        v0 = SPHERE.random_tangent(rng, NORTH, norm=rng.uniform(0.3, 1.0))
        starts.append(ManifoldPoint(SPHERE, SPHERE.exp(NORTH, v0)))
    trajs = flow(sphere_attractor.field, t0s, starts, t0s + 6.0, 1e-2)
    envelope = classify_stability(*distance_table(trajs, sphere_attractor.equilibrium), 1e-2)
    L = lipschitz_estimate(sphere_attractor.field, Region(sphere_attractor.equilibrium, 1.0),
                           [0.0], 100, seed=9).inflated()
    predicted = []
    measured = []
    for amplitude in (0.05, 0.1, 0.2):
        spec = attach_disturbance(sphere_attractor, "constant", amplitude)
        cert = make_certificate(spec.field, spec.equilibrium, L, envelope, LN2, 1.0, step=1e-2)
        cert = dataclasses.replace(cert, V=_at_chosen_step(
            cert.V, t0s, np.array([x.coords for x in starts])))
        report = iss_certify(cert, spec.input_signal, amplitude, [8.0, 12.0], seed=9,
                             grid=GridSpec(16, 1.0, T0_LIST), step=1e-2)
        assert report.passed, f"amplitude {amplitude}"
        assert report.measured_v_limsup <= report.predicted_v_bound * 1.05
        predicted.append(report.predicted_v_bound)
        measured.append(report.measured_v_limsup)
    monotone = all(np.diff(predicted) > 0) and all(np.diff(measured) > 0)
    ratios_ok = all(measured[i + 1] / measured[i] <= (predicted[i + 1] / predicted[i]) * 1.05
                    for i in range(2))
    _verdict(8, monotone and ratios_ok,
             f"pointwise+trajectory pass at |u| in (0.05, 0.1, 0.2); "
             f"bounds {['%.3f' % p for p in predicted]} scale monotonically")


def test_criterion_09_integrator_quality(sphere_attractor):
    x0 = ManifoldPoint(SPHERE, SPHERE.exp(NORTH, np.array([1.0, 0.0, 0.0])))

    def endpoint_error(step):
        traj = flow(sphere_attractor.field, 0.0, x0, 1.0, step=step)
        return abs(SPHERE.dist(traj.points[-1], NORTH) - math.exp(-1.0))

    # Order 8: halving the step cuts the error about 2^8-fold (282 from step 0.5;
    # below 0.1 it reaches the rounding floor).
    factor = endpoint_error(0.5) / endpoint_error(0.25)
    traj = flow(sphere_attractor.field, 0.0, x0, 10.0, step=1e-2)
    drift = max(SPHERE.constraint_violation(p) for p in traj.points)
    _verdict(9, 128.0 <= factor <= 512.0 and drift < 1e-12,
             f"halving factor {factor:.1f} in [128, 512]; constraint drift {drift:.2e} < 1e-12")


def test_criterion_10_cli_determinism(tmp_path):
    outs = []
    for run, workers in (("r1", None), ("r2", None), ("r3", "4")):
        out = tmp_path / run
        argv = ["certify", "--config", "configs/sphere_attractor.json",
                "--out", str(out)]
        if workers:
            argv += ["--workers", workers]
        rc = cli_main(argv)
        assert rc == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (o / name).read_bytes()
        for o in outs[1:] for name in ("report.json", "report.txt", "samples.csv"))

    rot_out = tmp_path / "rot"
    rc = cli_main(["certify", "--config", "configs/rotation_us.json",
                   "--out", str(rot_out)])
    report = json.loads((rot_out / "report.json").read_text())
    names_anchor = report["report"]["failed_stage"] == "les-envelope-fit"
    _verdict(10, identical and rc == 2 and names_anchor,
             "byte-identical across runs and worker counts; US rotation exits 2 "
             "naming les-envelope-fit")
