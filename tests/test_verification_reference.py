"""Reference-report gate for certificate verification and the ISS check.

``data/verification_reference.json`` holds the report rows and the per-state
samples of exp-mode ``verify_converse_certificate`` on small sphere2, so3 and
hyperbolic2 grids, and the report and series of ``iss_certify`` on sphere2,
together with the inputs they were computed from (equilibrium, Lipschitz
constant).  The values were written by the code in which V used 65
quadrature nodes whatever the step, the integrator transported its stages
with the generic ``transport``, and the contraction check read the pairs at
``linspace(0, envelope_horizon, 7)``.  The file is kept as written; the
current code is compared against it at stated per-quantity tolerances:

- the drawn inputs (sample times and distances, series times and inputs)
  are bit-identical;
- V now sums 7 Gauss-Legendre nodes inside each step of its flow (492
  nodes at delta = ln 2, step 0.01), so V and every quantity derived from
  it (sandwich, differential rows, the sample and series V columns, the
  ISS bounds) move by the old rule's quadrature error: within ``V_REL``
  relative; ``pushforward-growth`` within ``PUSHFORWARD_REL`` relative;
- flowed distances move by the change in integration error, since the
  integrator now takes DOP853's order-8 stages in the embedding and
  projects once per step: within ``FLOW_REL`` relative; the input Lipschitz constant
  involves no flow and stays within ``INPUT_REL``;
- the contraction row reads the pairs at the step-grid offsets of
  ``contraction_offsets``, so it is compared with ``contraction_report`` on
  its own flow of those offsets, exactly, not with the file.

The verification reads one flow of the inputs' rows at V's step
(``oracles.verify_on_own_flow``): V reads its Gauss-Legendre panels from that
flow's steps, and the pairs ride it with V's rows, their states bit for bit
those of a flow of their own.

The ``iss`` entry alone was rewritten when the input frame became the
equilibrium's basis parallel-transported along the geodesic, replacing a
closed-form Gram-Schmidt frame: the disturbance pushes along other
directions, so its flowed distances and V moved by up to 1.1e-2 relative.
Its series times and inputs are unchanged.  Its ``iss-pointwise-decay``
``measured`` was rewritten again when that row began to report the worst
``LV + c3 V`` over the grid instead of repeating its theory.

LV became the flow-integral identity d(phi(t + delta))^p - d^p (plus dV(w)
along the disturbed field), replacing a central difference of V in time
whose own error was about 7e-7 relative.  The ``lie-decay`` and
``telescoping-identity`` rows, the samples' LV column and the ISS
``iss-pointwise-decay`` row were then rewritten from the code that reads the
identity; ``telescoping-identity`` now checks the telescoped decay step
d(phi(t + delta))^p <= (1 - K') d^p, a flowed distance within ``FLOW_REL``.
The ``hyperbolic2/geodesic`` case was rewritten whole (its equilibrium
kept) when hyperbolic2's tangent draws became isotropic in the metric: its
Lipschitz constant and every drawn state moved.

``python tests/test_verification_reference.py --write`` writes the file from
the current code; it refuses to overwrite an existing file.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from geolyap.certify import (
    GridSpec,
    StabilityEnvelope,
    draw_verification_inputs,
    iss_certify,
    make_certificate,
)
from geolyap.flows import Region, contraction_offsets, lipschitz_estimate
from geolyap.lyapunov import choose_delta
from geolyap.manifolds import manifold_from_name
from geolyap.systems import attach_disturbance, make_system
from oracles import contraction_reports, verify_on_own_flow

FIXTURE = Path(__file__).parent / "data" / "verification_reference.json"
STEP = 1e-2
ENVELOPE_HORIZON = 0.5
V_REL = 1e-7
PUSHFORWARD_REL = 1e-8
FLOW_REL = 1e-8
INPUT_REL = 1e-12
T0_LIST = (0.0, 1.0, math.e, 10.0)
TV = {"base_gain": 1.5, "amplitude": 0.5}
CASES = [  # label, manifold, system, params, envelope (K, rate), n_points, p
    ("sphere2/geodesic", "sphere2", "geodesic_attractor", {"gain": 1.0}, (1.0, 1.0), 12, 2.0),
    ("sphere2/time-varying", "sphere2", "time_varying_attractor", TV, (math.e, 1.0), 6, 1.0),
    ("so3/geodesic", "so3", "geodesic_attractor", {"gain": 2.0}, (1.0, 2.0), 4, 2.0),
    ("hyperbolic2/geodesic", "hyperbolic2", "geodesic_attractor", {"gain": 1.0},
     (1.0, 1.0), 6, 1.0),
]
ISS_HORIZONS = (2.0, 3.0)


def _envelope(K, rate):
    s = np.linspace(0.0, 6.0, 13)
    return StabilityEnvelope("LES", K, rate, s, K * np.exp(-rate * s), 0.0, 1.0, 12)


def _verify(case, equilibrium, L):
    """(spec, certificate, report) of the case's verification."""
    label, name, system, params, (K, rate), n_points, p = case
    m = manifold_from_name(name)
    spec = make_system(system, m, np.reshape(equilibrium, m.ambient_shape), **params)
    delta = choose_delta(K, rate, 0.5)
    cert = make_certificate(spec.field, spec.equilibrium, L, _envelope(K, rate), delta, p,
                            step=STEP)
    inputs = draw_verification_inputs(m, spec.equilibrium, GridSpec(n_points, 1.0, T0_LIST), 3)
    return spec, cert, verify_on_own_flow(cert, inputs, ENVELOPE_HORIZON)


def _iss(spec, certificate):
    disturbed = attach_disturbance(spec, "constant", 0.1)
    on_input = dataclasses.replace(certificate, V=dataclasses.replace(certificate.V,
                                                                      field=disturbed.field))
    report = iss_certify(on_input, disturbed.input_signal, 0.1, ISS_HORIZONS, seed=5,
                         grid=GridSpec(6, 1.0, T0_LIST), step=STEP)
    return {"report": report.to_dict(), "series": report.series.tolist()}


def write_fixture(path: Path = FIXTURE):
    """Write the reference file from the current code; never over an existing one."""
    if path.exists():
        raise FileExistsError(f"{path} exists: delete it first to write it anew")
    cases, iss = {}, None
    for i, case in enumerate(CASES):
        label, name, system, params = case[:4]
        m = manifold_from_name(name)
        equilibrium = m.project(m.random_point(np.random.default_rng(i)))
        spec = make_system(system, m, equilibrium, **params)
        L = lipschitz_estimate(spec.field, Region(spec.equilibrium, 1.0), T0_LIST,
                               n_pairs=32, seed=i).inflated()
        spec, cert, report = _verify(case, equilibrium.ravel().tolist(), L)
        cases[label] = {"equilibrium": equilibrium.ravel().tolist(), "L": L,
                        "report": report.to_dict(), "samples": report.samples.tolist()}
        if label == "sphere2/geodesic":
            iss = _iss(spec, cert)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"cases": cases, "iss": iss}, indent=1) + "\n")


@pytest.fixture(scope="module")
def reference():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def verified(reference):
    """Label -> (spec, certificate, report) from the current code on the fixture's inputs."""
    return {case[0]: _verify(case, reference["cases"][case[0]]["equilibrium"],
                             reference["cases"][case[0]]["L"]) for case in CASES}


def _close(got: float, want: float, rel: float, what):
    assert abs(got - want) <= rel * abs(want), (what, got, want)


def _contraction_row(case, spec, L):
    """The contraction row recomputed from its own flow on the step-grid offsets."""
    m = spec.field.manifold
    inputs = draw_verification_inputs(m, spec.equilibrium, GridSpec(case[5], 1.0, T0_LIST), 3)
    lower, upper, passed, _, _ = contraction_reports(
        spec.field, L, inputs.pair_t, *inputs.pair_x, contraction_offsets(ENVELOPE_HORIZON, STEP),
        STEP)
    margin = float(min(lower.min(), upper.min()))
    return {"name": "contraction-envelope", "anchor": "contraction-envelope", "theory": 0.0,
            "measured": -margin, "margin": margin, "pass": bool(passed.all())}


def _assert_rows(got: list, want: list, contraction: dict):
    assert [r["name"] for r in got] == [r["name"] for r in want]
    for g, w in zip(got, want):
        if g["name"] == "contraction-envelope":
            assert g == contraction
            continue
        rel = {"pushforward-growth": PUSHFORWARD_REL,
               "telescoping-identity": FLOW_REL}.get(g["name"], V_REL)
        _close(g["measured"], w["measured"], rel, g)
        assert abs(g["margin"] - w["margin"]) <= rel * (1.0 + abs(w["margin"])), g
        g, w = ({k: v for k, v in r.items() if k not in ("measured", "margin")}
                for r in (g, w))
        assert g == w


@pytest.mark.parametrize("label", [c[0] for c in CASES])
def test_verification_matches_reference(reference, verified, label):
    want = reference["cases"][label]
    case = next(c for c in CASES if c[0] == label)
    spec, _, report = verified[label]
    got = report.to_dict()
    assert got["verdict"] == want["report"]["verdict"]
    _assert_rows(got["rows"], want["report"]["rows"], _contraction_row(case, spec, want["L"]))
    samples, want_samples = report.samples, np.array(want["samples"])
    assert np.array_equal(samples[:, :2], want_samples[:, :2])  # t and distance: the draws
    for column in (2, 3):  # V and LV
        err = np.abs(samples[:, column] - want_samples[:, column])
        assert np.all(err <= V_REL * np.abs(want_samples[:, column])), (label, column)


def test_iss_matches_reference(reference, verified):
    spec, cert, _ = verified["sphere2/geodesic"]
    got = _iss(spec, cert)
    want = reference["iss"]
    series, want_series = np.array(got["series"]), np.array(want["series"])
    assert np.array_equal(series[:, [0, 3]], want_series[:, [0, 3]])  # t and |u|
    assert np.all(np.abs(series[:, 1] - want_series[:, 1]) <= FLOW_REL * want_series[:, 1])
    assert np.all(np.abs(series[:, 2] - want_series[:, 2]) <= V_REL * want_series[:, 2])
    report, want_report = got["report"], want["report"]
    assert report["pass"] == want_report["pass"]
    assert report["input_bound"] == want_report["input_bound"]
    _close(report["input_lipschitz"], want_report["input_lipschitz"], INPUT_REL, "L_u")
    for key in ("c3", "c4", "predicted_v_bound", "ultimate_distance_bound"):
        assert report[key] == want_report[key], key  # certificate constants: no flow
    _close(report["measured_d_limsup"], want_report["measured_d_limsup"], FLOW_REL, "d")
    _close(report["measured_v_limsup"], want_report["measured_v_limsup"], V_REL, "V")
    for g, w in zip(report["rows"], want_report["rows"]):
        _close(g["measured"], w["measured"], V_REL, g)
        assert abs(g["margin"] - w["margin"]) <= V_REL * (1.0 + abs(w["margin"])), g
        assert ({k: v for k, v in g.items() if k not in ("measured", "margin")}
                == {k: v for k, v in w.items() if k not in ("measured", "margin")})


def test_write_fixture_refuses_an_existing_file(tmp_path):
    path = tmp_path / "verification_reference.json"
    path.write_text("{}")
    with pytest.raises(FileExistsError, match="delete it first"):
        write_fixture(path)
    assert path.read_text() == "{}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        try:
            write_fixture()
        except FileExistsError as exc:
            sys.exit(str(exc))
    else:
        sys.exit("usage: python tests/test_verification_reference.py --write")
