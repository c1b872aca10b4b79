"""Reference-report gate for certificate verification and the ISS check.

``data/verification_reference.json`` holds the report rows and the per-state
samples of exp-mode ``verify_converse_certificate`` on small sphere2, so3 and
hyperbolic2 grids, and the report and series of ``iss_certify`` on sphere2,
together with the inputs they were computed from (equilibrium, Lipschitz
constant).  The values were written by the code in which the telescoping
endpoints and the pushforward integrated on their own step grids, apart from
V.  They now share V's quadrature-node flow, so those two rows may move:
``telescoping-identity`` within 1e-9 absolute and ``pushforward-growth``
within 1e-8 relative.  Every other number must be bit-identical.
``python tests/test_verification_reference.py --write`` rewrites the file
from the current code.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from geolyap.certify import (
    TELESCOPE_TOL,
    GridSpec,
    iss_certify,
    verify_converse_certificate,
)
from geolyap.envelopes import KLEnvelope, StabilityEnvelope
from geolyap.flows import Region, lipschitz_estimate
from geolyap.lyapunov import choose_delta
from geolyap.manifolds import manifold_from_name
from geolyap.systems import attach_disturbance, make_system

FIXTURE = Path(__file__).parent / "data" / "verification_reference.json"
STEP = 1e-2
TELESCOPE_ABS = 1e-9
PUSHFORWARD_REL = 1e-8
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
    beta = KLEnvelope.from_exponential(K, rate, 1.0, np.linspace(0.0, 6.0, 13))
    return StabilityEnvelope("LES", K, rate, beta, 0.0, 1.0, 12)


def _verify(case, equilibrium, L):
    label, name, system, params, (K, rate), n_points, p = case
    m = manifold_from_name(name)
    spec = make_system(system, m, np.reshape(equilibrium, m.ambient_shape), **params)
    delta = choose_delta(K, rate, 0.5).delta
    report = verify_converse_certificate(
        spec.field, spec.equilibrium, L, _envelope(K, rate), delta, p,
        GridSpec(n_points, 1.0, T0_LIST), seed=3, step=STEP, envelope_horizon=0.5)
    return spec, report


def _iss(spec, certificate):
    disturbed = attach_disturbance(spec, "constant", 0.1)
    report = iss_certify(disturbed.field, spec.equilibrium, certificate,
                         disturbed.input_signal, 0.1, ISS_HORIZONS, seed=5,
                         grid=GridSpec(6, 1.0, T0_LIST), step=STEP)
    return {"report": report.to_dict(), "series": report.series.tolist()}


def write_fixture():
    cases, iss = {}, None
    for i, case in enumerate(CASES):
        label, name, system, params = case[:4]
        m = manifold_from_name(name)
        equilibrium = m.project(m.random_point(np.random.default_rng(i)))
        spec = make_system(system, m, equilibrium, **params)
        L = lipschitz_estimate(spec.field, Region(spec.equilibrium, 1.0), T0_LIST,
                               n_pairs=32, seed=i).inflated()
        spec, report = _verify(case, equilibrium.ravel().tolist(), L)
        cases[label] = {"equilibrium": equilibrium.ravel().tolist(), "L": L,
                        "report": report.to_dict(), "samples": report.samples.tolist()}
        if label == "sphere2/geodesic":
            iss = _iss(spec, report.certificate)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"cases": cases, "iss": iss}, indent=1) + "\n")


@pytest.fixture(scope="module")
def reference():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def verified(reference):
    """Label -> (spec, report) from the current code on the fixture's inputs."""
    return {case[0]: _verify(case, reference["cases"][case[0]]["equilibrium"],
                             reference["cases"][case[0]]["L"]) for case in CASES}


def _assert_rows(got: list, want: list):
    assert [r["name"] for r in got] == [r["name"] for r in want]
    for g, w in zip(got, want):
        if g["name"] == "telescoping-identity":
            assert abs(g["measured"] - w["measured"]) <= TELESCOPE_ABS, g
            assert abs(g["margin"] - w["margin"]) <= TELESCOPE_ABS / TELESCOPE_TOL, g
            g, w = ({k: v for k, v in r.items() if k not in ("measured", "margin")}
                    for r in (g, w))
        elif g["name"] == "pushforward-growth":
            tol = PUSHFORWARD_REL * abs(w["measured"])
            assert abs(g["measured"] - w["measured"]) <= tol, g
            assert abs(g["margin"] - w["margin"]) <= tol, g
            g, w = ({k: v for k, v in r.items() if k not in ("measured", "margin")}
                    for r in (g, w))
        assert g == w


@pytest.mark.parametrize("label", [c[0] for c in CASES])
def test_verification_matches_reference(reference, verified, label):
    want = reference["cases"][label]
    _, report = verified[label]
    got = report.to_dict()
    assert got["verdict"] == want["report"]["verdict"]
    _assert_rows(got["rows"], want["report"]["rows"])
    assert report.samples.tolist() == want["samples"]


def test_iss_matches_reference(reference, verified):
    spec, report = verified["sphere2/geodesic"]
    got = _iss(spec, report.certificate)
    assert got["series"] == reference["iss"]["series"]
    assert got["report"] == reference["iss"]["report"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_fixture()
    else:
        sys.exit("usage: python tests/test_verification_reference.py --write")
