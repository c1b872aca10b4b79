"""Reference-value gate for the geometry kernel, the integrator and V.

``data/reference_values.json`` holds V, its Lie derivative and differential,
flow endpoints and pushforwards at fixed states for every manifold x
registered system pair, plus the disturbed input channel and the Massera
reshaping.  The values were written by the one-state-at-a-time integrator
that preceded the batched kernel, with transported fourth-order stages.  The
current integrator takes DOP853's order-8 stages in the embedding and
projects once per step, so V and the endpoints move by the change in
integration error, on the plane too: they must match the file to
``SHIFT_TOL`` absolute and a finer run of the same code (flow and
quadrature steps at step / 2) to ``FINE_TOL``.  V now sums 7
Gauss-Legendre nodes inside each step of its flow; it moved by the
previous rule's error at step 0.01, at most 6.3e-10 absolute.  The
finite-difference quantities stay within 1e-8 relative of the file.  The ``LV`` entries were rewritten when LV
became V's flow-integral identity d(phi(t + delta))^p - d^p, replacing a
central difference of V in time whose own error was 4e-8 to 2.3e-6 relative;
each is gated by its closed form on the geodesic cases and by a central
difference that converges to it at second order.  The ``values`` of sphere2/disturbed and
so3/disturbed were rewritten when the input frame became the equilibrium's
basis parallel-transported along the geodesic, replacing Gram-Schmidt
frames that jumped: the disturbance pushes along other directions, so those
values moved by more than the integration error (V by up to 5.1e-3).  Their
states and equilibria are the file's own.  The Massera-mode V (horizon 8,
step 0.05: 160 flow steps, 7 nodes inside each) was written with a coarser
rule, so it is gated by moving closer to the same V at step 0.005 than the
file's value is.
``python tests/test_reference_values.py --write`` writes the file from the
current code; it refuses to overwrite an existing file.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from geolyap.flows import flow
from geolyap.lyapunov import LyapunovFunction, construct_exp_V, massera_G
from geolyap.manifolds import ManifoldPoint, manifold_from_name
from geolyap.systems import attach_disturbance, make_system
from oracles import assert_second_order, directional_derivative, lie_difference, pushforward

FIXTURE = Path(__file__).parent / "data" / "reference_values.json"
STEP = 1e-2
DELTA = 0.5
FLOW_SPAN = 1.0
PUSH_SPAN = 0.5
ABS_TOL = 1e-12
SHIFT_TOL = 5e-9   # V and endpoints against the file
FINE_TOL = 1e-9    # V and endpoints against the same code on a finer grid
REL_TOL = 1e-8
REL_FLOOR = 1e-12

TV = {"base_gain": 1.5, "amplitude": 0.5}
CASES = [  # label, manifold, system, params, disturbance profile
    ("euclidean2/geodesic", "euclidean2", "geodesic_attractor", {"gain": 1.0}, None),
    ("euclidean2/time-varying", "euclidean2", "time_varying_attractor", TV, None),
    ("euclidean2/cubic", "euclidean2", "cubic_slowdown", {"gain": 1.0}, None),
    ("sphere2/geodesic", "sphere2", "geodesic_attractor", {"gain": 1.0}, None),
    ("sphere2/time-varying", "sphere2", "time_varying_attractor", TV, None),
    ("sphere2/cubic", "sphere2", "cubic_slowdown", {"gain": 1.0}, None),
    ("sphere2/rotation", "sphere2", "isometric_rotation", {"rate": 1.0}, None),
    ("sphere2/disturbed", "sphere2", "geodesic_attractor", {"gain": 1.0}, "sinusoid"),
    ("so3/geodesic", "so3", "geodesic_attractor", {"gain": 1.0}, None),
    ("so3/time-varying", "so3", "time_varying_attractor", TV, None),
    ("so3/cubic", "so3", "cubic_slowdown", {"gain": 1.0}, None),
    ("so3/disturbed", "so3", "geodesic_attractor", {"gain": 1.0}, "sinusoid"),
    ("hyperbolic2/geodesic", "hyperbolic2", "geodesic_attractor", {"gain": 1.0}, None),
    ("hyperbolic2/time-varying", "hyperbolic2", "time_varying_attractor", TV, None),
    ("hyperbolic2/cubic", "hyperbolic2", "cubic_slowdown", {"gain": 1.0}, None),
]
STATE_TIMES = (1.0, math.e)


def _system(manifold, system, params, profile, equilibrium):
    """The registered system and the field to integrate (input channel closed)."""
    spec = make_system(system, manifold, equilibrium, **params)
    if profile is None:
        return spec, spec.field
    spec = attach_disturbance(spec, profile, 0.1)
    return spec, spec.field.with_input_signal(spec.input_signal)


def _case_inputs(seed: int, manifold):
    """Equilibrium and (t, x, v) states drawn from the seed (used only by --write)."""
    rng = np.random.default_rng(seed)
    x_star = manifold.project(manifold.random_point(rng))
    states = []
    for t in STATE_TIMES:
        r = rng.uniform(0.3, 0.9)
        x = manifold.exp(x_star, manifold.random_tangent(rng, x_star, norm=r))
        v = manifold.random_tangent(rng, x, norm=1.0)
        states.append({"t": t, "x": x.ravel().tolist(), "v": v.ravel().tolist()})
    return x_star.ravel().tolist(), states


def _case_values(manifold, system, params, profile, equilibrium, states, step=STEP):
    """Every reference quantity at ``STEP``; V and the endpoint only, with both flows
    (and V's quadrature) at ``step``, at other steps."""
    spec, field = _system(manifold, system, params, profile, equilibrium)
    V = construct_exp_V(field, spec.equilibrium, DELTA, p=2.0, step=step)
    out = []
    for s in states:
        t = s["t"]
        x = ManifoldPoint(manifold, np.reshape(s["x"], manifold.ambient_shape))
        v = np.reshape(s["v"], manifold.ambient_shape)
        values = {
            "V": V.evaluate(t, x),
            "flow_end": flow(field, t, x, t + FLOW_SPAN, step).points[-1].ravel().tolist(),
        }
        if step == STEP:
            values.update(
                LV=float(V.quadrature(V.node_flow(t, x.coords))[1]),
                dV=float(directional_derivative(V, t, x.coords, v)),
                pushforward=pushforward(field, t, x.coords, v, PUSH_SPAN,
                                        STEP)[1].ravel().tolist())
        out.append(values)
    return out


def _massera_values(states, step=0.05):
    """The reshaping G, G' and a Massera-mode V of the planar cubic system."""
    times = np.linspace(0.0, 10.0, 41)
    G = massera_G(times, 1.0 / np.sqrt(2.0 * times + 1.0))
    s = np.linspace(0.0, 1.2, 13)
    spec = make_system("cubic_slowdown", manifold_from_name("euclidean2"), [0.0, 0.0])
    V = LyapunovFunction(spec.field, spec.equilibrium, 8.0, 1.0, step=step,
                         mode="massera", reshaping=G)
    m = spec.field.manifold
    return {
        "G": [G.value(float(si)) for si in s],
        "G_prime": [G.derivative(float(si)) for si in s],
        "V": [V.evaluate(st["t"], ManifoldPoint(m, np.asarray(st["x"]))) for st in states],
    }


def write_fixture(path: Path = FIXTURE):
    """Write the reference file from the current code; never over an existing one."""
    if path.exists():
        raise FileExistsError(f"{path} exists: delete it first to write it anew")
    cases = {}
    for i, (label, name, system, params, profile) in enumerate(CASES):
        m = manifold_from_name(name)
        equilibrium, states = _case_inputs(i, m)
        values = _case_values(m, system, params, profile, np.reshape(equilibrium,
                                                                     m.ambient_shape), states)
        cases[label] = {"equilibrium": equilibrium, "states": states, "values": values}
    massera_states = cases["euclidean2/cubic"]["states"]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "cases": cases,
        "massera": {"states": massera_states, "values": _massera_values(massera_states)},
    }, indent=1) + "\n")


@pytest.fixture(scope="module")
def reference():
    return json.loads(FIXTURE.read_text())


def _assert_abs(got, want, what, tol=ABS_TOL):
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    assert err <= tol, f"{what}: off the reference by {err:.3g}"


def _assert_rel(got, want, what):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = float(np.linalg.norm(got - want))
    assert err <= REL_TOL * max(float(np.linalg.norm(want)), REL_FLOOR / REL_TOL), \
        f"{what}: off the reference by {err:.3g} (reference norm {np.linalg.norm(want):.3g})"


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_matches_reference_values(reference, case):
    label, name, system, params, profile = case
    m = manifold_from_name(name)
    entry = reference["cases"][label]
    equilibrium = np.reshape(entry["equilibrium"], m.ambient_shape)
    got = _case_values(m, system, params, profile, equilibrium, entry["states"])
    for i, (g, want) in enumerate(zip(got, entry["values"])):
        for key in ("V", "flow_end"):
            _assert_abs(g[key], want[key], f"{label}[{i}] {key}", SHIFT_TOL)
        for key in ("LV", "dV", "pushforward"):
            _assert_rel(g[key], want[key], f"{label}[{i}] {key}")
    fine = _case_values(m, system, params, profile, equilibrium, entry["states"], STEP / 2)
    for i, (g, f) in enumerate(zip(got, fine)):
        for key in ("V", "flow_end"):
            _assert_abs(g[key], f[key], f"{label}[{i}] {key} on the finer grid", FINE_TOL)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_reference_lie_derivatives_match_the_central_difference(reference, case):
    label, name, system, params, profile = case
    m = manifold_from_name(name)
    entry = reference["cases"][label]
    spec, field = _system(m, system, params, profile,
                          np.reshape(entry["equilibrium"], m.ambient_shape))
    V = construct_exp_V(field, spec.equilibrium, DELTA, p=2.0, step=STEP)
    t = np.array([s["t"] for s in entry["states"]])
    x = np.array([np.reshape(s["x"], m.ambient_shape) for s in entry["states"]])
    lie = np.array([v["LV"] for v in entry["values"]])
    scale = np.abs(lie) + np.array([v["V"] for v in entry["values"]])
    assert_second_order(lambda h: lie_difference(V, t, x, h), lie, scale, label)


@pytest.mark.parametrize("label", [c[0] for c in CASES if c[2] == "geodesic_attractor"
                                   and c[4] is None])
def test_geodesic_lie_derivative_matches_its_closed_form(reference, label):
    # d(t) = e^{-t} d0 exactly, so LV = d0^2 (e^{-2 DELTA} - 1) = d0^2 (e^{-1} - 1).
    case = next(c for c in CASES if c[0] == label)
    m = manifold_from_name(case[1])
    entry = reference["cases"][label]
    equilibrium = np.reshape(entry["equilibrium"], m.ambient_shape)
    got = _case_values(m, *case[2:], equilibrium, entry["states"])
    for s, g in zip(entry["states"], got):
        d = m.dist(np.reshape(s["x"], m.ambient_shape), equilibrium)
        want = d * d * math.expm1(-2.0 * DELTA)
        assert abs(g["LV"] - want) <= 1e-9 * abs(want), (label, g["LV"], want)


def test_write_fixture_refuses_an_existing_file(tmp_path):
    path = tmp_path / "reference_values.json"
    path.write_text("{}")
    with pytest.raises(FileExistsError, match="delete it first"):
        write_fixture(path)
    assert path.read_text() == "{}"


def test_massera_matches_reference_values(reference):
    entry = reference["massera"]
    got = _massera_values(entry["states"])
    _assert_abs(got["G"], entry["values"]["G"], "G")
    _assert_abs(got["G_prime"], entry["values"]["G_prime"], "G'")
    fine = _massera_values(entry["states"], step=0.005)["V"]
    err = np.abs(np.subtract(got["V"], fine))
    assert np.all(err < np.abs(np.subtract(entry["values"]["V"], fine))), err


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        try:
            write_fixture()
        except FileExistsError as exc:
            sys.exit(str(exc))
    else:
        sys.exit("usage: python tests/test_reference_values.py --write")
