import csv
import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geolyap import certify, config as config_module, flows, pipeline, systems
from geolyap.certify import StabilityEnvelope
from geolyap.cli import main
from geolyap.config import ConfigError, load_scenario
from geolyap.lyapunov import G7

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def _small_config(tmp_path, name="small.json", **overrides):
    data = {
        "schema_version": 1,
        "manifold": "sphere2",
        "system": {"name": "geodesic_attractor", "params": {"gain": 1.0}},
        "equilibrium": [0.0, 0.0, 1.0],
        "delta": {"policy": "auto", "target": 0.5},
        "p": 1,
        "grids": {"n_points": 8, "radius": 1.0, "t0_list": [0.0, 1.0]},
        "seed": 7,
        "step": 0.01,
        "fit_horizon": 4.0,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_verify_geometry_passes(tmp_path):
    out = tmp_path / "geom"
    rc = main(["verify-geometry", "--manifold", "sphere2", "--seed", "7",
               "--n", "150", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["verdict"] is True
    assert report["failing"] == []
    assert (out / "report.txt").exists()


def test_verify_geometry_fault_injection_fails(tmp_path):
    out = tmp_path / "geomf"
    rc = main(["verify-geometry", "--manifold", "sphere2", "--seed", "7",
               "--n", "40", "--out", str(out), "--inject-fault"])
    assert rc == 2
    report = json.loads((out / "report.json").read_text())
    assert report["failing"]


def test_verify_geometry_unknown_manifold(tmp_path):
    rc = main(["verify-geometry", "--manifold", "banana", "--out",
               str(tmp_path / "x")])
    assert rc == 3
    assert not (tmp_path / "x").exists()


def test_certify_small_scenario(tmp_path):
    config = _small_config(tmp_path)
    out = tmp_path / "cert"
    rc = main(["certify", "--config", str(config), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["verdict"] is True
    constants = report["certificate"]["constants"]
    assert constants["c1"] == pytest.approx(0.5, rel=0.02)
    assert constants["c2"] == pytest.approx(0.5, rel=0.02)
    assert constants["c3"] == pytest.approx(1.0, rel=0.02)
    assert constants["c4"] == pytest.approx(1.0, rel=0.02)
    assert report["certificate"]["delta"] == pytest.approx(math.log(2.0), rel=0.02)
    assert {"c1", "c2", "c3", "c4", "K", "lambda", "L", "K_prime",
            "c2_alt"} <= set(constants)
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "t,distance,V,lie_derivative"
    assert len(lines) > 4


def test_certify_outputs_are_deterministic(tmp_path):
    config = _small_config(tmp_path)
    outs = []
    for run, workers in (("a", None), ("b", None), ("c", "3")):
        out = tmp_path / run
        argv = ["certify", "--config", str(config), "--out", str(out)]
        if workers:
            argv += ["--workers", workers]
        assert main(argv) == 0
        outs.append(out)
    for name in ("report.json", "report.txt", "samples.csv"):
        contents = [(o / name).read_bytes() for o in outs]
        assert contents[0] == contents[1] == contents[2]


def test_certify_rotation_exits_two_naming_fit_stage(tmp_path, capsys):
    out = tmp_path / "rot"
    rc = main(["certify", "--config", str(REPO_CONFIGS / "rotation_us.json"),
               "--out", str(out)])
    assert rc == 2
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["failed_stage"] == "les-envelope-fit"
    assert "les-envelope-fit" in (out / "report.txt").read_text()


def _massera_config(tmp_path):
    return _small_config(
        tmp_path, manifold="euclidean2",
        system={"name": "cubic_slowdown", "params": {"gain": 1.0}},
        equilibrium=[0.0, 0.0],
        grids={"n_points": 12, "radius": 1.0, "t0_list": [0.0, 1.0]},
        massera={"t_max": 20.0, "fit_horizon": 22.0, "tail_tol": 1e-8})


def test_certify_massera_mode(tmp_path):
    config = _massera_config(tmp_path)
    out = tmp_path / "massera"
    rc = main(["certify", "--config", str(config), "--mode", "massera",
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["certificate"]["mode"] == "massera"
    assert report["certificate"]["tail_bound"] <= 1e-8


def _exit_codes_and_scipy_loaded(argvs: list[list[str]]) -> list[str]:
    """Run each argv through ``main`` in one fresh interpreter; its exit codes,
    then whether any ``scipy`` module was loaded, then whether any
    ``numpy.polynomial`` module was (V's quadrature rule is typed in)."""
    script = ("import sys\nfrom geolyap.cli import main\n"
              f"rcs = [main(argv) for argv in {argvs!r}]\n"
              "print(*rcs, any(name.partition('.')[0] == 'scipy' for name in sys.modules),\n"
              "      any(name.startswith('numpy.polynomial') for name in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.split()


def test_certify_massera_mode_runs_without_scipy(tmp_path):
    argv = ["certify", "--config", str(_massera_config(tmp_path)), "--mode", "massera",
            "--out", str(tmp_path / "massera")]
    assert _exit_codes_and_scipy_loaded([argv]) == ["0", "False", "False"]


def test_certify_and_iss_run_without_scipy(tmp_path):
    # The order-8 tableau and its interpolant are literal data, not read from
    # SciPy: the fits, the disturbed flow and `flow` step with them.
    iss = _small_config(tmp_path, "iss.json", fit_horizon=2.0, envelope_horizon=0.5,
                        iss_horizons=[2.0, 3.0],
                        disturbance={"profile": "constant", "amplitude": 0.1, "bound": 0.1})
    argvs = [["certify", "--config", str(_small_config(tmp_path)), "--out", str(tmp_path / "c")],
             ["iss", "--config", str(iss), "--out", str(tmp_path / "i")],
             ["flow", "--config", str(iss), "--out", str(tmp_path / "f")]]
    assert _exit_codes_and_scipy_loaded(argvs) == ["0", "0", "0", "False", "False"]


FAILURE_CASES = {
    # explicit horizon with K' = 1 - K e^{-lambda delta} < 0 (K about 2.3)
    "certify-short-delta": (["certify"], "time_varying_gain.json",
                            {"delta": {"policy": "explicit", "value": 0.001}}, "les-horizon"),
    "iss-short-delta": (["iss"], "time_varying_gain.json",
                        {"delta": {"policy": "explicit", "value": 0.001},
                         "disturbance": {"profile": "constant", "amplitude": 0.1, "bound": 0.1},
                         "iss_horizons": [8.0]}, "les-horizon"),
    # the certified truncation tail (about 7e-11) cannot meet the tolerance
    "massera-tail-tolerance": (["certify", "--mode", "massera"], "cubic_massera.json",
                               {"massera": {"t_max": 20.0, "fit_horizon": 22.0,
                                            "tail_tol": 1e-30}}, "ugas-tail"),
    # L about 2065 near the cut locus: e^{L delta} in c4 overflows
    "certify-overflow-lipschitz": (["certify"], "sphere_attractor.json",
                                   {"grids": {"n_points": 40, "radius": 3.14,
                                              "t0_list": [0.0, 1.0, math.e, 10.0]}},
                                   "les-horizon"),
    # K ** p overflows at p = 1000
    "certify-overflow-power": (["certify"], "time_varying_gain.json", {"p": 1000},
                               "les-horizon"),
    # the unforced rotation is an isometry: its fit is not exponential
    "iss-rotation-not-exponential": (["iss"], "rotation_us.json",
                                     {"disturbance": {"profile": "constant",
                                                      "amplitude": 0.1, "bound": 0.1}},
                                     "les-envelope-fit"),
    # d' = -1e6 d^3 is too stiff for step 0.01: the fit flow leaves the reals
    "massera-integration-blowup": (["certify", "--mode", "massera"], "cubic_massera.json",
                                   {"system": {"name": "cubic_slowdown",
                                               "params": {"gain": 1e6}}}, "ugas-envelope"),
}


@pytest.mark.parametrize("case", sorted(FAILURE_CASES))
def test_construction_failures_exit_two_naming_stage(tmp_path, case):
    command, name, overrides, anchor = FAILURE_CASES[case]
    data = json.loads((REPO_CONFIGS / name).read_text())
    data.update(overrides)
    config = tmp_path / name
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    rc = main(command + ["--config", str(config), "--out", str(out)])
    assert rc == 2
    assert json.loads((out / "report.json").read_text())["report"]["failed_stage"] == anchor
    assert anchor in (out / "report.txt").read_text()
    assert not (out / "samples.csv").exists()


SPHERE_POLE, HYPERBOLIC_ORIGIN, SO3_IDENTITY = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], np.eye(3).ravel().tolist()


@pytest.mark.parametrize("manifold, equilibrium, gain, step, fit_horizon, chosen", [
    ("sphere2", SPHERE_POLE, 1.0, 0.01, 2.0, 0.32),
    ("sphere2", SPHERE_POLE, 1.0, 0.005, 2.0, 0.32),
    ("sphere2", SPHERE_POLE, 1.0, 0.01, 0.25, 0.25),
    ("hyperbolic2", HYPERBOLIC_ORIGIN, 1.0, 0.01, 2.0, 0.32),
    ("hyperbolic2", HYPERBOLIC_ORIGIN, 1.0, 0.005, 0.25, 0.25),
    ("so3", SO3_IDENTITY, 2.0, 0.01, 2.0, 0.16),
    ("so3", SO3_IDENTITY, 2.0, 0.0025, 0.25, 0.16),
    ("sphere2", SPHERE_POLE, 1.0, 0.01, 0.05, 0.05),
    ("sphere2", SPHERE_POLE, 1.0, 0.01, 1e-6, 1e-6),
])
def test_chosen_fit_step_keeps_the_oracle_envelope(tmp_path, manifold, equilibrium, gain,
                                                    step, fit_horizon, chosen):
    # d(t) = e^{-gain t} d0 exactly, so the envelope is K = 1, rate = gain.
    # The order-8 fit runs at gain * step = 0.32, the top of its ladder from
    # config step 0.0025 on so3, or one step of a horizon shorter than that
    # (0.25 on sphere2 and hyperbolic2, 0.05 and 1e-6 on sphere2): no rung of
    # the ladder is longer than the span.  The integration error varies with d0, so K
    # absorbs a misfit (about 1e-10 here): both stay within half the
    # benchmark's 1e-8 oracle bound.
    config = _small_config(tmp_path, manifold=manifold, equilibrium=equilibrium,
                           system={"name": "geodesic_attractor", "params": {"gain": gain}},
                           step=step, fit_horizon=fit_horizon,
                           envelope_horizon=min(0.5, fit_horizon))
    out = tmp_path / "out"
    assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["steps"]["les-envelope-fit"]["step"] == chosen
    assert abs(report["envelope"]["K"] - 1.0) <= 5e-9
    assert abs(report["envelope"]["rate"] / gain - 1.0) <= 5e-9


@pytest.mark.parametrize("p", [1, 2])
def test_V_past_the_fit_span_reads_the_flow_continued_at_its_own_step(tmp_path, monkeypatch, p):
    # An explicit delta of 3 fit horizons lies past the fit's one flow (step
    # 0.32 over 2): V's rows continue over [2, 6] at the step the chooser picks
    # on V's state rows for that remainder, 0.64, never at the fit's step, and
    # les-verification names that pick.  V's Gauss-Legendre panels are that
    # flow's own steps, 0.32 up to 2 and 0.64 on, so every panel edge is a node
    # of the flow.  d(t) = e^{-s} d0 exactly, so V = d0^p (1 - e^{-p delta}) /
    # p: within 3.7e-10 (p = 1) and 3.2e-10 (p = 2) here, where V on a flow of
    # its own at 0.32 reads 3.1e-10 and 7.2e-10.
    steps = _count_steps(monkeypatch)
    reads, real_call = [], flows.DenseFlow.__call__

    def recording_call(self, offsets):
        reads.append((list(self.nodes), np.asarray(offsets, dtype=float)))
        return real_call(self, offsets)

    monkeypatch.setattr(flows.DenseFlow, "__call__", recording_call)
    config = _small_config(tmp_path, fit_horizon=2.0, envelope_horizon=0.5, p=p,
                           delta={"policy": "explicit", "value": 6.0})
    out = tmp_path / "out"
    assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
    # Pilot and flow over the fit's span, then pilot and flow over the remainder.
    assert steps == [2, 4, 7, 2, 4, 7]
    record = json.loads((out / "report.json").read_text())["steps"]
    assert record["les-envelope-fit"]["step"] == 0.32
    loaded = load_scenario(config)
    field, x_star = loaded.system.field, loaded.equilibrium.coords
    inputs = certify.draw_verification_inputs(loaded.manifold, loaded.equilibrium,
                                              loaded.grid, loaded.seed)
    at_span = flows.flow_samples(field, inputs.t, inputs.x, [2.0], 0.32)[-1]
    pick = flows.choose_step(field, inputs.t + 2.0, at_span, x_star, 4.0, 0.01)
    assert pick[0] == 0.64
    assert (record["les-verification"]["step"], record["les-verification"]["estimate"]) == pick
    # V's read: 0, then 7 Gauss-Legendre nodes c + h x_j in each panel [c - h, c + h], then delta.
    (nodes, offsets), = [(nodes, s) for nodes, s in reads if s[-1] == 6.0]
    panels = offsets[1:-1].reshape(-1, 7)
    centre, half = panels[:, 3], (panels[:, 6] - panels[:, 0]) / (2.0 * G7[6][0])
    edges = np.concatenate([centre - half, centre[-1:] + half[-1:]])
    assert np.allclose(centre[1:] - half[1:], centre[:-1] + half[:-1], rtol=0, atol=1e-12)
    assert len(edges) == len(nodes) == 15 and nodes[-1] == 6.0
    assert np.allclose(edges, nodes, rtol=0, atol=1e-12)
    _, d0, V, _ = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1).T
    exact = d0 ** p * -math.expm1(-p * 6.0) / p
    assert np.max(np.abs(V - exact)) <= {1: 3.7e-10, 2: 3.2e-10}[p]


@pytest.mark.parametrize("step, fit_horizon, multiple", [(0.01, 6.0, 16), (0.0025, 3.0, 64)])
def test_chosen_fit_step_envelope_dominates_time_varying_oracle(tmp_path, step, fit_horizon,
                                                                multiple):
    # d(t0 + s) / d0 = exp(-(b s - a (cos(t0 + s) - cos t0))) must stay under
    # K e^{-rate s} on the config step's grid.  The order-8 fit samples every
    # 0.16 (16 shipped steps, and the top of the ladder from step 0.0025),
    # and K must cover the chords' slack between the samples.
    data = json.loads((REPO_CONFIGS / "time_varying_gain.json").read_text())
    data.update(step=step, fit_horizon=fit_horizon)
    config = tmp_path / "time_varying.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["steps"]["les-envelope-fit"]["step"] == multiple * step
    K, rate = report["envelope"]["K"], report["envelope"]["rate"]
    b, a = data["system"]["params"]["base_gain"], data["system"]["params"]["amplitude"]
    s = np.arange(round(fit_horizon / step) + 1) * step
    for t0 in data["grids"]["t0_list"]:
        ratio = np.exp(-(b * s - a * (np.cos(t0 + s) - math.cos(t0))))
        assert np.max(ratio / (K * np.exp(-rate * s))) - 1.0 <= 1e-6, t0


@pytest.mark.parametrize("mode, anchor", [("exp", "les-envelope-fit"),
                                          ("massera", "ugas-envelope")])
def test_stiff_field_keeps_the_config_step_and_fails_as_before(tmp_path, mode, anchor):
    # d' = -1e6 d^3: the pilot leaves the reals, the fit keeps step 0.01,
    # which is not marked as meeting STEP_TOL, and the stage fails there on
    # that step's own estimate, which is infinite, before its flow runs.
    data = json.loads((REPO_CONFIGS / "cubic_massera.json").read_text())
    data["system"] = {"name": "cubic_slowdown", "params": {"gain": 1e6}}
    config = tmp_path / "stiff.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["certify", "--mode", mode, "--config", str(config), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["steps"] == {anchor: {"step": 0.01, "estimate": None, "meets_tol": False}}
    assert report["report"]["message"] == f"{anchor}: {INF}"


def test_steps_are_reported_logged_and_deterministic(tmp_path, monkeypatch, caplog):
    # One info line per stage with a chosen or measured step, matching the
    # report's "steps"; reruns write the same bytes.
    monkeypatch.setenv("GEOLYAP_LOG", "info")
    caplog.set_level(logging.INFO, logger="geolyap")
    base = {"fit_horizon": 2.0, "envelope_horizon": 0.5}
    runs = {
        "iss": (["iss"], _small_config(
            tmp_path, "iss.json", **base, iss_horizons=[2.0, 3.0],
            disturbance={"profile": "constant", "amplitude": 0.1, "bound": 0.1})),
        "massera": (["certify", "--mode", "massera"], _massera_config(tmp_path)),
    }
    expected = {"iss": {"les-envelope-fit": 0.32, "les-verification": 0.32,
                        "iss-robustness": 0.32},
                "massera": {"ugas-envelope": 0.32, "ugas-evaluation": 0.32}}
    for name, (command, config) in runs.items():
        outs = [tmp_path / f"{name}-{i}" for i in range(2)]
        for out in outs:
            caplog.clear()
            assert main(command + ["--config", str(config), "--out", str(out)]) == 0
        steps = json.loads((outs[0] / "report.json").read_text())["steps"]
        assert {anchor: entry["step"] for anchor, entry in steps.items()} == expected[name]
        assert all(0.0 < entry["estimate"] <= flows.STEP_TOL and entry["meets_tol"]
                   for entry in steps.values())
        lines = [r.getMessage() for r in caplog.records if "step-doubling" in r.getMessage()]
        assert lines == [f"{anchor}: step {steps[anchor]['step']:.6g}, step-doubling error "
                         f"estimate {steps[anchor]['estimate']:.3g}" for anchor in expected[name]]
        for path in outs[0].iterdir():
            assert path.read_bytes() == (outs[1] / path.name).read_bytes()


def test_step_record_marks_whether_the_estimate_meets_the_tolerance(tmp_path):
    # The shipped sphere attractor's fit meets STEP_TOL at its chosen step;
    # the stiff field's keeps the config step and is marked (see above).
    out = tmp_path / "out"
    assert main(["certify", "--config", str(REPO_CONFIGS / "sphere_attractor.json"),
                 "--out", str(out)]) == 0
    entry = json.loads((out / "report.json").read_text())["steps"]["les-envelope-fit"]
    assert entry["meets_tol"] is True
    assert 0.0 < entry["estimate"] <= flows.STEP_TOL


def test_flow_integration_failure_exits_two_without_output(tmp_path, capsys):
    # d' = -1e6 d^3 is too stiff for step 0.01: the flow leaves the reals.
    data = json.loads((REPO_CONFIGS / "cubic_massera.json").read_text())
    data["system"] = {"name": "cubic_slowdown", "params": {"gain": 1e6}}
    config = tmp_path / "stiff.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "flow"
    assert main(["flow", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: flow-integration: non-finite state during integration")
    assert not out.exists()


@pytest.mark.parametrize("manifold, equilibrium", [
    ("sphere2", [0.0, 0.0, 1.0]), ("so3", np.eye(3).ravel().tolist()),
    ("hyperbolic2", [1.0, 0.0, 0.0])])
def test_fast_decay_fit_stops_at_the_rounding_floor(tmp_path, manifold, equilibrium):
    # At gain 10 the fit's rows reach distances of 1e-15 by s = 3.4, where
    # rounding sets them: read to the end, sphere2 fitted K = 13.09 and rate
    # 9.628, hyperbolic2 K = 14.95.  The fit stops where a row falls below
    # rounding_floor, and the envelope keeps the closed form.
    config = _small_config(tmp_path, manifold=manifold, equilibrium=equilibrium,
                           system={"name": "geodesic_attractor", "params": {"gain": 10.0}},
                           seed=3, grids={"n_points": 8, "radius": 0.8, "t0_list": [0.0]})
    out = tmp_path / "out"
    rc = main(["certify", "--config", str(config), "--out", str(out)])
    envelope = json.loads((out / "report.json").read_text())["envelope"]
    assert rc in (0, 2)
    if rc == 0:
        assert abs(envelope["K"] - 1.0) <= 1e-8 and abs(envelope["rate"] / 10.0 - 1.0) <= 1e-8


@pytest.mark.parametrize("manifold, equilibrium", [
    ("sphere2", [0.0, 0.0, 1.0]), ("so3", np.eye(3).ravel().tolist())])
def test_finite_but_wrong_flow_exits_two_without_output(tmp_path, capsys, manifold,
                                                        equilibrium):
    # Each flow stays finite but is wrong.  On sphere2 the chooser's pilot at
    # 64 config steps is fooled (both of its runs land near one spurious
    # point), and it picks 0.08 at gain 10 and 0.32 at gain 3e4; the flow is
    # then measured at the step it takes (2.5e-6 at gain 10) and at the config
    # step (2.3e-3 at gain 3e4).  On so3 at gain 100 no rung passes, and the
    # config step reads 2.2e-4.  Each is above FLOW_TOL.  (At gain 1e4 the
    # order-8 flow leaves the reals on both manifolds.)
    cases = {"sphere2": [(10.0, 0.08), (3e4, 0.01)], "so3": [(100.0, 0.01)]}[manifold]
    for gain, step in cases:
        config = _small_config(tmp_path, manifold=manifold, equilibrium=equilibrium,
                               system={"name": "geodesic_attractor", "params": {"gain": gain}},
                               seed=3, grids={"n_points": 8, "radius": 0.8, "t0_list": [0.0]})
        out = tmp_path / "flow"
        assert main(["flow", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: flow-integration: step-doubling error estimate"), err
        assert float(err.split()[5]) > pipeline.FLOW_TOL
        assert err.rstrip().endswith(f"at step {step:g}"), err
        assert not out.exists()


def _record_step_errors(monkeypatch) -> list[tuple[float, float]]:
    """(step, estimate) of every step_error pilot from here on, the chooser's included."""
    estimates = []
    real_step_error = flows.step_error

    def recording_step_error(*args):
        estimates.append((args[5], real_step_error(*args)))
        return estimates[-1][1]

    for module in (flows, pipeline):
        monkeypatch.setattr(module, "step_error", recording_step_error)
    return estimates


def test_flow_at_the_top_rung_reuses_the_choosers_pilot(tmp_path, monkeypatch):
    # rotation_us picks the top rung, 64 config steps: its pilot there is the
    # check at the pick, and only the config step takes a pilot of its own.
    estimates = _record_step_errors(monkeypatch)
    assert main(["flow", "--config", str(REPO_CONFIGS / "rotation_us.json"),
                 "--out", str(tmp_path / "flow")]) == 0
    assert [step for step, _ in estimates] == [0.64, 0.01]


@pytest.mark.parametrize("fit_horizon", [1e-8, 1e-10])
def test_flow_over_a_tiny_span_reads_rounding_as_no_error(tmp_path, fit_horizon):
    # The coarse and fine pilots over 1e-8 or 1e-10 differ by rounding only
    # (about one ulp), which over so short a span read as up to 6.4e-4 per unit
    # time: within ROUNDING_ULPS of the coordinates, a difference counts as 0.
    data = json.loads((REPO_CONFIGS / "sphere_attractor.json").read_text())
    config = _small_config(tmp_path, **{**data, "fit_horizon": fit_horizon})
    out = tmp_path / "flow"
    assert main(["flow", "--config", str(config), "--out", str(out)]) == 0
    spec = load_scenario(config).build_system()
    for i, t0 in enumerate(data["grids"]["t0_list"]):
        rows = np.loadtxt(out / f"trajectory_{i}.csv", delimiter=",", skiprows=1)
        assert rows[-1, 0] == t0 + fit_horizon
        d0, d1 = rows[:, -1]
        assert abs(d1 - spec.distance_oracle(d0, t0, fit_horizon)) <= 1e-15


def test_flow_shorter_than_its_step_is_checked_at_its_span(tmp_path, monkeypatch):
    # A flow over 1e-6 takes one step of 1e-6: the step chooser's ladder and
    # pilot stop at the span, and the flow's error estimate is taken at that
    # step, not at a rung of 64 config steps.  That is the chooser's own pilot,
    # which the check at the pick does not run again.
    estimates = _record_step_errors(monkeypatch)
    data = json.loads((REPO_CONFIGS / "sphere_attractor.json").read_text())
    config = _small_config(tmp_path, **{**data, "fit_horizon": 1e-6})
    out = tmp_path / "flow"
    assert main(["flow", "--config", str(config), "--out", str(out)]) == 0
    ((step, estimate),) = estimates
    assert step == 1e-6 and estimate <= pipeline.FLOW_TOL
    rows = list(csv.reader((out / "trajectory_0.csv").open()))
    assert [row[0] for row in rows] == ["t", "0.0", "1e-06"]


NON_FINITE, OFF_MANIFOLD = "non-finite state", "step left the manifold"
INF, STIFF_FLOW = (
    "step-doubling error estimate inf per unit time is above 1e-06 at step 0.01",
    "step-doubling error estimate 0.00172 per unit time is above 1e-06 at step 0.01")
STIFF_CASES = {  # manifold, equilibrium, system, params, message per command
    "hyperbolic2-geodesic": ("hyperbolic2", [1.0, 0.0, 0.0], "geodesic_attractor", {"gain": 1e4},
                             {"flow": OFF_MANIFOLD, "certify": INF, "massera": INF}),
    "hyperbolic2-cubic": ("hyperbolic2", [1.0, 0.0, 0.0], "cubic_slowdown", {"gain": 1e6},
                          {"flow": OFF_MANIFOLD, "certify": INF, "massera": INF}),
    "sphere2-cubic": ("sphere2", [0.0, 0.0, 1.0], "cubic_slowdown", {"gain": 1e6},
                      {"flow": STIFF_FLOW, "certify": INF, "massera": INF}),
    "so3-cubic": ("so3", np.eye(3).ravel().tolist(), "cubic_slowdown", {"gain": 1e6},
                  {"flow": NON_FINITE, "certify": INF, "massera": INF}),
}
STIFF_COMMANDS = {"flow": (["flow"], None), "certify": (["certify"], "les-envelope-fit"),
                  "massera": (["certify", "--mode", "massera"], "ugas-envelope")}


@pytest.mark.parametrize("command", sorted(STIFF_COMMANDS))
@pytest.mark.parametrize("case", sorted(STIFF_CASES))
def test_stiff_step_fails_the_flow_with_exit_two(tmp_path, capsys, case, command):
    # A step that leaves the reals, or lands where it cannot be projected
    # back (a spacelike point of the hyperboloid), fails the running stage.
    # `flow` fails in its own RK8 flow at the config step (no rung of its
    # ladder passes either), except on the sphere2 cubic field, where that
    # flow stays finite and its estimate at the config step fails it after the
    # flow, with its own rows' estimate.  The fits fail before theirs: no rung
    # of the RK8 ladder meets STEP_TOL, and the config step's own estimate is
    # infinite: the pilot, on the fit's rows and V's state rows, left the reals
    # or the manifold (on the sphere2 cubic field, on V's state rows only; the
    # fit's rows alone read 0.00134 there, where the fit's flow would stay
    # finite but wrong).
    manifold, equilibrium, name, params, messages = STIFF_CASES[case]
    argv, anchor = STIFF_COMMANDS[command]
    message = messages[command]
    config = _small_config(tmp_path, manifold=manifold, equilibrium=equilibrium,
                           system={"name": name, "params": params}, seed=3,
                           grids={"n_points": 8, "radius": 1.0, "t0_list": [0.0]},
                           massera={"t_max": 20.0, "fit_horizon": 22.0, "tail_tol": 1e-8})
    out = tmp_path / "out"
    assert main(argv + ["--config", str(config), "--out", str(out)]) == 2
    if anchor is None:
        assert capsys.readouterr().err.startswith(f"error: flow-integration: {message}")
        assert not out.exists()
        return
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["failed_stage"] == anchor
    assert report["message"].startswith(f"{anchor}: {message}")
    assert anchor in (out / "report.txt").read_text()
    assert not (out / "samples.csv").exists()


def test_massera_envelope_the_reshaping_rejects_fails_at_the_tail_stage(tmp_path,
                                                                         monkeypatch):
    # A UAS fit whose decay profile is flat is no input for the reshaping:
    # the run fails at ugas-tail instead of raising.
    def flat_fit(elapsed, d, resolution, floor):
        s = np.linspace(0.0, 22.0, 12)
        return StabilityEnvelope("UAS", None, None, s, np.ones(12), 0.0, 1.0, d.shape[1])

    monkeypatch.setattr(pipeline, "classify_stability", flat_fit)
    out = tmp_path / "out"
    rc = main(["certify", "--mode", "massera", "--config", str(_massera_config(tmp_path)),
               "--out", str(out)])
    assert rc == 2
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["failed_stage"] == "ugas-tail"
    assert report["message"] == "ugas-tail: envelope must be strictly decreasing"
    assert not (out / "samples.csv").exists()


def test_massera_mode_without_section_fails_before_any_flow(tmp_path, monkeypatch):
    steps = _count_steps(monkeypatch)
    out = tmp_path / "m"
    rc = main(["certify", "--config", str(REPO_CONFIGS / "sphere_attractor.json"),
               "--mode", "massera", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert steps == []


@pytest.mark.parametrize("rows", [[[-0.0, 5e-324, 1e16], [1 / 3, 7, -2], [0.1, 1e-7, 2.5e15]], []])
def test_write_csv_matches_the_csv_module(tmp_path, rows):
    header = ["t", "c0", "distance"]
    pipeline._write_csv(tmp_path / "written.csv", header, rows)
    with (tmp_path / "module.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "module.csv").read_bytes()


def _count_steps(monkeypatch) -> list[int]:
    """Steps of every flow from here on, one entry per stretch a flow advances
    (a flow_samples call is one)."""
    steps = []
    real_step, real_advance = flows._rk_step, flows.DenseFlow.advance

    def counting_step(*args):
        steps[-1] += 1
        return real_step(*args)

    def counting_advance(self, *args):
        steps.append(0)
        return real_advance(self, *args)

    monkeypatch.setattr(flows, "_rk_step", counting_step)
    monkeypatch.setattr(flows.DenseFlow, "advance", counting_advance)
    return steps


def test_step_counts_per_flow(tmp_path, monkeypatch):
    # sphere2 at step 0.01 with delta = ln 2.  One step-doubling pilot, on the
    # fit's rows and V's state rows, takes 2 order-8 steps of 1.28 and 4 of
    # 0.64 and picks step 0.32, so the one flow takes 7 steps over fit_horizon
    # 2.  The contraction offsets of the config step (0.08, 0.17, ..., 0.5)
    # of the pairs that ride it are read from its interpolant, and so are V's
    # 23 quadrature nodes of its rows (delta lies within the span; 7
    # Gauss-Legendre nodes inside each of its 3 steps, and the ends); LV reads
    # the same nodes.  Neither V nor the contraction check has a flow of its own.
    steps = _count_steps(monkeypatch)
    base = {"fit_horizon": 2.0, "envelope_horizon": 0.5}
    config = _small_config(tmp_path, **base)
    assert main(["certify", "--config", str(config), "--out", str(tmp_path / "c")]) == 0
    assert steps == [2, 4, 7]
    record = json.loads((tmp_path / "c" / "report.json").read_text())["steps"]
    assert record["les-verification"] == record["les-envelope-fit"]
    assert record["les-verification"]["step"] == 0.32
    # iss adds the disturbed flow's pilot (2 steps of 1.28 and 4 of
    # 0.64; it picks step 0.32), the disturbed flow to t = 3 and one V batch
    # at the shared flow's step, ceil(delta / 0.32) = 3 steps.  The disturbed
    # flow takes the recorded step, ceil(3 / 0.32) = 10 steps, and reads the
    # series and tail times from its interpolant.
    steps.clear()
    config = _small_config(tmp_path, "iss.json", **base, iss_horizons=[2.0, 3.0],
                           disturbance={"profile": "constant", "amplitude": 0.1, "bound": 0.1})
    assert main(["iss", "--config", str(config), "--out", str(tmp_path / "i")]) == 0
    assert steps == [2, 4, 7, 2, 4, 10, 3]
    record = json.loads((tmp_path / "i" / "report.json").read_text())["steps"]["iss-robustness"]
    assert record["step"] == 0.32 and steps[5] == math.ceil(3.0 / record["step"])
    # Massera: one pilot on the fit's rows and V's 50 state rows, then one flow
    # over the fit horizon 22 at its pick 0.32, ceil(22 / 0.32) = 69 steps,
    # which V (t_max 20) reads its states, ray and equilibrium from.
    steps.clear()
    assert main(["certify", "--mode", "massera", "--config",
                 str(REPO_CONFIGS / "cubic_massera.json"), "--out", str(tmp_path / "m")]) == 0
    assert steps == [2, 4, 69]
    record = json.loads((tmp_path / "m" / "report.json").read_text())["steps"]
    assert record["ugas-evaluation"] == record["ugas-envelope"]
    assert record["ugas-evaluation"]["step"] == 0.32


def test_each_run_builds_its_system_and_draws_its_inputs_once(tmp_path, monkeypatch):
    calls = {"make_system": 0, "draw_verification_inputs": 0}

    def counting(name, module):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for module in (systems, config_module):
        monkeypatch.setattr(module, "make_system", counting("make_system", module))
    for module in (certify, pipeline):
        monkeypatch.setattr(module, "draw_verification_inputs",
                            counting("draw_verification_inputs", module))
    base = {"fit_horizon": 2.0, "envelope_horizon": 0.5}
    config = _small_config(tmp_path, **base)
    assert main(["certify", "--config", str(config), "--out", str(tmp_path / "c")]) == 0
    assert calls == {"make_system": 1, "draw_verification_inputs": 1}
    calls.update(make_system=0, draw_verification_inputs=0)
    config = _small_config(tmp_path, "iss.json", **base, iss_horizons=[2.0, 3.0],
                           disturbance={"profile": "constant", "amplitude": 0.1, "bound": 0.1})
    assert main(["iss", "--config", str(config), "--out", str(tmp_path / "i")]) == 0
    assert calls == {"make_system": 1, "draw_verification_inputs": 1}


def test_iss_scenario(tmp_path, monkeypatch):
    scans = []
    real_scan = certify.check_input_signal

    def counting_scan(*args):
        scans.append(args[2])
        return real_scan(*args)

    for module in (certify, pipeline):
        monkeypatch.setattr(module, "check_input_signal", counting_scan)
    config = _small_config(
        tmp_path,
        grids={"n_points": 6, "radius": 1.0, "t0_list": [0.0, 1.0]},
        disturbance={"profile": "constant", "amplitude": 0.1, "bound": 0.1},
        iss_horizons=[8.0])
    out = tmp_path / "iss"
    rc = main(["iss", "--config", str(config), "--out", str(out)])
    assert rc == 0
    assert scans == [9.0]  # one scan, over max(iss_horizons) + max(t0_list)
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["pass"] is True
    assert report["report"]["measured_v_limsup"] <= \
        report["report"]["predicted_v_bound"] * 1.05
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "t,distance,V,u_norm"


def test_failed_unforced_certification_stops_iss_at_its_anchor(tmp_path, monkeypatch, caplog):
    # A failing unforced row stops the run like any other stage failure.
    real_verify = pipeline.verify_converse_certificate

    def failing_verify(*args, **kwargs):
        report = real_verify(*args, **kwargs)
        first, second, *rest = report.rows
        second = dataclasses.replace(second, margin=-1.0, passed=False)
        return dataclasses.replace(report, rows=(first, second, *rest))

    monkeypatch.setattr(pipeline, "verify_converse_certificate", failing_verify)
    config = _small_config(tmp_path, grids={"n_points": 4, "radius": 1.0, "t0_list": [0.0]},
                           disturbance={"profile": "constant", "amplitude": 0.1, "bound": 0.1},
                           iss_horizons=[8.0])
    out = tmp_path / "iss"
    assert main(["iss", "--config", str(config), "--out", str(out)]) == 2
    payload = json.loads((out / "report.json").read_text())
    message = "uges-precondition: unforced certification failed at sandwich-lower"
    assert payload["report"] == {"verdict": False, "failed_stage": "uges-precondition",
                                 "message": message, "rows": []}
    assert payload["certificate"]["mode"] == "exponential"
    assert payload["unforced_report"]["verdict"] is False
    assert payload["envelope"]["stability_class"] == "LES"
    assert (out / "report.txt").read_text() == f"certification FAILED\n{message}\n"
    assert message in [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert not (out / "samples.csv").exists()


def test_iss_zero_amplitude_degenerates(tmp_path):
    config = _small_config(
        tmp_path,
        grids={"n_points": 4, "radius": 1.0, "t0_list": [0.0]},
        disturbance={"profile": "constant", "amplitude": 0.0, "bound": 0.0},
        iss_horizons=[8.0])
    rc = main(["iss", "--config", str(config), "--out", str(tmp_path / "iss0")])
    assert rc == 0


def test_iss_bound_violation_is_config_error(tmp_path):
    config = _small_config(
        tmp_path,
        disturbance={"profile": "constant", "amplitude": 0.1, "bound": 0.05},
        iss_horizons=[8.0])
    out = tmp_path / "issbad"
    rc = main(["iss", "--config", str(config), "--out", str(out)])
    assert rc == 3
    assert not out.exists()  # no partial output on config/contract errors


def test_iss_requires_disturbance(tmp_path):
    config = _small_config(tmp_path)
    rc = main(["iss", "--config", str(config), "--out", str(tmp_path / "nope")])
    assert rc == 3


def test_flow_dumps_decaying_trajectories(tmp_path):
    config = _small_config(tmp_path, grids={"n_points": 4, "radius": 1.0,
                                            "t0_list": [0.0, 1.0, 10.0]},
                           fit_horizon=3.0)
    out = tmp_path / "flow"
    rc = main(["flow", "--config", str(config), "--out", str(out)])
    assert rc == 0
    files = sorted(out.glob("trajectory_*.csv"))
    assert len(files) == 3
    profiles = []
    for f in files:
        lines = f.read_text().splitlines()
        assert lines[0] == "t,c0,c1,c2,distance"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        d0, d_end = first[-1], last[-1]
        elapsed = last[0] - first[0]
        assert d_end == pytest.approx(d0 * math.exp(-elapsed), abs=1e-6)
        profiles.append(d_end / d0)
    # Autonomous field: decay profiles coincide in elapsed time.
    assert max(profiles) - min(profiles) < 1e-9


def test_flow_zero_field_constant_rows(tmp_path):
    config = _small_config(
        tmp_path, system={"name": "isometric_rotation", "params": {"rate": 0.0}},
        grids={"n_points": 2, "radius": 0.5, "t0_list": [0.0]}, fit_horizon=1.0)
    out = tmp_path / "flow0"
    assert main(["flow", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "trajectory_0.csv").read_text().splitlines()
    first = lines[1].split(",")[1:]
    last = lines[-1].split(",")[1:]
    assert first == last


@pytest.mark.parametrize("mutation, message", [
    ({"schema_version": 2}, "schema_version"),
    ({"manifold": "torus7"}, "manifold"),
    ({"system": {"name": "warp_drive", "params": {}}}, "system"),
    ({"grids": {"n_points": 8, "radius": 4.0, "t0_list": [0.0]}}, "radius"),
    ({"delta": {"policy": "auto", "target": 1.5}}, "delta"),
    ({"p": 0.5}, "p"),
    ({"surprise": 1}, "unknown"),
    ({"system": {"name": "geodesic_attractor", "params": {"gian": 1.0}}}, "params"),
    ({"iss_horizons": 5}, "iss_horizons"),
    ({"grids": {"n_points": 8, "radius": 1.0, "t0_list": ["a"]}}, "t0_list"),
    ({"disturbance": {"profile": "square", "amplitude": 0.1}}, "profile"),
    ({"envelope_horizon": -1}, "envelope_horizon"),
    ({"envelope_horizon": 0}, "envelope_horizon"),  # a zero-length tau grid passes vacuously
    ({"disturbance": {"profile": "constant", "amplitude": 0.1,
                      "direction": [1.0, 0.0, 0.0]}}, "direction"),  # two input channels
    ({"step": math.nan}, "step"),  # JSON's NaN and Infinity literals
    ({"fit_horizon": math.inf}, "fit_horizon"),
    ({"grids": {"n_points": 8, "radius": math.nan, "t0_list": [0.0]}}, "radius"),
])
def test_config_validation_errors(tmp_path, capsys, mutation, message):
    config = _small_config(tmp_path, **mutation)
    out = tmp_path / "bad"
    rc = main(["certify", "--config", str(config), "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, overrides, message", [
    (["verify-geometry", "--manifold", "sphere2", "--seed", "-1"], None, "seed must be >= 0"),
    (["certify", "--seed", "-1"], {}, "seed must be >= 0"),
    (["iss", "--seed", "-1"], {"disturbance": {"profile": "constant", "amplitude": 0.1}},
     "seed must be >= 0"),
    (["flow", "--seed", "-1"], {}, "seed must be >= 0"),
    (["certify"], {"seed": -5}, "seed must be >= 0"),
    (["flow"], {"seed": -5}, "seed must be >= 0"),
    (["verify-geometry", "--manifold", "sphere2", "--n", "100001"], None,
     "sample count must be between 1 and 100000"),
    (["verify-geometry", "--manifold", "so3", "--n", "100000000000000"], None,
     "sample count must be between 1 and 100000"),
    (["verify-geometry", "--manifold", "euclidean100000000000"], None,
     "dimension must be between 1 and 1000"),
    (["verify-geometry", "--manifold", "sphere1001"], None,
     "dimension must be between 1 and 1000"),
    (["certify"], {"manifold": "euclidean1001", "equilibrium": [0.0] * 1001},
     "dimension must be between 1 and 1000"),
])
def test_out_of_range_inputs_exit_three_before_output(tmp_path, capsys, command,
                                                      overrides, message):
    args = list(command)
    if overrides is not None:
        args[1:1] = ["--config", str(_small_config(tmp_path, **overrides))]
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 3
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("mutation, key", [
    ({"seed": True}, "seed"),  # would run as seed 1
    ({"step": True}, "step"),  # would run as step 1.0
    ({"schema_version": True}, "schema_version"),
    ({"p": True}, "p"),
    ({"fit_horizon": True}, "fit_horizon"),
    ({"envelope_horizon": False}, "envelope_horizon"),
    ({"grids": {"n_points": True, "radius": 1.0}}, "n_points"),
    ({"grids": {"n_points": 8, "radius": True}}, "radius"),
    ({"delta": {"policy": "explicit", "value": True}}, "value"),
    ({"delta": {"policy": "auto", "target": False}}, "target"),
    ({"massera": {"t_max": True, "fit_horizon": 2.0}}, "t_max"),
    ({"disturbance": {"profile": "constant", "amplitude": True}}, "amplitude"),
    ({"disturbance": {"profile": "sinusoid", "amplitude": 0.1, "frequency": True}},
     "frequency"),
])
def test_config_booleans_are_not_numbers(tmp_path, capsys, mutation, key):
    config = _small_config(tmp_path, **mutation)
    out = tmp_path / "bad"
    assert main(["certify", "--config", str(config), "--out", str(out)]) == 3
    assert not out.exists()
    assert f"key {key!r} has wrong type bool" in capsys.readouterr().err


DROP = object()  # a mutation value that deletes its key
MASSERA = {"t_max": 2.0, "fit_horizon": 4.0}
CONFIG_ERRORS = {  # command, the document or a mutation of the small config, message
    "not-an-object": ("certify", [1, 2], "scenario config must be a JSON object"),
    "missing-key": ("certify", {"grids": DROP}, "missing required top-level key: 'grids'"),
    "bad-equilibrium": ("certify", {"equilibrium": [0.0, 1.0]}, "bad equilibrium coordinates"),
    "explicit-delta-zero": ("certify", {"delta": {"policy": "explicit", "value": 0.0}},
                            "explicit delta must be positive"),
    "unknown-policy": ("certify", {"delta": {"policy": "guess"}},
                       "delta policy must be 'explicit' or 'auto', got 'guess'"),
    "no-start-times": ("certify", {"grids": {"n_points": 8, "radius": 1.0, "t0_list": []}},
                       "grids need n_points >= 1, radius > 0, nonempty t0_list"),
    "step-zero": ("flow", {"step": 0}, "step must be positive"),
    "fit-horizon-negative": ("flow", {"fit_horizon": -1.0}, "fit_horizon must be positive"),
    "massera-t-max-beyond-fit": ("certify", {"massera": {"t_max": 5.0, "fit_horizon": 4.0}},
                                 "massera needs 0 < t_max <= fit_horizon"),
    "iss-horizon-zero": ("iss", {"iss_horizons": [8.0, 0.0]}, "iss_horizons must be positive"),
    "negative-amplitude": ("iss", {"disturbance": {"profile": "constant", "amplitude": -0.1}},
                           "disturbance amplitude must be nonnegative"),
    "massera-tail-tol-zero": ("certify", {"massera": {**MASSERA, "tail_tol": 0.0}},
                              "massera tail_tol must be positive"),
    "massera-tail-tol-negative": ("certify", {"massera": {**MASSERA, "tail_tol": -1e-8}},
                                  "massera tail_tol must be positive"),
    "param-string": ("certify", {"system": {"name": "geodesic_attractor",
                                            "params": {"gain": "x"}}},
                     "system param 'gain' must be a number, got \"x\""),
    "param-null": ("flow", {"system": {"name": "geodesic_attractor", "params": {"gain": None}}},
                   "system param 'gain' must be a number, got null"),
    "param-bool": ("certify", {"system": {"name": "geodesic_attractor",
                                          "params": {"gain": True}}},
                   "system param 'gain' must be a number, got true"),
    "param-list": ("flow", {"system": {"name": "geodesic_attractor", "params": {"gain": [1.0]}}},
                   "system param 'gain' must be a number, got [1.0]"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_errors_exit_three_naming_the_fault(tmp_path, capsys, case):
    command, mutation, message = CONFIG_ERRORS[case]
    data = json.loads(_small_config(tmp_path).read_text())
    if isinstance(mutation, dict):
        for key, value in mutation.items():
            if value is DROP:
                del data[key]
            else:
                data[key] = value
    else:
        data = mutation
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("manifold, n, reached", [
    ("sphere1000", 100_000, False),   # about 100 million coordinates
    ("sphere1000", 1_999, False),     # 2,000,999
    ("euclidean1000", 2_001, False),  # 2,001,000
    ("euclidean1000", 2_000, True),   # exactly the budget
    ("so3", 100_000, True),           # 900,000
])
def test_verify_geometry_caps_samples_times_coordinates(tmp_path, capsys, monkeypatch,
                                                        manifold, n, reached):
    # The budget is checked before the suite allocates anything; a stub
    # suite stands in for the real one, so no test run allocates.
    class Reached(Exception):
        pass

    def stub(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(pipeline, "run_geometry_suite", stub)
    out = tmp_path / "out"
    args = ["verify-geometry", "--manifold", manifold, "--n", str(n), "--out", str(out)]
    if reached:
        with pytest.raises(Reached):
            main(args)
    else:
        assert main(args) == 3
        assert "above the budget of 2000000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, case", [
    (command, case) for command in ("certify", "iss", "flow", "verify-geometry")
    for case in ("config-directory", "config-not-utf8", "out-file", "out-under-file")
    if command != "verify-geometry" or case.startswith("out")])
def test_unusable_config_or_out_path_exits_three_without_output(tmp_path, capsys, command,
                                                                 case):
    config = _small_config(tmp_path, disturbance={"profile": "constant", "amplitude": 0.1})
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = {"out-file": blocker, "out-under-file": blocker / "out"}.get(case, tmp_path / "out")
    if case == "config-directory":
        config = tmp_path / "configs"
        config.mkdir()
    elif case == "config-not-utf8":
        config.write_bytes(b"\xff\xfe{")
    args = ["--manifold", "sphere2", "--n", "10"] if command == "verify-geometry" \
        else ["--config", str(config)]
    before = sorted(tmp_path.rglob("*"))
    assert main([command, *args, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "keep"


def test_config_missing_file():
    assert main(["certify", "--config", "/nonexistent/cfg.json",
                 "--out", "/tmp/never"]) == 3


def test_seed_override_changes_outputs(tmp_path):
    config = _small_config(tmp_path)
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert main(["certify", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["certify", "--config", str(config), "--out", str(out_b),
                 "--seed", "99"]) == 0
    assert (out_a / "samples.csv").read_bytes() != (out_b / "samples.csv").read_bytes()


def test_load_scenario_roundtrip():
    config = load_scenario(REPO_CONFIGS / "sphere_attractor.json")
    assert config.manifold.name == "sphere2"
    assert config.system.name == "geodesic_attractor"
    assert config.delta.mode == "auto"
    spec = config.build_system()
    eq = spec.equilibrium.coords
    assert max(config.manifold.norm(eq, spec.field.eval_raw(t, eq))
               for t in (0.0, 1.0, 5.0, 10.0)) < 1e-10


def test_load_scenario_rejects_non_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(path)
