import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geolyap import certify, config as config_module, flows, lyapunov, pipeline, systems
from geolyap.cli import main
from geolyap.config import ConfigError, load_scenario

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


def test_certify_massera_mode_runs_without_scipy(tmp_path):
    argv = ["certify", "--config", str(_massera_config(tmp_path)), "--mode", "massera",
            "--out", str(tmp_path / "massera")]
    script = ("import sys\nfrom geolyap.cli import main\n"
              f"rc = main({argv!r})\n"
              "print(rc, any(name.partition('.')[0] == 'scipy' for name in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == ["0", "False"]


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


def test_massera_mode_without_section_fails_before_any_flow(tmp_path, monkeypatch):
    steps = _count_steps(monkeypatch)
    out = tmp_path / "m"
    rc = main(["certify", "--config", str(REPO_CONFIGS / "sphere_attractor.json"),
               "--mode", "massera", "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert steps == []


def _count_steps(monkeypatch) -> list[int]:
    """RK4 steps of every flow_samples call from here on, one entry per flow."""
    steps = []
    real_step, real_flow = flows._rk4_step, flows.flow_samples

    def counting_step(*args):
        steps[-1] += 1
        return real_step(*args)

    def counting_flow(*args, **kwargs):
        steps.append(0)
        return real_flow(*args, **kwargs)

    monkeypatch.setattr(flows, "_rk4_step", counting_step)
    for module in (flows, lyapunov, certify, pipeline):
        monkeypatch.setattr(module, "flow_samples", counting_flow)
    return steps


def test_step_counts_per_flow(tmp_path, monkeypatch):
    # sphere2 at step 0.01 with delta = ln 2.  The envelope fit takes 200
    # steps over fit_horizon 2 and carries the contraction pairs, whose
    # offsets lie on its grid; the Lie stencil takes 1; V's 71 quadrature
    # nodes take 70.  The contraction check has no flow of its own.
    steps = _count_steps(monkeypatch)
    base = {"fit_horizon": 2.0, "envelope_horizon": 0.5}
    config = _small_config(tmp_path, **base)
    assert main(["certify", "--config", str(config), "--out", str(tmp_path / "c")]) == 0
    assert steps == [200, 1, 70]
    # iss adds its own Lie stencil, the disturbed flow to t = 3 and one V batch.
    steps.clear()
    config = _small_config(tmp_path, "iss.json", **base, iss_horizons=[2.0, 3.0],
                           disturbance={"profile": "constant", "amplitude": 0.1, "bound": 0.1})
    assert main(["iss", "--config", str(config), "--out", str(tmp_path / "i")]) == 0
    assert steps == [200, 1, 70, 1, 300, 70]


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
