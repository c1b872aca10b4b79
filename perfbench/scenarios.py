"""Workloads: scenario lists generated from a seed, and the output check of each run.

A workload is a closed loop with one caller: each scenario is one call of
``geolyap.cli.main`` and the next starts only when the previous one has
written its reports.  The seed draws each scenario's config seed and its
equilibrium; everything that sets the amount of work (grid sizes, horizons,
gains, step) is fixed, so every seed asks for the same work.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

STEP = 0.01
T0_PAIR = [0.0, math.e]                  # start times of certify/iss/massera grids
T0_SHIPPED = [0.0, 1.0, math.e, 10.0]     # start times of the shipped configs
ORACLE_TOL = 1e-8      # |K - 1| and |lambda - gain| / gain for geodesic_attractor
FLOW_ORACLE_TOL = 1e-6  # relative error of trajectory distances against the oracle
CERTIFY_ANCHORS = {"contraction-envelope", "sandwich-bounds", "lie-decay",
                   "telescoping-identity", "differential-bound"}
ISS_ANCHORS = {"iss-pointwise-decay", "iss-ultimate-bound"}
MASSERA_ANCHORS = {"massera-reshaping", "ugas-tail", "ugas-positivity",
                   "ugas-decay", "ugas-monotonicity"}
GEOMETRY_ROWS = {"exp-log-roundtrip", "transport-isometry", "triangle-inequality",
                 "distance-arclength", "first-variation-order", "constraint-projection"}


class CheckFailed(AssertionError):
    """A scenario's output missed its expected exit code, verdict or oracle."""


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Scenario:
    """One CLI call: ``argv`` without ``--out``, its config, and its check."""

    label: str
    argv: list[str]
    check: Callable[[int, Path], None]
    config: dict | None = None
    config_path: Path | None = field(default=None, init=False)

    def write_config(self, work: Path):
        if self.config is not None:
            self.config_path = work / f"{self.label}.json"
            self.config_path.write_text(json.dumps(self.config, indent=1))

    def command(self, out_dir: Path) -> list[str]:
        extra = ["--config", str(self.config_path)] if self.config is not None else []
        return self.argv[:1] + extra + self.argv[1:] + ["--out", str(out_dir)]


def output_digest(out_dir: Path) -> str:
    """Hash of every file name and byte the scenario wrote."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


# -- seeded inputs -----------------------------------------------------------------


def _equilibrium(manifold: str, rng: np.random.Generator) -> list[float]:
    if manifold == "sphere2":
        v = rng.standard_normal(3)
        return (v / np.linalg.norm(v)).tolist()
    if manifold == "so3":
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q.ravel().tolist()
    if manifold == "hyperbolic2":
        r, a = rng.uniform(0.0, 0.5), rng.uniform(0.0, 2.0 * math.pi)
        return [math.cosh(r), math.sinh(r) * math.cos(a), math.sinh(r) * math.sin(a)]
    if manifold.startswith("euclidean"):
        return rng.uniform(-1.0, 1.0, int(manifold[len("euclidean"):])).tolist()
    raise ValueError(f"no equilibrium sampler for {manifold}")


def _config(rng, manifold, system, params, n_points, t0_list=T0_PAIR,
            fit_horizon=3.0, **extra) -> dict:
    data = {
        "schema_version": 1,
        "manifold": manifold,
        "system": {"name": system, "params": params},
        "equilibrium": _equilibrium(manifold, rng),
        "delta": {"policy": "auto", "target": 0.5},
        "p": 1,
        "grids": {"n_points": n_points, "radius": 1.0, "t0_list": list(t0_list)},
        "seed": int(rng.integers(0, 2**31 - 1)),
        "step": STEP,
        "fit_horizon": fit_horizon,
        "envelope_horizon": 0.5,
    }
    data.update(extra)
    return data


# -- output checks -------------------------------------------------------------------


def _report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text())


def _csv(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _require_rows_pass(rows: list[dict], anchors: set[str], label: str):
    _require(bool(rows), f"{label}: report has no rows")
    failing = [r["name"] for r in rows if r["pass"] is not True]
    _require(not failing, f"{label}: failing rows {failing}")
    got = {r["anchor"] for r in rows}
    _require(got == anchors, f"{label}: anchors {sorted(got)} != {sorted(anchors)}")


def _require_exit(rc: int, expected: int, label: str):
    _require(rc == expected, f"{label}: exit code {rc}, expected {expected}")


def check_certify(config: dict, rc: int, out: Path):
    _require_exit(rc, 0, "certify")
    payload = _report(out)
    _require(payload["report"]["verdict"] is True, "certify: verdict is not PASS")
    _require_rows_pass(payload["report"]["rows"], CERTIFY_ANCHORS, "certify")
    _require((out / "report.txt").read_text().endswith("verdict: PASS\n"),
             "certify: report.txt does not end with the PASS verdict")
    header, samples = _csv(out / "samples.csv")
    _require(header == ["t", "distance", "V", "lie_derivative"], "certify: samples header")
    _require(len(samples) == min(config["grids"]["n_points"], 24), "certify: samples rows")
    _require(bool(np.all(np.isfinite(samples))), "certify: non-finite samples")
    _check_envelope_oracle(config, payload["envelope"])


def _check_envelope_oracle(config: dict, envelope: dict):
    """Fitted (K, lambda) against the closed-form decay of the registered system."""
    name, params = config["system"]["name"], config["system"]["params"]
    K, rate = envelope["K"], envelope["rate"]
    _require(envelope["stability_class"] == "LES", f"{name}: not classified LES")
    if name == "geodesic_attractor":
        # d(t) = e^{-gain t} d0 exactly, so the envelope is K = 1, lambda = gain.
        gain = params["gain"]
        _require(abs(K - 1.0) <= ORACLE_TOL, f"{name}: K={K!r} differs from 1")
        _require(abs(rate - gain) <= ORACLE_TOL * gain,
                 f"{name}: lambda={rate!r} differs from gain {gain}")
    elif name == "time_varying_attractor":
        # d(t0+s)/d0 = exp(-(b s - a (cos(t0+s) - cos t0))) must stay under K e^{-lambda s}.
        b, a = params["base_gain"], params["amplitude"]
        s = np.arange(0.0, config["fit_horizon"] + 1e-9, STEP)
        for t0 in config["grids"]["t0_list"]:
            ratio = np.exp(-(b * s - a * (np.cos(t0 + s) - math.cos(t0))))
            excess = float(np.max(ratio / (K * np.exp(-rate * s)))) - 1.0
            _require(excess <= FLOW_ORACLE_TOL,
                     f"{name}: envelope undercuts the oracle by {excess:.3g} at t0={t0}")


def check_envelope_failure(rc: int, out: Path):
    _require_exit(rc, 2, "rotation")
    report = _report(out)["report"]
    _require(report["verdict"] is False and report["failed_stage"] == "les-envelope-fit",
             f"rotation: failed_stage {report.get('failed_stage')!r}")
    _require("les-envelope-fit" in (out / "report.txt").read_text(),
             "rotation: report.txt does not name les-envelope-fit")
    _require(not (out / "samples.csv").exists(), "rotation: partial samples.csv written")


def check_iss(rc: int, out: Path):
    _require_exit(rc, 0, "iss")
    payload = _report(out)
    _require(payload["unforced_report"]["verdict"] is True, "iss: unforced verdict FAIL")
    _require_rows_pass(payload["unforced_report"]["rows"], CERTIFY_ANCHORS, "iss unforced")
    _require(payload["report"]["pass"] is True, "iss: robustness verdict FAIL")
    _require_rows_pass(payload["report"]["rows"], ISS_ANCHORS, "iss")
    header, series = _csv(out / "samples.csv")
    _require(header == ["t", "distance", "V", "u_norm"], "iss: samples header")
    _require(len(series) >= 2 and bool(np.all(np.isfinite(series))), "iss: samples rows")


def check_massera(config: dict, rc: int, out: Path):
    _require_exit(rc, 0, "massera")
    payload = _report(out)
    _require(payload["report"]["verdict"] is True, "massera: verdict FAIL")
    _require_rows_pass(payload["report"]["rows"], MASSERA_ANCHORS, "massera")
    _require(payload["certificate"]["tail_bound"] <= config["massera"]["tail_tol"],
             "massera: tail bound above tolerance")
    _, samples = _csv(out / "samples.csv")
    _require(len(samples) == min(config["grids"]["n_points"], 50), "massera: samples rows")


def check_geometry(rc: int, out: Path):
    _require_exit(rc, 0, "verify-geometry")
    payload = _report(out)
    _require(payload["failing"] == [], f"verify-geometry: failing {payload['failing']}")
    names = {r["name"] for r in payload["report"]["rows"]}
    _require(payload["report"]["verdict"] is True and names == GEOMETRY_ROWS,
             f"verify-geometry: rows {sorted(names)}")


def _distance_oracle(config: dict) -> Callable[[float, float, np.ndarray], np.ndarray] | None:
    name, p = config["system"]["name"], config["system"]["params"]
    if "disturbance" in config:
        return None
    if name == "geodesic_attractor":
        return lambda d0, t0, s: d0 * np.exp(-p["gain"] * s)
    if name == "time_varying_attractor":
        return lambda d0, t0, s: d0 * np.exp(
            -(p["base_gain"] * s - p["amplitude"] * (np.cos(t0 + s) - math.cos(t0))))
    if name == "cubic_slowdown":
        return lambda d0, t0, s: 1.0 / np.sqrt(2.0 * p["gain"] * s + 1.0 / (d0 * d0))
    if name == "isometric_rotation":
        return lambda d0, t0, s: np.full_like(s, d0)
    raise ValueError(f"no distance oracle for {name}")


def check_flow(config: dict, rc: int, out: Path):
    _require_exit(rc, 0, "flow")
    oracle = _distance_oracle(config)
    for i, t0 in enumerate(config["grids"]["t0_list"]):
        header, rows = _csv(out / f"trajectory_{i}.csv")
        _require(header[0] == "t" and header[-1] == "distance", "flow: csv header")
        _require(bool(np.all(np.isfinite(rows))), "flow: non-finite trajectory")
        s = rows[:, 0] - t0
        d = rows[:, -1]
        gaps = np.diff(s)
        _require(s[0] == 0.0 and abs(s[-1] - config["fit_horizon"]) < 1e-9
                 and bool(np.all(gaps > 0.0)) and float(gaps.max()) <= STEP * (1 + 1e-9)
                 and len(s) >= round(config["fit_horizon"] / STEP) + 1,
                 "flow: time column is not a step grid over the horizon")
        if oracle is not None:
            err = np.max(np.abs(d - oracle(d[0], t0, s)) / np.maximum(d, 1e-300))
            _require(err <= FLOW_ORACLE_TOL, f"flow: distance off the oracle by {err:.3g}")
        else:
            _require(bool(np.all(d >= 0.0)) and bool(np.all(d < math.pi)),
                     "flow: disturbed trajectory left the chart")


# -- workloads ------------------------------------------------------------------------


def _certify(label, config):
    return Scenario(label, ["certify"], functools.partial(check_certify, config), config)


def _iss_config(rng, n_points, t0_list, fit_horizon, horizons):
    return _config(rng, "sphere2", "geodesic_attractor", {"gain": 1.0}, n_points,
                   t0_list, fit_horizon,
                   disturbance={"profile": "constant", "amplitude": 0.1, "bound": 0.1},
                   iss_horizons=list(horizons))


def _massera_config(rng, n_points, fit_horizon):
    return _config(rng, "euclidean2", "cubic_slowdown", {"gain": 1.0}, n_points,
                   T0_SHIPPED, fit_horizon,
                   massera={"t_max": 20.0, "fit_horizon": 22.0, "tail_tol": 1e-8})


def certify_grid(rng) -> list[Scenario]:
    """Every certification pipeline on a state grid: exp-mode certify on the
    curved manifolds (one of which fails its envelope fit), iss with the
    thread pool, and the Massera construction on the flat plane."""
    geo = {"gain": 1.0}
    massera = _massera_config(rng, 16, 3.0)
    return [
        _certify("sphere2-geodesic", _config(
            rng, "sphere2", "geodesic_attractor", geo, 3, fit_horizon=2.0)),
        _certify("sphere2-time-varying", _config(
            rng, "sphere2", "time_varying_attractor", {"base_gain": 1.5, "amplitude": 0.5}, 3)),
        # gain 2 halves the horizon delta, so the so3 grid costs about as much as the others
        _certify("so3-geodesic", _config(rng, "so3", "geodesic_attractor", {"gain": 2.0}, 2,
                                         t0_list=[0.0], fit_horizon=1.0)),
        _certify("hyperbolic2-geodesic", _config(
            rng, "hyperbolic2", "geodesic_attractor", geo, 3, fit_horizon=2.0)),
        Scenario("sphere2-rotation", ["certify"], check_envelope_failure,
                 _config(rng, "sphere2", "isometric_rotation", {"rate": 1.0}, 8)),
        Scenario("sphere2-iss", ["iss", "--workers", "2"], check_iss,
                 _iss_config(rng, 3, T0_PAIR, 2.0, (2.0, 3.0))),
        Scenario("euclidean2-cubic-massera", ["certify", "--mode", "massera"],
                 functools.partial(check_massera, massera), massera),
    ]


def scalar_path(rng) -> list[Scenario]:
    """``flow`` on the system of each shipped config, then ``verify-geometry``."""
    shipped = {
        "cubic-massera": _massera_config(rng, 50, 6.0),
        "rotation-us": _config(rng, "sphere2", "isometric_rotation", {"rate": 1.0}, 24,
                               T0_SHIPPED, 6.0),
        "sphere-attractor": _config(rng, "sphere2", "geodesic_attractor", {"gain": 1.0},
                                    40, T0_SHIPPED, 6.0),
        "sphere-iss": _iss_config(rng, 24, T0_SHIPPED, 6.0, (8.0, 12.0)),
        "time-varying-gain": _config(rng, "sphere2", "time_varying_attractor",
                                     {"base_gain": 1.5, "amplitude": 0.5}, 32,
                                     T0_SHIPPED, 6.0),
    }
    scenarios = [Scenario(f"flow-{name}", ["flow"], functools.partial(check_flow, config), config)
                 for name, config in shipped.items()]
    for manifold in ("euclidean3", "sphere2", "so3", "hyperbolic2"):
        seed = str(int(rng.integers(0, 2**31 - 1)))
        scenarios.append(Scenario(
            f"geometry-{manifold}",
            ["verify-geometry", "--manifold", manifold, "--seed", seed, "--n", "600"],
            check_geometry))
    return scenarios


WORKLOADS: dict[str, Callable[[np.random.Generator], list[Scenario]]] = {
    "certify-grid": certify_grid,
    "scalar-path": scalar_path,
}


def make_workload(name: str, seed: int) -> list[Scenario]:
    index = list(WORKLOADS).index(name)
    return WORKLOADS[name](np.random.default_rng([seed, index]))
