"""Scenario pipelines behind the CLI commands.

Each runner validates everything it needs before creating any output file
(config errors must not leave partial output), then writes reports and CSV
dumps with deterministic bytes: seeded sampling, ordered reductions, sorted
JSON keys, and no timestamps.  Each stage draws its samples up front and
integrates them as one batch.
"""

from __future__ import annotations

import csv
import json
import logging
from pathlib import Path

import numpy as np

from .certify import (
    ANCHOR_ENVELOPE_FIT,
    ANCHOR_HORIZON,
    CertificationReport,
    CheckRow,
    GridSpec,
    check_input_signal,
    classify_stability,
    iss_certify,
    run_geometry_suite,
    sample_states,
    verify_converse_certificate,
)
from .config import ConfigError, ScenarioConfig
from .envelopes import StabilityEnvelope
from .flows import Region, flow, lie_stencil, lipschitz_estimate
from .lyapunov import LIE_H, HorizonError, InvalidDeltaError, choose_delta, construct_ugas_V
from .manifolds import GeometryError, ManifoldPoint, manifold_from_name

logger = logging.getLogger("geolyap")

EXIT_OK = 0
EXIT_CERTIFICATION_FAILED = 2
EXIT_CONFIG_ERROR = 3
SAMPLES_CSV_ROWS = 24   # certify samples.csv: the first states of the verification grid
SAMPLES_HEADER = ["t", "distance", "V", "lie_derivative"]


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_reports(out_dir: Path, payload: dict, text: str, samples=None):
    """report.json (schema 1), report.txt and, given (header, rows), samples.csv."""
    report = json.dumps({"schema_version": 1, **payload}, indent=2, sort_keys=True)
    (out_dir / "report.json").write_text(report + "\n")
    (out_dir / "report.txt").write_text(text)
    if samples is not None:
        _write_csv(out_dir / "samples.csv", *samples)


def _stage_failure(out_dir: Path, mode: str, envelope: StabilityEnvelope,
                   stage_anchor: str, detail: str) -> int:
    """Reports for a run that stopped at a named stage before any certificate."""
    message = f"{stage_anchor}: {detail}"
    logger.error(message)
    _write_reports(out_dir, {"mode": mode, "envelope": envelope.to_json(),
                             "report": _failure_report(stage_anchor, message)},
                   "certification FAILED\n" + message + "\n")
    return EXIT_CERTIFICATION_FAILED


def _estimate_lipschitz(config: ScenarioConfig, field) -> float:
    region = Region(config.equilibrium, config.grid.radius)
    estimate = lipschitz_estimate(field, region, config.grid.t0_list,
                                  n_pairs=max(32, config.grid.n_points), seed=config.seed)
    logger.info("lipschitz estimate: transport %.4f covariant %.4f",
                estimate.transport_constant, estimate.covariant_constant)
    return estimate.inflated()


def _fit_trajectories(config: ScenarioConfig, spec, horizon: float):
    rng = np.random.default_rng(config.seed + 1)
    m = config.manifold
    starts, t0s = [], []
    n_starts = max(3, min(8, config.grid.n_points // 4))
    for t0 in config.grid.t0_list:
        for _ in range(n_starts):
            r = config.grid.radius * rng.uniform(0.3, 1.0)
            v = m.random_tangent(rng, config.equilibrium.coords, norm=r)
            starts.append(ManifoldPoint(m, m.exp(config.equilibrium.coords, v)))
            t0s.append(t0)
    t0s = np.array(t0s)
    trajectories = flow(spec.field, t0s, starts, t0s + horizon, config.step)
    return classify_stability(trajectories, config.equilibrium)


def _resolve_delta(config: ScenarioConfig, envelope: StabilityEnvelope) -> float:
    if config.delta.mode == "explicit":
        return config.delta.value
    return choose_delta(envelope.K, envelope.rate, config.delta.target).delta


def _verify_exponential(config: ScenarioConfig, field, envelope: StabilityEnvelope):
    """estimate L -> choose horizon -> construct V -> verify, on the config grid."""
    L = _estimate_lipschitz(config, field)
    return verify_converse_certificate(
        field, config.equilibrium, L, envelope, _resolve_delta(config, envelope), config.p,
        config.grid, seed=config.seed, step=config.step, envelope_horizon=config.envelope_horizon)


def _failure_report(stage_anchor: str, message: str) -> dict:
    return {"verdict": False, "failed_stage": stage_anchor, "message": message, "rows": []}


def run_certify(config: ScenarioConfig, out_dir: Path, mode: str = "exp") -> int:
    """estimate L -> fit envelope -> choose horizon -> construct V -> verify."""
    if mode not in ("exp", "massera"):
        raise ConfigError(f"mode must be 'exp' or 'massera', got {mode!r}")
    spec = config.build_system()
    out_dir.mkdir(parents=True, exist_ok=True)

    fit_horizon = (config.massera.fit_horizon
                   if mode == "massera" and config.massera is not None
                   else config.fit_horizon)
    envelope = _fit_trajectories(config, spec, fit_horizon)
    logger.info("stability class: %s", envelope.stability_class)

    if mode == "exp":
        if not envelope.is_exponential:
            return _stage_failure(out_dir, mode, envelope, ANCHOR_ENVELOPE_FIT, (
                f"trajectories classify as {envelope.stability_class}, not exponentially "
                f"stable (fit residual {envelope.fit_residual:.3g})"))
        try:
            report = _verify_exponential(config, spec.field, envelope)
        except InvalidDeltaError as err:
            return _stage_failure(out_dir, mode, envelope, ANCHOR_HORIZON, str(err))
        payload = {"mode": mode, "envelope": envelope.to_json(),
                   "certificate": report.certificate.to_json(), "report": report.to_dict()}
        # samples.csv: the verification grid's own quantities, for its first states.
        _write_reports(out_dir, payload, report.to_text(),
                       (SAMPLES_HEADER, report.samples[:SAMPLES_CSV_ROWS].tolist()))
        return EXIT_OK if report.verdict else EXIT_CERTIFICATION_FAILED

    return _run_certify_massera(config, spec, envelope, out_dir)


def _run_certify_massera(config: ScenarioConfig, spec, envelope: StabilityEnvelope,
                         out_dir: Path) -> int:
    if config.massera is None:
        raise ConfigError("massera mode requires a 'massera' config section")
    if envelope.stability_class == "US":
        return _stage_failure(out_dir, "massera", envelope, "ugas-envelope",
                              "trajectories do not decay; asymptotic construction unavailable")

    # Decay flows get slow at long horizons; a coarser integrator step keeps
    # evaluation at desk scale without touching the envelope fit.
    eval_step = max(config.step, 0.05)
    try:
        V = construct_ugas_V(spec.field, config.equilibrium, envelope,
                             config.massera.t_max, config.massera.tail_tol, step=eval_step)
    except HorizonError as err:
        return _stage_failure(out_dir, "massera", envelope, "ugas-tail", str(err))
    reshaping = V.reshaping

    m = config.manifold
    x_star = config.equilibrium.coords
    rng = np.random.default_rng(config.seed)
    n_states = min(config.grid.n_points, 50)
    # The reshaping is extremely flat near the equilibrium (values below
    # 1e-12 for algebraic envelopes), so sign checks sample the outer region.
    states = sample_states(m, config.equilibrium, GridSpec(
        n_states, config.grid.radius, config.grid.t0_list), rng, r_min_frac=0.3)
    t = np.array([s for s, _ in states])
    x = np.array([pt.coords for _, pt in states])

    radii = np.linspace(0.4 * config.grid.radius, config.grid.radius, 10)
    direction = m.random_tangent(np.random.default_rng(config.seed + 3), x_star, norm=1.0)
    ray = m.exp(x_star, m.rows(radii) * direction)

    # Every V of this mode (states, Lie stencils, ray, equilibrium) in one batch.
    plus, minus = lie_stencil(spec.field, t, m.project(x), LIE_H, V.step)
    v_val, v_plus, v_minus, ray_values, v_at_star = V.evaluate_groups([
        (t, x), (t + LIE_H, plus), (t - LIE_H, minus), (0.0, ray), (0.0, x_star)])
    lie = (v_plus - v_minus) / (2.0 * LIE_H)
    sample_rows = np.stack([t, m.dist(x, x_star), v_val, lie], axis=1).tolist()
    v_min = float(np.min(v_val))
    lie_max = float(np.max(lie))
    v_at_star = float(v_at_star[0])

    s_probe = np.linspace(0.0, float(reshaping.s_knots[-1]), 64)
    g_gaps = np.diff(reshaping.value(s_probe))
    gp_gaps = np.diff(reshaping.derivative(s_probe))
    ray_gaps = np.diff(ray_values)

    zero_val = reshaping.value(0.0)
    rows = (
        CheckRow("reshaping-zero", "massera-reshaping", 0.0, zero_val,
                 0.0 if zero_val == 0.0 else -abs(zero_val), zero_val == 0.0),
        CheckRow("reshaping-monotone", "massera-reshaping", 0.0,
                 float(min(g_gaps.min(), gp_gaps.min())),
                 float(min(g_gaps.min(), gp_gaps.min())),
                 bool(g_gaps.min() > 0 and gp_gaps.min() > 0)),
        CheckRow("truncation-tail", "ugas-tail", config.massera.tail_tol,
                 V.tail_bound, (config.massera.tail_tol - V.tail_bound)
                 / config.massera.tail_tol, V.tail_bound <= config.massera.tail_tol),
        CheckRow("positivity", "ugas-positivity", 0.0, v_min, v_min,
                 v_min > 0.0 and abs(v_at_star) < 1e-12),
        CheckRow("decay", "ugas-decay", 0.0, lie_max, -lie_max, lie_max < 0.0),
        CheckRow("radial-monotonicity", "ugas-monotonicity", 0.0,
                 float(ray_gaps.min()), float(ray_gaps.min()),
                 bool(ray_gaps.min() > 0)),
    )
    report = CertificationReport(rows)
    payload = {
        "mode": "massera",
        "envelope": envelope.to_json(),
        "certificate": {
            "mode": "massera", "delta": V.horizon, "p": V.p,
            "constants": {"k1": reshaping.k1, "k2": reshaping.k2},
            "tail_bound": V.tail_bound,
        },
        "report": report.to_dict(),
    }
    _write_reports(out_dir, payload, report.to_text(), (SAMPLES_HEADER, sample_rows))
    return EXIT_OK if report.verdict else EXIT_CERTIFICATION_FAILED


def run_iss(config: ScenarioConfig, out_dir: Path) -> int:
    """Certify the unforced system, then run the disturbance robustness check."""
    if config.disturbance is None:
        raise ConfigError("iss requires a 'disturbance' config section")
    spec = config.build_system()
    # Contract scan before any output: the generator must respect its bound.
    horizon_max = max(config.iss_horizons) + max(config.grid.t0_list)
    check_input_signal(spec.input_signal, spec.input_bound, horizon_max)

    unforced = config.build_system_unforced()
    envelope = _fit_trajectories(config, unforced, config.fit_horizon)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not envelope.is_exponential:
        return _stage_failure(out_dir, "iss", envelope, ANCHOR_ENVELOPE_FIT, (
            f"unforced system classifies as {envelope.stability_class}, "
            "not exponentially stable"))
    try:
        base_report = _verify_exponential(config, unforced.field, envelope)
    except InvalidDeltaError as err:
        return _stage_failure(out_dir, "iss", envelope, ANCHOR_HORIZON, str(err))
    certificate = base_report.certificate
    payload = {"mode": "iss", "envelope": envelope.to_json(),
               "certificate": certificate.to_json(), "unforced_report": base_report.to_dict()}
    if not base_report.verdict:
        payload["report"] = _failure_report("uges-precondition", "unforced certification failed")
        _write_reports(out_dir, payload, base_report.to_text())
        return EXIT_CERTIFICATION_FAILED

    # samples.csv: the series trajectory integrated with the robustness batch.
    iss_report = iss_certify(spec.field, config.equilibrium, certificate,
                             spec.input_signal, spec.input_bound,
                             config.iss_horizons, seed=config.seed,
                             grid=config.grid, step=config.step)
    payload["report"] = iss_report.to_dict()
    _write_reports(out_dir, payload, iss_report.to_text(),
                   (["t", "distance", "V", "u_norm"], iss_report.series.tolist()))
    return EXIT_OK if iss_report.passed else EXIT_CERTIFICATION_FAILED


def run_flow(config: ScenarioConfig, out_dir: Path) -> int:
    """Integrate one trajectory per start time and dump plot-ready CSV."""
    spec = config.build_system()
    out_dir.mkdir(parents=True, exist_ok=True)
    m = config.manifold
    rng = np.random.default_rng(config.seed)
    v0 = m.random_tangent(rng, config.equilibrium.coords, norm=config.grid.radius)
    x0 = ManifoldPoint(m, m.exp(config.equilibrium.coords, v0))
    field = (spec.field.with_input_signal(spec.input_signal)
             if spec.input_signal is not None else spec.field)
    t0s = np.array(config.grid.t0_list)
    trajectories = flow(field, t0s, [x0] * len(t0s), t0s + config.fit_horizon, config.step)
    for i, traj in enumerate(trajectories):
        header, rows = traj.csv_rows()
        header.append("distance")
        for row, d in zip(rows, traj.distances_to(config.equilibrium)):
            row.append(float(d))
        _write_csv(out_dir / f"trajectory_{i}.csv", header, rows)
    return EXIT_OK


def run_verify_geometry(manifold_name: str, seed: int, n: int, out_dir: Path,
                        inject_fault: bool = False) -> int:
    """Run the geometry property suite and write its report."""
    try:
        manifold = manifold_from_name(manifold_name)
    except GeometryError as err:
        raise ConfigError(str(err)) from err
    if n < 1:
        raise ConfigError("sample count must be >= 1")
    report = run_geometry_suite(manifold, seed, n, inject_fault=inject_fault)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "manifold": manifold.name,
        "seed": seed,
        "n": n,
        "report": report.to_dict(),
        "failing": [r.name for r in report.rows if not r.passed],
    }
    _write_reports(out_dir, payload, report.to_text())
    return EXIT_OK if report.verdict else EXIT_CERTIFICATION_FAILED
