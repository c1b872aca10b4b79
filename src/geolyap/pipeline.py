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
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .certify import (
    ANCHOR_ENVELOPE_FIT,
    ANCHOR_HORIZON,
    Certificate,
    CertificationReport,
    CheckRow,
    GridSpec,
    VerificationInputs,
    check_input_signal,
    classify_stability,
    draw_verification_inputs,
    iss_certify,
    make_certificate,
    run_geometry_suite,
    sample_states,
    verify_converse_certificate,
)
from .config import ConfigError, ScenarioConfig
from .envelopes import StabilityEnvelope
from .flows import (
    IntegrationError,
    Region,
    Trajectory,
    contraction_offsets,
    flow,
    flow_samples,
    lie_stencil,
    lipschitz_estimate,
    step_offsets,
)
from .lyapunov import LIE_H, HorizonError, InvalidDeltaError, choose_delta, construct_ugas_V
from .manifolds import CutLocusError, GeometryError, ManifoldPoint, manifold_from_name

logger = logging.getLogger("geolyap")

EXIT_OK = 0
EXIT_CERTIFICATION_FAILED = 2
EXIT_CONFIG_ERROR = 3
SAMPLES_CSV_ROWS = 24   # certify samples.csv: the first states of the verification grid
SAMPLES_HEADER = ["t", "distance", "V", "lie_derivative"]
# Stage anchors of the verification, the asymptotic construction, the
# robustness check and the flow command.
ANCHOR_VERIFICATION = "les-verification"
ANCHOR_UGAS_ENVELOPE = "ugas-envelope"
ANCHOR_UGAS_TAIL = "ugas-tail"
ANCHOR_UGAS_EVALUATION = "ugas-evaluation"
ANCHOR_ISS_ROBUSTNESS = "iss-robustness"
ANCHOR_FLOW_INTEGRATION = "flow-integration"
# Numerical failures inside a stage: a non-finite flow or a pair at the cut locus.
NUMERICAL_FAILURES = (IntegrationError, CutLocusError)


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)  # the csv module writes floats by repr


def _write_reports(out_dir: Path, payload: dict, text: str, samples=None):
    """report.json (schema 1), report.txt and, given (header, rows), samples.csv."""
    report = json.dumps({"schema_version": 1, **payload}, indent=2, sort_keys=True)
    (out_dir / "report.json").write_text(report + "\n")
    (out_dir / "report.txt").write_text(text)
    if samples is not None:
        _write_csv(out_dir / "samples.csv", *samples)


class _StageFailure(Exception):
    """A pipeline stage could not finish; ``anchor`` names it in the report,
    which carries ``envelope`` when the fit got that far (else null)."""

    def __init__(self, anchor: str, detail: str, envelope: StabilityEnvelope | None = None):
        super().__init__(detail)
        self.anchor = anchor
        self.envelope = envelope


@contextmanager
def _stage(anchor: str, errors: tuple = NUMERICAL_FAILURES,
           envelope: StabilityEnvelope | None = None):
    """Raise ``errors`` from the block as a :class:`_StageFailure` of ``anchor``."""
    try:
        yield
    except errors as err:
        raise _StageFailure(anchor, str(err), envelope) from err


def _stage_failure(out_dir: Path, mode: str, failure: _StageFailure) -> int:
    """Reports for a run that stopped at a named stage, with the envelope
    when the fit got that far (else null) and no samples.csv."""
    message = f"{failure.anchor}: {failure}"
    logger.error(message)
    envelope = failure.envelope
    _write_reports(out_dir, {"mode": mode,
                             "envelope": None if envelope is None else envelope.to_json(),
                             "report": _failure_report(failure.anchor, message)},
                   "certification FAILED\n" + message + "\n")
    return EXIT_CERTIFICATION_FAILED


def _estimate_lipschitz(config: ScenarioConfig, field) -> float:
    region = Region(config.equilibrium, config.grid.radius)
    estimate = lipschitz_estimate(field, region, config.grid.t0_list,
                                  n_pairs=max(32, config.grid.n_points), seed=config.seed)
    logger.info("lipschitz estimate: transport %.4f covariant %.4f",
                estimate.transport_constant, estimate.covariant_constant)
    return estimate.inflated()


def _fit_trajectories(config: ScenarioConfig, field, horizon: float, anchor: str,
                      inputs: VerificationInputs | None = None):
    """The stability envelope of a seeded batch of trajectories over ``horizon``.

    This is the stage ``anchor``.  With ``inputs``, the verification's
    contraction pairs join the fit's flow as extra rows, since their flow
    does not depend on L; their states at :func:`contraction_offsets` of the
    envelope horizon, which lie on the fit's step grid, come back with the
    envelope (else None).
    """
    rng = np.random.default_rng(config.seed + 1)
    m = config.manifold
    starts, t0s = [], []
    n_starts = max(3, min(8, config.grid.n_points // 4))
    for t0 in config.grid.t0_list:
        for _ in range(n_starts):
            r = config.grid.radius * rng.uniform(0.3, 1.0)
            v = m.random_tangent(rng, config.equilibrium.coords, norm=r)
            starts.append(m.exp(config.equilibrium.coords, v))
            t0s.append(t0)
    t0s = np.array(t0s)
    offsets = step_offsets(horizon, config.step)
    x0, t_rows, grid = m.project(np.array(starts)), t0s, offsets
    if inputs is not None:
        taus = contraction_offsets(config.envelope_horizon, config.step)
        x0 = np.concatenate([x0, *inputs.pair_x])
        t_rows = np.concatenate([t0s, inputs.pair_t, inputs.pair_t])
        grid = np.sort(np.concatenate([offsets, taus]))  # a repeated time adds no step
    with _stage(anchor):
        pts = flow_samples(field, t_rows, x0, grid, config.step)
    fit = pts[np.searchsorted(grid, offsets), :len(t0s)]
    trajectories = [Trajectory(m, np.append(t0 + offsets[:-1], t0 + horizon), fit[:, i],
                               config.step) for i, t0 in enumerate(t0s)]
    envelope = classify_stability(trajectories, config.equilibrium)
    logger.info("stability class: %s", envelope.stability_class)
    if inputs is None:
        return envelope, None
    pair_flow = pts[np.searchsorted(grid, taus), len(t0s):]
    return envelope, pair_flow.reshape((len(taus), 2, -1) + m.ambient_shape)


def _resolve_delta(config: ScenarioConfig, envelope: StabilityEnvelope) -> float:
    if config.delta.mode == "explicit":
        return config.delta.value
    return choose_delta(envelope.K, envelope.rate, config.delta.target).delta


def _certify_exponential(config: ScenarioConfig,
                         field) -> tuple[Certificate, CertificationReport]:
    """draw inputs -> fit envelope -> estimate L, construct V -> verify.

    Each stage runs once; a stage that cannot finish raises its
    :class:`_StageFailure`.  The contraction pairs ride the fit's flow.
    """
    inputs = draw_verification_inputs(config.manifold, config.equilibrium,
                                      config.grid, config.seed)
    envelope, pair_flow = _fit_trajectories(config, field, config.fit_horizon,
                                            ANCHOR_ENVELOPE_FIT, inputs)
    if not envelope.is_exponential:
        raise _StageFailure(ANCHOR_ENVELOPE_FIT, (
            f"trajectories classify as {envelope.stability_class}, not exponentially "
            f"stable (fit residual {envelope.fit_residual:.3g})"), envelope)
    # A horizon without decay margin is rejected before verification integrates.
    with _stage(ANCHOR_HORIZON, NUMERICAL_FAILURES + (InvalidDeltaError,), envelope):
        L = _estimate_lipschitz(config, field)
        cert = make_certificate(field, config.equilibrium, L, envelope,
                                _resolve_delta(config, envelope), config.p, step=config.step)
    with _stage(ANCHOR_VERIFICATION, envelope=envelope):
        report = verify_converse_certificate(cert, inputs, config.envelope_horizon, pair_flow)
    return cert, report


def _failure_report(stage_anchor: str, message: str) -> dict:
    return {"verdict": False, "failed_stage": stage_anchor, "message": message, "rows": []}


def run_certify(config: ScenarioConfig, out_dir: Path, mode: str = "exp") -> int:
    """The exponential stage sequence, or in massera mode the asymptotic one."""
    if mode not in ("exp", "massera"):
        raise ConfigError(f"mode must be 'exp' or 'massera', got {mode!r}")
    if mode == "massera" and config.massera is None:
        raise ConfigError("massera mode requires a 'massera' config section")
    field = config.system.field
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if mode == "massera":
            envelope, _ = _fit_trajectories(config, field, config.massera.fit_horizon,
                                            ANCHOR_UGAS_ENVELOPE)
            return _run_certify_massera(config, field, envelope, out_dir)
        cert, report = _certify_exponential(config, field)
    except _StageFailure as err:
        return _stage_failure(out_dir, mode, err)
    payload = {"mode": mode, "envelope": cert.envelope.to_json(),
               "certificate": cert.to_json(), "report": report.to_dict()}
    # samples.csv: the verification grid's own quantities, for its first states.
    _write_reports(out_dir, payload, report.to_text(),
                   (SAMPLES_HEADER, report.samples[:SAMPLES_CSV_ROWS].tolist()))
    return EXIT_OK if report.verdict else EXIT_CERTIFICATION_FAILED


def _run_certify_massera(config: ScenarioConfig, field, envelope: StabilityEnvelope,
                         out_dir: Path) -> int:
    if envelope.stability_class == "US":
        raise _StageFailure(ANCHOR_UGAS_ENVELOPE, "trajectories do not decay; "
                            "asymptotic construction unavailable", envelope)

    # Decay flows get slow at long horizons; a coarser integrator step keeps
    # evaluation at desk scale without touching the envelope fit.
    eval_step = max(config.step, 0.05)
    with _stage(ANCHOR_UGAS_TAIL, (HorizonError,), envelope):
        V = construct_ugas_V(field, config.equilibrium, envelope,
                             config.massera.t_max, config.massera.tail_tol, step=eval_step)
    reshaping = V.reshaping

    m = config.manifold
    x_star = config.equilibrium.coords
    rng = np.random.default_rng(config.seed)
    n_states = min(config.grid.n_points, 50)
    # The reshaping is extremely flat near the equilibrium (values below
    # 1e-12 for algebraic envelopes), so sign checks sample the outer region.
    t, x = sample_states(m, config.equilibrium, GridSpec(
        n_states, config.grid.radius, config.grid.t0_list), rng, r_min_frac=0.3)

    radii = np.linspace(0.4 * config.grid.radius, config.grid.radius, 10)
    direction = m.random_tangent(np.random.default_rng(config.seed + 3), x_star, norm=1.0)
    ray = m.exp(x_star, m.rows(radii) * direction)

    # Every V of this mode (states, Lie stencils, ray, equilibrium) in one batch.
    with _stage(ANCHOR_UGAS_EVALUATION, envelope=envelope):
        plus, minus = lie_stencil(field, t, m.project(x), LIE_H, V.step)
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
    """Certify the unforced system, then run the disturbance robustness check.

    The unforced certificate integrates the system's own field: its input
    channel acts only through :meth:`TimeVaryingField.with_input_signal`.
    """
    spec = config.system
    if spec.input_signal is None:
        raise ConfigError("iss requires a 'disturbance' config section")
    # The run's one contract scan (iss_certify reads no further), before any output.
    horizon_max = max(config.iss_horizons) + max(config.grid.t0_list)
    check_input_signal(spec.input_signal, spec.input_bound, horizon_max)

    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        certificate, base_report = _certify_exponential(config, spec.field)
        payload = {"mode": "iss", "envelope": certificate.envelope.to_json(),
                   "certificate": certificate.to_json(),
                   "unforced_report": base_report.to_dict()}
        if not base_report.verdict:
            payload["report"] = _failure_report("uges-precondition",
                                                "unforced certification failed")
            _write_reports(out_dir, payload, base_report.to_text())
            return EXIT_CERTIFICATION_FAILED
        # samples.csv: the series trajectory integrated with the robustness batch.
        with _stage(ANCHOR_ISS_ROBUSTNESS, envelope=certificate.envelope):
            iss_report = iss_certify(spec.field, config.equilibrium, certificate,
                                     spec.input_signal, spec.input_bound,
                                     config.iss_horizons, seed=config.seed,
                                     grid=config.grid, step=config.step)
    except _StageFailure as err:
        return _stage_failure(out_dir, "iss", err)
    payload["report"] = iss_report.to_dict()
    _write_reports(out_dir, payload, iss_report.to_text(),
                   (["t", "distance", "V", "u_norm"], iss_report.series.tolist()))
    return EXIT_OK if iss_report.passed else EXIT_CERTIFICATION_FAILED


def run_flow(config: ScenarioConfig, out_dir: Path) -> int:
    """Integrate one trajectory per start time and dump plot-ready CSV.

    The flow runs before ``out_dir`` exists: a flow that fails numerically
    exits 2 naming ``flow-integration`` on stderr and writes nothing.
    """
    spec = config.system
    m = config.manifold
    rng = np.random.default_rng(config.seed)
    v0 = m.random_tangent(rng, config.equilibrium.coords, norm=config.grid.radius)
    x0 = ManifoldPoint(m, m.exp(config.equilibrium.coords, v0))
    field = (spec.field.with_input_signal(spec.input_signal)
             if spec.input_signal is not None else spec.field)
    t0s = np.array(config.grid.t0_list)
    try:
        trajectories = flow(field, t0s, [x0] * len(t0s), t0s + config.fit_horizon, config.step)
    except NUMERICAL_FAILURES as err:
        print(f"error: {ANCHOR_FLOW_INTEGRATION}: {err}", file=sys.stderr)
        return EXIT_CERTIFICATION_FAILED
    out_dir.mkdir(parents=True, exist_ok=True)
    n_coords = int(np.prod(m.ambient_shape))
    header = ["t"] + [f"c{i}" for i in range(n_coords)] + ["distance"]
    for i, traj in enumerate(trajectories):
        table = np.column_stack([traj.times, traj.points.reshape(len(traj), n_coords),
                                 traj.distances_to(config.equilibrium)])
        _write_csv(out_dir / f"trajectory_{i}.csv", header, table.tolist())
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
