"""Scenario pipelines behind the CLI commands.

Each runner validates everything it needs before creating any output file
(config errors must not leave partial output), then writes reports and CSV
dumps with deterministic bytes: seeded sampling, ordered reductions, sorted
JSON keys, and no timestamps.  Each stage draws its samples up front and
integrates them as one batch; a certification's V and contraction pairs
ride its envelope fit's flow.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
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
    EnvelopeFitError,
    GridSpec,
    StabilityEnvelope,
    check_input_signal,
    classify_stability,
    draw_verification_inputs,
    iss_certify,
    iss_series_start,
    make_certificate,
    rounding_floor,
    run_geometry_suite,
    sample_states,
    verify_converse_certificate,
)
from .config import ConfigError, ScenarioConfig
from .flows import (
    GRID_TOL,
    RUNGS,
    STEP_TOL,
    DenseFlow,
    IntegrationError,
    Region,
    choose_step,
    contraction_offsets,
    flow_samples,
    lipschitz_estimate,
    step_error,
    step_offsets,
)
from .lyapunov import InvalidDeltaError, choose_delta, construct_ugas_V
from .manifolds import CutLocusError, GeometryError, manifold_from_name

logger = logging.getLogger("geolyap")

EXIT_OK = 0
EXIT_CERTIFICATION_FAILED = 2
EXIT_CONFIG_ERROR = 3
SAMPLES_CSV_ROWS = 24   # certify samples.csv: the first states of the verification grid
MAX_GEOMETRY_SAMPLES = 100_000  # verify-geometry --n
MAX_GEOMETRY_COORDS = 2_000_000  # --n x ambient size: about 300 MB of sample stacks
SAMPLES_HEADER = ["t", "distance", "V", "lie_derivative"]
# Stage anchors of the verification, the asymptotic construction, the
# robustness check and the flow command.
ANCHOR_VERIFICATION = "les-verification"
ANCHOR_UGAS_ENVELOPE = "ugas-envelope"
ANCHOR_UGAS_TAIL = "ugas-tail"
ANCHOR_UGAS_EVALUATION = "ugas-evaluation"
ANCHOR_UGES_PRECONDITION = "uges-precondition"
ANCHOR_ISS_ROBUSTNESS = "iss-robustness"
ANCHOR_FLOW_INTEGRATION = "flow-integration"
# Numerical failures inside a stage: a non-finite flow or a pair at the cut locus.
NUMERICAL_FAILURES = (IntegrationError, CutLocusError)
FLOW_TOL = 1e-6  # bound on a flow's step-doubling error per unit time at the step it takes


def _write_csv(path: Path, header: list[str], rows: list[list]):
    """The bytes ``csv.writer`` writes for float and int rows: each cell's repr,
    joined by commas, each line ended by CRLF."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())


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


def _stage_failure(out_dir: Path, payload: dict, failure: _StageFailure) -> int:
    """Reports for a run that stopped at a named stage: the payload built so
    far, with the envelope when the fit got that far (else null), no samples.csv."""
    message = f"{failure.anchor}: {failure}"
    logger.error(message)
    envelope = None if failure.envelope is None else failure.envelope.to_json()
    _write_reports(out_dir, {**payload, "envelope": envelope, "report": {
        "verdict": False, "failed_stage": failure.anchor, "message": message, "rows": []}},
        "certification FAILED\n" + message + "\n")
    return EXIT_CERTIFICATION_FAILED


def _record_step(steps: dict, anchor: str, step: float, estimate: float,
                 envelope: StabilityEnvelope | None = None) -> float:
    """Report (a non-finite estimate as null; if it meets STEP_TOL), log and return a
    step.  A step whose estimate is not at most FLOW_TOL fails the stage ``anchor``
    (a flow far beyond the step's stability limit can stay finite, and wrong)."""
    steps[anchor] = {"step": step, "estimate": estimate if math.isfinite(estimate) else None,
                     "meets_tol": estimate <= STEP_TOL}  # False for inf and nan
    logger.info("%s: step %.6g, step-doubling error estimate %.3g", anchor, step, estimate)
    if not estimate <= FLOW_TOL:
        raise _StageFailure(anchor, f"step-doubling error estimate {estimate:.3g} per unit "
                            f"time is above {FLOW_TOL:g} at step {step:g}", envelope)
    return step


def _estimate_lipschitz(config: ScenarioConfig) -> float:
    region = Region(config.equilibrium, config.grid.radius)
    estimate = lipschitz_estimate(config.system.field, region, config.grid.t0_list,
                                  n_pairs=max(64, config.grid.n_points), seed=config.seed)
    logger.info("lipschitz estimate: transport %.4f covariant %.4f",
                estimate.transport_constant, estimate.covariant_constant)
    return estimate.inflated()


def _fit_trajectories(config: ScenarioConfig, horizon: float, anchor: str, steps: dict,
                      rows: tuple, n: int):
    """The stability envelope of a seeded batch of trajectories over ``horizon``.

    This is the stage ``anchor``: one flow at the step :func:`choose_step`
    picks on the fit's rows and the first ``n`` of ``rows = (times, states)``
    (V's states), whose span also holds the :func:`contraction_offsets` of the
    envelope horizon and config step.  ``rows`` ride it, leaving the fit as is.
    Returns the envelope, the flow of ``rows`` and the pick ``(step, estimate)``.
    """
    rng = np.random.default_rng(config.seed + 1)
    m, x_star, field = config.manifold, config.equilibrium.coords, config.system.field
    t0s = np.repeat(config.grid.t0_list, max(3, min(8, config.grid.n_points // 4)))
    v = m.random_tangents(rng, x_star, len(t0s), lambda: config.grid.radius * rng.uniform(0.3, 1.0))
    x0 = m.project(m.exp(x_star, v))
    times, states = rows
    with _stage(anchor, NUMERICAL_FAILURES + (EnvelopeFitError,)):
        pick = choose_step(field, np.concatenate([t0s, times[:n]]),
                           np.concatenate([x0, states[:n]]), x_star, horizon, config.step)
        step = _record_step(steps, anchor, *pick)
        offsets = step_offsets(horizon, step)
        taus = contraction_offsets(config.envelope_horizon, config.step)
        flow = DenseFlow(field, np.concatenate([t0s, times]),
                         np.concatenate([x0, states])).advance(max(horizon, taus[-1]), step)
        fit = flow.take(slice(0, len(t0s)))(offsets)
        envelope = classify_stability(offsets, m.dist(fit, x_star), config.step,
                                      floor=rounding_floor(m, x_star))
    logger.info("stability class: %s", envelope.stability_class)
    return envelope, flow.take(slice(len(t0s), None)), pick


def _continue_for_V(config: ScenarioConfig, V, flow: DenseFlow, n: int, pick: tuple,
                    anchor: str, steps: dict, envelope: StabilityEnvelope):
    """V at the step of the flow it reads, recorded as ``anchor``: the fit's ``pick``, or,
    when V's horizon lies past the span of ``flow`` (the fit's flow of V's rows), the step
    :func:`choose_step` picks on its first ``n`` rows (V's states) for the remainder, at
    which the flow continues."""
    span = flow.nodes[-1]
    extend = V.horizon - span > GRID_TOL * pick[0]
    if extend:
        pick = choose_step(V.field, flow.t0[:n] + span, flow.states[-1][:n],
                           V.x_star.coords, V.horizon - span, config.step)
    step = _record_step(steps, anchor, *pick, envelope)
    if extend:
        flow.advance(V.horizon, step)
    return dataclasses.replace(V, step=step)


def _resolve_delta(config: ScenarioConfig, envelope: StabilityEnvelope) -> float:
    if config.delta.mode == "explicit":
        return config.delta.value
    return choose_delta(envelope.K, envelope.rate, config.delta.target)


def _certify_exponential(config: ScenarioConfig,
                         steps: dict) -> tuple[Certificate, CertificationReport]:
    """draw inputs -> fit envelope -> estimate L, construct V -> verify.

    Each stage runs once; a stage that cannot finish raises its
    :class:`_StageFailure`.  The contraction pairs and V's rows ride the fit's flow.
    """
    inputs = draw_verification_inputs(config.manifold, config.equilibrium,
                                      config.grid, config.seed)
    envelope, flow, pick = _fit_trajectories(config, config.fit_horizon, ANCHOR_ENVELOPE_FIT,
                                             steps, inputs.rows, len(inputs.x))
    if not envelope.is_exponential:
        raise _StageFailure(ANCHOR_ENVELOPE_FIT, (
            f"trajectories classify as {envelope.stability_class}, not exponentially "
            f"stable (fit residual {envelope.fit_residual:.3g})"), envelope)
    # A horizon without decay margin is rejected before verification integrates.
    with _stage(ANCHOR_HORIZON, NUMERICAL_FAILURES + (InvalidDeltaError,), envelope):
        L = _estimate_lipschitz(config)
        cert = make_certificate(config.system.field, config.equilibrium, L, envelope,
                                _resolve_delta(config, envelope), config.p)
    with _stage(ANCHOR_VERIFICATION, envelope=envelope):
        cert = dataclasses.replace(cert, V=_continue_for_V(
            config, cert.V, flow, len(inputs.x), pick, ANCHOR_VERIFICATION, steps, envelope))
        report = verify_converse_certificate(
            cert, inputs, flow, contraction_offsets(config.envelope_horizon, config.step))
    return cert, report


def run_certify(config: ScenarioConfig, out_dir: Path, mode: str = "exp") -> int:
    """The exponential stage sequence, or in massera mode the asymptotic one."""
    if mode not in ("exp", "massera"):
        raise ConfigError(f"mode must be 'exp' or 'massera', got {mode!r}")
    if mode == "massera" and config.massera is None:
        raise ConfigError("massera mode requires a 'massera' config section")
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = {}
    try:
        if mode == "massera":
            return _run_certify_massera(config, out_dir, steps)
        cert, report = _certify_exponential(config, steps)
    except _StageFailure as err:
        return _stage_failure(out_dir, {"mode": mode, "steps": steps}, err)
    payload = {"mode": mode, "envelope": cert.envelope.to_json(),
               "certificate": cert.to_json(), "report": report.to_dict(), "steps": steps}
    # samples.csv: the verification grid's own quantities, for its first states.
    _write_reports(out_dir, payload, report.to_text(),
                   (SAMPLES_HEADER, report.samples[:SAMPLES_CSV_ROWS].tolist()))
    return EXIT_OK if report.verdict else EXIT_CERTIFICATION_FAILED


def _run_certify_massera(config: ScenarioConfig, out_dir: Path, steps: dict) -> int:
    m, x_star = config.manifold, config.equilibrium.coords
    rng = np.random.default_rng(config.seed)
    n_states = min(config.grid.n_points, 50)
    # The reshaping is extremely flat near the equilibrium (values below
    # 1e-12 for algebraic envelopes), so sign checks sample the outer region.
    t, x = sample_states(m, config.equilibrium, GridSpec(
        n_states, config.grid.radius, config.grid.t0_list), rng, r_min_frac=0.3)
    radii = np.linspace(0.4 * config.grid.radius, config.grid.radius, 10)
    direction = m.random_tangent(np.random.default_rng(config.seed + 3), x_star, norm=1.0)
    ray = m.exp(x_star, m.rows(radii) * direction)
    # V's rows (states, ray, equilibrium) ride the fit's flow.
    envelope, flow, pick = _fit_trajectories(
        config, config.massera.fit_horizon, ANCHOR_UGAS_ENVELOPE, steps,
        (np.concatenate([t, np.zeros(len(ray) + 1)]), np.concatenate([x, ray, x_star[None]])),
        n_states)
    if envelope.stability_class == "US":
        raise _StageFailure(ANCHOR_UGAS_ENVELOPE, "trajectories do not decay; "
                            "asymptotic construction unavailable", envelope)

    # A HorizonError, or a decay profile the reshaping rejects (both ValueErrors).
    with _stage(ANCHOR_UGAS_TAIL, (ValueError,), envelope):
        V = construct_ugas_V(config.system.field, config.equilibrium, envelope.decay_times,
                             envelope.decay_values, config.massera.t_max,
                             config.massera.tail_tol)
    reshaping = V.reshaping
    with _stage(ANCHOR_UGAS_EVALUATION, envelope=envelope):
        V = _continue_for_V(config, V, flow, n_states, pick, ANCHOR_UGAS_EVALUATION, steps,
                            envelope)
        values, lies, _ = V.quadrature(flow)
    v_val, ray_values, v_at_star = np.split(values, [n_states, n_states + len(ray)])
    lie = lies[:n_states]
    sample_rows = np.stack([t, m.dist(x, x_star), v_val, lie], axis=1).tolist()
    v_min = float(np.min(v_val))
    lie_max = float(np.max(lie))
    v_at_star = float(v_at_star[0])

    s_probe = np.linspace(0.0, float(reshaping.s_knots[-1]), 64)
    monotone = float(min(np.diff(reshaping.value(s_probe)).min(),
                         np.diff(reshaping.derivative(s_probe)).min()))
    ray_gap = float(np.diff(ray_values).min())

    zero_val = reshaping.value(0.0)
    rows = (
        CheckRow("reshaping-zero", "massera-reshaping", 0.0, zero_val,
                 0.0 if zero_val == 0.0 else -abs(zero_val), zero_val == 0.0),
        CheckRow("reshaping-monotone", "massera-reshaping", 0.0, monotone, monotone,
                 monotone > 0),
        CheckRow("truncation-tail", "ugas-tail", config.massera.tail_tol,
                 V.tail_bound, (config.massera.tail_tol - V.tail_bound)
                 / config.massera.tail_tol, V.tail_bound <= config.massera.tail_tol),
        CheckRow("positivity", "ugas-positivity", 0.0, v_min, v_min,
                 v_min > 0.0 and abs(v_at_star) < 1e-12),
        CheckRow("decay", "ugas-decay", 0.0, lie_max, -lie_max, lie_max < 0.0),
        CheckRow("radial-monotonicity", "ugas-monotonicity", 0.0, ray_gap, ray_gap,
                 ray_gap > 0),
    )
    report = CertificationReport(rows)
    certificate = {"mode": "massera", "delta": V.horizon, "p": V.p, "tail_bound": V.tail_bound,
                   "constants": {"k1": reshaping.k1, "k2": reshaping.k2}}
    payload = {"mode": "massera", "envelope": envelope.to_json(), "certificate": certificate,
               "report": report.to_dict(), "steps": steps}
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
    steps = {}
    payload = {"mode": "iss", "steps": steps}
    try:
        certificate, base_report = _certify_exponential(config, steps)
        payload.update(envelope=certificate.envelope.to_json(), certificate=certificate.to_json(),
                       unforced_report=base_report.to_dict())
        if not base_report.verdict:
            raise _StageFailure(ANCHOR_UGES_PRECONDITION, "unforced certification failed at "
                                + ", ".join(r.name for r in base_report.rows if not r.passed),
                                certificate.envelope)
        # samples.csv: the series trajectory integrated with the robustness
        # batch, whose RK8 step is piloted on that series row alone.
        with _stage(ANCHOR_ISS_ROBUSTNESS, envelope=certificate.envelope):
            x_star = config.equilibrium.coords
            start = iss_series_start(config.manifold, x_star, config.grid.radius, config.seed)
            step = _record_step(steps, ANCHOR_ISS_ROBUSTNESS, *choose_step(
                spec.field.with_input_signal(spec.input_signal), 0.0, start[None], x_star,
                max(config.iss_horizons), config.step), certificate.envelope)
            iss_report = iss_certify(certificate, spec.input_signal, spec.input_bound,
                                     config.iss_horizons, seed=config.seed,
                                     grid=config.grid, step=step)
    except _StageFailure as err:
        return _stage_failure(out_dir, payload, err)
    payload["report"] = iss_report.to_dict()
    _write_reports(out_dir, payload, iss_report.to_text(),
                   (["t", "distance", "V", "u_norm"], iss_report.series.tolist()))
    return EXIT_OK if iss_report.passed else EXIT_CERTIFICATION_FAILED


def run_flow(config: ScenarioConfig, out_dir: Path) -> int:
    """Integrate one trajectory per start time and dump plot-ready CSV.

    The rows sit on t0 + k step, ending on the horizon, and are read from a
    flow (its nodes, or its interpolant) at the step
    :func:`choose_step` picks on those trajectories.  The flow runs before
    ``out_dir`` exists: a flow that fails numerically, or whose step-doubling
    error at the step it takes or at ``min(step, fit_horizon)`` is not at most
    FLOW_TOL, exits 2 naming ``flow-integration`` on stderr and writes nothing.
    """
    spec = config.system
    m, x_star = config.manifold, config.equilibrium.coords
    rng = np.random.default_rng(config.seed)
    v0 = m.random_tangent(rng, x_star, norm=config.grid.radius)
    t0s = np.array(config.grid.t0_list)
    x0 = m.project(np.stack([m.exp(x_star, v0)] * len(t0s)))
    field = (spec.field.with_input_signal(spec.input_signal)
             if spec.input_signal is not None else spec.field)
    offsets = step_offsets(config.fit_horizon, config.step)
    try:
        with _stage(ANCHOR_FLOW_INTEGRATION):
            step, estimate = choose_step(field, t0s, x0, x_star, config.fit_horizon, config.step)
            pts = flow_samples(field, t0s, x0, offsets, step)
        # The pick is scaled from a pilot at 64 steps, which a field far beyond that
        # step's stability limit can fool; the flow is measured where it steps and at `step`.
        # At the top rung, or when no rung passes, the pick's estimate is its pilot's own.
        measured = step == min(RUNGS[0] * config.step, config.fit_horizon) or estimate > STEP_TOL
        for h in sorted({min(config.step, config.fit_horizon), step}):
            _record_step({}, ANCHOR_FLOW_INTEGRATION, h, estimate if h == step and measured
                         else step_error(field, t0s, x0, x_star, config.fit_horizon, h))
    except _StageFailure as err:
        print(f"error: {err.anchor}: {err}", file=sys.stderr)
        return EXIT_CERTIFICATION_FAILED
    out_dir.mkdir(parents=True, exist_ok=True)
    n_coords = int(np.prod(m.ambient_shape))
    header = ["t"] + [f"c{i}" for i in range(n_coords)] + ["distance"]
    for i, t0 in enumerate(t0s):
        table = np.column_stack([t0 + offsets, pts[:, i].reshape(len(offsets), n_coords),
                                 m.dist(pts[:, i], x_star)])
        _write_csv(out_dir / f"trajectory_{i}.csv", header, table.tolist())
    return EXIT_OK


def run_verify_geometry(manifold_name: str, seed: int, n: int, out_dir: Path,
                        inject_fault: bool = False) -> int:
    """Run the geometry property suite and write its report."""
    try:
        manifold = manifold_from_name(manifold_name)
    except GeometryError as err:
        raise ConfigError(str(err)) from err
    if not 1 <= n <= MAX_GEOMETRY_SAMPLES:
        raise ConfigError(f"sample count must be between 1 and {MAX_GEOMETRY_SAMPLES}")
    coords = n * math.prod(manifold.ambient_shape)
    if coords > MAX_GEOMETRY_COORDS:
        raise ConfigError(f"{n} samples of {manifold.name} take {coords} coordinates, "
                          f"above the budget of {MAX_GEOMETRY_COORDS}")
    report = run_geometry_suite(manifold, seed, n, inject_fault=inject_fault)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"manifold": manifold.name, "seed": seed, "n": n, "report": report.to_dict(),
               "failing": [r.name for r in report.rows if not r.passed]}
    _write_reports(out_dir, payload, report.to_text())
    return EXIT_OK if report.verdict else EXIT_CERTIFICATION_FAILED
