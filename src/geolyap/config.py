"""Scenario configuration files (JSON, schema_version 1).

Configs reference built-in systems by registry name; formulas are never
embedded in config files, which keeps runs auditable.  Validation is strict:
unknown keys, missing registry names, non-finite numbers and out-of-range
radii are rejected before any output is produced, and the system (with its
disturbance) is built once at load, so bad parameters are config errors too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .certify import GridSpec
from .manifolds import GeometryError, Manifold, ManifoldPoint, manifold_from_name
from .systems import SystemSpec, attach_disturbance, available_systems, make_system

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Scenario configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class DeltaPolicy:
    """Horizon policy: an explicit delta or an auto-chosen decay margin."""

    mode: str                    # "explicit" | "auto"
    value: float | None = None   # explicit horizon
    target: float | None = None  # auto: target K' in (0, 1)


@dataclass(frozen=True)
class MasseraConfig:
    t_max: float
    fit_horizon: float
    tail_tol: float = 1e-8


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A validated scenario; ``system`` is built at load, with the
    disturbance's input channel and signal attached when the config has one."""

    manifold: Manifold
    system: SystemSpec
    equilibrium: ManifoldPoint
    delta: DeltaPolicy
    p: float
    grid: GridSpec
    seed: int
    step: float
    fit_horizon: float
    envelope_horizon: float = 3.0
    massera: MasseraConfig | None = None
    iss_horizons: tuple[float, ...] = (8.0, 12.0)

    def build_system(self) -> SystemSpec:
        return self.system


def _require_keys(data: dict, allowed: set[str], context: str):
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")


def _get(data: dict, key: str, types, context: str, default=None, required=False):
    if key not in data:
        if required:
            raise ConfigError(f"missing required {context} key: {key!r}")
        return default
    value = data[key]
    # JSON true/false are not numbers, though Python's bool is an int.
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{context} key {key!r} has wrong type {type(value).__name__}")
    return value


def _floats(data: dict, key: str, context: str, default):
    """A list of numbers as a tuple of floats (``default`` when the key is absent)."""
    values = _get(data, key, list, context, default=default)
    if values is None:
        return None
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ConfigError(f"{context} key {key!r} must be a list of numbers")
    return tuple(float(v) for v in values)


def _reject_non_finite(value, where: str):
    """JSON's NaN and Infinity literals are config errors wherever they appear."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value}")
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        _reject_non_finite(item, f"{where}[{key!r}]")


def parse_scenario(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("scenario config must be a JSON object")
    _reject_non_finite(data, "config")
    _require_keys(data, {
        "schema_version", "manifold", "system", "equilibrium", "delta", "p",
        "grids", "seed", "step", "fit_horizon", "envelope_horizon", "massera",
        "disturbance", "iss_horizons",
    }, "top-level")
    version = _get(data, "schema_version", int, "top-level", required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}; expected {SCHEMA_VERSION}")

    try:
        manifold = manifold_from_name(_get(data, "manifold", str, "top-level", required=True))
    except GeometryError as err:
        raise ConfigError(str(err)) from err

    system = _get(data, "system", dict, "top-level", required=True)
    _require_keys(system, {"name", "params"}, "system")
    system_name = _get(system, "name", str, "system", required=True)
    if system_name not in available_systems():
        raise ConfigError(
            f"unknown system {system_name!r}; available: {available_systems()}")
    system_params = _get(system, "params", dict, "system", default={})
    for key, value in system_params.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"system param {key!r} must be a number, got {json.dumps(value)}")

    eq_raw = _get(data, "equilibrium", list, "top-level", required=True)
    try:
        equilibrium = manifold.point(eq_raw)
    except (GeometryError, ValueError) as err:
        raise ConfigError(f"bad equilibrium coordinates: {err}") from err

    delta_raw = _get(data, "delta", dict, "top-level", required=True)
    _require_keys(delta_raw, {"policy", "value", "target"}, "delta")
    policy = _get(delta_raw, "policy", str, "delta", required=True)
    if policy == "explicit":
        value = _get(delta_raw, "value", (int, float), "delta", required=True)
        if value <= 0:
            raise ConfigError("explicit delta must be positive")
        delta = DeltaPolicy("explicit", value=float(value))
    elif policy == "auto":
        target = _get(delta_raw, "target", (int, float), "delta", required=True)
        if not 0.0 < target < 1.0:
            raise ConfigError("auto delta target must lie in (0, 1)")
        delta = DeltaPolicy("auto", target=float(target))
    else:
        raise ConfigError(f"delta policy must be 'explicit' or 'auto', got {policy!r}")

    p = float(_get(data, "p", (int, float), "top-level", default=2.0))
    if p < 1.0:
        raise ConfigError(f"power p must be >= 1, got {p}")

    grids = _get(data, "grids", dict, "top-level", required=True)
    _require_keys(grids, {"n_points", "radius", "t0_list"}, "grids")
    n_points = _get(grids, "n_points", int, "grids", required=True)
    radius = float(_get(grids, "radius", (int, float), "grids", required=True))
    t0_list = _floats(grids, "t0_list", "grids", [0.0, 1.0, math.e, 10.0])
    if n_points < 1 or radius <= 0 or not t0_list:
        raise ConfigError("grids need n_points >= 1, radius > 0, nonempty t0_list")
    if radius >= manifold.cut_locus_radius:
        raise ConfigError(
            f"grid radius {radius} reaches the cut-locus bound of {manifold.name}")

    seed = _get(data, "seed", int, "top-level", default=0)
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    step = float(_get(data, "step", (int, float), "top-level", default=1e-2))
    if step <= 0:
        raise ConfigError("step must be positive")
    fit_horizon = float(_get(data, "fit_horizon", (int, float), "top-level", default=6.0))
    if fit_horizon <= 0:
        raise ConfigError("fit_horizon must be positive")
    envelope_horizon = float(_get(data, "envelope_horizon", (int, float),
                                  "top-level", default=3.0))
    if envelope_horizon <= 0:
        raise ConfigError("envelope_horizon must be positive")

    massera = None
    if data.get("massera") is not None:
        mdata = _get(data, "massera", dict, "top-level")
        _require_keys(mdata, {"t_max", "fit_horizon", "tail_tol"}, "massera")
        massera = MasseraConfig(
            t_max=float(_get(mdata, "t_max", (int, float), "massera", required=True)),
            fit_horizon=float(_get(mdata, "fit_horizon", (int, float), "massera", required=True)),
            tail_tol=float(_get(mdata, "tail_tol", (int, float), "massera", default=1e-8)),
        )
        if massera.t_max <= 0 or massera.fit_horizon < massera.t_max:
            raise ConfigError("massera needs 0 < t_max <= fit_horizon")
        if massera.tail_tol <= 0:
            raise ConfigError("massera tail_tol must be positive")

    iss_horizons = _floats(data, "iss_horizons", "top-level", [8.0, 12.0])
    if any(t <= 0 for t in iss_horizons) or not iss_horizons:
        raise ConfigError("iss_horizons must be positive")

    try:
        system = make_system(system_name, manifold, equilibrium.coords, **system_params)
    except (TypeError, ValueError) as err:  # unknown or out-of-range parameters
        raise ConfigError(f"cannot build system {system_name!r} from params "
                          f"{system_params}: {err}") from err

    if data.get("disturbance") is not None:
        ddata = _get(data, "disturbance", dict, "top-level")
        _require_keys(ddata, {"profile", "amplitude", "bound", "frequency",
                              "direction"}, "disturbance")
        amplitude = float(_get(ddata, "amplitude", (int, float), "disturbance", required=True))
        if amplitude < 0:
            raise ConfigError("disturbance amplitude must be nonnegative")
        profile = _get(ddata, "profile", str, "disturbance", required=True)
        bound = float(_get(ddata, "bound", (int, float), "disturbance", default=amplitude))
        frequency = float(_get(ddata, "frequency", (int, float), "disturbance", default=1.0))
        direction = _floats(ddata, "direction", "disturbance", None)
        try:
            system = attach_disturbance(system, profile, amplitude, bound, frequency, direction)
        except ValueError as err:  # unknown profile, bad direction, too few dimensions
            raise ConfigError(f"cannot attach disturbance to {system_name!r}: {err}") from err
    return ScenarioConfig(manifold, system, equilibrium, delta, p,
                          GridSpec(n_points, radius, t0_list), seed, step, fit_horizon,
                          envelope_horizon, massera, iss_horizons)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return parse_scenario(data)
