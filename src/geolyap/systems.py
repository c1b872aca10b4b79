"""Registry of built-in test systems.

Every registered system declares its equilibrium and, when one exists, a
closed-form oracle for the distance to the equilibrium along the flow
(signature ``oracle(d0, t0, elapsed)``).  Fields are batched: ``rhs(t, X)``
takes states ``(..., *ambient_shape)`` and a scalar or per-row time.
Disturbed variants add an input channel u acting through an orthonormal
tangent frame, transported from the equilibrium, so the input Lipschitz
constant is exactly one per frame coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .flows import TimeVaryingField
from .manifolds import GeometryError, Manifold, ManifoldPoint

INPUT_CHANNELS = 2  # frame coefficients a disturbance drives


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A registered system plus its test metadata."""

    name: str
    field: TimeVaryingField
    equilibrium: ManifoldPoint
    distance_oracle: Callable[[float, float, float], float] | None = None
    input_signal: Callable[[float], np.ndarray] | None = None
    input_bound: float | None = None


_BUILDERS: dict[str, Callable[..., SystemSpec]] = {}


def register_system(name: str):
    def decorator(fn):
        _BUILDERS[name] = fn
        return fn
    return decorator


def available_systems() -> list[str]:
    return sorted(_BUILDERS)


def make_system(name: str, manifold: Manifold, equilibrium, **params) -> SystemSpec:
    if name not in _BUILDERS:
        raise KeyError(f"unknown system {name!r}; available: {available_systems()}")
    return _BUILDERS[name](manifold, equilibrium, **params)


@register_system("geodesic_attractor")
def geodesic_attractor(manifold: Manifold, equilibrium, gain: float = 1.0) -> SystemSpec:
    """Pulls every state toward the equilibrium along the minimizing geodesic
    at a rate proportional to distance, so d(t) = e^{-gain t} d(0) exactly."""
    x_star = manifold.point(equilibrium)

    def rhs(t, coords: np.ndarray) -> np.ndarray:
        return gain * manifold.log(coords, x_star.coords)

    field = TimeVaryingField(manifold, rhs)
    return SystemSpec("geodesic_attractor", field, x_star,
                      distance_oracle=lambda d0, t0, s: d0 * math.exp(-gain * s))


@register_system("time_varying_attractor")
def time_varying_attractor(manifold: Manifold, equilibrium, base_gain: float = 1.5,
                           amplitude: float = 0.5) -> SystemSpec:
    """Geodesic attractor with oscillating gain base_gain + amplitude sin t.

    The distance obeys d' = -(base_gain + amplitude sin t) d, integrable in
    closed form, with uniform decay rate base_gain - amplitude.
    """
    if amplitude >= base_gain:
        raise ValueError("amplitude must stay below the base gain for uniform decay")
    x_star = manifold.point(equilibrium)

    def rhs(t, coords: np.ndarray) -> np.ndarray:
        rate = manifold.rows(base_gain + amplitude * np.sin(t))
        return rate * manifold.log(coords, x_star.coords)

    def oracle(d0: float, t0: float, s: float) -> float:
        integral = base_gain * s - amplitude * (math.cos(t0 + s) - math.cos(t0))
        return d0 * math.exp(-integral)

    field = TimeVaryingField(manifold, rhs)
    return SystemSpec("time_varying_attractor", field, x_star, distance_oracle=oracle)


@register_system("cubic_slowdown")
def cubic_slowdown(manifold: Manifold, equilibrium, gain: float = 1.0) -> SystemSpec:
    """Attractor with cubic slowdown: d' = -gain d^3, so the decay is
    algebraic (asymptotically but not exponentially stable)."""
    x_star = manifold.point(equilibrium)

    def rhs(t, coords: np.ndarray) -> np.ndarray:
        w = manifold.log(coords, x_star.coords)  # d(x, x*) = |w|
        return manifold.rows(gain * manifold.inner(coords, w, w)) * w

    def oracle(d0: float, t0: float, s: float) -> float:
        return 1.0 / math.sqrt(2.0 * gain * s + 1.0 / (d0 * d0))

    field = TimeVaryingField(manifold, rhs)
    return SystemSpec("cubic_slowdown", field, x_star, distance_oracle=oracle)


@register_system("isometric_rotation")
def isometric_rotation(manifold: Manifold, equilibrium, rate: float = 1.0) -> SystemSpec:
    """Rigid rotation of the sphere about the equilibrium axis: the flow is
    an isometry, so distances to the equilibrium are constant (stable but
    not asymptotically)."""
    if manifold.name != "sphere2":
        raise GeometryError("isometric_rotation is defined on sphere2")
    x_star = manifold.point(equilibrium)
    a0, a1, a2 = x_star.coords

    def rhs(t, coords: np.ndarray) -> np.ndarray:
        # axis x coords, written out: np.cross's generic broadcasting costs
        # twice as much on a batch, for the same bits.
        x0, x1, x2 = coords[..., 0], coords[..., 1], coords[..., 2]
        return rate * np.stack([a1 * x2 - a2 * x1, a2 * x0 - a0 * x2, a0 * x1 - a1 * x0],
                               axis=-1)

    field = TimeVaryingField(manifold, rhs)
    return SystemSpec("isometric_rotation", field, x_star,
                      distance_oracle=lambda d0, t0, s: d0)


def frame_input_channel(base_field: TimeVaryingField, n_channels: int, x_star: np.ndarray):
    """Input map u -> sum_i u_i e_i(x) over an orthonormal basis at ``x_star``
    parallel-transported to x, a frame smooth off the cut locus of ``x_star``.

    ``u`` holds one coefficient vector shared by all rows, or one per row.
    The frame vectors are tangent, so the sum is a tangent ``rhs`` whenever
    the base field's ``rhs``, which it composes, is one.
    """
    m = base_field.manifold
    if n_channels > m.dim:
        raise ValueError(f"{m.name} supports at most {m.dim} input channels")
    frame_axis = -1 - len(m.ambient_shape)
    basis = m.tangent_basis(x_star)[:n_channels]

    def input_rhs(t, coords: np.ndarray, u: np.ndarray) -> np.ndarray:
        k = min(n_channels, np.shape(u)[-1])
        frame = m.transport(x_star, np.expand_dims(coords, frame_axis), basis[:k])
        return base_field.rhs(t, coords) + np.vecdot(m.rows(u[..., :k]), frame, axis=frame_axis)

    return input_rhs


def make_disturbance_signal(profile: str, amplitude: float, n_channels: int,
                            frequency: float = 1.0,
                            direction=None) -> Callable[[float], np.ndarray]:
    """Bounded disturbance signals with |u(t)| equal to the amplitude.

    "constant" keeps a fixed coefficient direction; "sinusoid" rotates the
    coefficients at the given frequency (constant norm either way, so the
    declared bound is attained, not just dominated).  Signals take a scalar
    time or per-row times.
    """
    if profile == "constant":
        if direction is None:
            direction = np.zeros(n_channels)
            direction[0] = 1.0
        direction = np.asarray(direction, dtype=float)
        if direction.shape != (n_channels,):
            raise ValueError(f"direction needs {n_channels} coefficients, got {direction.size}")
        nrm = float(np.linalg.norm(direction))
        if nrm == 0.0:
            raise ValueError("direction must be nonzero")
        u0 = amplitude * direction / nrm
        return lambda t: u0
    if profile == "sinusoid":
        if n_channels < 2:
            raise ValueError("sinusoid profile needs two input channels")

        def signal(t) -> np.ndarray:
            u = np.zeros(np.shape(t) + (n_channels,))
            u[..., 0] = np.cos(frequency * t)
            u[..., 1] = np.sin(frequency * t)
            return amplitude * u

        return signal
    raise ValueError(f"unknown disturbance profile {profile!r}")


def attach_disturbance(spec: SystemSpec, profile: str, amplitude: float,
                       bound: float | None = None, frequency: float = 1.0,
                       direction=None) -> SystemSpec:
    """Return a copy of the system with an INPUT_CHANNELS-channel input and a bounded signal."""
    field = TimeVaryingField(
        spec.field.manifold,
        spec.field.rhs,
        input_rhs=frame_input_channel(spec.field, INPUT_CHANNELS, spec.equilibrium.coords),
    )
    signal = make_disturbance_signal(profile, amplitude, INPUT_CHANNELS, frequency, direction)
    return replace(spec, field=field, input_signal=signal,
                   input_bound=amplitude if bound is None else bound)
