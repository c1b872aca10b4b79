"""Per-layer microbenchmarks on public functions, with inputs drawn from the seed.

Kernel inputs stay inside the injectivity radius.  Generic so3 inputs keep
the rotation angle below 2.9, where ``log`` and ``transport`` take the
closed-form branch; the ``so3-nearpi`` sets draw angles in [2.9, pi - 1e-5),
which take the axis-recovery branch, and ``so3-svd`` feeds ``project``
generic matrices, which take the SVD branch instead of the Newton polish.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from geolyap.flows import flow
from geolyap.lyapunov import construct_exp_V
from geolyap.manifolds import ManifoldPoint, manifold_from_name
from geolyap.systems import make_system

N_INPUTS = 32
REPEATS = 5
KERNEL_MANIFOLDS = ("euclidean3", "sphere2", "so3", "hyperbolic2")
STEP_SYSTEMS = {  # manifold -> system integrated by flows.step_us.<manifold>
    "euclidean2": ("cubic_slowdown", {"gain": 1.0}),
    "sphere2": ("geodesic_attractor", {"gain": 1.0}),
    "so3": ("geodesic_attractor", {"gain": 1.0}),
    "hyperbolic2": ("geodesic_attractor", {"gain": 1.0}),
}
STEP_HORIZON = 0.5
STEP = 0.01
KERNEL_TOL = 1e-9   # exp/log round trip and transport isometry on every input
FLOW_TOL = 1e-8     # relative error of the flow endpoint distance against the oracle
V_TOL = 1e-8        # V = d0 (1 - e^{-delta}) = d0 / 2 for the geodesic attractor


def _per_call_us(calls, budget_s: float) -> float:
    """Median over REPEATS of the mean microseconds per call of ``calls``.

    ``calls`` is a list of zero-argument callables, run in order as one sweep;
    each repeat runs as many sweeps as fit in its share of the budget.
    """
    start = perf_counter()
    for c in calls:
        c()
    sweep = max(perf_counter() - start, 1e-9)
    sweeps = max(1, int(budget_s / REPEATS / sweep))
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(sweeps):
            for c in calls:
                c()
        samples.append((perf_counter() - start) / (sweeps * len(calls)) * 1e6)
    return statistics.median(samples)


def _kernel_inputs(m, rng, angle_lo, angle_hi, failures):
    """(x, v, y, w) tuples: y = exp_x(v) with |v| in [angle_lo, angle_hi), w tangent at x."""
    out = []
    for _ in range(N_INPUTS):
        x = m.project(m.random_point(rng))
        v = m.random_tangent(rng, x, norm=rng.uniform(angle_lo, angle_hi))
        w = m.random_tangent(rng, x, norm=1.0)
        y = m.exp(x, v)
        roundtrip = m.norm(x, m.log(x, y) - v)
        isometry = abs(m.norm(y, m.transport(x, y, w)) - 1.0)
        if not (roundtrip <= KERNEL_TOL and isometry <= KERNEL_TOL
                and angle_lo * (1 - KERNEL_TOL) <= m.dist(x, y) < angle_hi + KERNEL_TOL):
            failures.append(f"{m.name}: kernel check failed (round trip {roundtrip:.3g}, "
                            f"isometry {isometry:.3g})")
        out.append((x, v, y, w))
    return out


def kernel_benchmarks(rng, budget_s: float, failures: list) -> dict[str, float]:
    sets = {name: (manifold_from_name(name), 0.1, 2.5) for name in KERNEL_MANIFOLDS}
    sets["so3-nearpi"] = (manifold_from_name("so3"), 2.9, math.pi - 1e-5)
    share = budget_s / (5 * len(KERNEL_MANIFOLDS) + 3)
    out = {}
    for label, (m, lo, hi) in sets.items():
        inputs = _kernel_inputs(m, rng, lo, hi, failures)
        ops = {
            "log": [lambda x=x, y=y: m.log(x, y) for x, _, y, _ in inputs],
            "transport": [lambda x=x, y=y, w=w: m.transport(x, y, w) for x, _, y, w in inputs],
        }
        if label != "so3-nearpi":
            noisy = [x + 1e-10 * rng.standard_normal(x.shape) for x, _, _, _ in inputs]
            ops["exp"] = [lambda x=x, v=v: m.exp(x, v) for x, v, _, _ in inputs]
            ops["dist"] = [lambda x=x, y=y: m.dist(x, y) for x, _, y, _ in inputs]
            ops["project"] = [lambda p=p: m.project(p) for p in noisy]
        for op, calls in ops.items():
            out[f"manifolds.{op}_us.{label}"] = _per_call_us(calls, share)
    so3 = manifold_from_name("so3")
    generic = [rng.standard_normal((3, 3)) for _ in range(N_INPUTS)]
    for a in generic:
        r = so3.project(a)
        if np.linalg.norm(a.T @ a - np.eye(3)) < 1e-8 or so3.constraint_violation(r) > KERNEL_TOL:
            failures.append("so3-svd: input is a rotation or projection left the group")
    out["manifolds.project_us.so3-svd"] = _per_call_us(
        [lambda a=a: so3.project(a) for a in generic], share)
    return out


def _start(m, x_star, rng, radius=1.0):
    v = m.random_tangent(rng, x_star, norm=radius * rng.uniform(0.3, 1.0))
    return ManifoldPoint(m, m.exp(x_star, v))


def step_benchmarks(rng, budget_s: float, failures: list) -> dict[str, float]:
    """Microseconds per RK4 state-step through ``flow``."""
    out = {}
    n_steps = round(STEP_HORIZON / STEP)
    share = budget_s / len(STEP_SYSTEMS)
    for name, (system, params) in STEP_SYSTEMS.items():
        m = manifold_from_name(name)
        x_star = m.project(m.random_point(rng))
        spec = make_system(system, m, x_star, **params)
        starts = [(float(rng.uniform(0.0, 10.0)), _start(m, x_star, rng)) for _ in range(4)]
        calls = [lambda t0=t0, x0=x0: flow(spec.field, t0, x0, t0 + STEP_HORIZON, STEP)
                 for t0, x0 in starts]
        for t0, x0 in starts:
            traj = flow(spec.field, t0, x0, t0 + STEP_HORIZON, STEP)
            d = traj.distances_to(spec.equilibrium)
            want = spec.distance_oracle(d[0], t0, STEP_HORIZON)
            if abs(d[-1] - want) > FLOW_TOL * want:
                failures.append(f"{name}: flow endpoint distance {float(d[-1])!r}, "
                                f"oracle {float(want)!r}")
        out[f"flows.step_us.{name}"] = _per_call_us(calls, share) / n_steps
    return out


def v_eval_benchmark(rng, budget_s: float, failures: list) -> dict[str, float]:
    """Microseconds per 65-node evaluation of V on sphere2 (delta = ln 2, p = 1)."""
    m = manifold_from_name("sphere2")
    x_star = m.project(m.random_point(rng))
    spec = make_system("geodesic_attractor", m, x_star, gain=1.0)
    V = construct_exp_V(spec.field, spec.equilibrium, math.log(2.0), p=1.0, step=STEP)
    states = [(float(rng.uniform(0.0, 10.0)), _start(m, x_star, rng)) for _ in range(4)]
    for t, x in states:
        d0 = m.dist(x.coords, x_star)
        if abs(V.evaluate(t, x) - 0.5 * d0) > V_TOL:
            failures.append("sphere2: V differs from its closed form d0 / 2")
    return {"lyapunov.v_eval_us.sphere2": _per_call_us(
        [lambda t=t, x=x: V.evaluate(t, x) for t, x in states], budget_s)}


def run_all(rng: np.random.Generator, budget_s: float,
            failures: list) -> dict[str, float]:
    """Every microbenchmark metric; each failed input check is appended to ``failures``."""
    out = kernel_benchmarks(rng, 0.5 * budget_s, failures)
    out.update(step_benchmarks(rng, 0.3 * budget_s, failures))
    out.update(v_eval_benchmark(rng, 0.2 * budget_s, failures))
    return out
