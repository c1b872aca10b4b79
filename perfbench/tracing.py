"""Span tracer for the traced run, kept apart from the timed runs.

The library is not edited: functions are wrapped at the module or class
attribute where their callers look them up, and restored afterwards.  Spans
(id, name, start, end, parent id, run id) and counts stay in memory until the
benchmark writes them out.  A span's self time is its duration minus the time
its child spans cover; call counts skip a call made directly inside a span of
the same name (the time-reversed field of the Lie derivative calls the
forward field's ``eval_raw``).  State is per thread, so the ``--workers``
thread pool keeps its own stacks: its spans have no parent, and the spans
that wait for the pool count the wait as self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter

# span name -> (module or class, attribute) lookups that get wrapped.
SPAN_TARGETS = {
    "pipeline.run": [("geolyap.cli", "run_certify"), ("geolyap.cli", "run_iss"),
                     ("geolyap.cli", "run_flow"), ("geolyap.cli", "run_verify_geometry")],
    "flows.flow": [("geolyap.pipeline", "flow")],
    "certify.fit": [("geolyap.pipeline", "classify_stability")],
    "flows.lipschitz": [("geolyap.pipeline", "lipschitz_estimate")],
    "certify.verify": [("geolyap.pipeline", "verify_converse_certificate")],
    "certify.make_certificate": [("geolyap.pipeline", "make_certificate"),
                                 ("geolyap.certify", "make_certificate")],
    "certify.iss": [("geolyap.pipeline", "iss_certify")],
    "certify.geometry_suite": [("geolyap.pipeline", "run_geometry_suite")],
    "lyapunov.massera_G": [("geolyap.pipeline", "massera_G"), ("geolyap.lyapunov", "massera_G")],
    "flows.contraction": [("geolyap.certify", "contraction_envelope_check")],
    "flows.flow_samples": [("geolyap.certify", "flow_samples"),
                           ("geolyap.lyapunov", "flow_samples"),
                           ("geolyap.flows", "flow_samples")],
    "flows.pushforward": [("geolyap.certify", "pushforward")],
    "flows.lie_derivative": [("geolyap.lyapunov", "timed_lie_derivative"),
                             ("geolyap.certify", "timed_lie_derivative")],
    "lyapunov.v_eval": [("geolyap.lyapunov:LyapunovFunction", "_evaluate_raw")],
    "systems.field_eval": [("geolyap.flows:TimeVaryingField", "eval_raw")],
}
# Spans too frequent to keep one record each; their time and counts still add up.
UNRECORDED = {"systems.field_eval"}
MANIFOLD_CLASSES = ("Euclidean", "Sphere", "SpecialOrthogonal3", "Hyperbolic2")
MANIFOLD_OPS = ("exp", "log", "dist", "transport", "project")
OP_COUNTER = "manifolds.op_calls"
CERTIFY_CALLS = ("certify.verify", "certify.make_certificate", "certify.iss")


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.run_id = None
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "spans": [], "self_s": defaultdict(float),
                     "calls": defaultdict(int)}
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def _span(self, name: str, fn):
        tracer = self
        record = name not in UNRECORDED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state["stack"]
            parent = stack[-1] if stack else None
            # frame: [child seconds, span id (or the nearest recorded ancestor's), name]
            frame = [0.0, next(tracer._ids) if record else (parent[1] if parent else None), name]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                run = tracer.run_id
                state["self_s"][run, name] += duration - frame[0]
                if parent is None or parent[2] != name:
                    state["calls"][run, name] += 1
                if record:
                    state["spans"].append((frame[1], name, start, end,
                                           parent[1] if parent else None, run))

        return traced

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._state()["calls"][tracer.run_id, name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, target: str, attr: str, wrap):
        try:
            owner = _resolve(target)
        except (ImportError, AttributeError):
            self.missing.append(f"{target}.{attr}")
            return
        if attr not in vars(owner):
            self.missing.append(f"{target}.{attr}")
            return
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self):
        for name, targets in SPAN_TARGETS.items():
            for target, attr in targets:
                self._patch(target, attr, functools.partial(self._span, name))
        for cls in MANIFOLD_CLASSES:
            for op in MANIFOLD_OPS:
                self._patch(f"geolyap.manifolds:{cls}", op,
                            functools.partial(self._counter, OP_COUNTER))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def spans(self) -> list[tuple]:
        return sorted(s for state in self._threads for s in state["spans"])

    def totals(self, key: str) -> dict:
        """``self_s`` or ``calls`` per (run id, name), summed over threads."""
        out = defaultdict(float if key == "self_s" else int)
        for state in self._threads:
            for k, v in state[key].items():
                out[k] += v
        return dict(out)

    def by_name(self, key: str) -> dict:
        out = defaultdict(float if key == "self_s" else int)
        for (_, name), v in self.totals(key).items():
            out[name] += v
        return dict(out)

    def stage_seconds(self) -> tuple[float, float]:
        """(fit stage, post-verify stage) seconds summed over pipeline runs.

        The fit stage runs from the start of a pipeline run until its first
        ``classify_stability`` returns.  The post-verify stage runs from the
        end of its last certify call (verify, make_certificate, iss) until the
        pipeline run returns with its reports written.
        """
        spans = self.spans()
        fit = post = 0.0
        for _, name, start, end, _, run in spans:
            if name != "pipeline.run":
                continue
            inside = [s for s in spans if s[5] == run and start <= s[2] and s[3] <= end]
            fits = [s[3] for s in inside if s[1] == "certify.fit"]
            if fits:
                fit += min(fits) - start
            certs = [s[3] for s in inside if s[1] in CERTIFY_CALLS]
            if certs:
                post += end - max(certs)
        return fit, post

    def summary(self) -> dict:
        """Per-name totals, stage seconds, per-run breakdown and unpatched targets."""
        fit, post = self.stage_seconds()
        by_run: dict = {}
        for key in ("self_s", "calls"):
            for (run, name), v in self.totals(key).items():
                by_run.setdefault(str(run), {}).setdefault(key, {})[name] = v
        return {"self_s": self.by_name("self_s"), "calls": self.by_name("calls"),
                "fit_stage_s": fit, "post_verify_s": post, "by_run": by_run,
                "missing": self.missing}
