"""geolyap benchmark: time to verdict of CLI scenarios, per-layer numbers, traced run.

Usage:
  python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --write-spec

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics:
set-up samples in fresh interpreters, then passes over the workload's
scenario list, each pass in a fresh worker process, until ``--seconds`` is
spent (at least MIN_PASSES).  ``--trace 1`` measures the per-layer metrics:
set-up samples, microbenchmarks, one untraced and one traced pass of the
workload, and one traced pass of every other workload, so that every layer
is exercised; spans go to ``perfbench/out/``.  Every scenario's output is
checked, and repeated passes at one seed must write identical bytes.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--write-spec`` rewrites
``BENCHMARK.json`` from the tables below.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from scenarios import make_workload, output_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

RUN_SECONDS = 60
MIN_PASSES = 3
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
MICRO_SHARE = 0.15  # share of --seconds given to microbenchmarks in a traced run

WORKLOAD_WHY = {
    "certify-grid": "certify on sphere2, so3 and hyperbolic2 grids, iss with --workers 2 and "
                    "certify --mode massera: every pipeline on state grids, where batching shows",
    "scalar-path": "flow on each shipped config and verify-geometry on four manifolds: "
                   "one point at a time, the control where batching should change nothing",
}
# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
KERNEL_LABELS = ("euclidean3", "sphere2", "so3", "hyperbolic2")
# name, unit; lower is better for all of them
PER_LAYER = (
    [(f"manifolds.{op}_us.{m}", "us") for op in ("exp", "log", "dist", "transport", "project")
     for m in KERNEL_LABELS]
    + [("manifolds.log_us.so3-nearpi", "us"), ("manifolds.transport_us.so3-nearpi", "us"),
       ("manifolds.project_us.so3-svd", "us"), ("manifolds.op_calls", "count")]
    + [(f"flows.step_us.{m}", "us") for m in ("euclidean2", "sphere2", "so3", "hyperbolic2")]
    + [("flows.field_evals", "count")]
    + [(f"flows.{n}_s", "s") for n in ("flow", "flow_samples", "lie_derivative",
                                       "pushforward", "contraction", "lipschitz")]
    + [("systems.field_eval_s", "s"),
       ("lyapunov.v_eval_us.sphere2", "us"), ("lyapunov.v_evals", "count"),
       ("lyapunov.v_eval_s", "s"), ("lyapunov.massera_G_s", "s"),
       ("certify.fit_s", "s"), ("certify.verify_s", "s"), ("certify.iss_s", "s"),
       ("certify.geometry_suite_s", "s"), ("certify.make_certificate_calls", "count"),
       ("pipeline.fit_stage_s", "s"), ("pipeline.post_verify_s", "s"),
       ("pipeline.self_s", "s"), ("cli.import_s", "s"), ("config.load_s", "s"),
       ("trace_overhead_frac", "ratio")]
)
# per-layer metric -> span name whose self time (``_s``) or call count it reports
TRACED_SELF = {
    "flows.flow_s": "flows.flow", "flows.flow_samples_s": "flows.flow_samples",
    "flows.lie_derivative_s": "flows.lie_derivative", "flows.pushforward_s": "flows.pushforward",
    "flows.contraction_s": "flows.contraction", "flows.lipschitz_s": "flows.lipschitz",
    "systems.field_eval_s": "systems.field_eval", "lyapunov.v_eval_s": "lyapunov.v_eval",
    "lyapunov.massera_G_s": "lyapunov.massera_G", "certify.fit_s": "certify.fit",
    "certify.verify_s": "certify.verify", "certify.iss_s": "certify.iss",
    "certify.geometry_suite_s": "certify.geometry_suite", "pipeline.self_s": "pipeline.run",
}
TRACED_CALLS = {
    "manifolds.op_calls": "manifolds.op_calls", "flows.field_evals": "systems.field_eval",
    "lyapunov.v_evals": "lyapunov.v_eval",
    "certify.make_certificate_calls": "certify.make_certificate",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


def write_spec():
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_child(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(config: Path) -> dict[str, list[float]]:
    """Wall seconds of fresh interpreters that import the CLI and load a scenario.

    The first run only warms the file cache and byte-code, and is discarded.
    """
    samples = {"setup_s": [], "cli.import_s": [], "config.load_s": []}
    for i in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        parts = run_child([str(HERE / "setup_probe.py"), str(SRC), str(config)])
        wall = perf_counter() - start
        if i:
            samples["setup_s"].append(wall)
            samples["cli.import_s"].append(parts["import_s"])
            samples["config.load_s"].append(parts["load_s"])
    return samples


class Workload:
    """A workload's scenarios, their output directories and the checks of every pass."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.dir = work / name
        self.dir.mkdir(parents=True)
        self.scenarios = make_workload(name, seed)
        for sc in self.scenarios:
            sc.write_config(self.dir)
        self.digests: dict[str, str] = {}
        self.call_s: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @property
    def setup_config(self) -> Path:
        return next(sc.config_path for sc in self.scenarios if sc.config_path is not None)

    def run_pass(self, trace_out: Path | None = None) -> dict:
        """One pass in a worker process; checks every scenario's output afterwards."""
        outs = [self.dir / "out" / sc.label for sc in self.scenarios]
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        job = {"src": str(SRC), "trace": trace_out is not None,
               "trace_out": str(trace_out) if trace_out else None,
               "scenarios": [[f"{self.name}/{sc.label}", sc.command(out)]
                             for sc, out in zip(self.scenarios, outs)]}
        job_path = self.dir / "job.json"
        job_path.write_text(json.dumps(job))
        result = run_child([str(HERE / "worker.py"), str(job_path)])
        for sc, out, (rc, error, seconds) in zip(self.scenarios, outs, result["results"]):
            self.call_s.setdefault(sc.label, []).append(seconds)
            self.attempted += 1
            try:
                if error is not None:
                    raise RuntimeError(f"raised {error}")
                sc.check(rc, out)
                digest = output_digest(out)
                if self.digests.setdefault(sc.label, digest) != digest:
                    raise RuntimeError("outputs differ from an earlier pass at the same seed")
            except Exception as err:  # any miss counts as a failed run; the pass goes on
                self.failed += 1
                self.failures.append(f"{self.name}/{sc.label}: {err}")
        return result


def run_untraced(wl: Workload, seconds: float) -> dict[str, list[float]]:
    """Passes until the next one would overrun ``seconds`` (at least MIN_PASSES).

    ``run_s`` has one value: the sum over scenarios of each one's median call
    time.  Taking the median per scenario filters the host's bursts of
    slowness call by call, where a median of whole passes would keep any
    burst that hits a pass.
    """
    samples = {"pass_s": [], "peak_rss_mb": []}
    walls = []
    start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - start + statistics.median(walls) <= seconds:
        t = perf_counter()
        result = wl.run_pass()
        walls.append(perf_counter() - t)
        samples["pass_s"].append(result["run_s"])
        samples["peak_rss_mb"].append(result["peak_rss_mb"])
    samples["run_s"] = [sum(statistics.median(v) for v in wl.call_s.values())]
    samples.update({f"call_s.{label}": v for label, v in wl.call_s.items()})
    return samples


def run_traced(wl: Workload, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    """Per-layer metrics and their raw samples: microbenchmarks, then traced passes.

    The microbenchmarks' input checks count as one more attempted run.
    """
    sys.path.insert(0, str(SRC))
    import numpy as np
    import micro

    setup = measure_setup(wl.setup_config)
    failures: list[str] = []
    metrics = micro.run_all(np.random.default_rng([seed, 99]), MICRO_SHARE * seconds, failures)
    wl.attempted += 1
    wl.failed += bool(failures)
    wl.failures.extend(f"microbenchmarks: {f}" for f in failures)

    untraced = wl.run_pass()["run_s"]
    layers = []
    others = [Workload(n, seed, work) for n in WORKLOAD_WHY if n != wl.name]
    for w in [wl] + others:
        trace_out = OUT / f"trace-{wl.name}-seed{seed}-{w.name}.json"
        layers.append(w.run_pass(trace_out))
    for w in others:
        wl.attempted += w.attempted
        wl.failed += w.failed
        wl.failures.extend(w.failures)

    metrics["trace_overhead_frac"] = layers[0]["run_s"] / untraced - 1.0
    for metric, span in TRACED_SELF.items():
        metrics[metric] = sum(r["layers"]["self_s"].get(span, 0.0) for r in layers)
    for metric, span in TRACED_CALLS.items():
        metrics[metric] = sum(r["layers"]["calls"].get(span, 0) for r in layers)
    metrics["pipeline.fit_stage_s"] = sum(r["layers"]["fit_stage_s"] for r in layers)
    metrics["pipeline.post_verify_s"] = sum(r["layers"]["post_verify_s"] for r in layers)
    for name in ("cli.import_s", "config.load_s"):
        metrics[name] = statistics.median(setup[name])
    missing = sorted({m for r in layers for m in r["layers"]["missing"]})
    if missing:
        print(f"note: not traced (attribute not found): {', '.join(missing)}")
    samples = {k: v for k, v in setup.items() if k != "setup_s"}
    samples["untraced_run_s"] = [untraced]
    samples["traced_run_s"] = [r["run_s"] for r in layers]
    return metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / f"work-{os.getpid()}"
    try:
        wl = Workload(name, seed, work)
        if trace:
            metrics, samples = run_traced(wl, seed, seconds, work)
            units = dict(PER_LAYER)
        else:
            samples = measure_setup(wl.setup_config)
            samples.update(run_untraced(wl, seconds))
            metrics = {m: statistics.median(samples[m]) for m, *_ in END_TO_END}
            units = {m: u for m, u, *_ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "environment": environment(),
        "samples": samples, "failures": wl.failures,
        "correct": wl.failed == 0, "attempted": wl.attempted, "failed": wl.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict):
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}")
    for key, value in result["environment"].items():
        print(f"   {key}: {value}")
    for name, samples in result["samples"].items():
        q1, med, q3 = quartiles(samples)
        print(f"   {name:<24} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples)}")
    for name, m in result["metrics"].items():
        print(f"   {name:<36} {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"   failed_frac {failed / attempted:.6g} ({failed} of {attempted} runs)")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_WHY, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json from the metric tables and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "geolyap" / "cli.py").is_file():
        print(f"error: no geolyap sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOAD_WHY) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
