"""One pass over a scenario list in a fresh interpreter, started by ``run.py``.

Usage: python3 worker.py <job.json>

The job names the source directory, the CLI argument lists, whether to trace,
and where to write the spans.  The pass time is the sum of the
``geolyap.cli.main`` calls, each timed until it returns with its reports on
disk; importing the library is set-up and stays outside.  Prints one JSON line
with the pass time, each call's exit code or error and seconds, the process's
peak resident memory and, when traced, the per-layer totals.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main():
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])
    from geolyap.cli import main as cli_main

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    run_s = 0.0
    for run_id, argv in job["scenarios"]:
        if tracer is not None:
            tracer.run_id = run_id
        call_start = perf_counter()
        try:
            rc, error = cli_main(argv), None
        except (Exception, SystemExit) as err:  # a failed call is counted, never fatal
            rc, error = None, f"{type(err).__name__}: {err}"
        call_s = perf_counter() - call_start
        run_s += call_s
        results.append([rc, error, call_s])
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        Path(job["trace_out"]).write_text(json.dumps(
            {"columns": ["id", "name", "start", "end", "parent", "run"],
             "spans": tracer.spans(), **layers}))
    print(json.dumps({"run_s": run_s, "results": results, "layers": layers,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))


if __name__ == "__main__":
    main()
