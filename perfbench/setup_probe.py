"""One set-up sample, run in a fresh interpreter by ``run.py``.

Usage: python3 setup_probe.py <src dir> <scenario config>

Does what every CLI call does before any work (import ``geolyap.cli``, load
the scenario, build its system) and prints the two parts as JSON.
"""

import json
import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
import geolyap.cli  # noqa: E402,F401

imported = perf_counter()
from geolyap.config import load_scenario  # noqa: E402

load_scenario(sys.argv[2]).build_system()
loaded = perf_counter()
print(json.dumps({"import_s": imported - start, "load_s": loaded - imported}))
