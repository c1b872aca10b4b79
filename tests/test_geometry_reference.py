"""Reference-report gate for the geometry property suite.

``data/geometry_reference.json`` holds ``run_geometry_suite(...).to_dict()``
for six manifolds at three seeds and two sample counts, plus one run with the
fault injected.  The values were written by the suite that drew and mapped
its samples one point at a time; the suite now draws in the same generator
order and maps each sample stack in one batch, so every report must match the
file exactly.  The hyperbolic2 cases were rewritten when its tangent draws
became isotropic in the metric (the normals' spatial part at the origin,
transported to each point), which moves every drawn tangent.  The
``first-variation-order`` rows were rewritten when the row became the closed
form of the first variation of distance (the central difference of
d(x, exp_y(+/-h w)) over 2h against -<log_y(x) / d, w>_y) in place of a
256-chord arc-length framework: every other row kept its bytes, and each
ratio moved by at most 1.5e-8.  Against the ratio evaluated in 50-digit
arithmetic on the same float64 draws (euclidean, sphere and hyperbolic2
cases), the new values are within 8.8e-11 and the old ones were within
1.5e-8.  ``python tests/test_geometry_reference.py --write`` rewrites the
file from the current code.
"""

import json
import sys
from pathlib import Path

import pytest

from geolyap.certify import run_geometry_suite
from geolyap.manifolds import manifold_from_name

FIXTURE = Path(__file__).parent / "data" / "geometry_reference.json"
MANIFOLDS = ("euclidean2", "euclidean3", "sphere2", "sphere3", "so3", "hyperbolic2")
SEEDS = (0, 7, 2**31 - 2)
COUNTS = (1, 600)
CASES = [(name, seed, n, False) for name in MANIFOLDS for seed in SEEDS for n in COUNTS]
CASES.append(("sphere2", 7, 600, True))


def _label(case) -> str:
    name, seed, n, fault = case
    return f"{name}/seed{seed}/n{n}" + ("/fault" if fault else "")


def _report(case) -> dict:
    name, seed, n, fault = case
    return run_geometry_suite(manifold_from_name(name), seed, n, inject_fault=fault).to_dict()


def write_fixture():
    FIXTURE.write_text(json.dumps({_label(c): _report(c) for c in CASES}, indent=1) + "\n")


@pytest.fixture(scope="module")
def reference():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(reference):
    assert sorted(reference) == sorted(_label(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=_label)
def test_report_matches_reference(reference, case):
    assert _report(case) == reference[_label(case)]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_fixture()
    else:
        sys.exit("usage: python tests/test_geometry_reference.py --write")
