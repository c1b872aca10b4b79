"""Command-line front end.

Commands: ``verify-geometry``, ``certify``, ``iss``, ``flow``.  Exit codes:
0 on success, 2 when a property or certification check fails, 3 on config or
contract errors (with no partial output).  The GEOLYAP_LOG environment
variable sets the log level (debug/info/warning).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .certify import InputBoundError
from .config import ConfigError, load_scenario
from .pipeline import (
    EXIT_CONFIG_ERROR,
    run_certify,
    run_flow,
    run_iss,
    run_verify_geometry,
)

logger = logging.getLogger("geolyap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geolyap",
        description="Construct and certify converse Lyapunov functions for "
                    "dynamical systems on Riemannian manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    geom = sub.add_parser("verify-geometry",
                          help="run the geometry kernel property suite")
    geom.add_argument("--manifold", required=True,
                      help="manifold name, e.g. sphere2, euclidean3, so3, hyperbolic2")
    geom.add_argument("--seed", type=int, default=0)
    geom.add_argument("--n", type=int, default=1000, help="samples per property")
    geom.add_argument("--out", default="out", help="output directory")
    geom.add_argument("--inject-fault", action="store_true",
                      help="test hook: skip renormalization to force a failure")

    for name, help_text in (
            ("certify", "run the construction + certification pipeline"),
            ("iss", "run the disturbance robustness pipeline"),
            ("flow", "integrate and dump trajectories")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="scenario config (JSON)")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        if name != "flow":
            cmd.add_argument("--workers", type=int, default=1,
                             help="accepted and ignored: every sample grid runs as "
                                  "one batch in one thread")
        if name == "certify":
            cmd.add_argument("--mode", choices=("exp", "massera"), default="exp",
                             help="exponential or asymptotic construction")
    return parser


def _configure_logging():
    level_name = os.environ.get("GEOLYAP_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load(args) -> "ScenarioConfig":
    config = load_scenario(args.config)
    if args.seed is not None:
        from dataclasses import replace
        config = replace(config, seed=args.seed)
    return config


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("seed must be >= 0")
        if args.command == "verify-geometry":
            return run_verify_geometry(args.manifold, args.seed, args.n,
                                       Path(args.out), inject_fault=args.inject_fault)
        config = _load(args)
        if args.command == "certify":
            return run_certify(config, Path(args.out), mode=args.mode)
        if args.command == "iss":
            return run_iss(config, Path(args.out))
        if args.command == "flow":
            return run_flow(config, Path(args.out))
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, InputBoundError, OSError) as err:  # OSError: unusable --config or --out
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
