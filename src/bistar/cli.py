"""Command line front end for sweeps, fusion, Doppler, and map runs.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure
(detection or geometry) during a run.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from dataclasses import replace
from functools import cache

from .config import (
    ENGINE_MODEL,
    ENGINE_SIGNAL,
    MotionConfig,
    dumps_scenario,
    load_scenario,
    preset_scenario,
)
from .errors import BistarError, ConfigError
from .harness import (
    GridSpec,
    run_doppler,
    run_gdop_map,
    run_iso_range_sweep,
    run_multistatic,
    write_doppler_csv,
    write_gdop_map_csv,
    write_multistatic_csv,
    write_range_doppler_csv,
    write_sweep_csv,
)

_ENGINE_NAMES = {"signal": ENGINE_SIGNAL, "model": ENGINE_MODEL}


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        default="scenario1",
        help="preset name (scenario1, scenario2, scenario3) or config file path",
    )
    parser.add_argument(
        "--bandwidth-mhz",
        type=int,
        choices=(100, 400),
        default=None,
        help="RF bandwidth selecting the sampling configuration (default 100)",
    )
    parser.add_argument("--seed", type=int, default=None, help="master run seed")
    parser.add_argument(
        "--engine",
        choices=sorted(_ENGINE_NAMES),
        default=None,
        help="signal: full OFDM receiver chain; model: statistical measurements",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output CSV path (default: stdout)",
    )


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``; a value it refuses is a configuration problem."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _updated(obj, **changes):
    """``obj`` with the ``changes`` that were given (not None) applied."""
    return _checked(replace, obj, **{k: v for k, v in changes.items() if v is not None})


def _output(stack: ExitStack, path: str | None):
    """``path`` opened for writing before the run, or stdout when None."""
    try:
        return sys.stdout if path is None else stack.enter_context(open(path, "w", newline=""))
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from exc


def _load(args: argparse.Namespace):
    return _updated(
        load_scenario(args.scenario, args.bandwidth_mhz),
        seed=args.seed,
        engine=_ENGINE_NAMES.get(args.engine),
        sweep_points=getattr(args, "points", None),
        trials_per_point=getattr(args, "trials", None),
    )


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration problem (exit 1), not argparse's exit 2."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bistar", description="Bistatic radar localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, about in (
        ("sweep", "iso-range contour sweep with per-point measurements"),
        ("multistatic", "multi-receiver fusion along the contour"),
    ):
        contour = sub.add_parser(name, help=about)
        _add_scenario_args(contour)
        contour.add_argument("--points", type=int, default=None, help="contour points")
        contour.add_argument("--trials", type=int, default=None, help="trials per point")
        contour.add_argument(
            "--workers", type=int, default=1,
            help="signal receiver threads; model runs use none (same output regardless)",
        )

    doppler = sub.add_parser("doppler", help="velocity estimation for a moving contour target")
    _add_scenario_args(doppler)
    for flag, kind, about in (
        ("--theta2-deg", float, "contour position of the mover"),
        ("--speed-mps", float, "inward speed of the mover"),
        ("--pulses", int, "slots in the transmitted train"),
    ):
        doppler.add_argument(flag, type=kind, default=None, help=about)
    doppler.add_argument("--map-out", default=None, help="also write the range-Doppler map CSV")

    gmap = sub.add_parser("gdop-map", help="dilution-of-precision map over a rectangular grid")
    _add_scenario_args(gmap)
    for axis in ("x", "y"):
        gmap.add_argument(f"--{axis}-min", type=float, default=-30.0)
        gmap.add_argument(f"--{axis}-max", type=float, default=30.0)
        gmap.add_argument(f"--n{axis}", type=int, default=61)

    scen = sub.add_parser("scenarios", help="print a preset as a config file")
    scen.add_argument("--scenario", default="scenario1")
    scen.add_argument("--bandwidth-mhz", type=int, choices=(100, 400), default=None)
    scen.add_argument("--out", default=None)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`'s parser, built on first use; every `main` call of
    the process parses with it (parsing keeps no state in it)."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be at least 1, not {args.workers}")
        with ExitStack() as stack:
            _run(args, stack)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BistarError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace, stack: ExitStack) -> None:
    if args.command == "scenarios":
        text = dumps_scenario(preset_scenario(args.scenario, args.bandwidth_mhz or 100))
        _output(stack, args.out).write(text)
        return
    cfg = _load(args)
    out = _output(stack, args.out)
    if args.command == "sweep":
        write_sweep_csv(run_iso_range_sweep(cfg, workers=args.workers), out)
    elif args.command == "multistatic":
        write_multistatic_csv(run_multistatic(cfg, workers=args.workers), out)
    elif args.command == "doppler":
        map_out = None if args.map_out is None else _output(stack, args.map_out)
        motion = _updated(
            cfg.motion or MotionConfig(),
            theta2_deg=args.theta2_deg,
            speed_mps=args.speed_mps,
            pulses=args.pulses,
        )
        result = run_doppler(replace(cfg, motion=motion))
        write_doppler_csv(result, out)
        if map_out is not None:
            write_range_doppler_csv(result.rd_map, map_out)
    else:
        grid = _checked(
            GridSpec, args.x_min, args.x_max, args.nx, args.y_min, args.y_max, args.ny
        )
        write_gdop_map_csv(run_gdop_map(cfg, grid), out)


if __name__ == "__main__":
    sys.exit(main())
