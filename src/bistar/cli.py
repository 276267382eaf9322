"""Command line front end for sweeps, fusion, Doppler, and map runs.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure
(detection or geometry) during a run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

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


def _load(args: argparse.Namespace):
    cfg = load_scenario(args.scenario, args.bandwidth_mhz)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.engine is not None:
        cfg = replace(cfg, engine=_ENGINE_NAMES[args.engine])
    if getattr(args, "points", None) is not None:
        cfg = replace(cfg, sweep_points=args.points)
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, trials_per_point=args.trials)
    return cfg


def _emit(write, result, out: str | None) -> None:
    if out is None:
        write(result, sys.stdout)
    else:
        write(result, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bistar",
        description="Bistatic radar localization toolkit",
    )
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
            "--workers", type=int, default=1, help="thread workers (same output regardless)"
        )

    doppler = sub.add_parser(
        "doppler", help="velocity estimation for a moving contour target"
    )
    _add_scenario_args(doppler)
    doppler.add_argument(
        "--theta2-deg", type=float, default=None, help="contour position of the mover"
    )
    doppler.add_argument(
        "--speed-mps", type=float, default=None, help="inward speed of the mover"
    )
    doppler.add_argument(
        "--pulses", type=int, default=None, help="slots in the transmitted train"
    )
    doppler.add_argument(
        "--map-out", default=None, help="also write the range-Doppler map CSV here"
    )

    gmap = sub.add_parser(
        "gdop-map", help="dilution-of-precision map over a rectangular grid"
    )
    _add_scenario_args(gmap)
    gmap.add_argument("--x-min", type=float, default=-30.0)
    gmap.add_argument("--x-max", type=float, default=30.0)
    gmap.add_argument("--nx", type=int, default=61)
    gmap.add_argument("--y-min", type=float, default=-30.0)
    gmap.add_argument("--y-max", type=float, default=30.0)
    gmap.add_argument("--ny", type=int, default=61)

    scen = sub.add_parser("scenarios", help="print a preset as a config file")
    scen.add_argument("--scenario", default="scenario1")
    scen.add_argument(
        "--bandwidth-mhz", type=int, choices=(100, 400), default=None
    )
    scen.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scenarios":
            text = dumps_scenario(preset_scenario(args.scenario, args.bandwidth_mhz or 100))
            if args.out is None:
                sys.stdout.write(text)
            else:
                with open(args.out, "w") as handle:
                    handle.write(text)
            return 0

        cfg = _load(args)
        if args.command == "sweep":
            result = run_iso_range_sweep(cfg, workers=args.workers)
            _emit(write_sweep_csv, result, args.out)
        elif args.command == "multistatic":
            result = run_multistatic(cfg, workers=args.workers)
            _emit(write_multistatic_csv, result, args.out)
        elif args.command == "doppler":
            motion = cfg.motion or MotionConfig()
            updates = {}
            if args.theta2_deg is not None:
                updates["theta2_deg"] = args.theta2_deg
            if args.speed_mps is not None:
                updates["speed_mps"] = args.speed_mps
            if args.pulses is not None:
                updates["pulses"] = args.pulses
            if updates:
                motion = replace(motion, **updates)
            cfg = replace(cfg, motion=motion)
            result = run_doppler(cfg)
            _emit(write_doppler_csv, result, args.out)
            if args.map_out is not None:
                write_range_doppler_csv(result.rd_map, args.map_out)
        else:
            try:
                grid = GridSpec(
                    args.x_min, args.x_max, args.nx, args.y_min, args.y_max, args.ny
                )
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            cells = run_gdop_map(cfg, grid)
            _emit(write_gdop_map_csv, cells, args.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BistarError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
