"""Scenario configuration: presets, file parsing, and serialization.

Config files are line oriented ``key = value`` pairs grouped under
``[nodes]``, ``[radar]``, ``[sweep]``, and ``[motion]`` section headers,
with scalar run controls before the first section. Parsing is strict:
unknown keys, malformed values, and missing required keys raise
ConfigError with the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path

from .errors import ConfigError
from .estimation import MEAN_ABS_TO_SIGMA
from .gdop import MeasurementErrorModel
from .geometry import NodePosition, RadarParams

ENGINE_SIGNAL = "signal_level"
ENGINE_MODEL = "model_based"

_SAMPLE_RATES = {100: 122.88e6, 400: 491.52e6}

# Scenario presets: baseline L, bistatic range sum, target cross section.
_PRESETS = {
    "scenario1": (3.0, 6.0, -20.0),
    "scenario2": (15.0, 30.0, 0.0),
    "scenario3": (25.0, 50.0, 0.0),
}

# Mean absolute measurement errors of the signal-level chain for each
# (preset, bandwidth MHz), used to parameterize the statistical engine
# and the dilution-of-precision predictions.
MEAN_ABS_TDOA_NS = {
    ("scenario1", 100): 4.2,
    ("scenario1", 400): 0.17,
    ("scenario2", 100): 1.21,
    ("scenario2", 400): 1.21,
    ("scenario3", 100): 3.55,
    ("scenario3", 400): 0.02,
}
MEAN_ABS_AOA_DEG = {
    ("scenario1", 100): 0.0,
    ("scenario1", 400): 0.0,
    ("scenario2", 100): 0.03,
    ("scenario2", 400): 0.03,
    ("scenario3", 100): 0.16,
    ("scenario3", 400): 0.23,
}

DEFAULT_NODE_SIGMA_M = 0.01


@dataclass(frozen=True)
class MotionConfig:
    """Constant-speed target motion along the inward contour normal."""

    speed_mps: float = 0.2
    theta2_deg: float = 60.0
    pulses: int = 64

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed_mps) and math.isfinite(self.theta2_deg)):
            raise ValueError("speed and theta2_deg must be finite")
        if self.speed_mps < 0:
            raise ValueError("speed must be non-negative")
        if self.pulses < 2:
            raise ValueError("need at least 2 pulses for Doppler processing")


@dataclass
class ScenarioConfig:
    """Everything needed to run one experiment; the first two nodes are
    the primary pair, ``baseline_l`` apart. ``error_override`` holds
    explicit measurement sigmas; without them a preset's id names the
    tabulated sigmas (see `error_model`)."""

    scenario_id: str
    nodes: list[NodePosition]
    sum_range: float
    rcs_dbsm: float
    radar: RadarParams = field(default_factory=RadarParams)
    error_override: MeasurementErrorModel | None = None
    sweep_points: int = 360
    trials_per_point: int = 1
    seed: int = 1
    engine: str = ENGINE_SIGNAL
    motion: MotionConfig | None = None
    exclusion_deg: float = 5.0
    direct_path_gain_db: float | None = None

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("need at least two nodes")
        if self.sum_range <= self.baseline_l:
            raise ValueError("sum_range must exceed the baseline")
        if self.sweep_points < 4:
            raise ValueError("sweep_points must be at least 4")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be at least 1")
        if self.engine not in (ENGINE_SIGNAL, ENGINE_MODEL):
            raise ValueError(f"engine must be {ENGINE_SIGNAL} or {ENGINE_MODEL}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 <= self.exclusion_deg < 45.0:
            raise ValueError("exclusion_deg must be in [0, 45)")

    @property
    def baseline_l(self) -> float:
        return math.hypot(self.nodes[1].x - self.nodes[0].x, self.nodes[1].y - self.nodes[0].y)

    @property
    def error_model(self) -> MeasurementErrorModel | None:
        """The explicit sigmas, else the table's for the scenario id at the
        radar's bandwidth, else None: a bandwidth switch takes the table
        along and keeps explicit sigmas as given."""
        if self.error_override is not None:
            return self.error_override
        key = (self.scenario_id, round(self.radar.bandwidth_hz / 1e6))
        return error_model_for(*key) if key in MEAN_ABS_TDOA_NS else None


@lru_cache(maxsize=None)
def error_model_for(scenario_id: str, bandwidth_mhz: int) -> MeasurementErrorModel:
    """Error model from the tabulated mean absolute measurement errors."""
    key = (scenario_id, bandwidth_mhz)
    if key not in MEAN_ABS_TDOA_NS:
        raise ConfigError(f"no tabulated errors for {scenario_id} at {bandwidth_mhz} MHz")
    return MeasurementErrorModel(
        sigma_tdoa_s=MEAN_ABS_TDOA_NS[key] * 1e-9 * MEAN_ABS_TO_SIGMA,
        sigma_aoa_rad=math.radians(MEAN_ABS_AOA_DEG[key]) * MEAN_ABS_TO_SIGMA,
    )


def preset_scenario(name: str, bandwidth_mhz: int = 100, seed: int = 1) -> ScenarioConfig:
    """Built-in two-node scenario on the x axis.

    The three presets share the mmWave link parameters (28 GHz carrier,
    43 dBm EIRP, 8 transmit and 16 receive elements, 13 dB noise
    figure) and differ in baseline, contour size, and cross section.
    """
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of {sorted(_PRESETS)}")
    baseline, sum_range, rcs = _PRESETS[name]
    sigma = DEFAULT_NODE_SIGMA_M
    nodes = [NodePosition(0.0, 0.0, sigma, sigma), NodePosition(baseline, 0.0, sigma, sigma)]
    return apply_bandwidth(ScenarioConfig(name, nodes, sum_range, rcs, seed=seed), bandwidth_mhz)


# Every key a config file accepts, by section (None is the top level),
# with its value kind; [nodes] holds only ``node`` entries.
_KEYS: dict[str | None, dict[str, str]] = {
    None: {
        "scenario_id": "str",
        "seed": "int",
        "engine": "str",
        "sweep_points": "int",
        "trials_per_point": "int",
    },
    "nodes": {},
    "radar": {
        **{f.name: f.type for f in fields(RadarParams)},
        "direct_path_gain_db": "float",
    },
    "sweep": dict.fromkeys(
        ("sum_range", "rcs_dbsm", "exclusion_deg", "sigma_tdoa_s", "sigma_aoa_rad"),
        "float",
    ),
    "motion": {f.name: f.type for f in fields(MotionConfig)},
}


def _parse_number(raw: str, line_no: int, key: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: value for {key!r} is not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: value for {key!r} must be finite: {raw!r}")
    return value


def _parse_int(raw: str, line_no: int, key: str) -> int:
    value = _parse_number(raw, line_no, key)
    if value != int(value):
        raise ConfigError(f"line {line_no}: {key!r} must be an integer, got {raw!r}")
    return int(value)


_PARSERS = {"str": lambda raw, line_no, key: raw, "int": _parse_int, "float": _parse_number}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario config from text; see the module docstring."""
    section: str | None = None
    found: dict[str | None, dict] = {name: {} for name in _KEYS}
    nodes: list[NodePosition] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ConfigError(f"line {line_no}: empty value for {key!r}")

        if section == "nodes":
            if key != "node":
                raise ConfigError(f"line {line_no}: only 'node' entries belong in [nodes]")
            parts = value.split()
            if len(parts) not in (2, 4):
                raise ConfigError(
                    f"line {line_no}: node needs 'x y' or 'x y sigma_x sigma_y'"
                )
            numbers = [_parse_number(p, line_no, "node") for p in parts]
            if len(numbers) == 2:
                numbers += [0.0, 0.0]
            try:
                nodes.append(NodePosition(*numbers))
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: {exc}") from exc
            continue
        kind = _KEYS[section].get(key)
        if kind is None:
            where = "top-level" if section is None else f"[{section}]"
            raise ConfigError(f"line {line_no}: unknown {where} key {key!r}")
        found[section][key] = _PARSERS[kind](value, line_no, key)

    top, radar, sweep, motion = (found[name] for name in (None, "radar", "sweep", "motion"))
    if "sum_range" not in sweep:
        raise ConfigError("missing required [sweep] key 'sum_range'")
    if len(nodes) < 2:
        raise ConfigError("need at least two [nodes] entries")

    direct_gain = radar.pop("direct_path_gain_db", None)
    try:
        override = None
        if "sigma_tdoa_s" in sweep or "sigma_aoa_rad" in sweep:
            override = MeasurementErrorModel(
                sweep.pop("sigma_tdoa_s", 0.0), sweep.pop("sigma_aoa_rad", 0.0)
            )
        return ScenarioConfig(
            scenario_id=top.pop("scenario_id", "custom"),
            nodes=nodes,
            rcs_dbsm=sweep.pop("rcs_dbsm", 0.0),
            radar=RadarParams(**radar),
            error_override=override,
            motion=MotionConfig(**motion) if motion else None,
            direct_path_gain_db=direct_gain,
            **top,
            **sweep,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def dumps_scenario(cfg: ScenarioConfig) -> str:
    """Serialize a config to the text form ``parse_scenario`` accepts.

    Every number is written as its repr, so the text parses back to the
    same config bit for bit; sigmas appear only when explicit."""
    err = cfg.error_override
    sigmas = {} if err is None else vars(err)
    gain = {} if cfg.direct_path_gain_db is None else {
        "direct_path_gain_db": cfg.direct_path_gain_db
    }
    values = {
        None: vars(cfg),
        "radar": {**vars(cfg.radar), **gain},
        "sweep": {**vars(cfg), **sigmas},
        "motion": {} if cfg.motion is None else vars(cfg.motion),
    }
    lines = []
    for section, keys in _KEYS.items():
        if section == "nodes":
            entries = [
                ("node", f"{n.x!r} {n.y!r} {n.sigma_x!r} {n.sigma_y!r}") for n in cfg.nodes
            ]
        else:
            entries = [(key, values[section][key]) for key in keys if key in values[section]]
        if entries and section is not None:
            lines += ["", f"[{section}]"]
        for key, value in entries:
            lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
    return "\n".join(lines) + "\n"


def load_scenario(source: str | Path, bandwidth_mhz: int | None = None) -> ScenarioConfig:
    """Load a scenario from a preset name or a config file path.

    For presets, ``bandwidth_mhz`` picks the 100 or 400 MHz variant
    (default 100) including the matching tabulated error model. For
    files, a bandwidth override rescales the radar sampling; explicit
    sigmas from the file are kept, otherwise a preset id names that
    bandwidth's error table (`ScenarioConfig.error_model`).
    """
    name = str(source)
    if name in _PRESETS:
        return preset_scenario(name, bandwidth_mhz or 100)
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"{name!r} is neither a preset name nor an existing file")
    cfg = parse_scenario(path.read_text())
    if bandwidth_mhz is not None:
        cfg = apply_bandwidth(cfg, bandwidth_mhz)
    return cfg


def apply_bandwidth(cfg: ScenarioConfig, bandwidth_mhz: int) -> ScenarioConfig:
    """Switch a config to the 100 or 400 MHz sampling configuration; its
    error model follows (see `ScenarioConfig.error_model`)."""
    if bandwidth_mhz not in _SAMPLE_RATES:
        raise ConfigError("bandwidth_mhz must be 100 or 400")
    radar = replace(
        cfg.radar,
        bandwidth_hz=bandwidth_mhz * 1e6,
        sample_rate_hz=_SAMPLE_RATES[bandwidth_mhz],
    )
    return replace(cfg, radar=radar)
