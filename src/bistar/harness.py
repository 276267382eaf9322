"""Experiment orchestration: contour sweeps, fusion runs, Doppler runs.

Sweeps and fusion runs measure every trial of every contour point through
one engine dispatch, `_measurements`, then locate or fuse in `_stacks`.
Every run is deterministic for a given config seed. Randomness comes from
substreams keyed by seed, point and purpose, so workers never change
results: sweep trials read rows of one block per purpose (layout v2),
multistatic draws keep one substream per trial (layout v1), and the
receiver draws one beam-space capture per trial and stream (layout v3).
A run seeds all its v1 and v2 draws before its points run, in one
`substream_normals` call per purpose (`_draws`), with the values that
`make_rng` would draw substream by substream.
"""

from __future__ import annotations

import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .channel import ArrayModel, BeamCapture, build_paths, steering_vector, substream_normals
from .config import ENGINE_MODEL, ENGINE_SIGNAL, MotionConfig, ScenarioConfig
from .errors import ConfigError, DegenerateGeometryError, DetectionError
from .estimation import (
    Measurement,
    RangeDopplerMap,
    doppler_peak,
    doppler_to_velocity,
    estimate_tdoa,
    matched_filter,
    model_measure_batch,
    music_aoa,
    null_steer_weights,
    project_out_stream,
    range_doppler,
    snapshot_index,
)
from .fusion import gdop_weights, solve_multistatic_batch
from .gdop import gdop_arrays, gdop_batch
from .geometry import (
    SPEED_OF_LIGHT,
    BistaticPair,
    Mode,
    NodePosition,
    TargetState,
    collinearity_deg,
    iso_range_point,
    locate_batch,
    locate_bistatic,
    ordered_sum,
    sum_range_gradient,
    true_aoa,
    true_tdoa,
    wrap_angle,
)
from .waveform import IqCapture, WaveformConfig, generate_slot, matched_reference

# Substream purposes.
_TAG_CHANNEL = 1
_TAG_NODES = 2
_TAG_MEAS = 3

# The transmit directions of a sweep, whose values key its streams.
_MODES = (Mode.MODE1, Mode.MODE2)

# Delay bins of a range-Doppler map CSV.
DELAY_BINS = 256

# Distances to the survey bearing this close tie (`_resolve_survey_aoa`).
_ALIAS_TIE_RAD = 1e-9

STATUS_OK = "ok"
STATUS_EXCLUDED = "excluded"


@dataclass
class SweepRow:
    """One contour point of an iso-range sweep."""

    theta2_deg: float
    x_m: float
    y_m: float
    tdoa_true_ns: float = math.nan
    tdoa_meas_ns: float = math.nan
    tdoa_err_ns: float = math.nan
    aoa_true_deg: float = math.nan
    aoa_meas_deg: float = math.nan
    aoa_err_deg: float = math.nan
    err_mode1_m: float = math.nan
    err_mode2_m: float = math.nan
    err_rms_mode1_m: float = math.nan
    err_rms_mode2_m: float = math.nan
    gdop_mode1_m: float = math.nan
    gdop_mode2_m: float = math.nan
    status: str = STATUS_OK


@dataclass
class SweepResult:
    rows: list[SweepRow]
    summary: dict[str, float]


@dataclass
class MultistaticRow:
    """One contour point of a multistatic fusion run."""

    theta2_deg: float
    x_m: float
    y_m: float
    err_fused_m: float = math.nan
    err_best_pair_m: float = math.nan
    fused_wins: int = 0
    trials: int = 0
    pairs_used: int = 0
    status: str = STATUS_OK


@dataclass
class MultistaticResult:
    rows: list[MultistaticRow]
    summary: dict[str, float]


@dataclass
class DopplerResult:
    """Velocity estimation outcome for a moving contour target."""

    theta2_deg: float
    doppler_true_hz: float
    doppler_est_hz: float
    range_rate_true_mps: float
    range_rate_est_mps: float
    speed_true_mps: float
    speed_est_mps: float
    speed_err_mps: float
    tdoa_est_ns: float
    aoa_est_deg: float
    rd_map: RangeDopplerMap


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid for dilution-of-precision maps."""

    x_min: float
    x_max: float
    nx: int
    y_min: float
    y_max: float
    ny: int

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise ValueError("grid bounds must be finite")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("grid bounds must be increasing")


@dataclass
class GdopMap:
    """Dilution of precision over a grid: the grid axes, and per cell, rows
    by y and columns by x (ny x nx), both directions' GDOP and the
    better direction."""

    x_m: np.ndarray
    y_m: np.ndarray
    gdop_mode1_m: np.ndarray
    gdop_mode2_m: np.ndarray
    best_mode: np.ndarray


def theta_grid_deg(points: int) -> np.ndarray:
    """Uniform contour parameter grid over [0, 360) degrees."""
    return np.arange(points) * (360.0 / points)


def deg360(angle_rad: float) -> float:
    """Map an angle in radians to degrees in [0, 360)."""
    return math.degrees(angle_rad) % 360.0


def waveform_for_radar(params, seed: int = 0) -> WaveformConfig:
    """OFDM numerology implied by the radar sampling parameters."""
    fft = round(params.sample_rate_hz / params.subcarrier_spacing_hz)
    if fft * params.subcarrier_spacing_hz != params.sample_rate_hz:
        raise ConfigError("sample rate must be an integer multiple of the spacing")
    try:
        return WaveformConfig(fft, params.subcarrier_spacing_hz, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _normals(cfg: ScenarioConfig, shape, *purpose: int, per_trial: bool) -> np.ndarray:
    """Standard normals of every trial of every contour point, points x
    trials x ``shape``, from one `substream_normals` call: the node
    wobble and the model engine's draws in `_measurements`.

    Substream layout v2 draws one block per point from substream
    (seed, index, 0, *purpose), trial t reading row t; layout v1
    (``per_trial``, kept by multistatic runs) gives trial t its own
    substream (seed, index, t, *purpose). Either way every value is the
    one a `make_rng` of that key draws.
    """
    trials, points = cfg.trials_per_point, cfg.sweep_points
    index = np.repeat(np.arange(points), trials if per_trial else 1)
    trial = np.tile(np.arange(trials), points) if per_trial else np.zeros_like(index)
    keys = np.column_stack([index, trial, *(np.full_like(index, p) for p in purpose)])
    if per_trial:
        return substream_normals(cfg.seed, keys, shape).reshape(points, trials, *shape)
    return substream_normals(cfg.seed, keys, (trials, *shape))


def _draws(cfg: ScenarioConfig, nodes: int, streams, per_trial: bool) -> tuple:
    """The (wobble, noise) of a run, drawn before it measures: the node
    wobble, points x trials x ``nodes`` x 2, and in the model engine the
    measurement normals, points x trials x streams x 2 with one stream
    per key of ``streams`` (None in the signal engine)."""
    wobble = _normals(cfg, (nodes, 2), _TAG_NODES, per_trial=per_trial)
    if cfg.engine != ENGINE_MODEL:
        return wobble, None
    noise = [_normals(cfg, (2,), _TAG_MEAS, key, per_trial=per_trial) for key in streams]
    return wobble, np.stack(noise, axis=2)


def _believed_nodes(nodes, wobble: np.ndarray) -> np.ndarray:
    """Believed positions of ``nodes``, ... x nodes x (x, y): truth plus
    per-axis Gaussian ``wobble`` (see `_draws`), broadcast over its
    leading axes."""
    truth = np.array([[node.x, node.y] for node in nodes])
    sigma = np.array([[node.sigma_x, node.sigma_y] for node in nodes])
    return truth + sigma * wobble


def _primary_pair(cfg: ScenarioConfig, mode: Mode = Mode.MODE1) -> BistaticPair:
    return BistaticPair(cfg.nodes[0], cfg.nodes[1], mode)


def _resolve_survey_aoa(raw: float, boresight: float, hint: float) -> float:
    """Pick the array ambiguity candidate closest to the planning hint.

    A uniform linear array cannot tell front from back, and near endfire
    the spectrum also carries a strong quasi-alias on the opposite end.
    Both ambiguities are reflections: across the boresight, across the
    array axis, or both.  The survey already aims the transmit beam using
    the believed target position, so the same bearing disambiguates.
    A hint on the boresight line or on the array axis lies midway
    between a candidate and its reflection across that line, so
    candidates within `_ALIAS_TIE_RAD` of the nearest distance tie, and
    a tie goes to the first in the order raw, across the boresight,
    across the axis, both.
    """
    candidates = (
        raw,
        wrap_angle(2.0 * boresight - raw),
        wrap_angle(2.0 * boresight + math.pi - raw),
        wrap_angle(raw + math.pi),
    )
    distances = [abs(wrap_angle(a - hint)) for a in candidates]
    nearest = min(distances)
    return next(a for a, d in zip(candidates, distances) if d <= nearest + _ALIAS_TIE_RAD)


class _SignalBench:
    """Shared transmit waveform and receiver chain for one run."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.wcfg = waveform_for_radar(cfg.radar, seed=cfg.seed)
        self.slot = generate_slot(self.wcfg)
        window = self.wcfg.dmrs_window()
        self.columns = window.start + snapshot_index(window.stop - window.start, 128)
        self.matched = matched_filter(self.wcfg)
        # The slot's delayed path frames by exact delays, for every point.
        self.delayed_frames: dict = {}

    def receive(
        self,
        pair: BistaticPair,
        target: TargetState,
        seed_key: tuple[int, ...],
        pulses: int = 1,
    ) -> tuple[float, float, np.ndarray, np.ndarray]:
        """Receiver chain on a train of ``pulses`` slots: a `BeamCapture`
        steered at the transmitter, MUSIC on its pilot snapshots, and the
        TDOA off the direct, echo and guard beams over the matched
        filter's lag window of the first pulse.
        Returns the echo angle, the TDOA and the direct and echo beams of
        the whole capture, as sample arrays."""
        params = self.cfg.radar
        rx, tx_node = pair.rx_node, pair.tx_node
        # The receive array looks straight at the transmitter: the direct
        # path arrives at broadside, where a linear array resolves angles
        # best, so its projection cannot swallow echoes near the baseline;
        # `_resolve_survey_aoa` settles the endfire ambiguity that costs.
        direct_aoa = boresight = true_aoa(rx, tx_node)
        rx_array = ArrayModel(params.rx_elements, boresight)
        paths = build_paths(pair, target, params, self.cfg.direct_path_gain_db)
        capture = BeamCapture(
            self.slot, paths, rx_array, params, seed_key, direct_aoa, self.columns,
            self.delayed_frames, pulses,
        )
        fs = capture.sample_rate_hz
        aoa_raw = music_aoa(IqCapture(capture.pilot, fs), rx_array)
        aoa = _resolve_survey_aoa(aoa_raw, boresight, true_aoa(rx, target))
        echo, guard = capture.beams(
            steering_vector(rx_array, aoa) / rx_array.elements,
            null_steer_weights(rx_array, aoa, direct_aoa),
        )
        stop = self.matched.stop
        tdoa = estimate_tdoa(
            IqCapture(capture.direct[:stop], fs), IqCapture(echo[:stop], fs), self.matched,
            guard_beam=IqCapture(guard[:stop], fs),
            direct_delay_hint_s=pair.baseline / SPEED_OF_LIGHT,
        )
        return aoa, tdoa, capture.direct, echo

    def measure(
        self,
        pair: BistaticPair,
        target: TargetState,
        seed_key: tuple[int, ...],
    ) -> Measurement:
        """One slot through the receiver chain, as a measurement."""
        aoa, tdoa, _, _ = self.receive(pair, target, seed_key)
        return Measurement(tdoa_s=tdoa, aoa_rad=aoa, mode=pair.mode)


def _sweep_stage(
    cfg: ScenarioConfig, bench: _SignalBench | None, workers: int, thetas: list
) -> tuple[list[SweepRow], tuple]:
    """Draw stage of a sweep whose point i sits at contour angle
    ``thetas[i]`` (degrees): its rows, and the `_score_sweep` inputs of
    the points it measured without a refusal, one array each with a
    row per point: the contour indices, the targets (x, y), the true
    TDOA and AoA of mode 1, the believed nodes (trials x 2 x 2) and the
    TDOAs and AoAs (trials x modes)."""
    pairs = [_primary_pair(cfg, mode) for mode in _MODES]
    pair1 = pairs[0]
    rows, index, targets, truths = [], [], [], []
    for i, theta_deg in enumerate(thetas):
        x, y = iso_range_point(pair1, cfg.sum_range, math.radians(theta_deg))
        target = TargetState(x, y, rcs_dbsm=cfg.rcs_dbsm)
        truth = true_tdoa(pair1, target), true_aoa(pair1.n2, target)
        rows.append(SweepRow(theta_deg, x, y, truth[0] * 1e9, aoa_true_deg=deg360(truth[1])))
        if collinearity_deg(pair1, target) < cfg.exclusion_deg:
            rows[-1].status = STATUS_EXCLUDED
        else:
            index.append(i)
            targets.append(target)
            truths.append(truth)
    if cfg.error_model is not None:
        xs, ys = np.array([(row.x_m, row.y_m) for row in rows]).T
        g1, g2 = (gdop_batch([pair], xs, ys, cfg.error_model).tolist() for pair in pairs)
        for row, gdop1, gdop2 in zip(rows, g1, g2):
            row.gdop_mode1_m, row.gdop_mode2_m = gdop1, gdop2

    streams = [mode.value for mode in _MODES]
    wobble, noise = _draws(cfg, 2, streams, per_trial=False)
    tdoa, aoa = _measurements(cfg, bench, workers, index, targets, [pairs] * len(index), streams,
                              noise)
    refused = np.isnan(tdoa).any(axis=(1, 2))
    for k in np.flatnonzero(refused).tolist():
        rows[index[k]].status = "fail:detect"
    kept = ~refused
    index = np.array(index, dtype=int)[kept]
    xy = np.array([(target.x, target.y) for target in targets]).reshape(-1, 2)[kept]
    truth = np.array(truths).reshape(-1, 2)[kept]
    believed = _believed_nodes(cfg.nodes[:2], wobble[index])
    return rows, (index, xy, truth, believed, tdoa[kept], aoa[kept])


def _stacks(index: np.ndarray, key=None) -> list[np.ndarray]:
    """The positions of the measured points at contour indices ``index``
    in stacks, one per block of 64 contour points (a memory bound) and
    value of ``key`` (a list, one value per point)."""
    groups: dict[tuple, list] = {}
    for k, i in enumerate(index.tolist()):
        groups.setdefault((key[k] if key else None, i // 64), []).append(k)
    return [np.array(group) for group in groups.values()]


def _score_sweep(rows: list[SweepRow], measured: tuple) -> list[SweepRow]:
    """Scoring stage of a sweep, returning its rows. The trials of each
    block's ``measured`` points (see `_sweep_stage`) get one `locate_batch`
    call per mode, rows independent, so each row reads as if scored
    alone: any trial located at infinity fails its own point."""
    index = measured[0]
    for stack in _stacks(index):
        xy, truth, believed, tdoa, aoa = (v[stack] for v in measured[1:])
        points, trials = tdoa.shape[:2]
        target = np.repeat(xy, trials, axis=0)
        believed, flat_tdoa, flat_aoa = (v.reshape(points * trials, *v.shape[2:])
                                         for v in (believed, tdoa, aoa))
        degenerate, means, rms = np.zeros(points, dtype=bool), [], []
        for j, (tx, rx) in enumerate(((0, 1), (1, 0))):  # MODE1, MODE2
            located = locate_batch(believed[:, tx], believed[:, rx], flat_tdoa[:, j],
                                   flat_aoa[:, j])
            degenerate |= np.isnan(located).reshape(points, -1).any(axis=1)
            errors = np.hypot(*(located - target).T).reshape(points, -1)
            means.append([total / trials for total in ordered_sum(errors)])
            rms.append([math.sqrt(total / trials) for total in ordered_sum(errors * errors)])
        firsts = zip(tdoa[:, 0, 0].tolist(), aoa[:, 0, 0].tolist(), *truth.T.tolist())
        for i, first, bad, *errors in zip(index[stack].tolist(), firsts, degenerate, *means, *rms):
            row = rows[i]
            if bad:
                row.status = "fail:degenerate"
                continue
            tdoa_first, aoa_first, tdoa_true, aoa_true = first
            row.tdoa_meas_ns, row.tdoa_err_ns = tdoa_first * 1e9, (tdoa_first - tdoa_true) * 1e9
            row.aoa_meas_deg = deg360(aoa_first)
            row.aoa_err_deg = math.degrees((aoa_first - aoa_true + math.pi) % (2 * math.pi) - math.pi)
            row.err_mode1_m, row.err_mode2_m, row.err_rms_mode1_m, row.err_rms_mode2_m = errors
    return rows


def _measurements(
    cfg: ScenarioConfig, bench, workers: int, index: list, targets: list, pairs: list,
    streams, noise,
) -> tuple[np.ndarray, np.ndarray]:
    """TDOAs and AoAs, points x trials x streams, of every trial of the
    points at contour indices ``index``, whose targets are ``targets``:
    the one engine dispatch of sweeps and fusion runs. ``streams`` holds
    the key of each stream (the mode value in sweeps, the receiver index
    in fusion runs), which keys its substreams, and ``pairs`` per point
    the true pair of each stream, None where the stream is not measured,
    which reads NaN.

    The model engine adds the noise of `_draws` (``noise``) to the true
    values of every point and stream in one `model_measure_batch` call;
    the signal engine runs the receiver chain per point on ``workers``
    threads and, within a point, per trial and stream in trial-major
    order, each trial from its own channel substreams, through the run's
    shared delayed frames, and a trial with a refused measurement is a
    NaN row.
    """
    trials = cfg.trials_per_point
    if cfg.engine == ENGINE_MODEL:
        nan = (math.nan, math.nan)
        true = np.array([
            [nan if pair is None else (true_tdoa(pair, target), true_aoa(pair.rx_node, target))
             for pair in point_pairs]
            for target, point_pairs in zip(targets, pairs)
        ]).reshape(len(index), 1, len(streams), 2)
        return model_measure_batch(
            true[..., 0], true[..., 1], cfg.error_model, noise[np.array(index, dtype=int)]
        )

    def measure(k: int) -> np.ndarray:
        out = np.full((2, trials, len(streams)), math.nan)
        for trial in range(trials):
            try:
                for j, (key, pair) in enumerate(zip(streams, pairs[k])):
                    if pair is not None:
                        seed_key = (cfg.seed, index[k], trial, _TAG_CHANNEL, key)
                        meas = bench.measure(pair, targets[k], seed_key)
                        out[:, trial, j] = meas.tdoa_s, meas.aoa_rad
            except DetectionError:
                out[:, trial] = math.nan
        return out

    out = np.array(_run_points(workers, measure, range(len(index))))
    out = out.reshape(len(index), 2, trials, len(streams))
    return out[:, 0], out[:, 1]


def _run_points(workers: int, point, items) -> list:
    """``point(item)`` of every item, in order, on ``workers`` threads;
    each point has its own substreams, so workers never change results."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(point, items))
    return list(map(point, items))


def run_iso_range_sweep(cfg: ScenarioConfig, workers: int = 1) -> SweepResult:
    """Sweep the iso-range contour and measure at every point.

    Emits one row per contour point in parameter order, including
    excluded and failed points (flagged in ``status`` with the remaining
    columns blank). The signal-level engine runs the OFDM receiver chain
    for both transmit directions, point by point on ``workers`` threads;
    the model-based engine draws from the statistical measurement model
    instead, every point at once. Then `_score_sweep` locates the points
    in stacks.
    """
    if cfg.engine == ENGINE_MODEL and cfg.error_model is None:
        raise ConfigError("model-based engine needs an error model (explicit sigmas or a preset id)")
    bench = _SignalBench(cfg) if cfg.engine == ENGINE_SIGNAL else None
    rows, measured = _sweep_stage(cfg, bench, workers, theta_grid_deg(cfg.sweep_points).tolist())
    rows = _score_sweep(rows, measured)
    return SweepResult(rows=rows, summary=summarize_sweep(rows))


def _mean(values) -> float:
    kept = [v for v in values if not math.isnan(v)]
    return ordered_sum(kept) / len(kept) if kept else math.nan


def summarize_sweep(rows: list[SweepRow]) -> dict[str, float]:
    """Aggregate statistics over the rows with status ok."""
    ok = [r for r in rows if r.status == STATUS_OK]
    return {
        "points": float(len(rows)),
        "ok_points": float(len(ok)),
        "mean_abs_tdoa_err_ns": _mean([abs(r.tdoa_err_ns) for r in ok]),
        "mean_abs_aoa_err_deg": _mean([abs(r.aoa_err_deg) for r in ok]),
        "mean_err_mode1_m": _mean([r.err_mode1_m for r in ok]),
        "mean_err_mode2_m": _mean([r.err_mode2_m for r in ok]),
        "mean_gdop_mode1_m": _mean([r.gdop_mode1_m for r in ok]),
        "mean_gdop_mode2_m": _mean([r.gdop_mode2_m for r in ok]),
    }


def _format(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    return str(value)


def _column_texts(column: list) -> list[str]:
    """`_format` of each value of a column.

    The `_format` of a float is its repr, blank for NaN, so a float
    column is repr'd at C speed.  A column of str is its own texts.
    Other columns go through `_format`: equal values of other types (1,
    1.0, True) print apart.
    """
    types = set(map(type, column))
    if types == {str}:
        return column
    if types != {float}:
        return list(map(_format, column))
    out = list(map(repr, column))
    return [text if text != "nan" else "" for text in out] if "nan" in out else out


def _write_table(path, header, columns, summary: dict | None = None) -> None:
    """The one CSV writer: ``header``, then a row per index of the equal
    length ``columns`` of values, each column `_format`ted at once, then
    a ``# key = value`` line per ``summary`` entry in key order.

    Rows are their texts joined by commas, unquoted: no text the program
    writes (statuses, mode and field names, float reprs, ints) holds a
    comma, quote or line break.  Writes to ``path`` itself if it is
    writable, else to the file it names.
    """
    if not hasattr(path, "write"):
        with open(path, "w", newline="") as handle:
            _write_table(handle, header, columns, summary)
        return
    rows = map(",".join, zip(*map(_column_texts, columns)))
    path.write("\n".join([",".join(header), *rows]) + "\n")
    for key in sorted(summary or {}):
        path.write(f"# {key} = {_format(summary[key])}\n")


def _write_records(path, row_type, records: list, summary: dict | None = None) -> None:
    """One row per record, one column per field of ``row_type``."""
    names = [f.name for f in fields(row_type)]
    _write_table(path, names, _columns(names, records), summary)


def _columns(names: list[str], records: list) -> list[list]:
    return [list(map(attrgetter(name), records)) for name in names]


def write_sweep_csv(result: SweepResult, path: str | Path | io.TextIOBase) -> None:
    """Write sweep rows as CSV with a trailing ``#`` summary block."""
    _write_records(path, SweepRow, result.rows, result.summary)


def multistatic_nodes(cfg: ScenarioConfig) -> list[NodePosition]:
    """Node layout for fusion runs: the transmitter plus receivers.

    A config of more than two nodes is used as laid out. A two-node
    config is expanded to one transmitter with three receivers spread
    uniformly on the circle of baseline radius, keeping the configured
    second node as the first receiver.
    """
    if len(cfg.nodes) > 2:
        return list(cfg.nodes)
    tx, rx1 = cfg.nodes[0], cfg.nodes[1]
    start = math.atan2(rx1.y - tx.y, rx1.x - tx.x)
    radius = cfg.baseline_l
    out = [tx, rx1]
    for k in (1, 2):
        angle = start + k * 2.0 * math.pi / 3.0
        x, y = tx.x + radius * math.cos(angle), tx.y + radius * math.sin(angle)
        out.append(NodePosition(x, y, rx1.sigma_x, rx1.sigma_y))
    return out


def _multistatic_stage(
    cfg: ScenarioConfig,
    bench: _SignalBench | None,
    workers: int,
    nodes: list[NodePosition],
    thetas: list,
) -> tuple[list[MultistaticRow], tuple]:
    """Draw stage of a fusion run whose point i sits at contour angle
    ``thetas[i]`` (degrees): its rows, and the `_fuse` inputs of the
    points with a measured trial, one array each with a row per point:
    the contour indices, the targets (x, y), which receivers are usable
    (receivers), which trials were measured (trials), the believed node
    coordinates (trials x nodes x 2) and the TDOAs and AoAs (trials x
    receivers, NaN at receivers not usable). No node or pair object is
    built per trial."""
    anchor = BistaticPair(nodes[0], nodes[1], Mode.MODE1)
    true_pairs = [BistaticPair(nodes[0], rx, Mode.MODE1) for rx in nodes[1:]]
    rows, index, targets, pairs = [], [], [], []
    for i, theta_deg in enumerate(thetas):
        x, y = iso_range_point(anchor, cfg.sum_range, math.radians(theta_deg))
        target = TargetState(x, y, rcs_dbsm=cfg.rcs_dbsm)
        row = MultistaticRow(theta2_deg=theta_deg, x_m=x, y_m=y)
        rows.append(row)
        if collinearity_deg(anchor, target) < cfg.exclusion_deg:
            row.status = STATUS_EXCLUDED
            continue
        usable = [pair if collinearity_deg(pair, target) >= cfg.exclusion_deg else None
                  for pair in true_pairs]
        row.pairs_used = len(usable) - usable.count(None)
        if not row.pairs_used:
            row.status = "fail:no_usable_pair"
            continue
        index.append(i)
        targets.append(target)
        pairs.append(usable)

    streams = range(len(true_pairs))
    wobble, noise = _draws(cfg, len(nodes), streams, per_trial=True)
    tdoa, aoa = _measurements(cfg, bench, workers, index, targets, pairs, streams, noise)
    usable = np.array([[pair is not None for pair in row] for row in pairs], dtype=bool)
    usable = usable.reshape(len(index), len(true_pairs))
    measured = ~(np.isnan(tdoa) & usable[:, None]).any(axis=2)
    live = measured.any(axis=1)
    for k in np.flatnonzero(~live).tolist():
        rows[index[k]].status = "fail:detect"
    index = np.array(index, dtype=int)[live]
    xy = np.array([(target.x, target.y) for target in targets]).reshape(-1, 2)[live]
    believed = _believed_nodes(nodes, wobble[index])
    return rows, (index, xy, usable[live], measured[live], believed, tdoa[live], aoa[live])


def _pair_variances(nodes: list[NodePosition]) -> np.ndarray:
    """Coordinate variances (x1, y1, x2, y2) of the pair of ``nodes[0]``
    and each receiver, receivers x 4, squared by multiplying."""
    sigma = np.array([(node.sigma_x, node.sigma_y) for node in nodes])
    sigma = np.hstack([np.broadcast_to(sigma[0], (len(nodes) - 1, 2)), sigma[1:]])
    return sigma * sigma


def _fuse(err_model, nodes, rows: list[MultistaticRow], inputs: tuple) -> list[MultistaticRow]:
    """Fuse stage of a run, returning its rows. The measured trials of the
    points of ``inputs`` (see `_multistatic_stage`) of each pair count in
    a block of 64 points (a memory bound) get one ranking, weighting and
    solve, row-independent: rows read as if fused alone. The GDOP
    ranking and weights come from `gdop_arrays` on the believed
    coordinates; no pair object is built."""
    index, target_xy, usable, measured, believed, tdoa_all, aoa_all = inputs
    variances = _pair_variances(nodes)
    for stack in _stacks(index, usable.sum(axis=1).tolist()):
        point, trial = np.nonzero(measured[stack])
        # Per measured trial (a row), its point's usable receivers in order.
        receivers = np.nonzero(usable[stack])[1].reshape(len(stack), -1)[point]
        k, t = stack[point][:, None], trial[:, None]
        rx = believed[k, t, receivers + 1]
        tx = np.broadcast_to(believed[stack[point], trial, :1], rx.shape)
        tdoa, aoa = tdoa_all[k, t, receivers], aoa_all[k, t, receivers]
        n1_xy, n2_xy = tx.reshape(-1, 2), rx.reshape(-1, 2)
        var = variances[receivers].reshape(-1, 4)
        counts = np.count_nonzero(measured[stack], axis=1)
        xs, ys = target_xy[stack].T

        def predicted(x, y):
            return gdop_arrays(n1_xy, n2_xy, var, False, x, y, err_model).reshape(tdoa.shape)

        # Every trial starts from the closed form of its pair with the best
        # predicted dilution at the target and weights its pairs there.
        at_target = predicted(*(np.repeat(v, np.multiply(counts, tdoa.shape[1])) for v in (xs, ys)))
        best = np.argmin(np.where(np.isnan(at_target), np.inf, at_target), axis=1)
        guess = locate_batch(*(v[np.arange(len(best)), best] for v in (tx, rx, tdoa, aoa)))
        weights = gdop_weights(predicted(*(np.repeat(v, tdoa.shape[1]) for v in guess.T)))
        # Whiten the two residual kinds by their standard deviations so
        # meter-scale TDOA terms cannot drown the angle terms.
        fit = solve_multistatic_batch(
            tx, rx, tdoa, aoa, guess,
            a=1.0 / (SPEED_OF_LIGHT * max(err_model.sigma_tdoa_s, 1e-15)),
            b=1.0 / max(err_model.sigma_aoa_rad, 1e-12),
            w=weights,
        )
        x, y = (np.repeat(v, counts) for v in (xs, ys))
        fused, closed = (np.hypot(xy[:, 0] - x, xy[:, 1] - y) for xy in (fit.xy, guess))
        solved = ~fit.failed
        # Per point and trial, +0.0 where no trial was measured and solved:
        # a left-to-right sum of non-negative errors skips it exactly.
        grid = np.zeros((4, len(stack), measured.shape[1]))
        grid[:, point, trial] = (np.where(solved, fused, 0.0), np.where(solved, closed, 0.0),
                                 solved, solved & (fused <= closed + 1e-12))
        totals = zip(*ordered_sum(grid[:2]), *np.count_nonzero(grid[2:], axis=2).tolist())
        for i, (fused_total, closed_total, solved_trials, wins) in zip(index[stack].tolist(), totals):
            row = rows[i]
            if not solved_trials:
                row.status = "fail:solver"
                continue
            row.err_fused_m = fused_total / solved_trials
            row.err_best_pair_m = closed_total / solved_trials
            row.fused_wins = wins
            row.trials = solved_trials
    return rows


def run_multistatic(cfg: ScenarioConfig, workers: int = 1) -> MultistaticResult:
    """Fuse measurements from one transmitter and several receivers.

    The target sweeps the iso-range contour of the first
    transmitter/receiver pair; every usable pair contributes a
    TDOA/AoA measurement and the weighted least-squares solver fuses
    them. Per trial the fused error is paired against the closed-form
    solution of the pair with the best predicted dilution. The signal
    engine measures point by point on ``workers`` threads, the model
    engine every point at once; then `_fuse` fuses them in stacks.
    """
    if cfg.error_model is None:
        raise ConfigError("fusion weighting needs an error model (explicit sigmas or a preset id)")
    nodes = multistatic_nodes(cfg)
    bench = _SignalBench(cfg) if cfg.engine == ENGINE_SIGNAL else None
    thetas = theta_grid_deg(cfg.sweep_points).tolist()
    rows = _fuse(cfg.error_model, nodes, *_multistatic_stage(cfg, bench, workers, nodes, thetas))
    ok = [r for r in rows if r.status == STATUS_OK]
    trials = sum(r.trials for r in ok)
    summary = {
        "points": float(len(rows)),
        "ok_points": float(len(ok)),
        "mean_err_fused_m": _mean([r.err_fused_m for r in ok]),
        "mean_err_best_pair_m": _mean([r.err_best_pair_m for r in ok]),
        "fused_win_fraction": (
            sum(r.fused_wins for r in ok) / trials if trials else math.nan
        ),
    }
    return MultistaticResult(rows=rows, summary=summary)


def write_multistatic_csv(result: MultistaticResult, path) -> None:
    _write_records(path, MultistaticRow, result.rows, result.summary)


def moving_target(cfg: ScenarioConfig, motion: MotionConfig) -> TargetState:
    """Contour target moving inward along the contour normal."""
    pair = _primary_pair(cfg)
    theta = math.radians(motion.theta2_deg)
    x, y = iso_range_point(pair, cfg.sum_range, theta)
    gx, gy = sum_range_gradient(pair, TargetState(x, y))
    norm = math.hypot(gx, gy)
    if norm < 1e-12:
        raise DegenerateGeometryError("contour normal undefined between the nodes")
    return TargetState(
        x,
        y,
        vx=-motion.speed_mps * gx / norm,
        vy=-motion.speed_mps * gy / norm,
        rcs_dbsm=cfg.rcs_dbsm,
    )


def run_doppler(cfg: ScenarioConfig) -> DopplerResult:
    """Estimate the Doppler shift and speed of a moving contour target.

    Transmits a train of identical slots, forms the cancelled echo beam,
    and reads the Doppler peak off the slow-time DFT. The bistatic range
    rate converts to along-normal speed through the bistatic angle at
    the located target position.
    """
    motion = cfg.motion or MotionConfig()
    target = moving_target(cfg, motion)
    pair = _primary_pair(cfg)
    if collinearity_deg(pair, target) < cfg.exclusion_deg:
        raise DegenerateGeometryError("moving target is inside the exclusion band")
    params = cfg.radar

    bench = _SignalBench(cfg)
    aoa, tdoa, direct, echo = bench.receive(
        pair, target, (cfg.seed, 0, 0, _TAG_CHANNEL), pulses=motion.pulses
    )
    # The echo beam is cleaned in place, and the map reads only it.
    echo_beam = project_out_stream(
        IqCapture(echo, bench.slot.sample_rate_hz, pulses=motion.pulses), direct
    )
    del direct

    rd_map = range_doppler(echo_beam, matched_reference(bench.wcfg), DELAY_BINS)
    _, doppler_est = doppler_peak(rd_map)
    rate_est = doppler_to_velocity(doppler_est, params.carrier_hz)

    meas = Measurement(tdoa_s=tdoa, aoa_rad=aoa, mode=pair.mode)
    px, py = locate_bistatic(pair, meas)
    projection = math.hypot(*sum_range_gradient(pair, TargetState(px, py)))
    speed_est = rate_est / projection

    _, echo_path = build_paths(pair, target, params)
    doppler_true = echo_path.doppler_hz
    rate_true = doppler_to_velocity(doppler_true, params.carrier_hz)
    return DopplerResult(
        theta2_deg=motion.theta2_deg,
        doppler_true_hz=doppler_true,
        doppler_est_hz=doppler_est,
        range_rate_true_mps=rate_true,
        range_rate_est_mps=rate_est,
        speed_true_mps=motion.speed_mps,
        speed_est_mps=speed_est,
        speed_err_mps=abs(speed_est - motion.speed_mps),
        tdoa_est_ns=tdoa * 1e9,
        aoa_est_deg=deg360(aoa),
        rd_map=rd_map,
    )


def write_doppler_csv(result: DopplerResult, path) -> None:
    """Single-row CSV of the Doppler run scalars."""
    names = [f.name for f in fields(DopplerResult) if f.name != "rd_map"]
    _write_table(path, names, _columns(names, [result]))


def write_range_doppler_csv(rd_map: RangeDopplerMap, path) -> None:
    """Range-Doppler magnitudes: Doppler axis header, delay axis column,
    the first `DELAY_BINS` delays."""
    columns = [rd_map.delay_axis_s[:DELAY_BINS].tolist(), *rd_map.magnitudes[:DELAY_BINS].T.tolist()]
    header = ["delay_s"] + [_format(v) for v in rd_map.doppler_axis_hz.tolist()]
    _write_table(path, header, columns)


def run_gdop_map(cfg: ScenarioConfig, grid: GridSpec) -> GdopMap:
    """Dilution of precision for both transmit directions over a grid.

    Degenerate cells carry NaN dilution and best_mode ``degenerate``;
    mode1 wins ties.
    """
    err = cfg.error_model
    if err is None:
        raise ConfigError("gdop map needs an error model (explicit sigmas or a preset id)")
    x_axis = np.linspace(grid.x_min, grid.x_max, grid.nx)
    y_axis = np.linspace(grid.y_min, grid.y_max, grid.ny)
    xs, ys = np.tile(x_axis, grid.ny), np.repeat(y_axis, grid.nx)
    g1, g2 = (gdop_batch([_primary_pair(cfg, mode)], xs, ys, err) for mode in _MODES)
    mode1 = np.where(np.isnan(g2) | (g1 <= g2), "mode1", "mode2")
    best = np.where(np.isnan(g1) & np.isnan(g2), "degenerate", mode1)
    shape = (grid.ny, grid.nx)
    return GdopMap(x_axis, y_axis, g1.reshape(shape), g2.reshape(shape), best.reshape(shape))


def write_gdop_map_csv(result: GdopMap, path) -> None:
    """One row per cell, y outer and x inner; each axis value is
    formatted once and its text repeated."""
    xs, ys = (_column_texts(axis.tolist()) for axis in (result.x_m, result.y_m))
    cells = (v.ravel().tolist() for v in (result.gdop_mode1_m, result.gdop_mode2_m, result.best_mode))
    columns = [xs * len(ys), [y for y in ys for _ in xs], *cells]
    _write_table(path, [f.name for f in fields(GdopMap)], columns)
