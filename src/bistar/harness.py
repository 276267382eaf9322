"""Experiment orchestration: contour sweeps, fusion runs, Doppler runs.

Every run is deterministic for a given config seed. Randomness comes from
substreams keyed by seed, point and purpose, so workers never change
results: sweep trials read rows of one block per purpose (layout v2),
while channel noise and multistatic draws keep one substream per trial
(layout v1).
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .channel import ArrayModel, build_paths, make_rng, propagate
from .config import ENGINE_MODEL, ENGINE_SIGNAL, MotionConfig, ScenarioConfig
from .errors import ConfigError, DegenerateGeometryError, DetectionError
from .estimation import (
    Measurement,
    RangeDopplerMap,
    beamform,
    cancel_direct_path,
    doppler_peak,
    doppler_to_velocity,
    estimate_tdoa,
    model_measure_batch,
    music_aoa,
    null_steer_beamform,
    project_out_stream,
    range_doppler,
)
from .fusion import gdop_weights, solve_multistatic_batch
from .gdop import gdop_batch
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
    sum_range_gradient,
    true_aoa,
    true_tdoa,
    wrap_angle,
)
from .waveform import IqCapture, WaveformConfig, generate_slot, matched_reference, pulse_train

# Substream purposes.
_TAG_CHANNEL = 1
_TAG_NODES = 2
_TAG_MEAS = 3

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
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("grid bounds must be increasing")


@dataclass
class GdopCell:
    x_m: float
    y_m: float
    gdop_mode1_m: float
    gdop_mode2_m: float
    best_mode: str


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
    if fft & (fft - 1):
        raise ConfigError("sample rate over spacing must be a power of two")
    scale, rem = divmod(fft, 1024)
    if rem or scale < 1:
        raise ConfigError("supported FFT sizes are multiples of 1024")
    return WaveformConfig(
        fft_size=fft,
        occupied_subcarriers=792 * scale,
        cp_samples=72 * scale,
        seed=seed,
    )


def _normals(
    cfg: ScenarioConfig, index: int, shape, *purpose: int, per_trial: bool = False
) -> np.ndarray:
    """Standard normals of every trial of a point, trials x ``shape``.

    Substream layout v2 draws one block from substream (seed, index, 0,
    *purpose), trial t reading row t; layout v1 (``per_trial``, kept by
    multistatic runs) gives trial t its own substream (seed, index, t,
    *purpose).
    """
    if not per_trial:
        rng = make_rng(cfg.seed, index, 0, *purpose)
        return rng.standard_normal((cfg.trials_per_point, *shape))
    return np.array([
        make_rng(cfg.seed, index, t, *purpose).standard_normal(shape)
        for t in range(cfg.trials_per_point)
    ])


def _believed_nodes(
    cfg: ScenarioConfig, index: int, nodes, per_trial: bool = False
) -> np.ndarray:
    """Believed positions of ``nodes`` in every trial of a point, trials x
    nodes x (x, y): truth plus per-axis Gaussian wobble (see `_normals`)."""
    draws = _normals(cfg, index, (len(nodes), 2), _TAG_NODES, per_trial=per_trial)
    truth = np.array([[node.x, node.y] for node in nodes])
    sigma = np.array([[node.sigma_x, node.sigma_y] for node in nodes])
    return truth + sigma * draws


def _primary_pair(cfg: ScenarioConfig, mode: Mode = Mode.MODE1) -> BistaticPair:
    return BistaticPair(cfg.nodes[0], cfg.nodes[1], mode)


def _resolve_survey_aoa(raw: float, boresight: float, hint: float) -> float:
    """Pick the array ambiguity candidate closest to the planning hint.

    A uniform linear array cannot tell front from back, and near endfire
    the spectrum also carries a strong quasi-alias on the opposite end.
    Both ambiguities are reflections: across the array axis, across the
    boresight, or both.  The survey already aims the transmit beam using
    the believed target position, so the same bearing disambiguates.
    """
    candidates = (
        raw,
        wrap_angle(2.0 * boresight - raw),
        wrap_angle(2.0 * boresight + math.pi - raw),
        wrap_angle(raw + math.pi),
    )
    return min(candidates, key=lambda a: abs(wrap_angle(a - hint)))


class _SignalBench:
    """Shared transmit waveform and receiver chain for one sweep."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.wcfg = waveform_for_radar(cfg.radar, seed=cfg.seed)
        self.slot = generate_slot(self.wcfg)
        self.reference = matched_reference(self.wcfg)

    def receive(
        self,
        pair: BistaticPair,
        target: TargetState,
        tx: IqCapture,
        seed_key: tuple[int, ...],
        delayed_frames: dict | None = None,
    ) -> tuple[float, float, IqCapture, IqCapture]:
        """Receiver chain: propagate, beamform, MUSIC, correlate.

        Propagates ``tx`` (one slot or a pulse train of it), strips the
        direct path over the pilot symbol only, since that window is all
        MUSIC reads, and reads the TDOA off the first pulse of the
        direct, echo and guard beams. ``delayed_frames`` is passed to
        `propagate`. Returns the echo angle, the TDOA and the direct and
        echo beams of the whole capture.
        """
        params = self.cfg.radar
        rx, tx_node = pair.rx_node, pair.tx_node
        # The receive array looks straight at the transmitter: the direct
        # path arrives at broadside, where a linear array resolves angles
        # best, so its projection cannot swallow echoes near the baseline;
        # `_resolve_survey_aoa` settles the endfire ambiguity that costs.
        direct_aoa = boresight = true_aoa(rx, tx_node)
        rx_array = ArrayModel(params.rx_elements, 0.5, boresight)
        paths = build_paths(pair, target, params, self.cfg.direct_path_gain_db)
        capture = propagate(tx, paths, rx_array, params, seed_key, delayed_frames)
        direct_beam = beamform(capture, rx_array, direct_aoa)
        pilot = project_out_stream(
            capture, direct_beam.samples[0], self.wcfg.dmrs_window()
        )
        aoa_raw = music_aoa(pilot, rx_array, 1, 0.1)[0]
        aoa = _resolve_survey_aoa(aoa_raw, boresight, true_aoa(rx, target))
        echo_beam = beamform(capture, rx_array, aoa)
        guard_beam = null_steer_beamform(capture, rx_array, aoa, direct_aoa)
        first = slice(0, capture.samples_per_pulse)
        direct0, echo0, guard0 = (
            IqCapture(beam.samples[:, first], capture.sample_rate_hz)
            for beam in (direct_beam, echo_beam, guard_beam)
        )
        tdoa = estimate_tdoa(
            direct0,
            echo0,
            self.reference,
            guard_beam=guard0,
            direct_delay_hint_s=pair.baseline / SPEED_OF_LIGHT,
        )
        return aoa, tdoa, direct_beam, echo_beam

    def measure(
        self,
        pair: BistaticPair,
        target: TargetState,
        seed_key: tuple[int, ...],
        delayed_frames: dict | None = None,
    ) -> Measurement:
        """One slot through the receiver chain, as a measurement."""
        aoa, tdoa, _, _ = self.receive(pair, target, self.slot, seed_key, delayed_frames)
        return Measurement(tdoa_s=tdoa, aoa_rad=aoa, mode=pair.mode)


def _sweep_point(
    cfg: ScenarioConfig,
    bench: _SignalBench | None,
    index: int,
    theta_deg: float,
    gdops: tuple[float, float],
) -> SweepRow:
    """One contour point; ``gdops`` holds its mode-1 and mode-2 GDOP."""
    theta = math.radians(theta_deg)
    pair1 = _primary_pair(cfg, Mode.MODE1)
    pair2 = _primary_pair(cfg, Mode.MODE2)
    x, y = iso_range_point(pair1, cfg.sum_range, theta)
    target = TargetState(x, y, rcs_dbsm=cfg.rcs_dbsm)

    tdoa_true = true_tdoa(pair1, target)
    aoa_true = true_aoa(pair1.n2, target)
    row = SweepRow(
        theta2_deg=theta_deg,
        x_m=x,
        y_m=y,
        tdoa_true_ns=tdoa_true * 1e9,
        aoa_true_deg=deg360(aoa_true),
        gdop_mode1_m=gdops[0],
        gdop_mode2_m=gdops[1],
    )

    if collinearity_deg(pair1, target) < cfg.exclusion_deg:
        row.status = STATUS_EXCLUDED
        return row

    pairs = ((Mode.MODE1, pair1), (Mode.MODE2, pair2))
    try:
        if cfg.engine == ENGINE_MODEL:
            first, errors = _model_trials(cfg, index, target, pairs)
        else:
            first, errors = _signal_trials(cfg, bench, index, target, pairs)
    except DetectionError:
        row.status = "fail:detect"
        return row
    except DegenerateGeometryError:
        row.status = "fail:degenerate"
        return row

    tdoa_first, aoa_first = first
    row.tdoa_meas_ns = tdoa_first * 1e9
    row.tdoa_err_ns = (tdoa_first - tdoa_true) * 1e9
    row.aoa_meas_deg = deg360(aoa_first)
    row.aoa_err_deg = math.degrees(
        (aoa_first - aoa_true + math.pi) % (2 * math.pi) - math.pi
    )
    e1, e2 = errors[Mode.MODE1], errors[Mode.MODE2]
    row.err_mode1_m = sum(e1) / len(e1)
    row.err_mode2_m = sum(e2) / len(e2)
    row.err_rms_mode1_m = math.sqrt(sum(e * e for e in e1) / len(e1))
    row.err_rms_mode2_m = math.sqrt(sum(e * e for e in e2) / len(e2))
    return row


_Pairs = tuple[tuple[Mode, BistaticPair], ...]
_Trials = tuple[tuple[float, float], dict[Mode, list[float]]]


def _model_trials(
    cfg: ScenarioConfig, index: int, target: TargetState, pairs: _Pairs
) -> _Trials:
    """Model-engine trials of a point: the first mode-1 (TDOA, AoA) and
    the localization errors of every trial per mode, all trials at once.

    Substream layout v2: each purpose of a point is one substream and
    trial t reads row t of it. Raises DegenerateGeometryError if any
    trial locates to infinity, so one degenerate trial fails the point.
    """
    believed = _believed_nodes(cfg, index, cfg.nodes[:2])
    first, errors = None, {}
    for mode, pair in pairs:
        noise = _normals(cfg, index, (2,), _TAG_MEAS, mode.value)
        tdoa, aoa = model_measure_batch(pair, target, cfg.error_override, noise)
        tx, rx = (0, 1) if mode is Mode.MODE1 else (1, 0)
        xy = locate_batch(believed[:, tx], believed[:, rx], tdoa, aoa)
        if np.isnan(xy).any():
            raise DegenerateGeometryError("a trial locates the target at infinity")
        errors[mode] = [math.hypot(*d) for d in (xy - (target.x, target.y)).tolist()]
        first = first or (float(tdoa[0]), float(aoa[0]))
    return first, errors


def _signal_trials(
    cfg: ScenarioConfig,
    bench: _SignalBench,
    index: int,
    target: TargetState,
    pairs: _Pairs,
) -> _Trials:
    """Signal-engine trials of a point, as `_model_trials` returns them:
    the receiver chain per trial and mode in trial-major order, each
    trial from its own channel substreams and its row of the node
    wobble, stopping at the first failure."""
    first, errors = None, {mode: [] for mode, _ in pairs}
    # Both modes and all trials see the same path delays, so the
    # delayed slot frames are computed once for this point.
    delayed_frames: dict = {}
    believed = _believed_nodes(cfg, index, cfg.nodes[:2]).tolist()
    for trial in range(cfg.trials_per_point):
        n1, n2 = (NodePosition(*xy) for xy in believed[trial])
        for mode, pair in pairs:
            key = (cfg.seed, index, trial, _TAG_CHANNEL, mode.value)
            meas = bench.measure(pair, target, key, delayed_frames)
            x, y = locate_bistatic(BistaticPair(n1, n2, mode), meas)
            errors[mode].append(math.hypot(x - target.x, y - target.y))
            first = first or (meas.tdoa_s, meas.aoa_rad)
    return first, errors


def _run_points(cfg: ScenarioConfig, workers: int, point) -> list:
    """``point(index, theta_deg)`` at every contour point, in contour order;
    each point has its own substreams, so workers never change the rows."""
    items = list(enumerate(theta_grid_deg(cfg.sweep_points)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda item: point(*item), items))
    return [point(*item) for item in items]


def run_iso_range_sweep(cfg: ScenarioConfig, workers: int = 1) -> SweepResult:
    """Sweep the iso-range contour and measure at every point.

    Emits one row per contour point in parameter order, including
    excluded and failed points (flagged in ``status`` with the remaining
    columns blank). The signal-level engine runs the OFDM receiver chain
    for both transmit directions; the model-based engine draws from the
    statistical measurement model instead.
    """
    if cfg.engine == ENGINE_MODEL and cfg.error_override is None:
        raise ConfigError("model-based engine needs an error model (sigma overrides)")
    bench = _SignalBench(cfg) if cfg.engine == ENGINE_SIGNAL else None
    gdops = _contour_gdop(cfg)
    rows = _run_points(
        cfg, workers, lambda i, theta: _sweep_point(cfg, bench, i, theta, gdops[i])
    )
    return SweepResult(rows=rows, summary=summarize_sweep(rows))


def _contour_gdop(cfg: ScenarioConfig) -> list[tuple[float, float]]:
    """Mode-1 and mode-2 GDOP at every contour point from one stacked
    call; NaN without an error model."""
    thetas = theta_grid_deg(cfg.sweep_points).tolist()
    if cfg.error_override is None:
        return [(math.nan, math.nan)] * len(thetas)
    pairs = [_primary_pair(cfg, Mode.MODE1), _primary_pair(cfg, Mode.MODE2)]
    xs, ys = zip(*(iso_range_point(pairs[0], cfg.sum_range, math.radians(t)) for t in thetas))
    both = [pair for pair in pairs for _ in thetas]
    values = gdop_batch(both, xs * 2, ys * 2, cfg.error_override).reshape(2, -1)
    return list(zip(*values.tolist()))


def _mean(values) -> float:
    kept = [v for v in values if not math.isnan(v)]
    return sum(kept) / len(kept) if kept else math.nan


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


def _write_rows(handle, row_type, rows, summary) -> None:
    names = [f.name for f in fields(row_type)]
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([_format(getattr(row, name)) for name in names])
    for key in sorted(summary):
        handle.write(f"# {key} = {_format(summary[key])}\n")


def _emit(path, write) -> None:
    """``write(handle)`` on ``path`` itself if it is writable, else on the file it names."""
    if hasattr(path, "write"):
        write(path)
    else:
        with open(path, "w", newline="") as handle:
            write(handle)


def write_sweep_csv(result: SweepResult, path: str | Path | io.TextIOBase) -> None:
    """Write sweep rows as CSV with a trailing ``#`` summary block."""
    _emit(path, lambda handle: _write_rows(handle, SweepRow, result.rows, result.summary))


def multistatic_nodes(cfg: ScenarioConfig) -> list[NodePosition]:
    """Node layout for fusion runs: the transmitter plus receivers.

    A two-node config is expanded to one transmitter with three
    receivers spread uniformly on the circle of baseline radius, keeping
    the configured second node as the first receiver.
    """
    if len(cfg.nodes) >= 4:
        return list(cfg.nodes)
    tx, rx1 = cfg.nodes[0], cfg.nodes[1]
    start = math.atan2(rx1.y - tx.y, rx1.x - tx.x)
    radius = cfg.baseline_l
    out = [tx, rx1]
    for k in (1, 2):
        angle = start + k * 2.0 * math.pi / 3.0
        out.append(
            NodePosition(
                tx.x + radius * math.cos(angle),
                tx.y + radius * math.sin(angle),
                rx1.sigma_x,
                rx1.sigma_y,
            )
        )
    return out


def _multistatic_point(
    cfg: ScenarioConfig,
    bench: _SignalBench | None,
    nodes: list[NodePosition],
    index: int,
    theta_deg: float,
) -> MultistaticRow:
    theta = math.radians(theta_deg)
    err_model = cfg.error_override
    anchor = BistaticPair(nodes[0], nodes[1], Mode.MODE1)
    x, y = iso_range_point(anchor, cfg.sum_range, theta)
    target = TargetState(x, y, rcs_dbsm=cfg.rcs_dbsm)
    row = MultistaticRow(theta2_deg=theta_deg, x_m=x, y_m=y)
    if collinearity_deg(anchor, target) < cfg.exclusion_deg:
        row.status = STATUS_EXCLUDED
        return row

    true_pairs = [BistaticPair(nodes[0], rx, Mode.MODE1) for rx in nodes[1:]]
    usable = {
        i: pair for i, pair in enumerate(true_pairs)
        if collinearity_deg(pair, target) >= cfg.exclusion_deg
    }
    if not usable:
        row.status = "fail:no_usable_pair"
        return row
    row.pairs_used = len(usable)

    tdoa, aoa = _fusion_measurements(cfg, bench, index, target, usable)
    measured = ~np.isnan(tdoa).any(axis=1)
    if not measured.any():
        row.status = "fail:detect"
        return row
    tdoa, aoa = tdoa[measured], aoa[measured]
    believed = _believed_nodes(cfg, index, nodes, per_trial=True)[measured]
    rx = believed[:, np.array(list(usable)) + 1]  # trial, pair, x/y
    tx = np.broadcast_to(believed[:, :1], rx.shape)
    believed_pairs = []
    for trial in believed.tolist():
        own = [NodePosition(*xy, n.sigma_x, n.sigma_y) for xy, n in zip(trial, nodes)]
        believed_pairs += [BistaticPair(own[0], own[i + 1]) for i in usable]

    # Every trial starts from the closed form of its pair with the best
    # predicted dilution at the target and weights its pairs there.
    predicted = gdop_batch(believed_pairs, x, y, err_model).reshape(tdoa.shape)
    best = np.argmin(np.where(np.isnan(predicted), np.inf, predicted), axis=1)
    rows = np.arange(len(best))
    guess = locate_batch(tx[rows, best], rx[rows, best], tdoa[rows, best], aoa[rows, best])
    at_guess = [np.repeat(guess[:, k], len(usable)) for k in (0, 1)]
    weights = gdop_weights(
        gdop_batch(believed_pairs, *at_guess, err_model).reshape(tdoa.shape)
    )
    # Whiten the two residual kinds by their standard deviations so
    # meter-scale TDOA terms cannot drown the angle terms.
    solution = solve_multistatic_batch(
        tx, rx, tdoa, aoa, guess,
        a=1.0 / (SPEED_OF_LIGHT * max(err_model.sigma_tdoa_s, 1e-15)),
        b=1.0 / max(err_model.sigma_aoa_rad, 1e-12),
        w=weights,
    )
    solved = ~solution.failed
    fused = [math.hypot(px - x, py - y) for px, py in solution.xy[solved].tolist()]
    closed = [math.hypot(px - x, py - y) for px, py in guess[solved].tolist()]
    if not fused:
        row.status = "fail:solver"
        return row
    row.err_fused_m = sum(fused) / len(fused)
    row.err_best_pair_m = sum(closed) / len(closed)
    row.fused_wins = sum(f <= c + 1e-12 for f, c in zip(fused, closed))
    row.trials = len(fused)
    return row


def _fusion_measurements(
    cfg: ScenarioConfig, bench, index: int, target: TargetState, pairs: dict
) -> tuple[np.ndarray, np.ndarray]:
    """TDOAs and AoAs (trials x pairs) of one point's trials; ``pairs``
    maps receiver index, which keys the substreams, to the true pair.

    Both engines keep substream layout v1: the model engine draws each
    trial's measurement of receiver i from its own substream; the signal
    engine runs the receiver chain per trial and receiver in trial-major
    order, and a trial with a refused measurement is a NaN row.
    """
    trials = cfg.trials_per_point
    if cfg.engine == ENGINE_MODEL:
        draws = [
            model_measure_batch(
                pair, target, cfg.error_override,
                _normals(cfg, index, (2,), _TAG_MEAS, i, per_trial=True),
            )
            for i, pair in pairs.items()
        ]
        return np.transpose([d[0] for d in draws]), np.transpose([d[1] for d in draws])
    out = np.full((2, trials, len(pairs)), math.nan)
    # All trials and receivers see the same path delays.
    delayed_frames: dict = {}
    for trial in range(trials):
        try:
            for j, (i, pair) in enumerate(pairs.items()):
                key = (cfg.seed, index, trial, _TAG_CHANNEL, i)
                meas = bench.measure(pair, target, key, delayed_frames)
                out[:, trial, j] = meas.tdoa_s, meas.aoa_rad
        except DetectionError:
            out[:, trial] = math.nan
    return out[0], out[1]


def run_multistatic(cfg: ScenarioConfig, workers: int = 1) -> MultistaticResult:
    """Fuse measurements from one transmitter and several receivers.

    The target sweeps the iso-range contour of the first
    transmitter/receiver pair; every usable pair contributes a
    TDOA/AoA measurement and the weighted least-squares solver fuses
    them. Per trial the fused error is paired against the closed-form
    solution of the pair with the best predicted dilution.
    """
    if cfg.error_override is None:
        raise ConfigError("fusion weighting needs an error model (sigma overrides)")
    nodes = multistatic_nodes(cfg)
    bench = _SignalBench(cfg) if cfg.engine == ENGINE_SIGNAL else None
    rows = _run_points(
        cfg, workers, lambda i, theta: _multistatic_point(cfg, bench, nodes, i, theta)
    )
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
    _emit(path, lambda h: _write_rows(h, MultistaticRow, result.rows, result.summary))


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
    train = pulse_train(bench.slot, motion.pulses)
    aoa, tdoa, direct_beam, echo_beam = bench.receive(
        pair, target, train, (cfg.seed, 0, 0, _TAG_CHANNEL)
    )
    echo_clean = cancel_direct_path(echo_beam, direct_beam)

    rd_map = range_doppler(echo_clean, bench.reference)
    _, doppler_est = doppler_peak(rd_map)
    rate_est = doppler_to_velocity(doppler_est, params.carrier_hz)

    meas = Measurement(tdoa_s=max(tdoa, 0.0), aoa_rad=aoa, mode=pair.mode)
    px, py = locate_bistatic(pair, meas)
    projection = math.hypot(*sum_range_gradient(pair, TargetState(px, py)))
    speed_est = rate_est / projection

    direct_path, echo_path = build_paths(pair, target, params)
    del direct_path
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
    row = [_format(getattr(result, name)) for name in names]

    def emit(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        writer.writerow(row)

    _emit(path, emit)


def write_range_doppler_csv(
    rd_map: RangeDopplerMap, path, max_delay_bins: int = 256
) -> None:
    """Range-Doppler magnitudes: Doppler axis header, delay axis column."""
    rows = min(max_delay_bins, rd_map.delay_axis_s.size)

    def emit(handle):
        writer = csv.writer(handle, lineterminator="\n")
        axis = rd_map.doppler_axis_hz.tolist()
        writer.writerow(["delay_s"] + [_format(v) for v in axis])
        for i in range(rows):
            writer.writerow(
                [_format(rd_map.delay_axis_s[i])]
                + [_format(v) for v in rd_map.magnitudes[i].tolist()]
            )

    _emit(path, emit)


def run_gdop_map(cfg: ScenarioConfig, grid: GridSpec) -> list[GdopCell]:
    """Dilution of precision for both transmit directions over a grid.

    Cells iterate y outer, x inner. Degenerate cells carry NaN dilution
    and best_mode ``degenerate``.
    """
    err = cfg.error_override
    if err is None:
        raise ConfigError("gdop map needs an error model (sigma overrides)")
    pair1 = _primary_pair(cfg, Mode.MODE1)
    pair2 = _primary_pair(cfg, Mode.MODE2)
    xs = np.tile(np.linspace(grid.x_min, grid.x_max, grid.nx), grid.ny)
    ys = np.repeat(np.linspace(grid.y_min, grid.y_max, grid.ny), grid.nx)
    g1s = gdop_batch([pair1], xs, ys, err).tolist()
    g2s = gdop_batch([pair2], xs, ys, err).tolist()
    cells = []
    for xv, yv, g1, g2 in zip(xs.tolist(), ys.tolist(), g1s, g2s):
        if math.isnan(g1) and math.isnan(g2):
            best = "degenerate"
        elif math.isnan(g2) or g1 <= g2:
            best = "mode1"
        else:
            best = "mode2"
        cells.append(GdopCell(xv, yv, g1, g2, best))
    return cells


def write_gdop_map_csv(cells: list[GdopCell], path) -> None:
    _emit(path, lambda handle: _write_rows(handle, GdopCell, cells, {}))
