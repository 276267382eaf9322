"""Experiment orchestration: contour sweeps, fusion runs, Doppler runs.

Every run is deterministic for a given config seed. Randomness is drawn
from substreams keyed by (seed, point index, trial index, purpose), so
results are identical regardless of worker count or evaluation order.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .channel import ArrayModel, build_paths, propagate
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
    model_based_measure,
    music_aoa,
    null_steer_beamform,
    project_out_stream,
    range_doppler,
)
from .fusion import FusionProblem, SolverOptions, compute_weights, solve_multistatic
from .gdop import MeasurementErrorModel, gdop
from .geometry import (
    SPEED_OF_LIGHT,
    BistaticPair,
    Mode,
    NodePosition,
    TargetState,
    _iso_range_point,
    bistatic_ranges,
    collinearity_deg,
    locate_bistatic,
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
    tdoa_true_ns: float
    tdoa_meas_ns: float
    tdoa_err_ns: float
    aoa_true_deg: float
    aoa_meas_deg: float
    aoa_err_deg: float
    err_mode1_m: float
    err_mode2_m: float
    err_rms_mode1_m: float
    err_rms_mode2_m: float
    gdop_mode1_m: float
    gdop_mode2_m: float
    status: str


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
    err_fused_m: float
    err_best_pair_m: float
    fused_wins: int
    trials: int
    pairs_used: int
    status: str


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


def _rng(cfg: ScenarioConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, *key]))


def _perturbed_nodes(nodes, rng) -> list[NodePosition]:
    """Believed node positions: truth plus per-axis Gaussian wobble."""
    out = []
    for node in nodes:
        draws = rng.standard_normal(2)
        out.append(
            NodePosition(
                node.x + node.sigma_x * draws[0],
                node.y + node.sigma_y * draws[1],
                node.sigma_x,
                node.sigma_y,
            )
        )
    return out


def _primary_pair(cfg: ScenarioConfig, mode: Mode = Mode.MODE1) -> BistaticPair:
    return BistaticPair(cfg.nodes[0], cfg.nodes[1], mode)


def _survey_boresight(rx: NodePosition, tx: NodePosition) -> float:
    """Receive array boresight: straight at the transmitter.

    The direct path then arrives at broadside, where a uniform linear
    array resolves angles best.  That keeps the direct-path projection
    from swallowing echoes that arrive near the baseline direction, at
    the cost of endfire ambiguity for targets abeam of the array, which
    `_resolve_survey_aoa` settles with the planning hint.
    """
    return true_aoa(rx, tx)


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


def _locate_error(
    believed: list[NodePosition], mode: Mode, meas: Measurement, target: TargetState
) -> float:
    pair = BistaticPair(believed[0], believed[1], mode)
    x, y = locate_bistatic(pair, meas)
    return math.hypot(x - target.x, y - target.y)


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
        direct_aoa = true_aoa(rx, tx_node)
        boresight = _survey_boresight(rx, tx_node)
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


def _gdop_or_nan(pair: BistaticPair, target: TargetState, err) -> float:
    if err is None:
        return math.nan
    try:
        return gdop(pair, target, err).gdop_m
    except DegenerateGeometryError:
        return math.nan


def _sweep_point(
    cfg: ScenarioConfig, bench: _SignalBench | None, index: int, theta_deg: float
) -> SweepRow:
    theta = math.radians(theta_deg)
    pair1 = _primary_pair(cfg, Mode.MODE1)
    pair2 = _primary_pair(cfg, Mode.MODE2)
    x, y = _iso_range_point(pair1, cfg.sum_range, theta)
    target = TargetState(x, y, rcs_dbsm=cfg.rcs_dbsm)

    tdoa_true = true_tdoa(pair1, target)
    aoa_true = true_aoa(pair1.n2, target)
    err_model = cfg.error_override
    row = SweepRow(
        theta2_deg=theta_deg,
        x_m=x,
        y_m=y,
        tdoa_true_ns=tdoa_true * 1e9,
        tdoa_meas_ns=math.nan,
        tdoa_err_ns=math.nan,
        aoa_true_deg=deg360(aoa_true),
        aoa_meas_deg=math.nan,
        aoa_err_deg=math.nan,
        err_mode1_m=math.nan,
        err_mode2_m=math.nan,
        err_rms_mode1_m=math.nan,
        err_rms_mode2_m=math.nan,
        gdop_mode1_m=_gdop_or_nan(pair1, target, err_model),
        gdop_mode2_m=_gdop_or_nan(pair2, target, err_model),
        status=STATUS_OK,
    )

    if collinearity_deg(pair1, target) < cfg.exclusion_deg:
        row.status = STATUS_EXCLUDED
        return row

    errors = {Mode.MODE1: [], Mode.MODE2: []}
    first_meas: Measurement | None = None
    # Both modes and all trials see the same path delays, so the
    # delayed slot frames are computed once for this point.
    delayed_frames: dict = {}
    try:
        for trial in range(cfg.trials_per_point):
            node_rng = _rng(cfg, index, trial, _TAG_NODES)
            believed = _perturbed_nodes(cfg.nodes[:2], node_rng)
            for mode, pair in ((Mode.MODE1, pair1), (Mode.MODE2, pair2)):
                if cfg.engine == ENGINE_SIGNAL:
                    meas = bench.measure(
                        pair,
                        target,
                        (cfg.seed, index, trial, _TAG_CHANNEL, mode.value),
                        delayed_frames,
                    )
                else:
                    meas = model_based_measure(
                        pair,
                        target,
                        cfg.radar,
                        err_model,
                        _rng(cfg, index, trial, _TAG_MEAS, mode.value),
                        sample_rate_hz=None,
                    )
                errors[mode].append(_locate_error(believed, mode, meas, target))
                if mode is Mode.MODE1 and trial == 0:
                    first_meas = meas
    except DetectionError:
        row.status = "fail:detect"
        return row
    except DegenerateGeometryError:
        row.status = "fail:degenerate"
        return row

    row.tdoa_meas_ns = first_meas.tdoa_s * 1e9
    row.tdoa_err_ns = (first_meas.tdoa_s - tdoa_true) * 1e9
    row.aoa_meas_deg = deg360(first_meas.aoa_rad)
    row.aoa_err_deg = math.degrees(
        (first_meas.aoa_rad - aoa_true + math.pi) % (2 * math.pi) - math.pi
    )
    row.err_mode1_m = sum(errors[Mode.MODE1]) / len(errors[Mode.MODE1])
    row.err_mode2_m = sum(errors[Mode.MODE2]) / len(errors[Mode.MODE2])
    row.err_rms_mode1_m = math.sqrt(
        sum(e * e for e in errors[Mode.MODE1]) / len(errors[Mode.MODE1])
    )
    row.err_rms_mode2_m = math.sqrt(
        sum(e * e for e in errors[Mode.MODE2]) / len(errors[Mode.MODE2])
    )
    return row


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
    thetas = theta_grid_deg(cfg.sweep_points)

    def work(item: tuple[int, float]) -> SweepRow:
        return _sweep_point(cfg, bench, item[0], item[1])

    items = list(enumerate(thetas))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(work, items))
    else:
        rows = [work(item) for item in items]
    return SweepResult(rows=rows, summary=summarize_sweep(rows))


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


def write_sweep_csv(result: SweepResult, path: str | Path | io.TextIOBase) -> None:
    """Write sweep rows as CSV with a trailing ``#`` summary block."""
    if isinstance(path, io.TextIOBase) or hasattr(path, "write"):
        _write_rows(path, SweepRow, result.rows, result.summary)
    else:
        with open(path, "w", newline="") as handle:
            _write_rows(handle, SweepRow, result.rows, result.summary)


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
    x, y = _iso_range_point(anchor, cfg.sum_range, theta)
    target = TargetState(x, y, rcs_dbsm=cfg.rcs_dbsm)
    row = MultistaticRow(
        theta2_deg=theta_deg,
        x_m=x,
        y_m=y,
        err_fused_m=math.nan,
        err_best_pair_m=math.nan,
        fused_wins=0,
        trials=0,
        pairs_used=0,
        status=STATUS_OK,
    )
    if collinearity_deg(anchor, target) < cfg.exclusion_deg:
        row.status = STATUS_EXCLUDED
        return row

    true_pairs = [BistaticPair(nodes[0], rx, Mode.MODE1) for rx in nodes[1:]]
    usable = [
        i
        for i, pair in enumerate(true_pairs)
        if collinearity_deg(pair, target) >= cfg.exclusion_deg
    ]
    if not usable:
        row.status = "fail:no_usable_pair"
        return row
    row.pairs_used = len(usable)

    fused_sum = 0.0
    best_sum = 0.0
    wins = 0
    done = 0
    delayed_frames: dict = {}
    for trial in range(cfg.trials_per_point):
        node_rng = _rng(cfg, index, trial, _TAG_NODES)
        believed = _perturbed_nodes(nodes, node_rng)
        measurements = []
        believed_pairs = []
        for i in usable:
            pair = true_pairs[i]
            if cfg.engine == ENGINE_SIGNAL:
                meas = bench.measure(
                    pair,
                    target,
                    (cfg.seed, index, trial, _TAG_CHANNEL, i),
                    delayed_frames,
                )
            else:
                meas = model_based_measure(
                    pair,
                    target,
                    cfg.radar,
                    err_model,
                    _rng(cfg, index, trial, _TAG_MEAS, i),
                    sample_rate_hz=None,
                )
            measurements.append(meas)
            believed_pairs.append(
                BistaticPair(believed[0], believed[i + 1], Mode.MODE1)
            )
        try:
            def rank(j: int) -> float:
                value = _gdop_or_nan(believed_pairs[j], target, err_model)
                return value if not math.isnan(value) else math.inf

            best_i = min(range(len(believed_pairs)), key=rank)
            best_xy = locate_bistatic(believed_pairs[best_i], measurements[best_i])
            # Whiten the two residual kinds by their standard deviations so
            # meter-scale TDOA terms cannot drown the angle terms.
            problem = FusionProblem(
                pairs=believed_pairs,
                measurements=measurements,
                a=1.0 / (SPEED_OF_LIGHT * max(err_model.sigma_tdoa_s, 1e-15)),
                b=1.0 / max(err_model.sigma_aoa_rad, 1e-12),
            )
            problem.w = compute_weights(problem, best_xy, err_model)
            solution = solve_multistatic(
                problem, SolverOptions(initial_guess=best_xy)
            )
        except (DegenerateGeometryError, ValueError):
            continue
        err_fused = math.hypot(solution.x - target.x, solution.y - target.y)
        err_best = math.hypot(best_xy[0] - target.x, best_xy[1] - target.y)
        fused_sum += err_fused
        best_sum += err_best
        wins += err_fused <= err_best + 1e-12
        done += 1
    if done == 0:
        row.status = "fail:solver"
        return row
    row.err_fused_m = fused_sum / done
    row.err_best_pair_m = best_sum / done
    row.fused_wins = wins
    row.trials = done
    return row


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
    thetas = theta_grid_deg(cfg.sweep_points)

    def work(item: tuple[int, float]) -> MultistaticRow:
        return _multistatic_point(cfg, bench, nodes, item[0], item[1])

    items = list(enumerate(thetas))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(work, items))
    else:
        rows = [work(item) for item in items]

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
    if hasattr(path, "write"):
        _write_rows(path, MultistaticRow, result.rows, result.summary)
    else:
        with open(path, "w", newline="") as handle:
            _write_rows(handle, MultistaticRow, result.rows, result.summary)


def moving_target(cfg: ScenarioConfig, motion: MotionConfig) -> TargetState:
    """Contour target moving inward along the contour normal."""
    pair = _primary_pair(cfg)
    theta = math.radians(motion.theta2_deg)
    x, y = _iso_range_point(pair, cfg.sum_range, theta)
    still = TargetState(x, y, rcs_dbsm=cfg.rcs_dbsm)
    r1, r2 = bistatic_ranges(pair, still)
    gx = (x - pair.n1.x) / r1 + (x - pair.n2.x) / r2
    gy = (y - pair.n1.y) / r1 + (y - pair.n2.y) / r2
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
    located = TargetState(px, py)
    r1, r2 = bistatic_ranges(pair, located)
    gx = (px - pair.n1.x) / r1 + (px - pair.n2.x) / r2
    gy = (py - pair.n1.y) / r1 + (py - pair.n2.y) / r2
    projection = math.hypot(gx, gy)
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

    if hasattr(path, "write"):
        emit(path)
    else:
        with open(path, "w", newline="") as handle:
            emit(handle)


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

    if hasattr(path, "write"):
        emit(path)
    else:
        with open(path, "w", newline="") as handle:
            emit(handle)


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
    xs = np.linspace(grid.x_min, grid.x_max, grid.nx)
    ys = np.linspace(grid.y_min, grid.y_max, grid.ny)
    cells = []
    for yv in ys:
        for xv in xs:
            target = TargetState(float(xv), float(yv))
            try:
                g1 = gdop(pair1, target, err).gdop_m
            except DegenerateGeometryError:
                g1 = math.nan
            try:
                g2 = gdop(pair2, target, err).gdop_m
            except DegenerateGeometryError:
                g2 = math.nan
            if math.isnan(g1) and math.isnan(g2):
                best = "degenerate"
            elif math.isnan(g2) or g1 <= g2:
                best = "mode1"
            else:
                best = "mode2"
            cells.append(GdopCell(float(xv), float(yv), g1, g2, best))
    return cells


def write_gdop_map_csv(cells: list[GdopCell], path) -> None:
    def emit(handle):
        names = [f.name for f in fields(GdopCell)]
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        for cell in cells:
            writer.writerow([_format(getattr(cell, name)) for name in names])

    if hasattr(path, "write"):
        emit(path)
    else:
        with open(path, "w", newline="") as handle:
            emit(handle)
