"""Receiver-side estimators: AoA, TDOA, Doppler, and a statistical model.

The signal-level chain works on element captures: MUSIC for the echo
arrival angle, conjugate beamforming toward the direct and echo
directions, least-squares direct-path cancellation, matched-filter TDOA
on the sample lattice, and a range-Doppler map across a pulse train.
``model_measure_batch`` is the cheap statistical stand-in: it adds
Gaussian errors of the model's sigmas to arrays of true TDOAs and AoAs,
with no lattice rounding and no waveform simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DetectionError
from .channel import SPACING_WAVELENGTHS, ArrayModel, steering_vector
from .geometry import (
    SPEED_OF_LIGHT,
    Mode,
    wrap_angle,
    wrap_angles,
)
from .gdop import MeasurementErrorModel
from .waveform import IqCapture, WaveformConfig, fast_length, matched_reference

# Half-normal identity: for zero-mean Gaussian error, E|e| = sigma *
# sqrt(2 / pi), so a reported mean absolute error maps back to sigma
# through this factor.
MEAN_ABS_TO_SIGMA = math.sqrt(math.pi / 2.0)

# Spacing of the MUSIC scan grid; the parabolic fit refines within it.
MUSIC_GRID_DEG = 0.1

# Detection threshold of `estimate_tdoa` over the median correlation floor.
MIN_PEAK_DB = 6.0
# Share of the guard correlation's peak the winning echo lag must hold.
GUARD_FRACTION = 0.5
# Samples either side of the surveyed direct delay that `estimate_tdoa`
# searches for the direct path, and the floor that anchor must clear.
HINT_WINDOW = 1
HINT_FLOOR_DB = 12.0

# Zero-padding factor of the slow-time DFT of `range_doppler`.
DOPPLER_PAD = 4

# Delay rows per slow-time DFT block of `range_doppler` (4 MiB of
# spectrum at 256 Doppler bins).
_DELAY_BLOCK = 1024

# Samples per block of `project_out_stream`'s subtraction.
_SAMPLE_BLOCK = 1 << 13


@dataclass(frozen=True)
class Measurement:
    """One TDOA/AoA measurement from a pair."""

    tdoa_s: float
    aoa_rad: float
    mode: Mode = Mode.MODE1

    def __post_init__(self) -> None:
        if self.tdoa_s < 0.0:
            raise ValueError("measured tdoa must be non-negative")
        if not -math.pi < self.aoa_rad <= math.pi + 1e-12:
            raise ValueError("aoa must be wrapped to (-pi, pi]")


@dataclass
class RangeDopplerMap:
    """Matched-filter magnitude over delay (rows) and Doppler (columns):
    the map's first delay rows and its peak.

    ``magnitudes`` holds the rows at the delays ``delay_axis_s``. The
    peak is the map's largest magnitude, the first in row-major order:
    at delay ``peak_delay_s`` and Doppler bin ``peak_bin``, in the row
    ``peak_row`` of that delay's magnitudes.
    """

    magnitudes: np.ndarray
    delay_axis_s: np.ndarray
    doppler_axis_hz: np.ndarray
    peak_delay_s: float
    peak_bin: int
    peak_row: np.ndarray

    def __post_init__(self) -> None:
        self.magnitudes = np.asarray(self.magnitudes, dtype=float)
        self.delay_axis_s = np.asarray(self.delay_axis_s, dtype=float)
        self.doppler_axis_hz = np.asarray(self.doppler_axis_hz, dtype=float)
        self.peak_row = np.asarray(self.peak_row, dtype=float)
        if self.magnitudes.shape != (self.delay_axis_s.size, self.doppler_axis_hz.size):
            raise ValueError("map shape must match its axes")
        if self.peak_row.shape != self.doppler_axis_hz.shape:
            raise ValueError("peak row must match the Doppler axis")
        if not 0 <= self.peak_bin < self.doppler_axis_hz.size:
            raise ValueError("peak bin must lie on the Doppler axis")
        if np.any(np.diff(self.delay_axis_s) <= 0) or np.any(
            np.diff(self.doppler_axis_hz) <= 0
        ):
            raise ValueError("axes must be strictly increasing")
        if np.any(self.magnitudes < 0) or np.any(self.peak_row < 0):
            raise ValueError("magnitudes must be non-negative")


def snapshot_index(total: int, count: int) -> np.ndarray:
    """Which ``count`` of ``total`` samples the receiver hands `music_aoa`."""
    if total < count:
        raise ValueError(f"window holds {total} samples, need at least {count}")
    return (np.arange(count) * total) // count


@lru_cache(maxsize=8)
def _music_scan(elements: int) -> tuple[np.ndarray, np.ndarray]:
    """The scan of `music_aoa` for an element count, read-only: the grid
    offsets from boresight (radians) and their steering vectors as
    columns (elements x offsets)."""
    offsets = np.radians(np.arange(-90.0 + MUSIC_GRID_DEG, 90.0, MUSIC_GRID_DEG))
    phase = 1j * 2.0 * math.pi * np.arange(elements)[:, np.newaxis] * SPACING_WAVELENGTHS
    steer = np.exp(phase * np.sin(offsets)[np.newaxis, :])
    offsets.flags.writeable = steer.flags.writeable = False
    return offsets, steer


def _null_spectrum(r: np.ndarray, steer: np.ndarray) -> np.ndarray:
    """One-source MUSIC null spectrum of the covariance ``r`` at the
    steering vectors ``steer`` (columns of unit-modulus entries).

    The noise subspace is everything but the principal eigenvector v, so
    the noise-basis sum Σ|eᵢᴴa|²/E is (‖a‖² - |vᴴa|²)/E = 1 - |vᴴa|²/E:
    one E-vector product per angle instead of E - 1, summed over the
    elements in numpy's fixed order.
    """
    _, eigvecs = np.linalg.eigh(r)
    gain = (eigvecs[:, -1].conj()[:, np.newaxis] * steer).sum(axis=0)
    return 1.0 - (gain.real**2 + gain.imag**2) / steer.shape[0]


def music_aoa(capture: IqCapture, array: ArrayModel) -> float:
    """MUSIC arrival angle of one source from an element capture.

    Builds the covariance from every sample of the capture (at least 64
    snapshots), scans the noise-subspace null spectrum over a grid of
    angles `MUSIC_GRID_DEG` apart within the front half plane of the
    array, and refines its deepest minimum with a parabolic fit of the
    null spectrum.

    Returns:
        The angle in radians (global convention). A linear array cannot
        tell front from back; the returned angle lives in (boresight -
        pi/2, boresight + pi/2); a bearing hint picks the alias (see the
        harness's survey resolver).
    """
    if capture.elements != array.elements:
        raise ValueError("capture and array element counts differ")
    if capture.elements < 2:
        raise ValueError("MUSIC needs at least two elements")
    x = capture.samples
    if x.shape[1] < 64:
        raise ValueError("need at least 64 snapshots")

    r = x @ x.conj().T / x.shape[1]
    offsets, steer = _music_scan(array.elements)
    null = _null_spectrum(r, steer)

    interior = (null[1:-1] < null[:-2]) & (null[1:-1] <= null[2:])
    minima = np.flatnonzero(interior) + 1
    if minima.size == 0:
        raise DetectionError("MUSIC found no spectrum peaks")
    i = minima[np.argmin(null[minima])]
    lower, center, upper = null[i - 1], null[i], null[i + 1]
    denom = lower - 2.0 * center + upper
    shift = 0.0 if denom <= 0 else 0.5 * (lower - upper) / denom
    return wrap_angle(array.boresight + (offsets[i] + shift * math.radians(MUSIC_GRID_DEG)))


def beamform(capture: IqCapture, array: ArrayModel, angle_rad: float) -> IqCapture:
    """Conjugate steering-vector sum normalized by the element count.

    A source arriving from ``angle_rad`` passes with gain 1; white noise
    power drops by the element count.
    """
    if capture.elements != array.elements:
        raise ValueError("capture and array element counts differ")
    weights = steering_vector(array, angle_rad)
    stream = weights.conj() @ capture.samples / array.elements
    return IqCapture(
        stream,
        capture.sample_rate_hz,
        pulses=capture.pulses,
        samples_per_pulse=capture.samples_per_pulse,
    )


def null_steer_weights(array: ArrayModel, steer_rad: float, null_rad: float) -> np.ndarray:
    """Weights w of the `null_steer_beamform` beam wᴴx."""
    steer = steering_vector(array, steer_rad)
    null = steering_vector(array, null_rad)
    rho = np.vdot(null, steer) / array.elements
    gain = array.elements * (1.0 - abs(rho) ** 2)
    if gain <= 1e-9 * array.elements:
        raise ValueError("null direction coincides with the steering direction")
    return (steer - rho * null) / gain


def null_steer_beamform(
    capture: IqCapture, array: ArrayModel, steer_rad: float, null_rad: float
) -> IqCapture:
    """Steered beam with an exact spatial null toward ``null_rad``.

    The steering vector toward ``steer_rad`` is projected orthogonal to
    the one toward ``null_rad``, then normalized so a source arriving
    from ``steer_rad`` still passes with gain 1. A plane wave from the
    null direction is rejected completely, which makes this beam a
    guard channel for validating detections against strong co-channel
    interference.

    Raises:
        ValueError: when the two directions are so close that the
            projection leaves no usable gain toward ``steer_rad``.
    """
    if capture.elements != array.elements:
        raise ValueError("capture and array element counts differ")
    stream = null_steer_weights(array, steer_rad, null_rad).conj() @ capture.samples
    return IqCapture(
        stream,
        capture.sample_rate_hz,
        pulses=capture.pulses,
        samples_per_pulse=capture.samples_per_pulse,
    )


def project_out_stream(capture: IqCapture, stream: np.ndarray) -> IqCapture:
    """Remove each element's least-squares projection onto ``stream``, in
    place: the cleaned samples are written over ``capture``'s, and
    ``capture`` is returned.

    Scales every element identically, so the spatial signature of any
    component not aligned with ``stream`` is preserved; used to strip
    the direct path from the echo beam of a Doppler run, and the
    element-level reference for the pilot samples of a `BeamCapture`.
    The coefficients read ``stream`` conjugated in its own buffer, which
    is conjugated back after, so it must not share memory with the
    capture; conjugation is exact, so it ends with its bits unchanged.
    """
    reference = np.asarray(stream, dtype=np.complex128).reshape(-1)
    samples = capture.samples
    if reference.shape[0] != samples.shape[1]:
        raise ValueError("stream length must match the capture")
    if np.may_share_memory(reference, samples):
        raise ValueError("stream must not share memory with the capture")
    flat = reference.view(np.float64)
    energy = np.einsum("i,i->", flat, flat)
    if energy <= 0.0:
        raise ValueError("reference stream has no energy")
    np.conjugate(reference, out=reference)
    coeffs = np.einsum("ki,i->k", samples, reference) / energy
    np.conjugate(reference, out=reference)
    work = np.empty(min(_SAMPLE_BLOCK, reference.size), dtype=np.complex128)
    for start in range(0, reference.size, _SAMPLE_BLOCK):
        part = slice(start, start + _SAMPLE_BLOCK)
        product = work[: len(reference[part])]
        for row, coeff in zip(samples, coeffs):
            np.multiply(coeff, reference[part], out=product)
            np.subtract(row[part], product, out=row[part])
    return capture


def _check_floor(magnitude: np.ndarray, peak: float, min_peak_db: float, what: str) -> None:
    """The detection floor of every `estimate_tdoa` stage: ``peak`` must
    clear the median of ``magnitude`` by ``min_peak_db``, else the
    ``what`` stage refuses with DetectionError."""
    floor = float(np.median(magnitude))
    if floor <= 0.0 or 20.0 * math.log10(peak / floor) < min_peak_db:
        raise DetectionError(
            f"{what} correlation peak is below the {min_peak_db:.1f} dB detection threshold"
        )


@dataclass(frozen=True)
class MatchedFilter:
    """The pilot reference of one waveform, prepared for `estimate_tdoa`.

    The DM-RS pilot is a comb of every second subcarrier, so its
    correlation repeats every N/2 lags, N the FFT size (1/(2Δf) in
    time): a lag at or past N/2 cannot be told from the one N/2 before
    it. The filter therefore covers the ``lags`` = N/2 lags [0, N/2)
    from transmit and reads a beam only over [``start``, ``stop``): the
    pilot symbol's span plus N/2 samples. It holds the pilot's
    conjugated spectrum and circular autocorrelation at one
    `fast_length` transform size with room for every lag of the window
    and for both tails of the autocorrelation template.
    """

    sample_rate_hz: float
    start: int
    stop: int
    lags: int
    conj_spectrum: np.ndarray
    auto: np.ndarray


def matched_filter(cfg: WaveformConfig) -> MatchedFilter:
    """The matched filter of the waveform ``cfg`` (see `MatchedFilter`).

    The reference is zero outside its pilot symbol, so that symbol's span
    gives the same correlation sums as the whole slot."""
    window = cfg.dmrs_window()
    pilot = matched_reference(cfg).samples[0, window]
    lags = cfg.fft_size // 2
    spectrum = np.fft.fft(pilot, fast_length(max(lags + pilot.size, 2 * pilot.size)))
    conj = spectrum.conj()
    auto = np.fft.ifft(spectrum * conj)
    return MatchedFilter(cfg.sample_rate_hz, window.start, window.stop + lags, lags, conj, auto)


def estimate_tdoa(
    direct_beam: IqCapture,
    echo_beam: IqCapture,
    matched: MatchedFilter,
    guard_beam: IqCapture | None = None,
    direct_delay_hint_s: float | None = None,
) -> float:
    """Matched-filter TDOA between the echo and direct streams, seconds.

    Locates the direct-path peak in the direct beam's correlation with
    the pilot reference, then removes the direct path from the echo
    beam's correlation by subtracting a complex-scaled copy of the
    reference autocorrelation centered on that lattice point (one
    CLEAN-style deflation step). The echo is the strongest remaining lag
    after the direct peak. No sub-sample interpolation is applied: the
    result is an integer multiple of the sample period, which sets the
    quantization lattice of the measurement. Because the template sits
    on the lattice while the true direct delay does not, a residual
    proportional to the leaked direct amplitude survives around the
    deflated peak and interferes with the echo lobe; when the echo's
    fractional delay is close to half a sample this interference decides
    which of the two neighboring lattice points wins.

    The beams are streams of one capture and must have equal length, at
    least ``matched.stop`` samples. They are correlated with the pilot
    of ``matched``, the waveform's `matched_filter`, in one FFT pass
    over the lag window [0, N/2) of the comb pilot: every peak, tail and
    median floor below is taken over that window, so no lag at or past
    N/2, where the pilot's correlation repeats, is searched or reported.

    ``guard_beam``, when given, is an interference-suppressed stream of
    the same capture (see `null_steer_beamform`) used as a guard channel
    to blank false detections: if the winning lag holds less than
    `GUARD_FRACTION` (half) of the guard correlation's own peak, the
    main detection is attributed to deflation residue and the guard's
    peak lag is reported instead.

    ``direct_delay_hint_s``, when given, restricts the direct-path peak
    search to `HINT_WINDOW` samples either side of that delay. Node
    positions are surveyed, so the baseline delay is predictable; the
    restriction keeps a strong echo from being mistaken for the direct
    path when transmit-pattern nulls starve the reference. One sample
    either side is what a centimetre survey supports: the direct path's
    lattice peak is the sample nearest its delay or a neighbour, while a
    wider window reaches the rising skirt of an echo a few lags later,
    and an anchor there shortens the TDOA by the lags it is off. Inside the
    window the anchor must clear the correlation floor by
    `HINT_FLOOR_DB` (12 dB) rather than `MIN_PEAK_DB` (6 dB): a handful of noise
    bins can top the median by several dB just by order statistics, and
    a false anchor corrupts every downstream lag, while a physically
    present direct path enjoys the reference's full processing gain and
    clears the stricter bar easily.

    Raises:
        ValueError: when a beam is not a single stream, or the beams
            differ in length, are shorter than ``matched.stop`` or
            differ in sample rate from the filter, or the hint lies
            outside the lag window.
        DetectionError: when the direct peak, the deflated echo peak
            or the guard peak that replaces it fails to clear its floor
            above the median correlation; the message names the stage.
    """
    beams = [direct_beam, echo_beam]
    if guard_beam is not None:
        beams.append(guard_beam)
    length = direct_beam.samples.shape[1]
    for capture in beams:
        if capture.elements != 1:
            raise ValueError("beams must be single streams")
        if abs(capture.sample_rate_hz - matched.sample_rate_hz) > 1e-3:
            raise ValueError("sample rates must match the matched filter")
        if capture.samples.shape[1] != length:
            raise ValueError("beams must have equal length")
    if length < matched.stop:
        raise ValueError("beams must hold the matched filter's lag window")
    size, auto, lags = matched.auto.size, matched.auto, matched.lags
    streams = np.vstack([capture.samples[0, matched.start : matched.stop] for capture in beams])
    corr = np.fft.ifft(np.fft.fft(streams, size, axis=1) * matched.conj_spectrum, axis=1)
    corr = corr[:, :lags]

    # The direct peak is searched near the hint, if any; its floor is
    # taken over the whole window.
    magnitude = np.abs(corr[0])
    lo, hi, min_peak_db = 0, lags, MIN_PEAK_DB
    if direct_delay_hint_s is not None:
        center = int(round(direct_delay_hint_s * matched.sample_rate_hz))
        lo, hi = max(center - HINT_WINDOW, 0), min(center + HINT_WINDOW + 1, lags)
        min_peak_db = HINT_FLOOR_DB
    if lo >= hi:
        raise ValueError("direct search window is outside the lag window")
    direct_peak = lo + int(np.argmax(magnitude[lo:hi]))
    _check_floor(magnitude, magnitude[direct_peak], min_peak_db, "direct")

    corr_echo = corr[1]
    template = auto[(np.arange(lags) - direct_peak) % size]
    corr_clean = corr_echo - corr_echo[direct_peak] / auto[0].real * template

    magnitude = np.abs(corr_clean)
    tail = magnitude[direct_peak + 1 :]
    if tail.size == 0:
        raise DetectionError("no lags left after the direct peak")
    offset = int(np.argmax(tail))
    _check_floor(magnitude, tail[offset], MIN_PEAK_DB, "echo")
    if guard_beam is not None:
        guard_tail = np.abs(corr[2, direct_peak + 1 :])
        guard_peak = float(guard_tail.max())
        if guard_peak <= 0.0:
            raise DetectionError("guard correlation is empty")
        if guard_tail[offset] < GUARD_FRACTION * guard_peak:
            offset = int(np.argmax(guard_tail))
            _check_floor(guard_tail, guard_peak, MIN_PEAK_DB, "guard")
    return (offset + 1) / matched.sample_rate_hz


def range_doppler(train: IqCapture, reference: IqCapture, rows: int) -> RangeDopplerMap:
    """Fast-time matched filter and slow-time DFT over a pulse train.

    Each pulse frame is correlated with the pilot reference, then a DFT
    across pulses, zero-padded `DOPPLER_PAD` (4) times, resolves Doppler
    per delay bin. The Doppler axis spans plus or minus half the pulse
    repetition rate with bin spacing 1 / (DOPPLER_PAD * pulses * PRI).
    The map holds its first ``rows`` delay rows and its peak. The
    correlation is written over the train's samples, so the map costs
    no second copy of the train.
    """
    if train.elements != 1:
        raise ValueError("range_doppler expects a single beamformed stream")
    if train.pulses < 2:
        raise ValueError("need at least 2 pulses for Doppler")
    fs = train.sample_rate_hz
    spp = train.samples_per_pulse
    pri = spp / fs
    frames = train.frames()[0]
    ref = reference.samples[0]
    if ref.shape[0] > spp:
        raise ValueError("reference longer than one pulse frame")

    # Each frame's fast-time correlation overwrites the frame, and the
    # slow-time DFT runs over blocks of delay rows, each written
    # fftshifted into one block of magnitudes: no spectrum or map of the
    # whole train is held. Each row is the one-shot transform, bit for
    # bit. A block's first maximum becomes the peak only if it is
    # strictly greater than the earlier blocks', as `np.argmax` picks.
    spectrum = np.fft.fft(ref, spp).conj()
    for frame in frames:
        frame[:] = np.fft.ifft(np.fft.fft(frame) * spectrum)
    bins = train.pulses * DOPPLER_PAD
    half = bins // 2
    kept = np.empty((min(rows, spp), bins))
    block = np.empty((min(_DELAY_BLOCK, spp), bins))
    peak = None
    for start in range(0, spp, _DELAY_BLOCK):
        magnitudes = block[: min(_DELAY_BLOCK, spp - start)]
        slow = np.fft.fft(
            np.ascontiguousarray(frames[:, start : start + _DELAY_BLOCK].T), n=bins, axis=1
        )
        np.abs(slow[:, : bins - half], out=magnitudes[:, half:])
        np.abs(slow[:, bins - half :], out=magnitudes[:, :half])
        held = kept[start : start + _DELAY_BLOCK]
        held[:] = magnitudes[: len(held)]
        row, column = divmod(int(np.argmax(magnitudes)), bins)
        if peak is None or magnitudes[row, column] > peak[0]:
            peak = magnitudes[row, column], start + row, column, magnitudes[row].copy()
    _, peak_index, peak_bin, peak_row = peak
    delay_axis = np.arange(spp) / fs
    doppler_axis = np.fft.fftshift(np.fft.fftfreq(bins, d=pri))
    return RangeDopplerMap(
        kept, delay_axis[: len(kept)], doppler_axis, delay_axis[peak_index], peak_bin, peak_row
    )


def doppler_peak(rd_map: RangeDopplerMap) -> tuple[float, float]:
    """Map peak as (delay seconds, Doppler Hz with parabolic refinement)."""
    f_idx = rd_map.peak_bin
    doppler = rd_map.doppler_axis_hz[f_idx]
    if 0 < f_idx < rd_map.doppler_axis_hz.size - 1:
        row = rd_map.peak_row
        lower, center, upper = row[f_idx - 1], row[f_idx], row[f_idx + 1]
        denom = lower - 2.0 * center + upper
        if denom < 0:
            step = rd_map.doppler_axis_hz[1] - rd_map.doppler_axis_hz[0]
            doppler += 0.5 * (lower - upper) / denom * step
    return float(rd_map.peak_delay_s), float(doppler)


def doppler_to_velocity(doppler_hz: float, carrier_hz: float) -> float:
    """Bistatic range rate c * f_D / f0, positive for a closing target."""
    if carrier_hz <= 0:
        raise ValueError("carrier must be positive")
    return SPEED_OF_LIGHT * doppler_hz / carrier_hz


def model_measure_batch(
    tdoa_s, aoa_rad, err: MeasurementErrorModel, noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """TDOAs and AoAs (seconds, radians) of statistical measurements.

    Gaussian errors with the model's sigmas are added to the true TDOAs
    ``tdoa_s``, which are not rounded to the sample lattice, and to the
    true AoAs ``aoa_rad``, in one array expression over every
    measurement. A negative noisy TDOA clamps to zero, matching the
    matched filter which never reports the echo before the direct path;
    a NaN true value (a measurement not made) stays NaN.
    ``noise`` holds the standard normal draws (TDOA, AoA) in its last
    axis of 2, and its other axes are the shape of the result: the true
    values broadcast to it. Another shape or a non-finite draw raises
    ValueError.
    """
    noise = np.asarray(noise, dtype=float)
    shape = noise.shape[:-1]
    try:
        fits = noise.shape[-1:] == (2,) and np.broadcast_shapes(
            np.shape(tdoa_s), np.shape(aoa_rad), shape) == shape
    except ValueError:  # the true values do not broadcast to the draws
        fits = False
    if not fits:
        raise ValueError("noise draws must be a (..., 2) array of the measurements' shape")
    if not np.isfinite(noise).all():
        raise ValueError("noise draws must be finite")
    noisy = tdoa_s + err.sigma_tdoa_s * noise[..., 0]
    return (
        np.where(noisy <= 0.0, 0.0, noisy),
        wrap_angles(aoa_rad + err.sigma_aoa_rad * noise[..., 1]),
    )
