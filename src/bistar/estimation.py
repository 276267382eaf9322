"""Receiver-side estimators: AoA, TDOA, Doppler, and a statistical model.

The signal-level chain works on element captures: MUSIC for the echo
arrival angle, conjugate beamforming toward the direct and echo
directions, least-squares direct-path cancellation, matched-filter TDOA
on the sample lattice, and a range-Doppler map across a pulse train.
``model_measure_batch`` is the cheap statistical stand-in: it adds
Gaussian errors of the model's sigmas to the true TDOA and AoA, with no
lattice rounding and no waveform simulated.
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
    BistaticPair,
    Mode,
    TargetState,
    true_aoa,
    true_tdoa,
    wrap_angle,
    wrap_angles,
)
from .gdop import MeasurementErrorModel
from .waveform import IqCapture, fast_length

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
    """Matched-filter magnitude over delay (rows) and Doppler (columns)."""

    magnitudes: np.ndarray
    delay_axis_s: np.ndarray
    doppler_axis_hz: np.ndarray

    def __post_init__(self) -> None:
        self.magnitudes = np.asarray(self.magnitudes, dtype=float)
        self.delay_axis_s = np.asarray(self.delay_axis_s, dtype=float)
        self.doppler_axis_hz = np.asarray(self.doppler_axis_hz, dtype=float)
        if self.magnitudes.shape != (self.delay_axis_s.size, self.doppler_axis_hz.size):
            raise ValueError("map shape must match its axes")
        if np.any(np.diff(self.delay_axis_s) <= 0) or np.any(
            np.diff(self.doppler_axis_hz) <= 0
        ):
            raise ValueError("axes must be strictly increasing")
        if np.any(self.magnitudes < 0):
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
    """Remove each element's least-squares projection onto ``stream``.

    Scales every element identically, so the spatial signature of any
    component not aligned with ``stream`` is preserved; used to strip
    the direct path from the echo beam of a Doppler run, and the
    element-level reference for the pilot samples of a `BeamCapture`.
    """
    reference = np.asarray(stream, dtype=np.complex128).reshape(-1)
    if reference.shape[0] != capture.samples.shape[1]:
        raise ValueError("stream length must match the capture")
    flat = reference.view(np.float64)
    energy = np.einsum("i,i->", flat, flat)
    if energy <= 0.0:
        raise ValueError("reference stream has no energy")
    coeffs = np.einsum("ki,i->k", capture.samples, reference.conj()) / energy
    cleaned = coeffs[:, np.newaxis] * reference[np.newaxis, :]
    np.subtract(capture.samples, cleaned, out=cleaned)
    return IqCapture(
        cleaned,
        capture.sample_rate_hz,
        pulses=capture.pulses,
        samples_per_pulse=capture.samples_per_pulse,
    )


def _peak_with_floor(
    corr: np.ndarray,
    min_peak_db: float,
    what: str,
    window: tuple[int, int] | None = None,
) -> int:
    """Index of the strongest magnitude, checked against the median floor.

    ``window`` restricts the search to ``[lo, hi)`` while the floor is
    still taken over the whole correlation.
    """
    magnitude = np.abs(corr)
    lo, hi = (0, magnitude.shape[0]) if window is None else window
    lo = max(lo, 0)
    hi = min(hi, magnitude.shape[0])
    if lo >= hi:
        raise ValueError(f"{what} search window is outside the capture")
    peak = lo + int(np.argmax(magnitude[lo:hi]))
    floor = float(np.median(magnitude))
    if floor <= 0.0 or 20.0 * math.log10(magnitude[peak] / floor) < min_peak_db:
        raise DetectionError(
            f"{what} correlation peak is below the {min_peak_db:.1f} dB detection threshold"
        )
    return peak


@dataclass(frozen=True)
class MatchedFilter:
    """The pilot reference prepared for beams of ``length`` samples: its
    non-zero span, from sample ``start`` on, as conjugated spectrum and
    circular autocorrelation at one `fast_length` transform size with
    room for every non-negative lag of the linear correlation and for
    both tails of the autocorrelation template."""

    length: int
    start: int
    conj_spectrum: np.ndarray
    auto: np.ndarray


def matched_filter(reference: IqCapture, length: int) -> MatchedFilter:
    """The matched filter `estimate_tdoa` uses for beams of ``length`` samples.

    The reference is zero outside its pilot symbol, so its span from the
    first to the last non-zero sample gives the same correlation sums (an
    all-zero reference keeps its whole length)."""
    ref = reference.samples[0]
    nonzero = ref != 0
    start = int(np.argmax(nonzero))
    pilot = ref[start : ref.size - int(np.argmax(nonzero[::-1]))]
    spectrum = np.fft.fft(pilot, fast_length(length + pilot.size))
    conj = spectrum.conj()
    return MatchedFilter(length, start, conj, np.fft.ifft(spectrum * conj))


def estimate_tdoa(
    direct_beam: IqCapture,
    echo_beam: IqCapture,
    reference: IqCapture,
    guard_beam: IqCapture | None = None,
    direct_delay_hint_s: float | None = None,
    matched: MatchedFilter | None = None,
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

    The beams are streams of one capture and must have equal length.
    They are correlated with the reference's pilot span in one FFT pass
    through ``matched``, the reference's `matched_filter` for that
    length; a caller that correlates many captures passes it in,
    otherwise each call builds it.

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
            differ in length or in sample rate from the reference, or
            ``matched`` was prepared for another length.
        DetectionError: when the direct peak or the deflated echo peak
            fails to clear `MIN_PEAK_DB` above the median correlation
            floor.
    """
    beams = [direct_beam, echo_beam]
    if guard_beam is not None:
        beams.append(guard_beam)
    length = direct_beam.samples.shape[1]
    for capture in beams:
        if capture.elements != 1:
            raise ValueError("beams must be single streams")
        if abs(capture.sample_rate_hz - reference.sample_rate_hz) > 1e-3:
            raise ValueError("sample rates must match the reference")
        if capture.samples.shape[1] != length:
            raise ValueError("beams must have equal length")
    if matched is None:
        matched = matched_filter(reference, length)
    elif matched.length != length:
        raise ValueError("matched filter was prepared for another beam length")
    size, auto = matched.auto.size, matched.auto
    streams = np.vstack([capture.samples[0, matched.start :] for capture in beams])
    corr = np.fft.ifft(np.fft.fft(streams, size, axis=1) * matched.conj_spectrum, axis=1)
    corr = corr[:, :length]

    corr_direct = corr[0]
    if direct_delay_hint_s is None:
        direct_peak = _peak_with_floor(corr_direct, MIN_PEAK_DB, "direct")
    else:
        center = int(round(direct_delay_hint_s * reference.sample_rate_hz))
        lo, hi = center - HINT_WINDOW, center + HINT_WINDOW + 1
        direct_peak = _peak_with_floor(
            corr_direct, HINT_FLOOR_DB, "direct", window=(lo, hi)
        )

    corr_echo = corr[1]
    template = auto[(np.arange(length) - direct_peak) % size]
    corr_clean = corr_echo - corr_echo[direct_peak] / auto[0].real * template

    magnitude = np.abs(corr_clean)
    tail = magnitude[direct_peak + 1 :]
    if tail.size == 0:
        raise DetectionError("no lags left after the direct peak")
    offset = int(np.argmax(tail))
    floor = float(np.median(magnitude))
    if floor <= 0.0 or 20.0 * math.log10(tail[offset] / floor) < MIN_PEAK_DB:
        raise DetectionError(
            f"echo correlation peak is below the {MIN_PEAK_DB:.1f} dB detection threshold"
        )
    if guard_beam is not None:
        guard_tail = np.abs(corr[2, direct_peak + 1 :])
        guard_peak = float(guard_tail.max())
        if guard_peak <= 0.0:
            raise DetectionError("guard correlation is empty")
        if guard_tail[offset] < GUARD_FRACTION * guard_peak:
            offset = int(np.argmax(guard_tail))
            guard_floor = float(np.median(guard_tail))
            if (
                guard_floor <= 0.0
                or 20.0 * math.log10(guard_peak / guard_floor) < MIN_PEAK_DB
            ):
                raise DetectionError(
                    f"guard correlation peak is below the {MIN_PEAK_DB:.1f} dB "
                    "detection threshold"
                )
    return (offset + 1) / reference.sample_rate_hz


def range_doppler(
    train: IqCapture,
    reference: IqCapture,
) -> RangeDopplerMap:
    """Fast-time matched filter and slow-time DFT over a pulse train.

    Each pulse frame is correlated with the pilot reference, then a DFT
    across pulses, zero-padded `DOPPLER_PAD` (4) times, resolves Doppler
    per delay bin. The Doppler axis spans plus or minus half the pulse
    repetition rate with bin spacing 1 / (DOPPLER_PAD * pulses * PRI).
    The correlation is written over the train's samples, so the map
    costs no second copy of the train.
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
    # fftshifted into the one magnitude array: no spectrum of the whole
    # train is held. Each row is the one-shot transform, bit for bit.
    spectrum = np.fft.fft(ref, spp).conj()
    for frame in frames:
        frame[:] = np.fft.ifft(np.fft.fft(frame) * spectrum)
    bins = train.pulses * DOPPLER_PAD
    half = bins // 2
    magnitudes = np.empty((spp, bins))
    for start in range(0, spp, _DELAY_BLOCK):
        rows = slice(start, start + _DELAY_BLOCK)
        slow = np.fft.fft(np.ascontiguousarray(frames[:, rows].T), n=bins, axis=1)
        np.abs(slow[:, : bins - half], out=magnitudes[rows, half:])
        np.abs(slow[:, bins - half :], out=magnitudes[rows, :half])
    delay_axis = np.arange(spp) / fs
    doppler_axis = np.fft.fftshift(np.fft.fftfreq(bins, d=pri))
    return RangeDopplerMap(magnitudes, delay_axis, doppler_axis)


def doppler_peak(rd_map: RangeDopplerMap) -> tuple[float, float]:
    """Map peak as (delay seconds, Doppler Hz with parabolic refinement)."""
    flat = int(np.argmax(rd_map.magnitudes))
    d_idx, f_idx = np.unravel_index(flat, rd_map.magnitudes.shape)
    doppler = rd_map.doppler_axis_hz[f_idx]
    if 0 < f_idx < rd_map.doppler_axis_hz.size - 1:
        row = rd_map.magnitudes[d_idx]
        lower, center, upper = row[f_idx - 1], row[f_idx], row[f_idx + 1]
        denom = lower - 2.0 * center + upper
        if denom < 0:
            step = rd_map.doppler_axis_hz[1] - rd_map.doppler_axis_hz[0]
            doppler += 0.5 * (lower - upper) / denom * step
    return float(rd_map.delay_axis_s[d_idx]), float(doppler)


def doppler_to_velocity(doppler_hz: float, carrier_hz: float) -> float:
    """Bistatic range rate c * f_D / f0, positive for a closing target."""
    if carrier_hz <= 0:
        raise ValueError("carrier must be positive")
    return SPEED_OF_LIGHT * doppler_hz / carrier_hz


def model_measure_batch(
    pair: BistaticPair,
    target: TargetState,
    err: MeasurementErrorModel,
    noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """TDOAs and AoAs (seconds, radians) of statistical measurements.

    Gaussian errors with the model's sigmas are added to the true TDOA,
    which is not rounded to the sample lattice, and to the true AoA.
    A negative noisy TDOA clamps to zero, matching the
    matched filter which never reports the echo before the direct path.
    Trial t reads row t of ``noise``, a (trials, 2) array of standard
    normal draws (TDOA, AoA); another shape or a non-finite draw raises
    ValueError.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 2 or noise.shape[1] != 2:
        raise ValueError("noise draws must be a (trials, 2) array")
    if not np.isfinite(noise).all():
        raise ValueError("noise draws must be finite")
    tdoa = true_tdoa(pair, target)
    aoa = true_aoa(pair.rx_node, target)
    noisy = tdoa + err.sigma_tdoa_s * noise[:, 0]
    return (
        np.where(noisy > 0.0, noisy, 0.0),
        wrap_angles(aoa + err.sigma_aoa_rad * noise[:, 1]),
    )
