"""Two-path propagation to a uniform linear receive array.

The channel applies the direct (baseline) path and the target echo to a
transmit capture: fractional delay via a frequency-domain phase ramp,
carrier phase rotation, per-pulse Doppler progression (stop and hop),
array steering phases per element, and circular white noise at the
receiver's thermal floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import (
    BOLTZMANN,
    SPEED_OF_LIGHT,
    BistaticPair,
    RadarParams,
    TargetState,
    bistatic_ranges,
    bistatic_snr,
    sum_range_rate,
    true_aoa,
)
from .waveform import IqCapture

# Extra samples appended to each pulse frame beyond the largest path
# delay so the cyclic fractional delay cannot wrap signal into the
# frame start.
_PAD_GUARD = 8


@dataclass(frozen=True)
class ArrayModel:
    """Uniform linear array described in the global angle convention.

    ``boresight`` is the arrival angle (radians, same convention as
    ``true_aoa``) at which all elements are in phase. Element spacing is
    a fraction of the carrier wavelength.
    """

    elements: int
    spacing_wavelengths: float = 0.5
    boresight: float = 0.0

    def __post_init__(self) -> None:
        if self.elements < 1:
            raise ValueError("elements must be at least 1")
        if self.spacing_wavelengths <= 0.0:
            raise ValueError("spacing must be positive")


@dataclass(frozen=True)
class PathDescriptor:
    """One propagation path as seen at the receive array.

    ``amplitude`` is the linear voltage gain for a unit-mean-power
    transmit waveform; ``phase_rad`` carries any static phase beyond the
    carrier rotation implied by the delay (for example the sign of an
    array-factor lobe).
    """

    delay_s: float
    amplitude: float
    aoa_rad: float
    doppler_hz: float = 0.0
    phase_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.delay_s < 0.0:
            raise ValueError("delay must be non-negative")
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be non-negative")
        if not math.isfinite(self.doppler_hz):
            raise ValueError("doppler must be finite")


def steering_vector(array: ArrayModel, angle_rad: float) -> np.ndarray:
    """Element phases for a plane wave arriving from ``angle_rad``.

    Element k carries exp(j 2 pi k spacing sin(angle - boresight)); with
    spacing expressed in wavelengths the carrier cancels.
    """
    phase = (
        2.0
        * math.pi
        * np.arange(array.elements)
        * array.spacing_wavelengths
        * math.sin(angle_rad - array.boresight)
    )
    return np.exp(1j * phase)


def array_factor(array: ArrayModel, angle_rad: float, steer_rad: float) -> complex:
    """Normalized response toward ``angle_rad`` when steered to ``steer_rad``.

    Equals 1 at the steered direction; magnitudes below 1 are sidelobes
    of the uniformly excited array.
    """
    toward = steering_vector(array, angle_rad)
    weights = steering_vector(array, steer_rad)
    return complex(np.vdot(weights, toward) / array.elements)


def build_paths(
    pair: BistaticPair,
    target: TargetState,
    params: RadarParams,
    direct_path_gain_db: float | None = None,
) -> tuple[PathDescriptor, PathDescriptor]:
    """Direct and echo path descriptors for one pair and target.

    The echo amplitude realizes the bistatic-radar-equation SNR against
    the thermal floor k T_s B at one receive element. The direct path
    uses the free-space baseline budget scaled by the transmit array
    factor toward the receiver while the beam is steered at the target;
    ``direct_path_gain_db`` replaces that array factor with a fixed
    relative gain when set.

    The echo Doppler is -(f0 / c) d(R1 + R2)/dt, positive for a closing
    target.
    """
    tx, rx = pair.tx_node, pair.rx_node
    baseline = pair.baseline
    noise_w = params.noise_power_w()

    echo_snr = 10.0 ** (bistatic_snr(params, pair, target) / 10.0)
    echo = PathDescriptor(
        delay_s=sum(bistatic_ranges(pair, target)) / SPEED_OF_LIGHT,
        amplitude=math.sqrt(echo_snr * noise_w),
        aoa_rad=true_aoa(rx, target),
        doppler_hz=-params.carrier_hz / SPEED_OF_LIGHT * sum_range_rate(pair, target),
    )

    wavelength = params.wavelength_m
    direct_snr = (
        params.eirp_w
        * params.rx_elements
        * wavelength**2
        / ((4.0 * math.pi * baseline) ** 2 * noise_w)
    )
    if direct_path_gain_db is None:
        tx_array = ArrayModel(
            params.tx_elements, 0.5, boresight=true_aoa(tx, rx)
        )
        factor = array_factor(
            tx_array, true_aoa(tx, rx), true_aoa(tx, target)
        )
        relative = abs(factor)
        phase = math.atan2(factor.imag, factor.real)
    else:
        relative = 10.0 ** (direct_path_gain_db / 20.0)
        phase = 0.0
    direct = PathDescriptor(
        delay_s=baseline / SPEED_OF_LIGHT,
        amplitude=math.sqrt(direct_snr * noise_w) * relative,
        aoa_rad=true_aoa(rx, tx),
        doppler_hz=0.0,
        phase_rad=phase,
    )
    return direct, echo


def _delay_frames(
    tx: IqCapture, delays_s: tuple[float, ...], spp_out: int
) -> list[np.ndarray]:
    """Pulse frames of ``tx`` padded to ``spp_out`` and delayed per path."""
    spectra = np.fft.fft(tx.frames()[0], n=spp_out, axis=1)
    freq = np.fft.fftfreq(spp_out, d=1.0 / tx.sample_rate_hz)
    delayed = []
    for delay in delays_s:
        ramp = np.exp(-2j * math.pi * freq * delay)
        delayed.append(np.fft.ifft(spectra * ramp[np.newaxis, :], axis=1))
    return delayed


def propagate(
    tx: IqCapture,
    paths: tuple[PathDescriptor, ...] | list[PathDescriptor],
    rx_array: ArrayModel,
    params: RadarParams,
    seed: int | tuple[int, ...] = 0,
    delayed_frames: dict | None = None,
) -> IqCapture:
    """Apply paths and receiver noise to a transmit capture.

    Each pulse frame is padded past the largest path delay, delayed per
    path with an exact frequency-domain phase ramp, rotated by the
    carrier phase exp(-j 2 pi f0 tau) plus any static path phase,
    advanced in Doppler phase per pulse, and spread over elements with
    the array steering phases. The first path is written straight into
    the output and later paths are added one element at a time, so no
    temporary larger than one element's frames is built. Per-element
    noise has total power k T_s f_s (the thermal density over the full
    sampling bandwidth), drawn from a per-pulse substream of ``seed`` so
    results do not depend on scheduling.

    ``delayed_frames``, when given, keeps the delayed path frames keyed
    by the path delays, and belongs to this one transmit capture. Calls
    that pass the same dict and equal delays (both transmit modes and
    all trials of one contour point) reuse the frames instead of
    repeating the FFTs; the output is bit-identical either way.
    """
    if tx.elements != 1:
        raise ValueError("transmit capture must be single element")
    if abs(tx.sample_rate_hz - params.sample_rate_hz) > 1e-3:
        raise ValueError("transmit capture sample rate does not match params")
    fs = tx.sample_rate_hz
    pulses = tx.pulses
    max_delay = max((p.delay_s for p in paths), default=0.0)
    if any(p.delay_s < 0 for p in paths):
        raise DegenerateGeometryError("negative path delay")
    pad = int(math.ceil(max_delay * fs)) + _PAD_GUARD
    spp_out = tx.samples_per_pulse + pad
    pri = spp_out / fs
    pulse_index = np.arange(pulses)

    delays = tuple(p.delay_s for p in paths)
    delayed = None if delayed_frames is None else delayed_frames.get(delays)
    if delayed is None:
        delayed = _delay_frames(tx, delays, spp_out)
        if delayed_frames is not None:
            delayed_frames[delays] = delayed

    out = np.zeros((rx_array.elements, pulses, spp_out), dtype=np.complex128)
    scratch = np.empty((pulses, spp_out), dtype=np.complex128)
    for index, (path, frame) in enumerate(zip(paths, delayed)):
        static = path.amplitude * np.exp(
            1j * (path.phase_rad - 2.0 * math.pi * params.carrier_hz * path.delay_s)
        )
        doppler = np.exp(2j * math.pi * path.doppler_hz * pri * pulse_index)
        steer = steering_vector(rx_array, path.aoa_rad)
        gains = steer[:, np.newaxis] * (static * doppler)[np.newaxis, :]
        for element in range(rx_array.elements):
            gain = gains[element][:, np.newaxis]
            if index == 0:
                np.multiply(gain, frame, out=out[element])
            else:
                np.multiply(gain, frame, out=scratch)
                out[element] += scratch

    noise_power = BOLTZMANN * params.noise_temp_k * fs
    sigma = math.sqrt(noise_power / 2.0)
    base = [int(seed)] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]
    noise = np.empty((rx_array.elements, 2 * spp_out))
    for p in range(pulses):
        rng = np.random.default_rng(np.random.SeedSequence(base + [p]))
        rng.standard_normal(out=noise)
        noise *= sigma
        out[:, p, :] += noise.view(np.complex128)

    return IqCapture(
        out.reshape(rx_array.elements, pulses * spp_out),
        fs,
        pulses=pulses,
        samples_per_pulse=spp_out,
    )
