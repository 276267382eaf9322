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
from .waveform import IqCapture, fast_length

# Extra samples appended to each pulse frame beyond the largest path
# delay so the cyclic fractional delay cannot wrap signal into the
# frame start; the frame then grows to the next `fast_length`.
_PAD_GUARD = 8

# Element spacing of every array, in carrier wavelengths.
SPACING_WAVELENGTHS = 0.5

# Delay keys whose frames a `delayed_frames` cache holds before it is emptied.
_FRAME_KEYS = 8

# Samples per block of `BeamCapture`'s passes over a capture: each pulse
# frame is cut into blocks of at most this many samples, and every pass
# over a block runs while the block is cache-resident.
_BLOCK = 1 << 13


def _spans(pulses: int, spp: int):
    """(pulse, frame slice, capture slice) of each block of a capture of
    ``pulses`` frames of ``spp`` samples, in capture order."""
    for pulse in range(pulses):
        for start in range(0, spp, _BLOCK):
            frame = slice(start, min(start + _BLOCK, spp))
            yield pulse, frame, slice(pulse * spp + frame.start, pulse * spp + frame.stop)


# SeedSequence's hash constants and PCG64's multiplier, as in numpy's
# `bit_generator.pyx` and `pcg64.h`, for `substream_normals`.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_WORD = (1 << 32) - 1
_WIDE = (1 << 128) - 1


def _seed_words(seed, key=()) -> list[int]:
    """SeedSequence's split of ``seed`` (an int or a sequence of ints)
    extended by ``key``: little-endian 32-bit words per int, one for 0;
    a negative int raises ValueError."""
    values = [seed] if isinstance(seed, (int, np.integer)) else [*seed]
    words = []
    for value in map(int, values + [*key]):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _WORD)
        while value := value >> 32:
            words.append(value & _WORD)
    return words


def make_rng(seed, *key: int) -> np.random.Generator:
    """Generator of the substream named by ``seed`` and ``key``.

    ``seed`` is an integer or a sequence of integers; ``key`` extends it,
    so ``make_rng(seed, index, trial, purpose)`` draws one substream of
    a run. SeedSequence gets the ints as their uint32 words: the state
    of the ints themselves, without the slow per-int conversion.
    """
    words = np.array(_seed_words(seed, key), dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(words))


def _pcg_states(entropy: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of ``default_rng(SeedSequence(row))`` for each
    row of the uint32 ``entropy``: SeedSequence's pool hashing and
    ``generate_state(4, np.uint64)`` over all rows at once, then PCG64's
    seeding step per row."""
    rows, count = entropy.shape
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _WORD
        value *= const
        value ^= value >> 16
        return value

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        value ^= value >> 16
        return value

    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < count else zeros) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, count):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    const = _INIT_B
    state = np.empty((rows, 8), dtype=np.uint32)
    for i in range(8):
        state[:, i] = pool[i % 4] ^ const
        const = const * _MULT_B & _WORD
        state[:, i] *= const
        state[:, i] ^= state[:, i] >> 16
    # PCG64 reads the words as (seed high, seed low, inc high, inc low)
    # and steps twice: state = ((inc + seed) * M + inc) mod 2^128.
    out = []
    for seed_hi, seed_lo, inc_hi, inc_lo in state.astype("<u4").view("<u8").tolist():
        inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _WIDE
        out.append(((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc & _WIDE, inc))
    return out


def substream_normals(seed, keys, shape: tuple) -> np.ndarray:
    """Standard normals of many substreams: row i is exactly
    ``make_rng(seed, *keys[i]).standard_normal(shape)``.

    ``keys`` is a rows x words array of ints of one 32-bit word each; a
    key below 0 or from 2**32 on raises ValueError. Instead of a
    SeedSequence and a PCG64 per row, the seeding runs as array
    arithmetic over the rows (`_pcg_states`), and one generator draws
    each row from its state.
    """
    head = _seed_words(seed)
    keys = np.asarray(keys)
    out = np.empty((len(keys), *shape))
    if not len(keys):
        return out
    if keys.dtype.kind not in "iu" or keys.min() < 0 or keys.max() > _WORD:
        raise ValueError("substream keys must be integers of one 32-bit word")
    words = np.broadcast_to(np.array(head, np.uint32), (len(keys), len(head)))
    generator = np.random.Generator(np.random.PCG64(0))
    bits = generator.bit_generator
    flat = out.reshape(len(keys), -1)
    for i, (state, inc) in enumerate(_pcg_states(np.hstack([words, keys.astype(np.uint32)]))):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.standard_normal(out=flat[i])
    return out


@dataclass(frozen=True)
class ArrayModel:
    """Uniform linear array described in the global angle convention.

    ``boresight`` is the arrival angle (radians, same convention as
    ``true_aoa``) at which all elements are in phase. Elements sit
    `SPACING_WAVELENGTHS` carrier wavelengths apart.
    """

    elements: int
    boresight: float = 0.0

    def __post_init__(self) -> None:
        if self.elements < 1:
            raise ValueError("elements must be at least 1")


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
        * SPACING_WAVELENGTHS
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
        tx_array = ArrayModel(params.tx_elements, boresight=true_aoa(tx, rx))
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


def _path_frames(
    tx: IqCapture, paths, params: RadarParams, delayed_frames: dict | None, pulses: int
) -> tuple[int, list[np.ndarray], list[np.ndarray]]:
    """Checks ``tx`` against ``params``; returns the output frame length
    and, per path, its gain per pulse and the frames of ``tx`` padded to
    that length and delayed. A one-frame ``tx`` stands for a train of
    ``pulses`` copies of it: its one delayed frame broadcasts against the
    gains. ``delayed_frames`` caches them by exact delays for one ``tx``:
    a key's first call marks it (None), its second stores the frames, so
    keys met once hold no memory; the dict is emptied before a store past
    `_FRAME_KEYS` frames (`dict.clear` is atomic: threads share it)."""
    if tx.elements != 1:
        raise ValueError("transmit capture must be single element")
    if tx.pulses not in (1, pulses):
        raise ValueError("transmit capture must be one frame or the whole train")
    if abs(tx.sample_rate_hz - params.sample_rate_hz) > 1e-3:
        raise ValueError("transmit capture sample rate does not match params")
    fs = tx.sample_rate_hz
    max_delay = max((p.delay_s for p in paths), default=0.0)
    if any(p.delay_s < 0 for p in paths):
        raise DegenerateGeometryError("negative path delay")
    spp_out = fast_length(tx.samples_per_pulse + int(math.ceil(max_delay * fs)) + _PAD_GUARD)
    pri = spp_out / fs

    delays = tuple(p.delay_s for p in paths)
    delayed = None if delayed_frames is None else delayed_frames.get(delays)
    if delayed is None:
        spectra = np.fft.fft(tx.frames()[0], n=spp_out, axis=1)
        freq = np.fft.fftfreq(spp_out, d=1.0 / fs)
        delayed = [
            np.fft.ifft(spectra * np.exp(-2j * math.pi * freq * delay), axis=1)
            for delay in delays
        ]
        if delayed_frames is not None:
            if delays not in delayed_frames:
                delayed_frames[delays] = None
            else:
                stored = len(delayed_frames) - list(delayed_frames.values()).count(None)
                if stored >= _FRAME_KEYS:
                    delayed_frames.clear()
                delayed_frames[delays] = delayed
    gains = []
    for path in paths:
        static = path.amplitude * np.exp(
            1j * (path.phase_rad - 2.0 * math.pi * params.carrier_hz * path.delay_s)
        )
        doppler = np.exp(2j * math.pi * path.doppler_hz * pri * np.arange(pulses))
        gains.append(static * doppler)
    return spp_out, gains, delayed


def propagate(
    tx: IqCapture,
    paths: tuple[PathDescriptor, ...] | list[PathDescriptor],
    rx_array: ArrayModel,
    params: RadarParams,
    seed: int | tuple[int, ...] = 0,
) -> IqCapture:
    """Apply paths and receiver noise to a transmit capture.

    Each pulse frame is padded past the largest path delay to a
    `fast_length`, delayed per path with an exact frequency-domain phase
    ramp, rotated by the carrier phase exp(-j 2 pi f0 tau) plus any
    static path phase, advanced in Doppler phase per pulse, and spread
    over elements with the array steering phases. Per-element noise has
    total power k T_s f_s (the thermal density over the full sampling
    bandwidth), drawn from a per-pulse substream of ``seed`` so results
    do not depend on scheduling. This is the element-level reference
    that `BeamCapture` draws the receiver's view of.
    """
    spp_out, gains, delayed = _path_frames(tx, paths, params, None, tx.pulses)
    out = np.zeros((rx_array.elements, tx.pulses, spp_out), dtype=np.complex128)
    for path, gain, frame in zip(paths, gains, delayed):
        steer = steering_vector(rx_array, path.aoa_rad)
        out += (steer[:, np.newaxis] * gain)[:, :, np.newaxis] * frame

    sigma = math.sqrt(BOLTZMANN * params.noise_temp_k * tx.sample_rate_hz / 2.0)
    noise = np.empty((rx_array.elements, 2 * spp_out))
    for p in range(tx.pulses):
        make_rng(seed, p).standard_normal(out=noise)
        noise *= sigma
        out[:, p, :] += noise.view(np.complex128)
    return IqCapture(
        out.reshape(rx_array.elements, -1),
        tx.sample_rate_hz,
        pulses=tx.pulses,
        samples_per_pulse=spp_out,
    )


def _complex_normals(rng: np.random.Generator, shape: tuple, power: float) -> np.ndarray:
    """Circular complex normals of mean power ``power``."""
    draws = rng.standard_normal((*shape[:-1], 2 * shape[-1]))
    draws *= math.sqrt(power / 2.0)
    return draws.view(np.complex128)


class BeamCapture:
    """What a receiver steered at ``direct_rad`` reads of one capture.

    Equal in joint law to `propagate` followed by conjugate beams and
    `project_out_stream`, with u the steering vector toward ``direct_rad``:
    ``direct`` is the beam uᴴx/E over the capture, ``coeffs`` the
    projection coefficients c = x dᴴ/‖d‖², ``pilot`` the element samples
    at ``columns`` (flat sample indices) less c d, and `beams` forms
    the echo and guard beams wᴴx. A path enters a beam as wᴴa_p times
    its pulse gains and delayed frames, so no element x samples array
    is built.
    The noise splits into ζ = uᴴn/E over the capture and P⊥n
    (P⊥ = I - uuᴴ/E) at ``columns``; the rest of P⊥n reaches c as one
    E-vector y and the beams as streams conditioned on y. Substream
    layout v3 draws ζ, the column samples, y and the beams, in that
    order, from the one substream ``seed``. A one-frame ``tx`` with
    ``pulses`` > 1 is transmitted as a train of that many copies.
    ``delayed_frames`` is the frame cache of `_path_frames` shared by every
    capture of ``tx`` in a run (a sweep's or fusion run's), or None.

    Since x = u d + P⊥x, every product past the direct beam reads only
    P⊥x: c = u + P⊥x dᴴ/‖d‖² and wᴴx = (wᴴu) d + (P⊥w)ᴴx. The capture is
    visited in `_spans` blocks, each path's samples formed there from its
    pulse gain and delayed frame; sums over the capture are einsum sums
    per block added in capture order, so no BLAS call sets their order.
    """

    def __init__(
        self,
        tx: IqCapture,
        paths,
        rx_array: ArrayModel,
        params: RadarParams,
        seed,
        direct_rad: float,
        columns: np.ndarray,
        delayed_frames: dict | None,
        pulses: int,
    ):
        spp, gains, delayed = _path_frames(tx, paths, params, delayed_frames, pulses)
        self.sample_rate_hz, self.samples_per_pulse = tx.sample_rate_hz, spp
        self.columns = columns
        self._gains, self._frames = gains, delayed
        u = self._u = steering_vector(rx_array, direct_rad)
        elements = u.size
        steer = np.array([steering_vector(rx_array, p.aoa_rad) for p in paths]).T
        self._perp_steer = steer - np.outer(u, u.conj() @ steer) / elements
        self._power = BOLTZMANN * params.noise_temp_k * tx.sample_rate_hz
        self._rng = make_rng(seed)

        d = self.direct = _complex_normals(self._rng, (pulses * spp,), self._power / elements)
        g = _complex_normals(self._rng, (elements, columns.size), self._power)
        self._perp_g = g - np.outer(u, u.conj() @ g) / elements
        # d = ζ plus each path's direct-beam gain times its samples; its
        # energy and the paths' sums Σ units conj(d) accumulate per block.
        direct_gains = [gain * m for gain, m in zip(gains, u.conj() @ steer / elements)]
        energy, path_dots = 0.0, np.zeros(len(paths), dtype=np.complex128)
        work, conj = np.empty((2, min(_BLOCK, spp)), dtype=np.complex128)
        for pulse, frame, span in _spans(pulses, spp):
            block, n = d[span], span.stop - span.start
            for gain, frames in zip(direct_gains, delayed):
                block += np.multiply(frames[pulse % len(frames), frame], gain[pulse], out=work[:n])
            flat = block.view(np.float64)
            energy += np.einsum("i,i->", flat, flat)
            np.conjugate(block, out=conj[:n])
            for k, (gain, frames) in enumerate(zip(gains, delayed)):
                path_dots[k] += gain[pulse] * np.einsum(
                    "i,i->", frames[pulse % len(frames), frame], conj[:n]
                )
        d_cols = d[columns]
        flat = d_cols.view(np.float64)
        self._energy_off = energy - np.einsum("i,i->", flat, flat)
        h = _complex_normals(self._rng, (elements,), self._power * self._energy_off)
        self._y = h - u * np.vdot(u, h) / elements
        residue = (
            self._perp_steer @ path_dots + self._perp_g @ d_cols.conj() + self._y
        ) / energy
        self.coeffs = u + residue
        pulse, sample = np.divmod(columns, spp)
        units = np.array([
            gain[pulse] * frames[pulse % len(frames), sample]
            for gain, frames in zip(gains, delayed)
        ])
        self.pilot = self._perp_steer @ units + self._perp_g - np.outer(residue, d_cols)

    def beams(self, echo_w: np.ndarray, guard_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The echo beam over the capture and the guard beam over its first
        pulse: wᴴx for the weights ``echo_w`` and ``guard_w``.

        Both beams come from one call, which draws their noise jointly:
        the echo's normals over the capture, then the guard's pulse by
        pulse. The guard's later pulses are mixed into the echo and into
        the fit of both beams, then dropped. A second call is refused.
        """
        if self._rng is None:
            raise RuntimeError("the beams of a capture are drawn once")
        rng, self._rng = self._rng, None
        weights = np.stack([echo_w, guard_w], axis=1)
        a_h = weights.conj().T
        u, d, columns = self._u, self.direct, self.columns
        spp = self.samples_per_pulse
        perp = weights - np.outer(u, u.conj() @ weights) / u.size
        values, vectors = np.linalg.eigh(perp.conj().T @ perp)
        root = vectors * np.sqrt(np.clip(values, 0.0, None) * (self._power / 2.0))
        echo = rng.standard_normal(2 * d.size).view(np.complex128)
        guard = rng.standard_normal(2 * spp).view(np.complex128)
        later = np.empty_like(guard) if d.size > spp else None
        mixed = np.empty((2, min(_BLOCK, spp)), dtype=np.complex128)
        work, conj = np.empty((2, mixed.shape[1]), dtype=np.complex128)
        spans = [
            (pulse, frame, span, columns[(columns >= span.start) & (columns < span.stop)])
            for pulse, frame, span in _spans(d.size // spp, spp)
        ]
        # Off the columns, condition P⊥n on y, its projection onto the
        # direct beam there; at the columns, use the drawn samples.
        dots = np.zeros(2, dtype=np.complex128)
        for pulse, frame, span, inside in spans:
            if pulse and not frame.start:
                rng.standard_normal(out=later.view(np.float64))
            n = span.stop - span.start
            normals = (echo[span], (later if pulse else guard)[frame])
            for out, mix in zip(mixed, root):
                np.multiply(normals[0], mix[0], out=out[:n])
                out[:n] += np.multiply(normals[1], mix[1], out=work[:n])
            for row, out in zip(normals, mixed):
                row[:] = out[:n]
            np.conjugate(d[span], out=conj[:n])
            conj[inside - span.start] = 0.0
            dots += np.einsum("ki,i->k", mixed[:, :n], conj[:n])
        fit = (a_h @ self._y - dots) / self._energy_off
        at_columns = a_h @ self._perp_g
        echo[columns] = at_columns[0]
        first = columns < spp
        guard[columns[first]] = at_columns[1, first]
        # Then add (wᴴu) d, plus the fit off the columns, and each path's
        # (P⊥w)ᴴa_p times its samples; the guard over its first pulse.
        terms = [
            (row, fit_gain + beam_gain, beam_gain, [gain * m for gain, m in zip(self._gains, mix)])
            for row, fit_gain, beam_gain, mix in zip(
                (echo, guard), fit, a_h @ u, a_h @ self._perp_steer
            )
        ]
        for pulse, frame, span, inside in spans:
            n = span.stop - span.start
            for row, off_gain, beam_gain, path_gains in terms[: 1 if pulse else 2]:
                block = row[span]
                np.multiply(d[span], off_gain, out=work[:n])
                work[inside - span.start] = beam_gain * d[inside]
                block += work[:n]
                for gain, frames in zip(path_gains, self._frames):
                    block += np.multiply(
                        frames[pulse % len(frames), frame], gain[pulse], out=work[:n]
                    )
        return echo, guard
