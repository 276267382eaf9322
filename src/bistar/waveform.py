"""CP-OFDM slot generation with a comb pilot symbol.

One slot is 14 OFDM symbols. A single pilot symbol, the third, carries
seeded QPSK on the even occupied subcarriers (half the occupied band); every
other resource element of the slot carries seeded QPSK data. The pilot
portion alone forms the matched-filter reference, so the reference is
independent of the data stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# OFDM symbols per slot, and the index of the DM-RS pilot symbol.
SYMBOLS_PER_SLOT = 14
DMRS_SYMBOL = 2

# Substream tags separating the pilot and data random draws.
_PILOT_STREAM = 0x70696C6F
_DATA_STREAM = 0x64617461

_QPSK_POINTS = np.array(
    [1.0 + 1.0j, -1.0 + 1.0j, -1.0 - 1.0j, 1.0 - 1.0j]
) / math.sqrt(2.0)


@dataclass(frozen=True)
class WaveformConfig:
    """Numerology of one CP-OFDM slot.

    The sample rate is implied by the FFT size times the subcarrier
    spacing (1024 x 120 kHz = 122.88 MHz for the 100 MHz configuration,
    4096 x 120 kHz = 491.52 MHz for 400 MHz). The FFT size decides the
    rest: per 1024 bins, 792 occupied subcarriers and a cyclic prefix
    of 72 samples.
    """

    fft_size: int = 1024
    subcarrier_spacing_hz: float = 120e3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fft_size < 1024 or self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two >= 1024")
        if self.subcarrier_spacing_hz <= 0:
            raise ValueError("subcarrier_spacing_hz must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def occupied_subcarriers(self) -> int:
        return 792 * (self.fft_size // 1024)

    @property
    def cp_samples(self) -> int:
        return 72 * (self.fft_size // 1024)

    @property
    def sample_rate_hz(self) -> float:
        return self.fft_size * self.subcarrier_spacing_hz

    @property
    def samples_per_symbol(self) -> int:
        return self.fft_size + self.cp_samples

    @property
    def samples_per_slot(self) -> int:
        return SYMBOLS_PER_SLOT * self.samples_per_symbol

    def occupied_bins(self) -> np.ndarray:
        """FFT bin index of each occupied subcarrier, centered on DC."""
        offsets = np.arange(self.occupied_subcarriers) - self.occupied_subcarriers // 2
        return np.mod(offsets, self.fft_size)

    def pilot_mask(self) -> np.ndarray:
        """Boolean mask over occupied subcarriers selecting the pilot comb:
        the even ones."""
        return np.arange(self.occupied_subcarriers) % 2 == 0

    def dmrs_window(self) -> slice:
        """Sample range of the pilot symbol within the slot."""
        start = DMRS_SYMBOL * self.samples_per_symbol
        return slice(start, start + self.samples_per_symbol)


@dataclass
class IqCapture:
    """Complex baseband samples for one or more antenna elements.

    ``samples`` has shape (elements, pulses * samples_per_pulse); a 1-D
    array is promoted to a single element.
    """

    samples: np.ndarray
    sample_rate_hz: float
    pulses: int = 1
    samples_per_pulse: int = 0

    def __post_init__(self) -> None:
        array = np.asarray(self.samples, dtype=np.complex128)
        if array.ndim == 1:
            array = array[np.newaxis, :]
        if array.ndim != 2 or array.shape[1] == 0:
            raise ValueError("samples must be a non-empty 1-D or 2-D array")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.pulses < 1:
            raise ValueError("pulses must be at least 1")
        if self.samples_per_pulse == 0:
            self.samples_per_pulse = array.shape[1] // self.pulses
        if self.pulses * self.samples_per_pulse != array.shape[1]:
            raise ValueError("pulses * samples_per_pulse must equal the sample count")
        if not np.isfinite(array.view(np.float64)).all():
            raise ValueError("samples must be finite")
        self.samples = array

    @property
    def elements(self) -> int:
        return self.samples.shape[0]

    def frames(self) -> np.ndarray:
        """View shaped (elements, pulses, samples_per_pulse)."""
        return self.samples.reshape(self.elements, self.pulses, self.samples_per_pulse)


def fast_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= ``n``: a transform length numpy's FFT
    factors into small radices (a large prime factor costs Bluestein)."""
    if n < 1:
        raise ValueError("length must be positive")
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


def _pilot_rng(cfg: WaveformConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, _PILOT_STREAM]))


def _data_rng(cfg: WaveformConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, _DATA_STREAM]))


def _qpsk(rng: np.random.Generator, count: int) -> np.ndarray:
    return _QPSK_POINTS[rng.integers(0, 4, size=count)]


def resource_grid(cfg: WaveformConfig) -> np.ndarray:
    """Frequency-domain grid (symbols x occupied subcarriers) of one slot."""
    occupied = cfg.occupied_subcarriers
    grid = _qpsk(_data_rng(cfg), SYMBOLS_PER_SLOT * occupied)
    grid = grid.reshape(SYMBOLS_PER_SLOT, occupied)
    mask = cfg.pilot_mask()
    grid[DMRS_SYMBOL, mask] = _qpsk(_pilot_rng(cfg), int(mask.sum()))
    return grid


def _modulate(cfg: WaveformConfig, grid: np.ndarray) -> np.ndarray:
    """CP-OFDM modulate a grid; unit mean power per occupied resource element."""
    bins = cfg.occupied_bins()
    scale = cfg.fft_size / math.sqrt(cfg.occupied_subcarriers)
    out = np.empty(grid.shape[0] * cfg.samples_per_symbol, dtype=np.complex128)
    spectrum = np.zeros(cfg.fft_size, dtype=np.complex128)
    for sym in range(grid.shape[0]):
        spectrum[:] = 0.0
        spectrum[bins] = grid[sym]
        body = np.fft.ifft(spectrum) * scale
        start = sym * cfg.samples_per_symbol
        out[start : start + cfg.cp_samples] = body[cfg.fft_size - cfg.cp_samples :]
        out[start + cfg.cp_samples : start + cfg.samples_per_symbol] = body
    return out


def generate_slot(cfg: WaveformConfig) -> IqCapture:
    """One CP-OFDM slot with pilots and data, as a single-element capture.

    Deterministic for a given config: the pilot and data streams are
    drawn from independent substreams of ``cfg.seed``.
    """
    return IqCapture(_modulate(cfg, resource_grid(cfg)), cfg.sample_rate_hz)


def matched_reference(cfg: WaveformConfig) -> IqCapture:
    """Pilot-only copy of the slot used as the matched-filter template.

    Identical to ``generate_slot`` with every data resource element
    zeroed, so it depends only on the pilot substream of the seed.
    """
    occupied = cfg.occupied_subcarriers
    grid = np.zeros((SYMBOLS_PER_SLOT, occupied), dtype=np.complex128)
    mask = cfg.pilot_mask()
    grid[DMRS_SYMBOL, mask] = _qpsk(_pilot_rng(cfg), int(mask.sum()))
    return IqCapture(_modulate(cfg, grid), cfg.sample_rate_hz)


def demodulate_slot(cfg: WaveformConfig, capture: IqCapture) -> np.ndarray:
    """Recover the resource grid from a clean single-element slot capture."""
    if capture.elements != 1:
        raise ValueError("demodulation expects a single-element capture")
    if capture.samples.shape[1] < cfg.samples_per_slot:
        raise ValueError("capture shorter than one slot")
    bins = cfg.occupied_bins()
    scale = cfg.fft_size / math.sqrt(cfg.occupied_subcarriers)
    grid = np.empty((SYMBOLS_PER_SLOT, cfg.occupied_subcarriers), dtype=np.complex128)
    for sym in range(SYMBOLS_PER_SLOT):
        start = sym * cfg.samples_per_symbol + cfg.cp_samples
        body = capture.samples[0, start : start + cfg.fft_size]
        grid[sym] = np.fft.fft(body / scale)[bins]
    return grid

