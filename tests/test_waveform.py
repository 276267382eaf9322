"""Slot generation and reference properties."""

import numpy as np
import pytest

from bistar import (
    IqCapture,
    WaveformConfig,
    demodulate_slot,
    fast_length,
    generate_slot,
    matched_reference,
    resource_grid,
)
from bistar import waveform
from bistar.waveform import DMRS_SYMBOL, SYMBOLS_PER_SLOT


class TestWaveformConfig:
    def test_defaults_describe_the_100mhz_numerology(self):
        cfg = WaveformConfig()
        assert cfg.sample_rate_hz == pytest.approx(122.88e6)
        assert cfg.samples_per_symbol == 1096
        assert cfg.samples_per_slot == 14 * 1096

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fft_size": 1000},
            {"fft_size": 1},
            # kwargs2-4 covered the occupied subcarriers and the cyclic
            # prefix, now derived from the FFT size, and kwargs5-7 config
            # fields that are now module constants; the remaining cases
            # keep their ids.
            pytest.param({"subcarrier_spacing_hz": 0.0}, id="kwargs8"),
            pytest.param({"seed": -1}, id="kwargs9"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WaveformConfig(**kwargs)

    def test_numerology_follows_the_fft_size(self):
        """792 occupied subcarriers and 72 cyclic-prefix samples per 1024
        bins; an FFT below 1024 bins has no numerology."""
        with pytest.raises(ValueError, match="power of two >= 1024"):
            WaveformConfig(fft_size=512)
        cfg = WaveformConfig(fft_size=2048)
        assert (cfg.occupied_subcarriers, cfg.cp_samples) == (1584, 144)
        assert cfg.samples_per_symbol == 2048 + 144

    def test_occupied_bins_centered_and_unique(self):
        cfg = WaveformConfig()
        bins = cfg.occupied_bins()
        assert bins.size == 792
        assert np.unique(bins).size == 792
        assert bins.min() >= 0 and bins.max() < 1024
        # DC sits in the middle of the occupied block.
        assert bins[396] == 0
        assert bins[0] == (1024 - 396) % 1024

    def test_pilot_mask_alternates(self):
        cfg = WaveformConfig()
        mask = cfg.pilot_mask()
        assert mask.sum() == 396
        assert np.array_equal(mask, np.arange(792) % 2 == 0)

    def test_dmrs_window_covers_symbol_two(self):
        cfg = WaveformConfig()
        window = cfg.dmrs_window()
        assert window.start == 2 * 1096
        assert window.stop == 3 * 1096


class TestIqCapture:
    def test_promotes_one_dimensional_input(self):
        cap = IqCapture(np.ones(8, dtype=complex), 1e6)
        assert cap.samples.shape == (1, 8)
        assert cap.elements == 1

    def test_pulse_bookkeeping(self):
        cap = IqCapture(np.zeros((2, 12), dtype=complex), 1e6, pulses=3)
        assert cap.samples_per_pulse == 4
        assert cap.frames().shape == (2, 3, 4)

    def test_rejects_bad_shapes_and_rates(self):
        with pytest.raises(ValueError):
            IqCapture(np.zeros((2, 0)), 1e6)
        with pytest.raises(ValueError):
            IqCapture(np.zeros((2, 2, 2)), 1e6)
        with pytest.raises(ValueError):
            IqCapture(np.zeros(8), 0.0)
        with pytest.raises(ValueError):
            IqCapture(np.zeros(8), 1e6, pulses=3)
        with pytest.raises(ValueError):
            IqCapture(np.array([1.0, np.nan]), 1e6)


class TestSlotGeneration:
    def test_deterministic_per_seed(self):
        a = generate_slot(WaveformConfig(seed=7)).samples
        b = generate_slot(WaveformConfig(seed=7)).samples
        c = generate_slot(WaveformConfig(seed=8)).samples
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_cyclic_prefix_repeats_symbol_tail(self):
        cfg = WaveformConfig()
        slot = generate_slot(cfg).samples[0]
        for sym in range(SYMBOLS_PER_SLOT):
            start = sym * cfg.samples_per_symbol
            cp = slot[start : start + cfg.cp_samples]
            tail = slot[start + cfg.samples_per_symbol - cfg.cp_samples : start + cfg.samples_per_symbol]
            assert np.allclose(cp, tail, atol=1e-12)

    def test_unit_power_per_occupied_element(self):
        cfg = WaveformConfig()
        slot = generate_slot(cfg).samples[0]
        data_sym = 5
        start = data_sym * cfg.samples_per_symbol + cfg.cp_samples
        body = slot[start : start + cfg.fft_size]
        assert np.mean(np.abs(body) ** 2) == pytest.approx(1.0, rel=1e-12)
        pilot_start = DMRS_SYMBOL * cfg.samples_per_symbol + cfg.cp_samples
        pilot_body = slot[pilot_start : pilot_start + cfg.fft_size]
        # The pilot symbol still carries data on the non-comb half, so the
        # slot is full power there too; only the reference is half power.
        assert np.mean(np.abs(pilot_body) ** 2) == pytest.approx(1.0, rel=1e-12)
        ref = matched_reference(cfg).samples[0]
        ref_body = ref[pilot_start : pilot_start + cfg.fft_size]
        assert np.mean(np.abs(ref_body) ** 2) == pytest.approx(0.5, rel=1e-12)

    def test_demodulation_loopback(self):
        cfg = WaveformConfig(seed=3)
        grid = resource_grid(cfg)
        recovered = demodulate_slot(cfg, generate_slot(cfg))
        assert np.allclose(recovered, grid, atol=1e-9)

    def test_demodulation_input_validation(self):
        cfg = WaveformConfig()
        with pytest.raises(ValueError):
            demodulate_slot(cfg, IqCapture(np.zeros((2, cfg.samples_per_slot), dtype=complex), cfg.sample_rate_hz))
        with pytest.raises(ValueError):
            demodulate_slot(cfg, IqCapture(np.zeros(100, dtype=complex), cfg.sample_rate_hz))


class TestMatchedReference:
    def test_energy_confined_to_pilot_symbol(self):
        cfg = WaveformConfig(seed=11)
        ref = matched_reference(cfg).samples[0]
        window = cfg.dmrs_window()
        outside = np.concatenate([ref[: window.start], ref[window.stop :]])
        assert np.max(np.abs(outside)) < 1e-12
        assert np.max(np.abs(ref[window])) > 0.1

    def test_independent_of_data_stream(self, monkeypatch):
        """Another data substream changes the slot but not the reference."""
        cfg = WaveformConfig(seed=5)
        base, slot_a = matched_reference(cfg).samples, generate_slot(cfg).samples
        monkeypatch.setattr(waveform, "_DATA_STREAM", waveform._DATA_STREAM + 1)
        assert np.array_equal(base, matched_reference(cfg).samples)
        assert not np.array_equal(slot_a, generate_slot(cfg).samples)

    def test_reference_matches_pilot_portion_of_slot(self):
        cfg = WaveformConfig(seed=2)
        grid = resource_grid(cfg)
        mask = cfg.pilot_mask()
        ref_grid = demodulate_slot(cfg, matched_reference(cfg))
        assert np.allclose(ref_grid[DMRS_SYMBOL, mask], grid[DMRS_SYMBOL, mask], atol=1e-9)
        assert np.max(np.abs(ref_grid[DMRS_SYMBOL, ~mask])) < 1e-9

    def test_autocorrelation_peak_dominates(self):
        """Zero lag wins; the comb alias at half the FFT size stays below it."""
        cfg = WaveformConfig(seed=4)
        ref = matched_reference(cfg).samples[0]
        n = 2 * ref.size
        spectrum = np.fft.fft(ref, n)
        corr = np.abs(np.fft.ifft(spectrum * spectrum.conj()))
        rel = corr / corr[0]
        assert rel[1:512].max() < 0.3
        assert 0.4 < rel[512] < 0.7
        assert rel[1 : ref.size].max() < 0.625  # peak clears every lag by 4 dB


class TestFastLength:
    def test_smallest_5_smooth_length_by_brute_force(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        lengths = [m for m in range(1, 8193) if smooth(m)]
        for n in range(1, 4097):
            assert fast_length(n) == next(m for m in lengths if m >= n)

    def test_signal_chain_sizes(self):
        # Pulse frames and matched filters at 100 and 400 MHz.
        assert [fast_length(n) for n in (15373, 61466, 16648, 66592)] == [
            15552, 62208, 16875, 67500
        ]

    def test_rejects_non_positive_lengths(self):
        with pytest.raises(ValueError):
            fast_length(0)

