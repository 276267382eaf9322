"""Estimator behavior on synthetic captures with known ground truth."""

import math

import numpy as np
import pytest

from bistar import (
    ArrayModel,
    BistaticPair,
    DetectionError,
    IqCapture,
    Measurement,
    MeasurementErrorModel,
    Mode,
    NodePosition,
    RadarParams,
    RangeDopplerMap,
    TargetState,
    WaveformConfig,
    beamform,
    doppler_peak,
    doppler_to_velocity,
    estimate_tdoa,
    fast_length,
    make_rng,
    matched_filter,
    matched_reference,
    model_measure_batch,
    music_aoa,
    null_steer_beamform,
    project_out_stream,
    range_doppler,
    steering_vector,
    true_aoa,
    true_tdoa,
    waveform_for_radar,
    wrap_angle,
)
from bistar import estimation
from bistar.channel import SPACING_WAVELENGTHS
from bistar.estimation import (
    MEAN_ABS_TO_SIGMA, MUSIC_GRID_DEG, _music_scan, _null_spectrum,
)

FS = 122.88e6


def plane_wave(array, angle, waveform):
    """Element capture of a far-field source with the given baseband stream."""
    return steering_vector(array, angle)[:, np.newaxis] * waveform[np.newaxis, :]


def reference_config(mhz, seed):
    """The waveform of a run at ``mhz`` of bandwidth."""
    radar = RadarParams(bandwidth_hz=mhz * 1e6, sample_rate_hz=FS * mhz / 100)
    return waveform_for_radar(radar, seed)


def random_symbols(rng, count):
    return (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / math.sqrt(2)


class TestMeasurement:
    def test_validation(self):
        with pytest.raises(ValueError):
            Measurement(tdoa_s=-1e-9, aoa_rad=0.0)
        with pytest.raises(ValueError):
            Measurement(tdoa_s=1e-9, aoa_rad=4.0)

    def test_defaults(self):
        m = Measurement(tdoa_s=1e-9, aoa_rad=0.5)
        assert m.mode is Mode.MODE1


class TestRangeDopplerMap:
    def test_validation(self):
        peak = (5.0, 1, np.ones(2))
        good = RangeDopplerMap(np.ones((3, 2)), np.arange(3.0), np.arange(2.0), *peak)
        assert good.magnitudes.shape == (3, 2)
        with pytest.raises(ValueError):
            RangeDopplerMap(np.ones((3, 3)), np.arange(3.0), np.arange(2.0), *peak)
        with pytest.raises(ValueError):
            RangeDopplerMap(np.ones((3, 2)), np.array([0.0, 0.0, 1.0]), np.arange(2.0), *peak)
        with pytest.raises(ValueError):
            RangeDopplerMap(-np.ones((3, 2)), np.arange(3.0), np.arange(2.0), *peak)

    @pytest.mark.parametrize("peak_bin, peak_row", [
        (2, np.ones(2)), (-1, np.ones(2)), (0, np.ones(3)), (0, -np.ones(2)),
    ])
    def test_peak_must_fit_the_doppler_axis(self, peak_bin, peak_row):
        with pytest.raises(ValueError):
            RangeDopplerMap(np.ones((3, 2)), np.arange(3.0), np.arange(2.0), 5.0, peak_bin, peak_row)


class TestMusic:
    def test_single_source_within_refined_grid(self):
        rng = np.random.default_rng(10)
        array = ArrayModel(16, boresight=0.0)
        for angle_deg in (-41.3, -7.61, 0.27, 23.08, 55.5):
            angle = math.radians(angle_deg)
            data = plane_wave(array, angle, random_symbols(rng, 256))
            data += 1e-4 * (
                rng.standard_normal(data.shape) + 1j * rng.standard_normal(data.shape)
            )
            cap = IqCapture(data, FS)
            est = music_aoa(cap, array)
            assert math.degrees(abs(est - angle)) < 0.01

    def test_boresight_shift_is_global(self):
        rng = np.random.default_rng(11)
        bore = math.radians(120.0)
        array = ArrayModel(16, boresight=bore)
        angle = bore + math.radians(-18.4)
        data = plane_wave(array, angle, random_symbols(rng, 256))
        data += 1e-4 * (rng.standard_normal(data.shape) + 1j * rng.standard_normal(data.shape))
        est = music_aoa(IqCapture(data, FS), array)
        assert math.degrees(abs(est - angle)) < 0.01

    def test_window_restricts_snapshots(self):
        """MUSIC reads every sample it is handed and no other: a capture
        cut to the signal's window ignores the junk before it."""
        rng = np.random.default_rng(14)
        array = ArrayModel(8)
        angle = math.radians(17.0)
        signal = plane_wave(array, angle, random_symbols(rng, 256))
        junk = plane_wave(array, math.radians(-60.0), random_symbols(rng, 256))
        data = np.concatenate([junk, signal], axis=1)
        data += 1e-4 * (rng.standard_normal(data.shape) + 1j * rng.standard_normal(data.shape))
        est = music_aoa(IqCapture(data[:, 256:512], FS), array)
        assert math.degrees(abs(est - angle)) < 0.05

    def test_scan_is_shared_and_read_only(self):
        offsets, steer = _music_scan(16)
        assert _music_scan(16)[1] is steer
        assert steer.shape == (16, offsets.size) == (16, 1799)
        for values in (offsets, steer):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0

    @pytest.mark.parametrize("elements, bore_deg", [  # ids: elements-spacing-boresight
        pytest.param(16, 0.0, id="16-0.5-0.0"), pytest.param(8, 120.0, id="8-0.5-120.0")
    ])
    def test_shared_scan_matches_per_call_construction(self, elements, bore_deg):
        """The same bits as a scan built inside every call."""

        def per_call(capture, array):
            x = capture.samples
            _, eigvecs = np.linalg.eigh(x @ x.conj().T / x.shape[1])
            offsets = np.radians(np.arange(-90.0 + MUSIC_GRID_DEG, 90.0, MUSIC_GRID_DEG))
            steer = np.exp(
                1j * 2.0 * math.pi * np.arange(array.elements)[:, np.newaxis]
                * SPACING_WAVELENGTHS * np.sin(offsets)[np.newaxis, :]
            )
            gain = (eigvecs[:, -1].conj()[:, np.newaxis] * steer).sum(axis=0)
            null = 1.0 - (gain.real**2 + gain.imag**2) / array.elements
            minima = np.flatnonzero((null[1:-1] < null[:-2]) & (null[1:-1] <= null[2:])) + 1
            i = minima[np.argmin(null[minima])]
            lower, center, upper = null[i - 1], null[i], null[i + 1]
            denom = lower - 2.0 * center + upper
            shift = 0.0 if denom <= 0 else 0.5 * (lower - upper) / denom
            return wrap_angle(array.boresight + (offsets[i] + shift * math.radians(MUSIC_GRID_DEG)))

        rng = np.random.default_rng(12)
        array = ArrayModel(elements, boresight=math.radians(bore_deg))
        for offset_deg in rng.uniform(-80.0, 80.0, 20):
            data = plane_wave(array, array.boresight + math.radians(offset_deg),
                              random_symbols(rng, 128))
            data += 0.1 * (rng.standard_normal(data.shape) + 1j * rng.standard_normal(data.shape))
            capture = IqCapture(data, FS)
            assert music_aoa(capture, array) == per_call(capture, array)

    @pytest.mark.parametrize("elements", [2, 8, 16])
    def test_closed_form_matches_the_noise_basis(self, elements):
        """The one-source null spectrum 1 - |vᴴa|²/E equals the sum over
        the E - 1 noise eigenvectors within 1e-12, on random covariances
        of one strong source in noise and of noise alone."""
        rng = np.random.default_rng(22)
        _, steer = _music_scan(elements)
        for trial in range(40):
            x = rng.standard_normal((elements, 128)) + 1j * rng.standard_normal((elements, 128))
            if trial % 2:
                angle = rng.uniform(-1.5, 1.5)
                x += rng.uniform(0.1, 30.0) * plane_wave(
                    ArrayModel(elements), angle, random_symbols(rng, 128)
                )
            r = x @ x.conj().T / x.shape[1]
            _, eigvecs = np.linalg.eigh(r)
            noise_basis = eigvecs[:, : elements - 1]
            basis = np.sum(np.abs(noise_basis.conj().T @ steer) ** 2, axis=0) / elements
            assert np.abs(_null_spectrum(r, steer) - basis).max() <= 1e-12

    def test_validation(self):
        array = ArrayModel(8)
        cap = IqCapture(np.zeros((8, 128), dtype=complex), FS)
        with pytest.raises(ValueError):
            music_aoa(cap, ArrayModel(16))
        with pytest.raises(ValueError, match="two elements"):
            music_aoa(IqCapture(np.zeros((1, 128), dtype=complex), FS), ArrayModel(1))
        with pytest.raises(ValueError, match="64 snapshots"):
            music_aoa(IqCapture(np.zeros((8, 63), dtype=complex), FS), array)


class TestBeamformers:
    def test_aligned_gain_is_unity(self):
        rng = np.random.default_rng(20)
        array = ArrayModel(16)
        angle = math.radians(25.0)
        wave = random_symbols(rng, 128)
        cap = IqCapture(plane_wave(array, angle, wave), FS)
        out = beamform(cap, array, angle)
        assert np.allclose(out.samples[0], wave, atol=1e-12)

    def test_noise_power_drops_by_element_count(self):
        rng = np.random.default_rng(21)
        array = ArrayModel(16)
        noise = rng.standard_normal((16, 20000)) + 1j * rng.standard_normal((16, 20000))
        out = beamform(IqCapture(noise, FS), array, 0.4)
        ratio = np.mean(np.abs(noise) ** 2) / np.mean(np.abs(out.samples) ** 2)
        assert ratio == pytest.approx(16.0, rel=0.05)

    def test_null_steer_rejects_interferer_exactly(self):
        rng = np.random.default_rng(22)
        array = ArrayModel(16)
        want, kill = math.radians(30.0), math.radians(-10.0)
        wave = random_symbols(rng, 128)
        interferer = 50.0 * plane_wave(array, kill, random_symbols(rng, 128))
        cap = IqCapture(plane_wave(array, want, wave) + interferer, FS)
        out = null_steer_beamform(cap, array, want, kill)
        assert np.allclose(out.samples[0], wave, atol=1e-9)

    def test_null_steer_rejects_coincident_directions(self):
        array = ArrayModel(16)
        cap = IqCapture(np.ones((16, 64), dtype=complex), FS)
        with pytest.raises(ValueError):
            null_steer_beamform(cap, array, 0.5, 0.5)

    def test_element_count_mismatch(self):
        cap = IqCapture(np.ones((8, 64), dtype=complex), FS)
        with pytest.raises(ValueError):
            beamform(cap, ArrayModel(16), 0.0)
        with pytest.raises(ValueError):
            null_steer_beamform(cap, ArrayModel(16), 0.0, 1.0)


class TestProjection:
    def test_output_orthogonal_to_stream(self):
        rng = np.random.default_rng(30)
        data = rng.standard_normal((4, 200)) + 1j * rng.standard_normal((4, 200))
        stream = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        out = project_out_stream(IqCapture(data, FS), stream)
        for row in out.samples:
            assert abs(np.vdot(stream, row)) < 1e-9 * np.linalg.norm(stream) * np.linalg.norm(row + 1e-30)

    def test_unaligned_component_preserved(self):
        rng = np.random.default_rng(31)
        stream = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        other = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        other -= np.vdot(stream, other) / np.vdot(stream, stream) * stream
        data = np.vstack([3.0 * stream + other, 2.0 * stream])
        out = project_out_stream(IqCapture(data, FS), stream)
        assert np.allclose(out.samples[0], other, atol=1e-9)
        assert np.allclose(out.samples[1], 0.0, atol=1e-9)

    def test_validation(self):
        cap = IqCapture(np.ones((2, 10), dtype=complex), FS)
        with pytest.raises(ValueError):
            project_out_stream(cap, np.ones(5, dtype=complex))
        with pytest.raises(ValueError):
            project_out_stream(cap, np.zeros(10, dtype=complex))

    def test_single_stream_energy_never_grows(self):
        rng = np.random.default_rng(32)
        direct = random_symbols(rng, 300)
        echo = IqCapture(
            0.4 * direct + 0.1 * random_symbols(rng, 300), FS,
            pulses=3, samples_per_pulse=100,
        )
        before = np.sum(np.abs(echo.samples) ** 2)
        out = project_out_stream(echo, direct)
        assert out.pulses == 3 and out.samples_per_pulse == 100
        assert np.sum(np.abs(out.samples) ** 2) <= before
        assert abs(np.vdot(direct, out.samples[0])) < 1e-9

    @pytest.mark.parametrize("samples", [300, 20000])
    def test_cleans_in_place_and_keeps_the_stream(self, samples):
        """The cleaned samples are written over the capture, bit for bit
        the one-shot products (20000 samples span three subtraction
        blocks), and the stream, conjugated for the coefficients, ends
        with its bits; a stream sharing the capture's memory is refused."""
        rng = np.random.default_rng(33)
        data = random_symbols(rng, 2 * samples).reshape(2, samples)
        stream = random_symbols(rng, samples)
        kept, original = stream.copy(), data.copy()
        flat = stream.view(np.float64)
        coeffs = np.einsum("ki,i->k", original, stream.conj()) / np.einsum("i,i->", flat, flat)
        expected = original - coeffs[:, np.newaxis] * stream[np.newaxis, :]
        capture = IqCapture(data, FS)
        out = project_out_stream(capture, stream)
        assert out is capture and out.samples is data
        assert np.array_equal(data, expected)
        assert np.array_equal(stream.view(np.float64), kept.view(np.float64))
        with pytest.raises(ValueError, match="share memory"):
            project_out_stream(capture, data[1])

    def test_single_stream_validation(self):
        echo = IqCapture(np.ones(20, dtype=complex), FS, pulses=2, samples_per_pulse=10)
        with pytest.raises(ValueError):
            project_out_stream(echo, np.ones(10, dtype=complex))
        with pytest.raises(ValueError):
            project_out_stream(echo, np.zeros(20, dtype=complex))


def lay_reference(length, placements, ref):
    """Stream with scaled copies of ``ref`` at integer sample lags."""
    out = np.zeros(length, dtype=complex)
    for lag, amp in placements:
        out[lag : lag + ref.size] += amp * ref
    return out


def _correlate(stream, reference):
    """Linear cross-correlation at non-negative lags, one FFT pair per call."""
    length = stream.shape[0]
    size = 1
    while size < length + reference.shape[0]:
        size <<= 1
    spectrum = np.fft.fft(stream, size) * np.fft.fft(reference, size).conj()
    return np.fft.ifft(spectrum)[:length]


def three_pass_tdoa(direct, echo, reference, guard=None, hint_s=None, lags=512):
    """`estimate_tdoa` with one `_correlate` call per beam.

    Each call transforms the whole reference again and the template is
    built from a fourth transform, every correlation cut to the window of
    the first ``lags`` lags (N/2 of the waveform): the straightforward
    form, kept as the bit-for-bit reference for the batched one. Returns
    None where the estimator refuses.
    """
    ref = reference.samples[0]
    direct_mag = np.abs(_correlate(direct.samples[0], ref)[:lags])
    lo, hi, min_db = 0, lags, 6.0
    if hint_s is not None:
        center = int(round(hint_s * reference.sample_rate_hz))
        lo, hi, min_db = max(center - 1, 0), min(center + 2, lags), 12.0
    direct_peak = lo + int(np.argmax(direct_mag[lo:hi]))
    floor = float(np.median(direct_mag))
    if floor <= 0.0 or 20.0 * math.log10(direct_mag[direct_peak] / floor) < min_db:
        return None
    corr_echo = _correlate(echo.samples[0], ref)[:lags]
    length = echo.samples.shape[1]
    size = 1
    while size < 2 * ref.shape[0] or size < length + ref.shape[0]:
        size <<= 1
    spectrum = np.fft.fft(ref, size)
    auto = np.fft.ifft(spectrum * spectrum.conj())
    template = auto[(np.arange(lags) - direct_peak) % size]
    corr_clean = corr_echo - corr_echo[direct_peak] / auto[0].real * template
    tail = np.abs(corr_clean[direct_peak + 1 :])
    offset = int(np.argmax(tail))
    floor = float(np.median(np.abs(corr_clean)))
    if 20.0 * math.log10(tail[offset] / floor) < 6.0:
        return None
    if guard is not None:
        guard_tail = np.abs(_correlate(guard.samples[0], ref)[direct_peak + 1 : lags])
        guard_peak = float(guard_tail.max())
        if guard_tail[offset] < 0.5 * guard_peak:
            offset = int(np.argmax(guard_tail))
            if 20.0 * math.log10(guard_peak / float(np.median(guard_tail))) < 6.0:
                return None
    return (offset + 1) / reference.sample_rate_hz


@pytest.fixture(scope="module")
def ref():
    return matched_reference(WaveformConfig(seed=6))


@pytest.fixture(scope="module")
def mf():
    return matched_filter(WaveformConfig(seed=6))


class TestEstimateTdoa:
    def test_integer_lattice_readout(self, ref, mf):
        r = ref.samples[0]
        n = r.size + 64
        direct = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        echo = IqCapture(lay_reference(n, [(6, 0.5), (13, 0.05)], r), FS)
        tdoa = estimate_tdoa(direct, echo, mf)
        assert tdoa == pytest.approx(7.0 / FS, rel=1e-12)

    def test_deflation_uncovers_echo_under_comb_alias(self, ref, mf):
        """The comb pilot aliases the direct peak N/2 later, just past
        the lag window; inside it the direct's sidelobes (0.15 of its
        peak 50 lags on) still dwarf a weak echo, so a correct readout
        here proves the direct contribution was subtracted, sidelobes
        included.
        """
        r = ref.samples[0]
        n = r.size + 700
        alias_lag = 512
        corr = np.correlate(r, r, mode="full")
        mid = r.size - 1
        alias_rel = abs(corr[mid + alias_lag]) / abs(corr[mid])
        assert alias_rel > 0.4
        direct = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        echo = IqCapture(lay_reference(n, [(6, 1.0), (106, 0.03)], r), FS)
        tdoa = estimate_tdoa(direct, echo, mf)
        assert tdoa == pytest.approx(100.0 / FS, rel=1e-12)

    def test_guard_overrides_spurious_peak(self, ref, mf):
        r = ref.samples[0]
        n = r.size + 64
        direct = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        # A spurious lobe right after the direct path outweighs the true
        # echo in the main beam, but the guard channel knows better.
        echo = IqCapture(
            lay_reference(n, [(6, 0.5), (8, 0.2), (13, 0.05)], r), FS
        )
        guard = IqCapture(lay_reference(n, [(13, 0.05)], r), FS)
        naive = estimate_tdoa(direct, echo, mf)
        assert naive == pytest.approx(2.0 / FS, rel=1e-12)
        guarded = estimate_tdoa(direct, echo, mf, guard_beam=guard)
        assert guarded == pytest.approx(7.0 / FS, rel=1e-12)

    def test_guard_confirms_genuine_peak(self, ref, mf):
        r = ref.samples[0]
        n = r.size + 64
        direct = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        echo = IqCapture(lay_reference(n, [(6, 0.5), (13, 0.05)], r), FS)
        guard = IqCapture(lay_reference(n, [(13, 0.04)], r), FS)
        assert estimate_tdoa(direct, echo, mf, guard_beam=guard) == pytest.approx(
            7.0 / FS, rel=1e-12
        )

    def test_hint_window_anchors_direct_search(self, ref, mf):
        r = ref.samples[0]
        n = r.size + 64
        # The echo dominates the correlation; only the surveyed delay
        # window keeps the anchor on the weak direct path.
        direct = IqCapture(lay_reference(n, [(6, 0.3), (13, 1.0)], r), FS)
        echo = IqCapture(lay_reference(n, [(6, 0.02), (13, 1.0)], r), FS)
        tdoa = estimate_tdoa(direct, echo, mf, direct_delay_hint_s=6.0 / FS)
        assert tdoa == pytest.approx(7.0 / FS, rel=1e-12)

    def test_hint_window_ignores_echo_skirt(self, ref, mf, monkeypatch):
        """A starved direct path 6.3 lags before a strong echo: three
        lags after the hint, the echo's rising skirt outweighs the direct
        peak, and an anchor there (a `HINT_WINDOW` of 3) would read the
        TDOA 3 lags short."""
        r = ref.samples[0]
        n = r.size + 64
        freq = np.fft.fftfreq(n)
        spectrum = np.fft.fft(r, n)

        def at(lag, amp):
            return amp * np.fft.ifft(spectrum * np.exp(-2j * math.pi * freq * lag))

        rng = np.random.default_rng(7)
        noise = lambda: 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        direct = IqCapture(at(20, 0.05) + at(26.3, 1.0) + noise(), FS)
        echo = IqCapture(at(20, 5e-4) + at(26.3, 1.0) + noise(), FS)
        hint_s = 20.0 / FS
        assert estimate_tdoa(direct, echo, mf, direct_delay_hint_s=hint_s) == (
            pytest.approx(6.0 / FS, rel=1e-12)
        )
        monkeypatch.setattr(estimation, "HINT_WINDOW", 3)
        wide = estimate_tdoa(direct, echo, mf, direct_delay_hint_s=hint_s)
        assert wide == pytest.approx(3.0 / FS, rel=1e-12)

    def test_hint_window_refuses_noise_anchor(self, ref, mf):
        """A transmit-pattern null leaves only noise in the anchor window."""
        r = ref.samples[0]
        n = r.size + 64
        rng = np.random.default_rng(40)
        noise = lambda: 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        direct = IqCapture(noise(), FS)
        echo = IqCapture(lay_reference(n, [(13, 0.1)], r) + noise(), FS)
        with pytest.raises(DetectionError):
            estimate_tdoa(direct, echo, mf, direct_delay_hint_s=6.0 / FS)

    @pytest.mark.parametrize("with_guard", [False, True])
    def test_batched_matches_three_pass_reference(self, ref, mf, with_guard):
        r = ref.samples[0]
        n = r.size + 96
        rng = np.random.default_rng(43)

        def noisy(placements, scale):
            noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return IqCapture(lay_reference(n, placements, r) + scale * noise, FS)

        # Noise from clean to echo-burying, a spurious lobe next to the
        # direct path in every third echo beam, and alternate anchors:
        # correct, guard-corrected and noise-driven readouts all occur.
        for trial in range(16):
            lag = 10 + int(rng.integers(0, 80))
            scale = 0.01 * 5 ** (trial % 4)
            spur = [(8, 0.2)] if trial % 3 == 0 else []
            direct = noisy([(6, 1.0)], scale)
            echo = noisy([(6, 0.5), (lag, 0.05)] + spur, scale)
            guard = noisy([(lag, 0.05)], scale) if with_guard else None
            hint_s = 6.0 / FS if trial % 2 else None
            try:
                got = estimate_tdoa(
                    direct, echo, mf, guard_beam=guard, direct_delay_hint_s=hint_s
                )
            except DetectionError:
                got = None
            assert got == three_pass_tdoa(direct, echo, ref, guard, hint_s)

    def test_guard_never_reports_the_direct_replica(self, ref, mf):
        """An echo inside the direct lag is deflated with the direct path,
        so the echo beam's winning lag is noise, while the guard beam
        still holds the echo and its strongest tail lag is the direct
        peak's replica N/2 later (the comb pilot's): the guard override
        must refuse or read a lag below N/2, never the replica."""
        r = ref.samples[0]
        n = r.size + 64
        rng = np.random.default_rng(47)

        def noisy(amp):
            noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return IqCapture(lay_reference(n, [(6, amp)], r) + 1e-3 * noise, FS)

        direct, echo, guard = noisy(1.0), noisy(1.0), noisy(0.3)
        guard_corr = np.abs(_correlate(guard.samples[0], r))
        assert 7 + int(np.argmax(guard_corr[7:])) == 6 + 512
        for hint_s in (None, 6.0 / FS):
            try:
                tdoa = estimate_tdoa(direct, echo, mf, guard_beam=guard,
                                     direct_delay_hint_s=hint_s)
            except DetectionError:
                continue
            assert tdoa < 512 / FS

    @pytest.mark.parametrize("mhz", [100, 400])
    def test_no_lag_at_or_past_the_window_is_reported(self, mhz):
        """Over noisy draws at both bandwidths, with and without guard
        beam and anchor, with echoes on both sides of N/2 and inside the
        direct lag, every reported TDOA is below N/(2 fs)."""
        cfg = reference_config(mhz, seed=6)
        fs, half = cfg.sample_rate_hz, cfg.fft_size // 2
        r = matched_reference(cfg).samples[0]
        matched = matched_filter(cfg)
        n = r.size + 2 * half + 16
        rng = np.random.default_rng(44)
        reported = []
        for trial in range(24):
            scale = 0.02 * 4 ** (trial % 3)

            def noisy(placements):
                noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                return IqCapture(lay_reference(n, placements, r) + scale * noise, fs)

            lag = 6 if trial % 5 == 0 else 7 + int(rng.integers(0, 2 * half))
            direct = noisy([(6, 1.0)])
            echo = noisy([(6, 0.5), (lag, 0.05)])
            guard = noisy([(6, 0.1), (lag, 0.05)]) if trial % 2 else None
            hint_s = 6.0 / fs if trial % 4 >= 2 else None
            try:
                reported.append(estimate_tdoa(direct, echo, matched, guard_beam=guard,
                                              direct_delay_hint_s=hint_s))
            except DetectionError:
                pass
        assert len(reported) >= 12
        assert max(reported) < half / fs

    @pytest.mark.parametrize("mhz", [100, 400])
    def test_pilot_span_matches_full_reference(self, mhz):
        """The filter keeps the DM-RS symbol and the N/2 lags of the comb
        pilot at a 5-smooth size; over that window its correlation and
        template match the whole reference's at a power of two within
        1e-9 of the peak."""
        cfg = reference_config(mhz, seed=6)
        ref = matched_reference(cfg)
        r = ref.samples[0]
        n = fast_length(r.size + 29)
        matched = matched_filter(cfg)
        window, half = cfg.dmrs_window(), cfg.fft_size // 2
        span = window.stop - window.start
        size = fast_length(max(half + span, 2 * span))
        assert size == {100: 2250, 400: 9000}[mhz]
        assert (matched.start, matched.stop, matched.lags, matched.auto.size) == (
            window.start, window.stop + half, half, size)
        rng = np.random.default_rng(45)
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        stream = lay_reference(n, [(6, 1.0), (19, 0.3)], r) + 0.1 * noise
        full = _correlate(stream, r)[:half]
        corr = np.fft.ifft(
            np.fft.fft(stream[matched.start : matched.stop], size) * matched.conj_spectrum
        )
        assert np.abs(corr[:half] - full).max() < 1e-9 * np.abs(full).max()
        wide = 1 << (n + r.size - 1).bit_length()
        spectrum = np.fft.fft(r, wide)
        auto = np.fft.ifft(spectrum * spectrum.conj())
        for peak in (0, 6, half - 1):
            lags = np.arange(half) - peak
            assert np.abs(matched.auto[lags % size] - auto[lags % wide]).max() < (
                1e-9 * auto[0].real
            )

    def test_pilot_span_reads_the_reference_lags(self, ref, mf):
        """Over 60 noisy draws, with and without guard beam and anchor,
        the pilot-span filter reads the lag (or refusal) of the
        whole-reference `three_pass_tdoa`."""
        r = ref.samples[0]
        n = r.size + 96
        rng = np.random.default_rng(46)

        def noisy(placements, scale):
            noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return IqCapture(lay_reference(n, placements, r) + scale * noise, FS)

        for trial in range(60):
            lag = 8 + int(rng.integers(0, 85))
            scale = 0.01 * 5 ** (trial % 4)
            direct = noisy([(6, 1.0)], scale)
            echo = noisy([(6, 0.5), (lag, 0.05)], scale)
            guard = noisy([(lag, 0.05)], scale) if trial % 3 else None
            hint_s = 6.0 / FS if trial % 2 else None
            try:
                got = estimate_tdoa(
                    direct, echo, mf, guard_beam=guard, direct_delay_hint_s=hint_s
                )
            except DetectionError:
                got = None
            assert got == three_pass_tdoa(direct, echo, ref, guard, hint_s)

    def test_validation(self, ref, mf):
        r = ref.samples[0]
        n = r.size + 64
        good = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        with pytest.raises(ValueError):
            estimate_tdoa(good, IqCapture(good.samples[:, :-1], FS), mf)
        multi = IqCapture(np.ones((2, n), dtype=complex), FS)
        with pytest.raises(ValueError):
            estimate_tdoa(multi, good, mf)
        wrong_rate = IqCapture(lay_reference(n, [(6, 1.0)], r), FS / 2)
        with pytest.raises(ValueError):
            estimate_tdoa(wrong_rate, good, mf)

    def test_anchored_pure_noise_raises(self, ref, mf):
        """With a surveyed anchor, noise in the window fails the 12 dB floor."""
        rng = np.random.default_rng(41)
        n = ref.samples.shape[1] + 64
        noise = lambda: IqCapture(
            rng.standard_normal(n) + 1j * rng.standard_normal(n), FS
        )
        with pytest.raises(DetectionError):
            estimate_tdoa(noise(), noise(), mf, direct_delay_hint_s=20.0 / FS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_beam_sample_raises(self, ref, mf, bad):
        """`IqCapture` refuses the sample before `estimate_tdoa` reads it."""
        r = ref.samples[0]
        samples = lay_reference(r.size + 64, [(6, 1.0)], r)
        good = IqCapture(samples, FS)
        for where in (samples.real, samples.imag):
            where[40] = bad
            with pytest.raises(ValueError, match="finite"):
                estimate_tdoa(good, IqCapture(samples, FS), mf)
            with pytest.raises(ValueError, match="finite"):
                estimate_tdoa(IqCapture(samples, FS), good, mf, guard_beam=good)
            where[40] = 0.0

    def test_all_zero_echo_raises(self, ref, mf):
        r = ref.samples[0]
        n = r.size + 64
        direct = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        with pytest.raises(DetectionError, match="echo"):
            estimate_tdoa(direct, IqCapture(np.zeros(n, dtype=complex), FS), mf)

    def test_refusals_name_their_stage(self, ref, mf):
        """Each stage's floor refusal names it: a blank direct beam, a
        blank echo beam, and a guard beam whose correlation is flat (a
        constant stream) but for a notch at the echo lag, so the guard
        takes over and its own peak sits within 6 dB of its median."""
        r = ref.samples[0]
        n = r.size + 64
        blank = IqCapture(np.zeros(n, dtype=complex), FS)
        direct = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        echo = IqCapture(lay_reference(n, [(6, 1.0), (40, 0.8)], r), FS)
        notch = -np.sum(r.conj()) / np.vdot(r, r).real
        guard = IqCapture(np.ones(n, dtype=complex) + lay_reference(n, [(40, notch)], r), FS)
        assert estimate_tdoa(direct, echo, mf) == 34 / FS
        assert estimate_tdoa(direct, echo, mf, guard_beam=IqCapture(np.ones(n), FS)) == 34 / FS
        for stage, beams in (("direct", (blank, echo)), ("echo", (direct, blank)),
                             ("guard", (direct, echo))):
            with pytest.raises(DetectionError, match=f"^{stage} correlation peak is below"):
                estimate_tdoa(*beams, mf, guard_beam=guard)

    def test_unequal_beam_lengths_raise(self, ref, mf):
        r = ref.samples[0]
        n = r.size + 64
        beam = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        longer = IqCapture(lay_reference(n + 1, [(6, 1.0)], r), FS)
        for direct, echo, guard in ((beam, longer, None), (longer, beam, None),
                                    (beam, beam, longer)):
            with pytest.raises(ValueError, match="equal length"):
                estimate_tdoa(direct, echo, mf, guard_beam=guard)

    def test_beam_shorter_than_the_window_raises(self, ref, mf):
        """The beams must hold the span the filter reads, the pilot
        symbol plus N/2 samples; one sample less is refused."""
        r = ref.samples[0]
        assert mf.stop == 2 * 1096 + 1096 + 512
        direct, echo = (lay_reference(r.size + 64, placements, r)
                        for placements in ([(6, 1.0)], [(6, 0.5), (13, 0.05)]))
        beams = [IqCapture(beam[: mf.stop], FS) for beam in (direct, echo)]
        assert estimate_tdoa(*beams, mf) == pytest.approx(7.0 / FS, rel=1e-12)
        short = [IqCapture(beam[: mf.stop - 1], FS) for beam in (direct, echo)]
        with pytest.raises(ValueError, match="lag window"):
            estimate_tdoa(*short, mf)

    def test_empty_capture_raises(self, ref, mf):
        n = ref.samples.shape[1] + 64
        blank = IqCapture(np.zeros(n, dtype=complex), FS)
        with pytest.raises(DetectionError):
            estimate_tdoa(blank, blank, mf)


class TestRangeDoppler:
    def test_recovers_delay_and_doppler(self):
        cfg = WaveformConfig(seed=8)
        ref = matched_reference(cfg)
        r = ref.samples[0]
        pulses = 16
        spp = r.size + 32
        fs = cfg.sample_rate_hz
        pri = spp / fs
        doppler = 900.0
        frames = []
        for p in range(pulses):
            frame = np.zeros(spp, dtype=complex)
            frame[12 : 12 + r.size] = r
            frames.append(frame * np.exp(2j * math.pi * doppler * pri * p))
        train = IqCapture(np.concatenate(frames), fs, pulses=pulses, samples_per_pulse=spp)
        fast = np.fft.ifft(
            np.fft.fft(train.frames()[0], axis=1) * np.fft.fft(r, spp).conj(), axis=1
        )
        rd = range_doppler(train, ref, spp)
        delay, dop = doppler_peak(rd)
        assert delay == pytest.approx(12 / fs, abs=1e-12)
        bin_hz = rd.doppler_axis_hz[1] - rd.doppler_axis_hz[0]
        assert abs(dop - doppler) < bin_hz / 2
        # Magnitudes are taken before the shift; the bytes must equal
        # shifting the complex map first.
        shifted = np.fft.fftshift(np.fft.fft(fast, n=4 * pulses, axis=0), axes=0)
        assert np.array_equal(rd.magnitudes, np.abs(shifted).T)
        # The fast-time correlation was written over the train's frames.
        assert np.array_equal(train.frames()[0], fast)

    @staticmethod
    def one_shot(frames, r, pad):
        """The whole fftshifted magnitude map of ``frames`` (pulses x
        samples) and the reference ``r``, in one transform."""
        pulses, samples = frames.shape
        fast = np.fft.ifft(np.fft.fft(frames, axis=1) * np.fft.fft(r, samples).conj(), axis=1)
        return np.fft.fftshift(np.abs(np.fft.fft(fast.T, n=pulses * pad)), axes=1)

    @pytest.mark.parametrize("pulses, samples, pad", [(16, 2500, 4), (3, 1100, 1)])
    def test_blocks_match_one_shot_transform(self, pulses, samples, pad, monkeypatch):
        """The blocked slow-time DFT holds the one-shot map's first rows
        bit for bit, with a partial last block of delay rows and an odd
        bin count (a `DOPPLER_PAD` of 1): all of them, a block and a
        part, and all of them when asked for more."""
        monkeypatch.setattr(estimation, "DOPPLER_PAD", pad)
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((pulses, samples)) + 1j * rng.standard_normal((pulses, samples))
        r = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        one_shot = self.one_shot(frames, r, pad)
        for rows in (samples, 1030, samples + 500):
            train = IqCapture(frames.reshape(-1).copy(), FS, pulses=pulses, samples_per_pulse=samples)
            rd = range_doppler(train, IqCapture(r, FS), rows)
            assert np.array_equal(rd.magnitudes, one_shot[:rows])
            assert np.array_equal(rd.delay_axis_s, (np.arange(samples) / FS)[:rows])

    @pytest.mark.parametrize("case", ["tie across blocks", "peak below the rows", "odd bins"])
    def test_blocked_peak_is_the_one_shot_argmax(self, case, monkeypatch):
        """The peak found block by block is the cell `np.argmax` picks in
        the one-shot map, with that cell's row: when two blocks hold the
        same largest magnitude (the earlier wins), when the peak lies
        below the held rows, and with an odd bin count (a `DOPPLER_PAD`
        of 1)."""
        rng = np.random.default_rng(6)
        pad, rows = 4, 2
        if case == "tie across blocks":
            # Small integers in 4-sample frames through a one-sample
            # reference correlate exactly, so delays 1 and 3, each its own
            # block, carry the same pulse sequence and magnitudes.
            monkeypatch.setattr(estimation, "_DELAY_BLOCK", 1)
            frames = np.array([[0, 2 + 1j, 1, 2 + 1j], [1j, 1 - 2j, 0, 1 - 2j]])
            r = np.ones(1, dtype=complex)
        else:
            if case == "odd bins":
                pad = 1
                monkeypatch.setattr(estimation, "DOPPLER_PAD", pad)
            frames = rng.standard_normal((3, 2500)) + 1j * rng.standard_normal((3, 2500))
            frames[:, 2300] *= 30.0  # the peak lands about 2300 rows down, in the third block
            r = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        pulses, samples = frames.shape
        train = IqCapture(frames.reshape(-1).copy(), FS, pulses=pulses, samples_per_pulse=samples)
        rd = range_doppler(train, IqCapture(r, FS), rows)
        one_shot = self.one_shot(frames, r, pad)
        row, column = np.unravel_index(int(np.argmax(one_shot)), one_shot.shape)
        if case == "tie across blocks":
            assert row == 1 and np.array_equal(one_shot[1], one_shot[3])
        else:
            assert row >= estimation._DELAY_BLOCK * 2
        assert one_shot.shape[1] % 2 == (case == "odd bins")
        assert (rd.peak_delay_s, rd.peak_bin) == (row / FS, column)
        assert np.array_equal(rd.peak_row, one_shot[row])
        assert np.array_equal(rd.magnitudes, one_shot[:rows])
        assert doppler_peak(rd)[0] == row / FS

    def test_validation(self):
        cfg = WaveformConfig(seed=8)
        ref = matched_reference(cfg)
        fs = cfg.sample_rate_hz
        single = IqCapture(np.zeros(ref.samples.size + 8, dtype=complex), fs)
        with pytest.raises(ValueError):
            range_doppler(single, ref, 8)
        short = IqCapture(
            np.zeros((1, 128), dtype=complex), fs, pulses=2, samples_per_pulse=64
        )
        with pytest.raises(ValueError):
            range_doppler(short, ref, 8)

    def test_doppler_to_velocity(self):
        assert doppler_to_velocity(100.0, 28e9) == pytest.approx(
            299_792_458.0 * 100.0 / 28e9
        )
        with pytest.raises(ValueError):
            doppler_to_velocity(1.0, 0.0)


def draws(seed, trials):
    return make_rng(seed).standard_normal((trials, 2))


class TestModelBasedMeasure:
    """Statistical measurements of the model engine, `model_measure_batch`,
    from the true TDOA and AoA of a pair and target."""

    def pair(self):
        return BistaticPair(NodePosition(0.0, 0.0), NodePosition(25.0, 0.0), Mode.MODE1)

    def truth(self, target):
        pair = self.pair()
        return true_tdoa(pair, target), true_aoa(pair.rx_node, target)

    def test_exact_without_noise_or_lattice(self):
        truth = self.truth(TargetState(10.0, 18.0))
        tdoa, aoa = model_measure_batch(*truth, MeasurementErrorModel(0.0, 0.0), draws(1, 3))
        assert tdoa.tolist() == [truth[0]] * 3
        assert aoa.tolist() == [truth[1]] * 3

    def test_error_statistics_match_half_normal(self):
        truth = self.truth(TargetState(10.0, 18.0))
        sigma_t = 2e-9
        sigma_a = math.radians(0.2)
        err = MeasurementErrorModel(sigma_t, sigma_a)
        tdoa, aoa = model_measure_batch(*truth, err, draws(77, 20000))
        tdoa_errs = np.abs(tdoa - truth[0])
        aoa_errs = np.abs(aoa - truth[1])
        assert np.mean(tdoa_errs) == pytest.approx(sigma_t / MEAN_ABS_TO_SIGMA, rel=0.03)
        assert np.mean(aoa_errs) == pytest.approx(sigma_a / MEAN_ABS_TO_SIGMA, rel=0.03)

    def test_negative_draws_clamp_to_zero(self):
        truth = self.truth(TargetState(12.5, 1.0))  # tiny true TDOA
        tdoa, _ = model_measure_batch(*truth, MeasurementErrorModel(1e-6, 0.0), draws(78, 200))
        assert tdoa.min() == 0.0

    def test_batch_rows_are_successive_scalar_draws(self):
        """Row t against a per-trial scalar formula on successive draws."""
        tdoa_true, aoa_true = self.truth(TargetState(12.5, 1.0))  # tiny: some draws clamp
        err = MeasurementErrorModel(2e-9, math.radians(3.0))
        tdoa, aoa = model_measure_batch(tdoa_true, aoa_true, err, draws((7, 1, 0, 3), 300))
        rng = make_rng((7, 1, 0, 3))
        expected = []
        for _ in range(300):
            noise_t, noise_a = rng.standard_normal(2).tolist()
            noisy = tdoa_true + err.sigma_tdoa_s * noise_t
            expected.append(
                (noisy if noisy > 0.0 else 0.0, wrap_angle(aoa_true + err.sigma_aoa_rad * noise_a))
            )
        assert list(zip(tdoa.tolist(), aoa.tolist())) == expected
        assert 0.0 in tdoa.tolist()

    def test_arrays_of_true_values_match_one_call_each(self):
        """Points x trials x streams in one call: each (point, stream)
        reads as its own call on its trials' draws, a negative zero clamps
        to +0.0 as before, and a NaN true value (not measured) stays NaN."""
        rng = np.random.default_rng(31)
        err = MeasurementErrorModel(3e-9, math.radians(2.0))
        tdoa_true = rng.uniform(0.0, 5e-9, (6, 1, 3))
        tdoa_true[0, 0, 0] = 0.0
        aoa_true = rng.uniform(-math.pi, math.pi, (6, 1, 3))
        tdoa_true[4, 0, 1] = aoa_true[4, 0, 1] = math.nan
        noise = rng.standard_normal((6, 5, 3, 2))
        noise[0, :, 0, 0] = -0.0
        tdoa, aoa = model_measure_batch(tdoa_true, aoa_true, err, noise)
        assert tdoa.shape == aoa.shape == (6, 5, 3)
        assert math.copysign(1.0, tdoa[0, 0, 0]) == 1.0
        for k, j in np.ndindex(6, 3):
            if (k, j) == (4, 1):
                assert np.isnan(tdoa[k, :, j]).all() and np.isnan(aoa[k, :, j]).all()
                continue
            alone = model_measure_batch(tdoa_true[k, 0, j], aoa_true[k, 0, j], err, noise[k, :, j])
            assert tdoa[k, :, j].tolist() == alone[0].tolist()
            assert aoa[k, :, j].tolist() == alone[1].tolist()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-12])
    def test_rejects_non_finite_or_negative_sigmas(self, bad):
        """A NaN TDOA sigma used to come back as a TDOA of 0.0 (NaN fails
        the clamp's > 0 test) and an infinite one as inf or NaN; both
        sigmas are now refused where the model is built."""
        for sigmas in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="finite and non-negative"):
                MeasurementErrorModel(*sigmas)

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 3), (2, 3, 2), ()])
    def test_rejects_draws_of_another_shape(self, shape):
        """A 1-D draw array used to raise IndexError and a third column
        was ignored; only draws of the measurements' shape by 2 are read,
        here for four true values."""
        err = MeasurementErrorModel(2e-9, 0.01)
        with pytest.raises(ValueError, match=r"\(\.\.\., 2\)"):
            model_measure_batch(np.full(4, 1e-8), np.zeros(4), err, np.zeros(shape))

    def test_finite_inputs_give_finite_measurements(self):
        """Property over seeded random calls: targets anywhere, on the
        baseline and its extension, or kilometres away; sigmas from 0 up;
        draws up to 50 standard deviations and zero trials. Every call
        returns one finite, non-negative TDOA and one AoA in (-pi, pi]
        per trial, and a zero sigma leaves its measurement at the truth."""
        rng = np.random.default_rng(25)
        spots = [(12.5, 0.0), (-40.0, 0.0), (60.0, 0.0), (3e3, -4e3)]
        for case in range(400):
            x, y = spots[case % len(spots)] if case % 3 == 0 else rng.uniform(-100.0, 100.0, 2)
            truth = self.truth(TargetState(float(x), float(y)))
            sigmas = rng.uniform(0.0, [1e-6, 3.0]) * (rng.random(2) < 0.8)
            err = MeasurementErrorModel(*map(float, sigmas))
            noise = rng.uniform(-50.0, 50.0, (int(rng.integers(0, 5)), 2))
            tdoa, aoa = model_measure_batch(*truth, err, noise)
            assert tdoa.shape == aoa.shape == (len(noise),)
            assert np.isfinite(tdoa).all() and (tdoa >= 0.0).all()
            assert np.isfinite(aoa).all() and (-math.pi < aoa).all() and (aoa <= math.pi).all()
            if err.sigma_tdoa_s == 0.0:
                assert (tdoa == truth[0]).all()
            if err.sigma_aoa_rad == 0.0:
                assert (aoa == wrap_angle(truth[1])).all()

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_noise(self, column, bad):
        noise = draws(1, 3)
        noise[1, column] = bad
        err = MeasurementErrorModel(2e-9, math.radians(0.2))
        with pytest.raises(ValueError, match="finite"):
            model_measure_batch(*self.truth(TargetState(10.0, 18.0)), err, noise)
