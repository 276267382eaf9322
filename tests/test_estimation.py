"""Estimator behavior on synthetic captures with known ground truth."""

import math

import numpy as np
import pytest

from bistar import (
    ArrayModel,
    BistaticPair,
    DegenerateGeometryError,
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
    MEAN_ABS_TO_SIGMA, MUSIC_GRID_DEG, _music_scan, _null_spectrum, _peak_with_floor,
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
        good = RangeDopplerMap(np.ones((3, 2)), np.arange(3.0), np.arange(2.0))
        assert good.magnitudes.shape == (3, 2)
        with pytest.raises(ValueError):
            RangeDopplerMap(np.ones((3, 3)), np.arange(3.0), np.arange(2.0))
        with pytest.raises(ValueError):
            RangeDopplerMap(np.ones((3, 2)), np.array([0.0, 0.0, 1.0]), np.arange(2.0))
        with pytest.raises(ValueError):
            RangeDopplerMap(-np.ones((3, 2)), np.arange(3.0), np.arange(2.0))


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
        out = project_out_stream(echo, direct)
        assert out.pulses == 3 and out.samples_per_pulse == 100
        assert np.sum(np.abs(out.samples) ** 2) <= np.sum(np.abs(echo.samples) ** 2)
        assert abs(np.vdot(direct, out.samples[0])) < 1e-9

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


def three_pass_tdoa(direct, echo, reference, guard=None, hint_s=None):
    """`estimate_tdoa` with one `_correlate` call per beam.

    Each call transforms the reference again and the template is built
    from a fourth transform: the straightforward form, kept as the
    bit-for-bit reference for the batched one. Returns None where the
    estimator refuses.
    """
    ref = reference.samples[0]
    corr_direct = _correlate(direct.samples[0], ref)
    try:
        if hint_s is None:
            direct_peak = _peak_with_floor(corr_direct, 6.0, "direct")
        else:
            center = int(round(hint_s * reference.sample_rate_hz))
            direct_peak = _peak_with_floor(
                corr_direct, 12.0, "direct", window=(center - 1, center + 2)
            )
    except DetectionError:
        return None
    corr_echo = _correlate(echo.samples[0], ref)
    length = corr_echo.shape[0]
    size = 1
    while size < 2 * ref.shape[0] or size < length + ref.shape[0]:
        size <<= 1
    spectrum = np.fft.fft(ref, size)
    auto = np.fft.ifft(spectrum * spectrum.conj())
    template = auto[(np.arange(length) - direct_peak) % size]
    corr_clean = corr_echo - corr_echo[direct_peak] / auto[0].real * template
    tail = np.abs(corr_clean[direct_peak + 1 :])
    offset = int(np.argmax(tail))
    floor = float(np.median(np.abs(corr_clean)))
    if 20.0 * math.log10(tail[offset] / floor) < 6.0:
        return None
    if guard is not None:
        guard_tail = np.abs(_correlate(guard.samples[0], ref)[direct_peak + 1 :])
        guard_peak = float(guard_tail.max())
        if guard_tail[offset] < 0.5 * guard_peak:
            offset = int(np.argmax(guard_tail))
            if 20.0 * math.log10(guard_peak / float(np.median(guard_tail))) < 6.0:
                return None
    return (offset + 1) / reference.sample_rate_hz


@pytest.fixture(scope="module")
def ref():
    return matched_reference(WaveformConfig(seed=6))


class TestEstimateTdoa:
    def test_integer_lattice_readout(self, ref):
        r = ref.samples[0]
        n = r.size + 64
        direct = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        echo = IqCapture(lay_reference(n, [(6, 0.5), (13, 0.05)], r), FS)
        tdoa = estimate_tdoa(direct, echo, ref)
        assert tdoa == pytest.approx(7.0 / FS, rel=1e-12)

    def test_deflation_uncovers_echo_under_comb_alias(self, ref):
        """The comb pilot aliases the direct peak at half the ambiguity.

        That alias dwarfs a weak echo, so a correct readout here proves
        the direct contribution was subtracted, sidelobes included.
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
        tdoa = estimate_tdoa(direct, echo, ref)
        assert tdoa == pytest.approx(100.0 / FS, rel=1e-12)

    def test_guard_overrides_spurious_peak(self, ref):
        r = ref.samples[0]
        n = r.size + 64
        direct = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        # A spurious lobe right after the direct path outweighs the true
        # echo in the main beam, but the guard channel knows better.
        echo = IqCapture(
            lay_reference(n, [(6, 0.5), (8, 0.2), (13, 0.05)], r), FS
        )
        guard = IqCapture(lay_reference(n, [(13, 0.05)], r), FS)
        naive = estimate_tdoa(direct, echo, ref)
        assert naive == pytest.approx(2.0 / FS, rel=1e-12)
        guarded = estimate_tdoa(direct, echo, ref, guard_beam=guard)
        assert guarded == pytest.approx(7.0 / FS, rel=1e-12)

    def test_guard_confirms_genuine_peak(self, ref):
        r = ref.samples[0]
        n = r.size + 64
        direct = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        echo = IqCapture(lay_reference(n, [(6, 0.5), (13, 0.05)], r), FS)
        guard = IqCapture(lay_reference(n, [(13, 0.04)], r), FS)
        assert estimate_tdoa(direct, echo, ref, guard_beam=guard) == pytest.approx(
            7.0 / FS, rel=1e-12
        )

    def test_hint_window_anchors_direct_search(self, ref):
        r = ref.samples[0]
        n = r.size + 64
        # The echo dominates the correlation; only the surveyed delay
        # window keeps the anchor on the weak direct path.
        direct = IqCapture(lay_reference(n, [(6, 0.3), (13, 1.0)], r), FS)
        echo = IqCapture(lay_reference(n, [(6, 0.02), (13, 1.0)], r), FS)
        tdoa = estimate_tdoa(direct, echo, ref, direct_delay_hint_s=6.0 / FS)
        assert tdoa == pytest.approx(7.0 / FS, rel=1e-12)

    def test_hint_window_ignores_echo_skirt(self, ref, monkeypatch):
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
        assert estimate_tdoa(direct, echo, ref, direct_delay_hint_s=hint_s) == (
            pytest.approx(6.0 / FS, rel=1e-12)
        )
        monkeypatch.setattr(estimation, "HINT_WINDOW", 3)
        wide = estimate_tdoa(direct, echo, ref, direct_delay_hint_s=hint_s)
        assert wide == pytest.approx(3.0 / FS, rel=1e-12)

    def test_hint_window_refuses_noise_anchor(self, ref):
        """A transmit-pattern null leaves only noise in the anchor window."""
        r = ref.samples[0]
        n = r.size + 64
        rng = np.random.default_rng(40)
        noise = lambda: 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        direct = IqCapture(noise(), FS)
        echo = IqCapture(lay_reference(n, [(13, 0.1)], r) + noise(), FS)
        with pytest.raises(DetectionError):
            estimate_tdoa(direct, echo, ref, direct_delay_hint_s=6.0 / FS)

    @pytest.mark.parametrize("with_guard", [False, True])
    def test_batched_matches_three_pass_reference(self, ref, with_guard):
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
                    direct, echo, ref, guard_beam=guard, direct_delay_hint_s=hint_s
                )
            except DetectionError:
                got = None
            assert got == three_pass_tdoa(direct, echo, ref, guard, hint_s)

    @pytest.mark.parametrize("mhz", [100, 400])
    def test_prepared_filter_matches_bare_call(self, mhz):
        """A matched filter prepared once reads the same floats as a
        bare call, which builds its own, and refuses another length."""
        fs = FS * mhz / 100
        ref = matched_reference(reference_config(mhz, seed=6))
        r = ref.samples[0]
        n = r.size + 40
        matched = matched_filter(ref, n)
        rng = np.random.default_rng(44)
        for trial in range(6):
            scale = 0.02 * 4 ** (trial % 3)

            def noisy(placements):
                noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                return IqCapture(lay_reference(n, placements, r) + scale * noise, fs)

            lag = 12 + int(rng.integers(0, 20))
            beams = (noisy([(6, 1.0)]), noisy([(6, 0.5), (lag, 0.05)]), ref)
            kwargs = dict(guard_beam=noisy([(lag, 0.05)]), direct_delay_hint_s=6.0 / fs)
            outcomes = []
            for extra in ({}, {"matched": matched}):
                try:
                    outcomes.append(estimate_tdoa(*beams, **kwargs, **extra))
                except DetectionError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        with pytest.raises(ValueError):
            estimate_tdoa(*beams, matched=matched_filter(ref, n - 1))

    @pytest.mark.parametrize("mhz", [100, 400])
    def test_pilot_span_matches_full_reference(self, mhz):
        """The filter keeps the DM-RS symbol at a 5-smooth size; its
        correlation and template match the whole reference's at a power
        of two within 1e-9 of the peak."""
        cfg = reference_config(mhz, seed=6)
        ref = matched_reference(cfg)
        r = ref.samples[0]
        n = fast_length(r.size + 29)
        matched = matched_filter(ref, n)
        window = cfg.dmrs_window()
        size = fast_length(n + window.stop - window.start)
        assert (matched.start, matched.auto.size) == (window.start, size)
        rng = np.random.default_rng(45)
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        stream = lay_reference(n, [(6, 1.0), (19, 0.3)], r) + 0.1 * noise
        full = _correlate(stream, r)
        corr = np.fft.ifft(np.fft.fft(stream[matched.start :], size) * matched.conj_spectrum)
        assert np.abs(corr[:n] - full).max() < 1e-9 * np.abs(full).max()
        wide = 1 << (n + r.size - 1).bit_length()
        spectrum = np.fft.fft(r, wide)
        auto = np.fft.ifft(spectrum * spectrum.conj())
        for peak in (0, 6, n - 1):
            lags = np.arange(n) - peak
            assert np.abs(matched.auto[lags % size] - auto[lags % wide]).max() < (
                1e-9 * auto[0].real
            )

    def test_pilot_span_reads_the_reference_lags(self, ref):
        """Over 60 noisy draws, with and without guard beam and anchor,
        the pilot-span filter reads the lag (or refusal) of the
        whole-reference `three_pass_tdoa`."""
        r = ref.samples[0]
        n = r.size + 96
        rng = np.random.default_rng(46)

        def noisy(placements, scale):
            noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            return IqCapture(lay_reference(n, placements, r) + scale * noise, FS)

        matched = matched_filter(ref, n)
        for trial in range(60):
            lag = 8 + int(rng.integers(0, 85))
            scale = 0.01 * 5 ** (trial % 4)
            direct = noisy([(6, 1.0)], scale)
            echo = noisy([(6, 0.5), (lag, 0.05)], scale)
            guard = noisy([(lag, 0.05)], scale) if trial % 3 else None
            hint_s = 6.0 / FS if trial % 2 else None
            try:
                got = estimate_tdoa(
                    direct, echo, ref, guard_beam=guard, direct_delay_hint_s=hint_s,
                    matched=matched,
                )
            except DetectionError:
                got = None
            assert got == three_pass_tdoa(direct, echo, ref, guard, hint_s)

    def test_all_zero_reference_raises(self, ref):
        n = ref.samples.shape[1] + 64
        beam = IqCapture(lay_reference(n, [(6, 1.0)], ref.samples[0]), FS)
        with pytest.raises(DetectionError):
            estimate_tdoa(beam, beam, IqCapture(np.zeros(ref.samples.shape[1]), FS))

    def test_validation(self, ref):
        r = ref.samples[0]
        n = r.size + 64
        good = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        with pytest.raises(ValueError):
            estimate_tdoa(good, IqCapture(good.samples[:, :-1], FS), ref)
        multi = IqCapture(np.ones((2, n), dtype=complex), FS)
        with pytest.raises(ValueError):
            estimate_tdoa(multi, good, ref)
        wrong_rate = IqCapture(lay_reference(n, [(6, 1.0)], r), FS / 2)
        with pytest.raises(ValueError):
            estimate_tdoa(wrong_rate, good, ref)

    def test_anchored_pure_noise_raises(self, ref):
        """With a surveyed anchor, noise in the window fails the 12 dB floor."""
        rng = np.random.default_rng(41)
        n = ref.samples.shape[1] + 64
        noise = lambda: IqCapture(
            rng.standard_normal(n) + 1j * rng.standard_normal(n), FS
        )
        with pytest.raises(DetectionError):
            estimate_tdoa(noise(), noise(), ref, direct_delay_hint_s=20.0 / FS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_beam_sample_raises(self, ref, bad):
        """`IqCapture` refuses the sample before `estimate_tdoa` reads it."""
        r = ref.samples[0]
        samples = lay_reference(r.size + 64, [(6, 1.0)], r)
        good = IqCapture(samples, FS)
        for where in (samples.real, samples.imag):
            where[40] = bad
            with pytest.raises(ValueError, match="finite"):
                estimate_tdoa(good, IqCapture(samples, FS), ref)
            with pytest.raises(ValueError, match="finite"):
                estimate_tdoa(IqCapture(samples, FS), good, ref, guard_beam=good)
            where[40] = 0.0

    def test_all_zero_echo_raises(self, ref):
        r = ref.samples[0]
        n = r.size + 64
        direct = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        with pytest.raises(DetectionError, match="echo"):
            estimate_tdoa(direct, IqCapture(np.zeros(n, dtype=complex), FS), ref)

    def test_unequal_beam_lengths_raise(self, ref):
        r = ref.samples[0]
        n = r.size + 64
        beam = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        longer = IqCapture(lay_reference(n + 1, [(6, 1.0)], r), FS)
        for direct, echo, guard in ((beam, longer, None), (longer, beam, None),
                                    (beam, beam, longer)):
            with pytest.raises(ValueError, match="equal length"):
                estimate_tdoa(direct, echo, ref, guard_beam=guard)

    def test_filter_for_another_length_raises(self, ref):
        r = ref.samples[0]
        n = r.size + 64
        beam = IqCapture(lay_reference(n, [(6, 1.0)], r), FS)
        for length in (n - 1, n + 1):
            with pytest.raises(ValueError, match="another beam length"):
                estimate_tdoa(beam, beam, ref, matched=matched_filter(ref, length))

    def test_empty_capture_raises(self, ref):
        n = ref.samples.shape[1] + 64
        blank = IqCapture(np.zeros(n, dtype=complex), FS)
        with pytest.raises(DetectionError):
            estimate_tdoa(blank, blank, ref)


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
        rd = range_doppler(train, ref)
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

    @pytest.mark.parametrize("pulses, samples, pad", [(16, 2500, 4), (3, 1100, 1)])
    def test_blocks_match_one_shot_transform(self, pulses, samples, pad, monkeypatch):
        """The blocked slow-time DFT equals the one-shot map bit for bit,
        with a partial last block of delay rows and an odd bin count (a
        `DOPPLER_PAD` of 1)."""
        monkeypatch.setattr(estimation, "DOPPLER_PAD", pad)
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((pulses, samples)) + 1j * rng.standard_normal((pulses, samples))
        r = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        train = IqCapture(frames.reshape(-1).copy(), FS, pulses=pulses, samples_per_pulse=samples)
        rd = range_doppler(train, IqCapture(r, FS))
        fast = np.fft.ifft(np.fft.fft(frames, axis=1) * np.fft.fft(r, samples).conj(), axis=1)
        one_shot = np.fft.fftshift(np.abs(np.fft.fft(fast.T, n=pulses * pad)), axes=1)
        assert np.array_equal(rd.magnitudes, one_shot)

    def test_validation(self):
        cfg = WaveformConfig(seed=8)
        ref = matched_reference(cfg)
        fs = cfg.sample_rate_hz
        single = IqCapture(np.zeros(ref.samples.size + 8, dtype=complex), fs)
        with pytest.raises(ValueError):
            range_doppler(single, ref)
        short = IqCapture(
            np.zeros((1, 128), dtype=complex), fs, pulses=2, samples_per_pulse=64
        )
        with pytest.raises(ValueError):
            range_doppler(short, ref)

    def test_doppler_to_velocity(self):
        assert doppler_to_velocity(100.0, 28e9) == pytest.approx(
            299_792_458.0 * 100.0 / 28e9
        )
        with pytest.raises(ValueError):
            doppler_to_velocity(1.0, 0.0)


def draws(seed, trials):
    return make_rng(seed).standard_normal((trials, 2))


class TestModelBasedMeasure:
    """Statistical measurements of the model engine, `model_measure_batch`."""

    def pair(self):
        return BistaticPair(NodePosition(0.0, 0.0), NodePosition(25.0, 0.0), Mode.MODE1)

    def test_exact_without_noise_or_lattice(self):
        pair = self.pair()
        target = TargetState(10.0, 18.0)
        tdoa, aoa = model_measure_batch(pair, target, MeasurementErrorModel(0.0, 0.0), draws(1, 3))
        assert tdoa.tolist() == [true_tdoa(pair, target)] * 3
        assert aoa.tolist() == [true_aoa(pair.rx_node, target)] * 3

    def test_error_statistics_match_half_normal(self):
        pair = self.pair()
        target = TargetState(10.0, 18.0)
        sigma_t = 2e-9
        sigma_a = math.radians(0.2)
        err = MeasurementErrorModel(sigma_t, sigma_a)
        tdoa, aoa = model_measure_batch(pair, target, err, draws(77, 20000))
        tdoa_errs = np.abs(tdoa - true_tdoa(pair, target))
        aoa_errs = np.abs(aoa - true_aoa(pair.n2, target))
        assert np.mean(tdoa_errs) == pytest.approx(sigma_t / MEAN_ABS_TO_SIGMA, rel=0.03)
        assert np.mean(aoa_errs) == pytest.approx(sigma_a / MEAN_ABS_TO_SIGMA, rel=0.03)

    def test_negative_draws_clamp_to_zero(self):
        pair = self.pair()
        target = TargetState(12.5, 1.0)  # tiny true TDOA
        tdoa, _ = model_measure_batch(pair, target, MeasurementErrorModel(1e-6, 0.0), draws(78, 200))
        assert tdoa.min() == 0.0

    def test_batch_rows_are_successive_scalar_draws(self):
        """Row t against a per-trial scalar formula on successive draws."""
        pair = self.pair()
        target = TargetState(12.5, 1.0)  # tiny true TDOA: some draws clamp
        err = MeasurementErrorModel(2e-9, math.radians(3.0))
        tdoa, aoa = model_measure_batch(pair, target, err, draws((7, 1, 0, 3), 300))
        rng = make_rng((7, 1, 0, 3))
        tdoa_true = true_tdoa(pair, target)
        aoa_true = true_aoa(pair.rx_node, target)
        expected = []
        for _ in range(300):
            noise_t, noise_a = rng.standard_normal(2).tolist()
            noisy = tdoa_true + err.sigma_tdoa_s * noise_t
            expected.append(
                (noisy if noisy > 0.0 else 0.0, wrap_angle(aoa_true + err.sigma_aoa_rad * noise_a))
            )
        assert list(zip(tdoa.tolist(), aoa.tolist())) == expected
        assert 0.0 in tdoa.tolist()

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
        was ignored; only (trials, 2) is read."""
        err = MeasurementErrorModel(2e-9, 0.01)
        with pytest.raises(ValueError, match=r"\(trials, 2\)"):
            model_measure_batch(self.pair(), TargetState(10.0, 18.0), err, np.zeros(shape))

    def test_finite_inputs_give_finite_measurements(self):
        """Property over seeded random calls: targets anywhere, on the
        baseline and its extension, or kilometres away; sigmas from 0 up;
        draws up to 50 standard deviations and zero trials. Every call
        returns one finite, non-negative TDOA and one AoA in (-pi, pi]
        per trial, and a zero sigma leaves its measurement at the truth;
        a target on a node is refused as degenerate."""
        rng = np.random.default_rng(25)
        pair = self.pair()
        spots = [(12.5, 0.0), (-40.0, 0.0), (60.0, 0.0), (3e3, -4e3), (0.0, 0.0), (25.0, 0.0)]
        for case in range(400):
            x, y = spots[case % len(spots)] if case % 3 == 0 else rng.uniform(-100.0, 100.0, 2)
            target = TargetState(float(x), float(y))
            sigmas = rng.uniform(0.0, [1e-6, 3.0]) * (rng.random(2) < 0.8)
            err = MeasurementErrorModel(*map(float, sigmas))
            noise = rng.uniform(-50.0, 50.0, (int(rng.integers(0, 5)), 2))
            if (x, y) in spots[-2:]:
                with pytest.raises(DegenerateGeometryError):
                    model_measure_batch(pair, target, err, noise)
                continue
            tdoa, aoa = model_measure_batch(pair, target, err, noise)
            assert tdoa.shape == aoa.shape == (len(noise),)
            assert np.isfinite(tdoa).all() and (tdoa >= 0.0).all()
            assert np.isfinite(aoa).all() and (-math.pi < aoa).all() and (aoa <= math.pi).all()
            if err.sigma_tdoa_s == 0.0:
                assert (tdoa == true_tdoa(pair, target)).all()
            if err.sigma_aoa_rad == 0.0:
                assert (aoa == wrap_angle(true_aoa(pair.rx_node, target))).all()

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_noise(self, column, bad):
        noise = draws(1, 3)
        noise[1, column] = bad
        err = MeasurementErrorModel(2e-9, math.radians(0.2))
        with pytest.raises(ValueError, match="finite"):
            model_measure_batch(self.pair(), TargetState(10.0, 18.0), err, noise)
