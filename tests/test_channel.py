"""Array response, path budgets, and propagation physics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bistar import (
    ArrayModel,
    BistaticPair,
    DegenerateGeometryError,
    IqCapture,
    Mode,
    NodePosition,
    PathDescriptor,
    RadarParams,
    TargetState,
    array_factor,
    bistatic_ranges,
    bistatic_snr,
    build_paths,
    make_rng,
    propagate,
    steering_vector,
    true_aoa,
)

SPEED_OF_LIGHT = 299_792_458.0


def quiet_params(**kwargs):
    """Radar parameters with a vanishing thermal floor for exact checks."""
    return replace(RadarParams(), reference_temp_k=1e-12, **kwargs)


def broadcast_propagate(tx, paths, rx_array, params, seed):
    """`propagate` as one (elements, pulses, samples) broadcast per path.

    The straightforward formulation, kept as the bit-for-bit reference
    for the in-place mixing and noise of the library version.
    """
    fs = tx.sample_rate_hz
    pulses = tx.pulses
    pad = int(math.ceil(max(p.delay_s for p in paths) * fs)) + 8
    spp_out = tx.samples_per_pulse + pad
    pri = spp_out / fs
    spectra = np.fft.fft(tx.frames()[0], n=spp_out, axis=1)
    freq = np.fft.fftfreq(spp_out, d=1.0 / fs)
    pulse_index = np.arange(pulses)
    out = np.zeros((rx_array.elements, pulses, spp_out), dtype=np.complex128)
    for path in paths:
        ramp = np.exp(-2j * math.pi * freq * path.delay_s)
        delayed = np.fft.ifft(spectra * ramp[np.newaxis, :], axis=1)
        static = path.amplitude * np.exp(
            1j * (path.phase_rad - 2.0 * math.pi * params.carrier_hz * path.delay_s)
        )
        doppler = np.exp(2j * math.pi * path.doppler_hz * pri * pulse_index)
        steer = steering_vector(rx_array, path.aoa_rad)
        out += (
            steer[:, np.newaxis, np.newaxis]
            * (static * doppler)[np.newaxis, :, np.newaxis]
            * delayed[np.newaxis, :, :]
        )
    sigma = math.sqrt(1.380649e-23 * params.noise_temp_k * fs / 2.0)
    for p in range(pulses):
        rng = np.random.default_rng(np.random.SeedSequence(list(seed) + [p]))
        noise = rng.standard_normal((rx_array.elements, 2 * spp_out))
        out[:, p, :] += sigma * (noise[:, 0::2] + 1j * noise[:, 1::2])
    return out.reshape(rx_array.elements, pulses * spp_out)


def two_path_case(params, pulses, aoas=(0.3, -0.5)):
    """A random pulse train and a direct/echo pair with fractional delays."""
    rng = np.random.default_rng(8)
    fs = params.sample_rate_hz
    slot = rng.standard_normal(96) + 1j * rng.standard_normal(96)
    tx = IqCapture(np.tile(slot, pulses), fs, pulses=pulses, samples_per_pulse=96)
    paths = [
        PathDescriptor(7.3 / fs, 0.02, aoa_rad=aoas[0], phase_rad=0.4),
        PathDescriptor(19.81 / fs, 0.004, aoa_rad=aoas[1], doppler_hz=2.5e4),
    ]
    return tx, paths


class TestArrayModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayModel(0)
        with pytest.raises(ValueError):
            ArrayModel(4, spacing_wavelengths=0.0)

    def test_steering_vector_at_boresight_is_flat(self):
        arr = ArrayModel(8, 0.5, boresight=0.7)
        vec = steering_vector(arr, 0.7)
        assert np.allclose(vec, np.ones(8))

    def test_steering_vector_phase_progression(self):
        arr = ArrayModel(4, 0.5, boresight=0.0)
        angle = math.pi / 6.0
        vec = steering_vector(arr, angle)
        step = 2.0 * math.pi * 0.5 * math.sin(angle)
        expected = np.exp(1j * step * np.arange(4))
        assert np.allclose(vec, expected)
        assert np.allclose(np.abs(vec), 1.0)

    def test_array_factor_unity_on_steer_and_bounded(self):
        arr = ArrayModel(8, 0.5)
        assert array_factor(arr, 0.3, 0.3) == pytest.approx(1.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, s = rng.uniform(-math.pi / 2, math.pi / 2, size=2)
            assert abs(array_factor(arr, a, s)) <= 1.0 + 1e-12

    def test_array_factor_first_null(self):
        # Uniform 8-element, half-wavelength: nulls at sin offsets k/4.
        arr = ArrayModel(8, 0.5)
        null_angle = math.asin(0.25)
        assert abs(array_factor(arr, null_angle, 0.0)) < 1e-12


class TestPathDescriptor:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathDescriptor(-1e-9, 1.0, 0.0)
        with pytest.raises(ValueError):
            PathDescriptor(1e-9, -1.0, 0.0)
        with pytest.raises(ValueError):
            PathDescriptor(1e-9, 1.0, 0.0, doppler_hz=math.inf)


class TestBuildPaths:
    def pair(self):
        return BistaticPair(NodePosition(0.0, 0.0), NodePosition(25.0, 0.0), Mode.MODE1)

    def test_delays_and_angles(self):
        pair = self.pair()
        target = TargetState(10.0, 18.0, rcs_dbsm=0.0)
        direct, echo = build_paths(pair, target, RadarParams())
        r1, r2 = bistatic_ranges(pair, target)
        assert direct.delay_s == pytest.approx(25.0 / SPEED_OF_LIGHT, rel=1e-12)
        assert echo.delay_s == pytest.approx((r1 + r2) / SPEED_OF_LIGHT, rel=1e-12)
        assert direct.aoa_rad == pytest.approx(true_aoa(pair.n2, pair.n1))
        assert echo.aoa_rad == pytest.approx(true_aoa(pair.n2, target))
        assert direct.doppler_hz == 0.0

    def test_echo_amplitude_realizes_link_budget(self):
        pair = self.pair()
        target = TargetState(10.0, 18.0, rcs_dbsm=0.0)
        params = RadarParams()
        _, echo = build_paths(pair, target, params)
        snr_db = bistatic_snr(params, pair, target)
        realized = 10.0 * math.log10(echo.amplitude**2 / params.noise_power_w())
        assert realized == pytest.approx(snr_db, abs=1e-9)

    def test_rcs_scales_amplitude(self):
        pair = self.pair()
        params = RadarParams()
        _, small = build_paths(pair, TargetState(10.0, 18.0, rcs_dbsm=-10.0), params)
        _, large = build_paths(pair, TargetState(10.0, 18.0, rcs_dbsm=10.0), params)
        assert large.amplitude / small.amplitude == pytest.approx(10.0, rel=1e-9)

    def test_doppler_sign_and_linearity(self):
        pair = self.pair()
        params = RadarParams()
        inbound = TargetState(12.5, 18.0, vx=0.0, vy=-1.0)
        _, echo_in = build_paths(pair, inbound, params)
        assert echo_in.doppler_hz > 0.0
        faster = TargetState(12.5, 18.0, vx=0.0, vy=-2.0)
        _, echo_fast = build_paths(pair, faster, params)
        assert echo_fast.doppler_hz == pytest.approx(2.0 * echo_in.doppler_hz, rel=1e-9)
        outbound = TargetState(12.5, 18.0, vx=0.0, vy=1.0)
        _, echo_out = build_paths(pair, outbound, params)
        assert echo_out.doppler_hz == pytest.approx(-echo_in.doppler_hz, rel=1e-9)

    def test_direct_gain_override(self):
        pair = self.pair()
        target = TargetState(10.0, 18.0)
        params = RadarParams()
        direct, _ = build_paths(pair, target, params, direct_path_gain_db=0.0)
        expected = math.sqrt(
            params.eirp_w
            * params.rx_elements
            * params.wavelength_m**2
            / (4.0 * math.pi * 25.0) ** 2
        )
        assert direct.amplitude == pytest.approx(expected, rel=1e-9)
        assert direct.phase_rad == 0.0
        attenuated, _ = build_paths(pair, target, params, direct_path_gain_db=-20.0)
        assert attenuated.amplitude == pytest.approx(expected / 10.0, rel=1e-9)

    def test_transmit_pattern_weights_direct_path(self):
        pair = self.pair()
        params = RadarParams()
        full, _ = build_paths(pair, TargetState(10.0, 18.0), params, 0.0)
        # With the beam steered at the target, the leak toward the
        # receiver cannot exceed the full budget.
        patterned, _ = build_paths(pair, TargetState(10.0, 18.0), params)
        assert patterned.amplitude <= full.amplitude + 1e-12


class TestPropagate:
    def impulse(self, params, spp=64, pulses=1):
        samples = np.zeros(pulses * spp, dtype=complex)
        for p in range(pulses):
            samples[p * spp] = 1.0
        return IqCapture(samples, params.sample_rate_hz, pulses=pulses, samples_per_pulse=spp)

    def test_integer_delay_and_steering(self):
        params = quiet_params()
        fs = params.sample_rate_hz
        tx = self.impulse(params)
        delay = 5 / fs
        arr = ArrayModel(4, 0.5, boresight=0.0)
        path = PathDescriptor(delay, 2.0, aoa_rad=0.4, phase_rad=0.25)
        out = propagate(tx, [path], arr, params, seed=0)
        assert out.samples_per_pulse == 64 + 5 + 8
        frame = out.frames()
        expected_static = 2.0 * np.exp(
            1j * (0.25 - 2.0 * math.pi * params.carrier_hz * delay)
        )
        steer = steering_vector(arr, 0.4)
        peak = frame[:, 0, 5]
        assert np.allclose(peak, expected_static * steer, atol=1e-8)
        # Energy away from the delayed impulse is at the (negligible) noise floor.
        frame[:, 0, 5] = 0.0
        assert np.max(np.abs(frame)) < 1e-6

    def test_fractional_delay_preserves_energy(self):
        params = quiet_params()
        fs = params.sample_rate_hz
        rng = np.random.default_rng(3)
        burst = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        tx = IqCapture(burst, fs)
        path = PathDescriptor(4.37 / fs, 1.0, aoa_rad=0.0)
        out = propagate(tx, [path], ArrayModel(1), params, seed=1)
        energy_in = np.sum(np.abs(burst) ** 2)
        energy_out = np.sum(np.abs(out.samples[0]) ** 2)
        assert energy_out == pytest.approx(energy_in, rel=1e-6)

    def test_two_path_carrier_phase_difference(self):
        params = quiet_params()
        fs = params.sample_rate_hz
        tx = self.impulse(params)
        d1, d2 = 3 / fs, 9 / fs
        paths = [
            PathDescriptor(d1, 1.0, aoa_rad=0.0),
            PathDescriptor(d2, 1.0, aoa_rad=0.0),
        ]
        out = propagate(tx, paths, ArrayModel(1), params, seed=2)
        ratio = out.samples[0, 9] / out.samples[0, 3]
        expected = np.exp(-2j * math.pi * params.carrier_hz * (d2 - d1))
        assert ratio == pytest.approx(expected, abs=1e-8)

    def test_doppler_advances_per_pulse(self):
        params = quiet_params()
        fs = params.sample_rate_hz
        tx = self.impulse(params, spp=32, pulses=4)
        doppler = 1500.0
        path = PathDescriptor(2 / fs, 1.0, aoa_rad=0.0, doppler_hz=doppler)
        out = propagate(tx, [path], ArrayModel(1), params, seed=3)
        frames = out.frames()[0]
        pri = out.samples_per_pulse / fs
        step = np.exp(2j * math.pi * doppler * pri)
        for p in range(3):
            assert frames[p + 1, 2] / frames[p, 2] == pytest.approx(step, abs=1e-9)

    @pytest.mark.parametrize("pulses", [1, 4])
    def test_matches_broadcast_reference_bit_for_bit(self, pulses):
        params = RadarParams()
        tx, paths = two_path_case(params, pulses)
        arr = ArrayModel(5, 0.5, boresight=0.1)
        out = propagate(tx, paths, arr, params, seed=(9, 4))
        expected = broadcast_propagate(tx, paths, arr, params, (9, 4))
        assert np.array_equal(out.samples, expected)

    def test_shared_delayed_frames_match_separate_calls(self):
        """Both transmit modes share path delays but not angles or seeds."""
        params = RadarParams()
        tx, mode1 = two_path_case(params, 2)
        _, mode2 = two_path_case(params, 2, aoas=(-1.1, 0.9))
        arr = ArrayModel(4, 0.5, boresight=0.0)
        shared: dict = {}
        for paths, seed in ((mode1, (3, 1)), (mode2, (3, 2))):
            alone = propagate(tx, paths, arr, params, seed=seed).samples
            reused = propagate(tx, paths, arr, params, seed=seed, delayed_frames=shared)
            assert np.array_equal(reused.samples, alone)
        assert len(shared) == 1

    def test_noise_floor_power(self):
        params = RadarParams()
        tx = IqCapture(np.zeros(5000, dtype=complex), params.sample_rate_hz)
        out = propagate(tx, [], ArrayModel(4), params, seed=4)
        measured = np.mean(np.abs(out.samples) ** 2)
        expected = 1.380649e-23 * params.noise_temp_k * params.sample_rate_hz
        assert measured == pytest.approx(expected, rel=0.02)

    def test_noise_deterministic_per_seed(self):
        params = RadarParams()
        tx = IqCapture(np.zeros(256, dtype=complex), params.sample_rate_hz)
        a = propagate(tx, [], ArrayModel(2), params, seed=(5, 6)).samples
        b = propagate(tx, [], ArrayModel(2), params, seed=(5, 6)).samples
        c = propagate(tx, [], ArrayModel(2), params, seed=(5, 7)).samples
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_input_validation(self):
        params = RadarParams()
        multi = IqCapture(np.zeros((2, 64), dtype=complex), params.sample_rate_hz)
        with pytest.raises(ValueError):
            propagate(multi, [], ArrayModel(1), params)
        wrong_rate = IqCapture(np.zeros(64, dtype=complex), 1e6)
        with pytest.raises(ValueError):
            propagate(wrong_rate, [], ArrayModel(1), params)


class TestMakeRng:
    def draws(self, rng):
        return rng.standard_normal(4).tolist()

    def test_keys_name_one_seed_sequence(self):
        def expected(*key):
            return self.draws(np.random.default_rng(np.random.SeedSequence(list(key))))

        assert self.draws(make_rng(5)) == expected(5)
        assert self.draws(make_rng(np.int64(5))) == expected(5)
        assert self.draws(make_rng((5, 2, 0, 3))) == expected(5, 2, 0, 3)
        assert self.draws(make_rng(5, 2, 0, 3)) == expected(5, 2, 0, 3)
        assert self.draws(make_rng((5, 2), 0, 3)) == expected(5, 2, 0, 3)

    def test_generator_passes_through(self):
        rng = np.random.default_rng(1)
        assert make_rng(rng) is rng
