"""Array response, path budgets, and propagation physics."""

import copy
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from bistar import (
    ArrayModel,
    BeamCapture,
    BistaticPair,
    DegenerateGeometryError,
    IqCapture,
    Mode,
    NodePosition,
    PathDescriptor,
    RadarParams,
    TargetState,
    array_factor,
    beamform,
    bistatic_ranges,
    bistatic_snr,
    build_paths,
    fast_length,
    make_rng,
    null_steer_beamform,
    null_steer_weights,
    project_out_stream,
    propagate,
    steering_vector,
    substream_normals,
    true_aoa,
)
from bistar import channel

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
    spp_out = fast_length(tx.samples_per_pulse + pad)
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

    def test_steering_vector_at_boresight_is_flat(self):
        arr = ArrayModel(8, boresight=0.7)
        vec = steering_vector(arr, 0.7)
        assert np.allclose(vec, np.ones(8))

    def test_steering_vector_phase_progression(self):
        arr = ArrayModel(4, boresight=0.0)
        angle = math.pi / 6.0
        vec = steering_vector(arr, angle)
        step = 2.0 * math.pi * 0.5 * math.sin(angle)
        expected = np.exp(1j * step * np.arange(4))
        assert np.allclose(vec, expected)
        assert np.allclose(np.abs(vec), 1.0)

    def test_array_factor_unity_on_steer_and_bounded(self):
        arr = ArrayModel(8)
        assert array_factor(arr, 0.3, 0.3) == pytest.approx(1.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, s = rng.uniform(-math.pi / 2, math.pi / 2, size=2)
            assert abs(array_factor(arr, a, s)) <= 1.0 + 1e-12

    def test_array_factor_first_null(self):
        # Uniform 8-element, half-wavelength: nulls at sin offsets k/4.
        arr = ArrayModel(8)
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
        arr = ArrayModel(4, boresight=0.0)
        path = PathDescriptor(delay, 2.0, aoa_rad=0.4, phase_rad=0.25)
        out = propagate(tx, [path], arr, params, seed=0)
        assert out.samples_per_pulse == fast_length(64 + 5 + 8) == 80
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
        arr = ArrayModel(5, boresight=0.1)
        out = propagate(tx, paths, arr, params, seed=(9, 4))
        expected = broadcast_propagate(tx, paths, arr, params, (9, 4))
        assert np.array_equal(out.samples, expected)

    def test_distinct_frames_match_broadcast_reference(self):
        """A train of distinct frames is delayed frame by frame."""
        params = RadarParams()
        tx, paths = two_path_case(params, 3)
        rng = np.random.default_rng(4)
        train = IqCapture(
            rng.standard_normal(288) + 1j * rng.standard_normal(288),
            tx.sample_rate_hz, pulses=3, samples_per_pulse=96,
        )
        arr = ArrayModel(3, boresight=0.2)
        out = propagate(train, paths, arr, params, seed=(2, 7))
        assert np.array_equal(out.samples, broadcast_propagate(train, paths, arr, params, (2, 7)))

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

    @pytest.mark.parametrize("words", [(0,), (5, 0, 2**31, 2**32 - 1), (2**32 - 1, 0, 7)])
    def test_word_array_and_int_list_seed_alike(self, words):
        """Seeds of 32-bit words go to SeedSequence as a uint32 array;
        its state equals that of the int list."""
        as_array = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        as_list = np.random.SeedSequence(list(words))
        assert np.array_equal(as_array.generate_state(8), as_list.generate_state(8))
        assert self.draws(make_rng(*words)) == self.draws(np.random.default_rng(as_list))

    def test_ints_beyond_one_word_keep_the_int_path(self):
        """Ints past one word give SeedSequence's state of the ints: it
        splits them into the same little-endian words."""
        expected = np.random.default_rng(np.random.SeedSequence([2**32, 3]))
        assert self.draws(make_rng(2**32, 3)) == self.draws(expected)
        with pytest.raises(ValueError):
            make_rng(-1, 3)


class TestSubstreamNormals:
    """Row i of `substream_normals` is the draw of ``make_rng(seed,
    *keys[i])``, bit for bit."""

    @staticmethod
    def expected(seed, keys, shape):
        return np.array([make_rng(seed, *map(int, key)).standard_normal(shape) for key in keys])

    @pytest.mark.parametrize("words", range(1, 9))
    @pytest.mark.parametrize("shape", [(2,), (4, 2), (100, 2)])
    def test_matches_make_rng(self, words, shape):
        keys = np.random.default_rng(words).integers(0, 2**32, (6, words), dtype=np.uint64)
        keys[:3] = [[0], [2**31], [2**32 - 1]]
        got = substream_normals(5, keys, shape)
        assert got.shape == (6, *shape)
        assert np.array_equal(got, self.expected(5, keys, shape))

    @pytest.mark.parametrize("seed", [2**32 + 5, 2**64 + 3, (7, 2**32 - 1)])
    def test_multi_word_seeds(self, seed):
        keys = [(i, t, 3) for i in range(3) for t in range(4)]
        assert np.array_equal(
            substream_normals(seed, keys, (4, 2)), self.expected(seed, keys, (4, 2))
        )

    @pytest.mark.parametrize("key", [2**32, 2**70 + 9, -1])
    def test_keys_outside_one_word_raise(self, key):
        with pytest.raises(ValueError, match="one 32-bit word"):
            substream_normals(4, [(0, 3), (1, key)], (3,))

    def test_zero_rows(self):
        assert substream_normals(1, np.zeros((0, 3), dtype=int), (4, 2)).shape == (0, 4, 2)
        assert substream_normals(1, [], (2,)).shape == (0, 2)

    def test_negative_words_raise(self):
        for seed, keys in ((1, [(2, -1)]), (-1, [(2, 3)])):
            with pytest.raises(ValueError):
                substream_normals(seed, keys, (2,))


class TestBeamCapture:
    """The beam-space capture against the element-level chain it stands
    for: `propagate`, then `beamform` toward the direct path and the
    echo, `null_steer_beamform` as the guard, and the coefficients and
    cleaned samples of `project_out_stream`."""

    ARRAY = ArrayModel(4, boresight=0.1)
    DIRECT, ECHO = 0.25, -0.6
    COLUMNS = np.arange(3, 23, 2)  # first pulse only

    def case(self, params):
        """Two pulses, a direct path and a moving echo at a few times the
        noise amplitude of the default radar, fractional delays."""
        fs = params.sample_rate_hz
        noise = math.sqrt(1.380649e-23 * RadarParams().noise_temp_k * fs)
        rng = np.random.default_rng(9)
        slot = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        tx = IqCapture(np.tile(slot, 2), fs, pulses=2, samples_per_pulse=24)
        paths = [
            PathDescriptor(1.4 / fs, 2.0 * noise, aoa_rad=self.DIRECT, phase_rad=0.4),
            PathDescriptor(5.7 / fs, noise, aoa_rad=self.ECHO, doppler_hz=2e5),
        ]
        return tx, paths

    def capture(self, tx, paths, params, seed):
        """The capture of ``tx`` through ``paths``, without a frame cache."""
        return BeamCapture(
            tx, paths, self.ARRAY, params, seed, self.DIRECT, self.COLUMNS, None, tx.pulses
        )

    def weights(self):
        """Echo and guard beam weights."""
        echo = steering_vector(self.ARRAY, self.ECHO) / self.ARRAY.elements
        return echo, null_steer_weights(self.ARRAY, self.ECHO, self.DIRECT)

    def element_chain(self, params, seed):
        tx, paths = self.case(params)
        capture = propagate(tx, paths, self.ARRAY, params, seed)
        direct = beamform(capture, self.ARRAY, self.DIRECT).samples[0]
        echo = beamform(capture, self.ARRAY, self.ECHO).samples[0]
        guard = null_steer_beamform(capture, self.ARRAY, self.ECHO, self.DIRECT).samples[0]
        coeffs = capture.samples @ direct.conj() / np.vdot(direct, direct).real
        cleaned = project_out_stream(capture, direct).samples[:, self.COLUMNS]
        return direct, echo, guard[: capture.samples_per_pulse], coeffs, cleaned

    def beam_chain(self, params, seed):
        tx, paths = self.case(params)
        capture = self.capture(tx, paths, params, seed)
        echo, guard = capture.beams(*self.weights())
        return capture.direct, echo, guard, capture.coeffs, capture.pilot

    def test_signal_parts_match_without_noise(self):
        params = replace(RadarParams(), reference_temp_k=1e-30)
        for ours, reference in zip(
            self.beam_chain(params, (1,)), self.element_chain(params, (1,))
        ):
            assert np.abs(ours - reference).max() <= 1e-9 * np.abs(reference).max()

    def features(self, chain, seed):
        """Beams in and off the columns (the second pulse too, but the
        guard's first pulse only), every coefficient and two cleaned
        column samples, as real numbers."""
        direct, echo, guard, coeffs, cleaned = chain(RadarParams(), (seed,))
        samples = [3, 17, 1, 40]  # the cleaned columns 0 and 7, then off the columns
        first = [3, 17, 1, 39]  # the same in the guard's one pulse of 40 samples
        picked = [direct[samples], echo[samples], guard[first]]
        # A beam's projection onto the direct beam, over the whole
        # capture for the echo and over the first pulse for the guard.
        head = direct[: guard.size]
        fits = [np.vdot(direct, echo) / np.vdot(direct, direct),
                np.vdot(head, guard) / np.vdot(head, head)]
        values = np.concatenate(picked + [coeffs, cleaned[[0, 3], [0, 7]], fits])
        return np.concatenate([values.real, values.imag])

    def test_joint_law_matches_the_element_chain(self):
        """Means and covariances agree within 5 standard errors over 2000
        seeds of each chain."""
        seeds = 2000
        ours = np.array([self.features(self.beam_chain, s) for s in range(seeds)])
        reference = np.array(
            [self.features(self.element_chain, s) for s in range(seeds, 2 * seeds)]
        )

        def moments(x):
            centred = x - x.mean(axis=0)
            products = (centred[:, :, None] * centred[:, None, :]).reshape(seeds, -1)
            return [(x.mean(axis=0), x.var(axis=0)), (products.mean(0), products.var(0))]

        for (m1, v1), (m2, v2) in zip(moments(ours), moments(reference)):
            assert np.all(np.abs(m1 - m2) <= 5.0 * np.sqrt((v1 + v2) / seeds))

    def test_beams_agree_with_the_coefficients(self):
        """As for element captures, a beam's projection onto the direct
        beam is its weights applied to the projection coefficients: the
        echo's over a two-pulse capture, and both beams' over a one-pulse
        capture, where the guard's first pulse is the whole capture."""
        weights = self.weights()
        for seed, pulses in itertools.product(range(5), (1, 2)):
            tx, paths = self.case(RadarParams())
            if pulses == 1:
                tx = IqCapture(tx.samples[0, :24], tx.sample_rate_hz)
            capture = BeamCapture(
                tx, paths, self.ARRAY, RadarParams(), seed, self.DIRECT, self.COLUMNS, None,
                pulses,
            )
            echo, guard = capture.beams(*weights)
            assert guard.size == capture.samples_per_pulse
            beams = [echo, guard] if pulses == 1 else [echo]
            fits = np.array(beams) @ capture.direct.conj() / np.vdot(capture.direct, capture.direct)
            expected = [w.conj() @ capture.coeffs for w in weights[: len(beams)]]
            assert np.allclose(fits, expected, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("spp, delay, expected", [(24, 5.7, 40), (15344, 20.3, 15552)])
    def test_frame_length_agrees_with_propagate(self, spp, delay, expected):
        """Both pad the frame past the delay to the same 5-smooth length;
        a 100 MHz slot with a 20.3-sample delay gets 15552, not 15373."""
        params = RadarParams()
        tx, paths = self.case(params)
        if spp != 24:
            tx = IqCapture(np.ones(spp, dtype=complex), tx.sample_rate_hz)
            paths = [replace(paths[0], delay_s=delay / tx.sample_rate_hz)]
        capture = self.capture(tx, paths, params, 0)
        out = propagate(tx, paths, self.ARRAY, params, 0)
        assert capture.samples_per_pulse == out.samples_per_pulse == expected
        assert expected == fast_length(spp + math.ceil(delay) + 8)

    def test_blocked_beams_match_one_shot_products(self, monkeypatch):
        """`BeamCapture` in 32-sample blocks (two 40-sample pulses: a
        partial block in each) writes the bytes of the one-shot
        elementwise products over the whole capture kept here, each sum
        over the capture being the einsum sums of the blocks added in
        capture order: the echo over the capture, and the guard, whose
        normals are drawn pulse by pulse, over its first pulse; `beams`
        leaves the direct beam as it was."""
        monkeypatch.setattr(channel, "_BLOCK", 32)
        params = RadarParams()
        tx, paths = self.case(params)
        capture = self.capture(tx, paths, params, 3)
        u, d = capture._u, capture.direct.copy()
        pulses, spp = 2, capture.samples_per_pulse
        gains, frames = capture._gains, capture._frames

        def train(out, scales):
            """``out`` plus each path's pulse frames times one scale per
            pulse, added path by path, as one capture row."""
            for scale, frame in zip(scales, frames):
                out = out + np.concatenate(
                    [frame[p % len(frame)] * scale[p] for p in range(pulses)]
                )
            return out

        def blocked_sum(rows, conj):
            sums = np.zeros(len(rows), dtype=complex)
            for start in range(0, d.size, spp):
                for lo in range(start, start + spp, 32):
                    hi = min(lo + 32, start + spp)
                    sums += np.einsum("ki,i->k", rows[:, lo:hi], conj[lo:hi])
            return sums

        steer = np.array([steering_vector(self.ARRAY, p.aoa_rad) for p in paths]).T
        zeta = channel._complex_normals(make_rng(3), (d.size,), capture._power / u.size)
        direct_gains = [g * m for g, m in zip(gains, u.conj() @ steer / u.size)]
        assert np.array_equal(d, train(zeta, direct_gains))

        weights = np.stack(self.weights(), axis=1)
        rng = copy.deepcopy(capture._rng)
        a_h = weights.conj().T
        perp = weights - np.outer(u, u.conj() @ weights) / u.size
        values, vectors = np.linalg.eigh(perp.conj().T @ perp)
        root = vectors * np.sqrt(np.clip(values, 0.0, None) * (capture._power / 2.0))
        draws = [rng.standard_normal(2 * d.size).view(np.complex128) for _ in range(2)]
        noise = np.array([draws[0] * mix[0] + draws[1] * mix[1] for mix in root])
        d_off = d.copy()
        d_off[self.COLUMNS] = 0.0
        fit = (a_h @ capture._y - blocked_sum(noise, d_off.conj())) / capture._energy_off
        noise[:, self.COLUMNS] = a_h @ capture._perp_g
        one_shot = []
        for row, fit_gain, beam_gain, mix in zip(
            noise, fit, a_h @ u, a_h @ capture._perp_steer
        ):
            term = d * (fit_gain + beam_gain)
            term[self.COLUMNS] = beam_gain * d[self.COLUMNS]
            one_shot.append(train(row + term, [g * m for g, m in zip(gains, mix)]))

        echo, guard = capture.beams(*self.weights())
        assert np.array_equal(echo, one_shot[0])
        assert np.array_equal(guard, one_shot[1][:spp])
        assert np.array_equal(capture.direct, d)

    def test_one_frame_and_a_pulse_count_transmit_the_train(self):
        """A one-frame capture with ``pulses`` = 2 reads as the tiled
        two-pulse train, bit for bit; other pulse counts are refused."""
        params = RadarParams()
        tx, paths = self.case(params)
        slot = IqCapture(tx.samples[0, :24], tx.sample_rate_hz)
        captures = [
            BeamCapture(capture, paths, self.ARRAY, params, 6, self.DIRECT, self.COLUMNS,
                        None, 2)
            for capture in (tx, slot)
        ]
        train, repeated = ([c.direct, c.coeffs, c.pilot, *c.beams(*self.weights())] for c in captures)
        assert all(np.array_equal(a, b) for a, b in zip(train, repeated))
        with pytest.raises(ValueError):
            BeamCapture(tx, paths, self.ARRAY, params, 6, self.DIRECT, self.COLUMNS, None, 3)

    def test_shared_delayed_frames_match_separate_calls(self):
        """Both transmit modes share path delays but not angles or seeds:
        the first capture marks the delays, the second stores their
        frames and the third reads them; each equals an uncached one."""
        params = RadarParams()
        tx, mode1 = self.case(params)
        mode2 = [replace(path, aoa_rad=-path.aoa_rad) for path in mode1]
        shared: dict = {}
        for paths, seed in ((mode1, (3, 1)), (mode2, (3, 2)), (mode1, (3, 3))):
            alone, reused = (
                BeamCapture(tx, paths, self.ARRAY, params, seed, self.DIRECT, self.COLUMNS,
                            frames, 2)
                for frames in (None, shared)
            )
            for a, b in zip(*([c.direct, c.coeffs, c.pilot, *c.beams(*self.weights())]
                              for c in (alone, reused))):
                assert np.array_equal(a, b)
        (frames,) = shared.values()
        assert frames is not None

    def test_beams_are_drawn_once(self):
        params = RadarParams()
        tx, paths = self.case(params)
        capture = self.capture(tx, paths, params, 0)
        weights = self.weights()
        capture.beams(*weights)
        with pytest.raises(RuntimeError):
            capture.beams(*weights)
