"""Geometry forward models, inversion, and the link budget."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from bistar import (
    BistaticPair,
    DegenerateGeometryError,
    Measurement,
    Mode,
    NodePosition,
    RadarParams,
    TargetState,
    aoa_gradient,
    bistatic_ranges,
    bistatic_snr,
    collinearity_deg,
    iso_range_point,
    locate_batch,
    locate_bistatic,
    preset_scenario,
    r2_from_measurements,
    sum_range_gradient,
    sum_range_rate,
    true_aoa,
    true_tdoa,
    wrap_angle,
    wrap_angles,
)
from bistar.geometry import MIN_RANGE_M, ordered_sum

SPEED_OF_LIGHT = 299_792_458.0


def make_pair(lx=0.0, ly=0.0, rx=25.0, ry=0.0, mode=Mode.MODE1):
    return BistaticPair(NodePosition(lx, ly), NodePosition(rx, ry), mode)


class TestWrapAngle:
    def test_identity_inside_range(self):
        for value in (-3.0, -0.5, 0.0, 1.0, 3.14):
            assert wrap_angle(value) == pytest.approx(value, abs=1e-15)

    def test_wraps_multiples_of_two_pi(self):
        assert wrap_angle(2.0 * math.pi + 0.25) == pytest.approx(0.25, abs=1e-12)
        assert wrap_angle(-2.0 * math.pi - 0.25) == pytest.approx(-0.25, abs=1e-12)

    def test_pi_maps_to_positive_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)


    def test_array_wrap_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(61)
        turn = 2.0 * math.pi
        edges = [0.0, -0.0, math.pi, -math.pi, turn, -turn, 3.0 * math.pi, -3.0 * math.pi]
        edges += [math.nextafter(v, d) for v in edges for d in (-math.inf, math.inf)]
        values = np.concatenate(
            (
                edges,
                rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 20_000),
                rng.uniform(-1e6, 1e6, 2_000),
                rng.normal(math.pi, 1e-14, 2_000),
                rng.normal(-math.pi, 1e-14, 2_000),
            )
        )
        expected = [wrap_angle(v) for v in values.tolist()]
        assert wrap_angles(values).tolist() == expected


def float_loop(values):
    """Left-to-right float sum from 0.0: Python 3.11's `sum` of floats."""
    total = 0.0
    for value in values:
        total += value
    return total


class TestOrderedSum:
    def test_no_compensation(self):
        # Compensated summation (math.fsum, Python 3.12's sum) gives 1.0 and 2.0.
        for values in ([1e16, 1.0, -1e16], [1.0, 1e100, 1.0, -1e100]):
            assert ordered_sum(values) == float_loop(values) == 0.0 != math.fsum(values)

    def test_matches_a_float_loop_bit_for_bit(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal((40, 37)) * 10.0 ** rng.integers(-9, 9, (40, 37))
        rows = values.tolist()
        assert ordered_sum(values) == [float_loop(row) for row in rows]
        assert ordered_sum(rows[3]) == float_loop(rows[3])
        assert ordered_sum(values) != [math.fsum(row) for row in rows]
        if sys.version_info < (3, 12):
            assert ordered_sum(values) == [sum(row) for row in rows]

    def test_edges(self):
        assert math.copysign(1.0, ordered_sum([-0.0, -0.0])) == 1.0  # starts from +0.0
        assert ordered_sum([]) == 0.0 and ordered_sum(np.zeros((3, 0))) == [0.0] * 3
        assert math.isnan(ordered_sum([1.0, math.nan, 2.0]))
        assert ordered_sum([1.0, math.inf]) == math.inf
        assert type(ordered_sum([1.0, 2.0])) is float


class TestDataclasses:
    def test_node_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NodePosition(0.0, 0.0, sigma_x=-0.1)

    def test_node_rejects_non_finite(self):
        with pytest.raises(ValueError):
            NodePosition(math.nan, 0.0)

    def test_target_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TargetState(0.0, math.inf)

    def test_pair_rejects_coincident_nodes(self):
        node = NodePosition(1.0, 2.0)
        with pytest.raises(ValueError):
            BistaticPair(node, NodePosition(1.0, 2.0))

    def test_mode_selects_tx_and_rx(self):
        pair = make_pair()
        assert pair.tx_node is pair.n1
        assert pair.rx_node is pair.n2
        swapped = make_pair(mode=Mode.MODE2)
        assert swapped.tx_node is swapped.n2
        assert swapped.rx_node is swapped.n1

    def test_baseline_length(self):
        assert make_pair(0, 0, 3, 4).baseline == pytest.approx(5.0)

    def test_radar_params_validation(self):
        with pytest.raises(ValueError):
            RadarParams(bandwidth_hz=-1.0)
        with pytest.raises(ValueError):
            RadarParams(sample_rate_hz=50e6, bandwidth_hz=100e6)
        with pytest.raises(ValueError):
            RadarParams(tx_elements=0)

    def test_radar_derived_quantities(self):
        params = RadarParams()
        assert params.wavelength_m == pytest.approx(SPEED_OF_LIGHT / 28e9)
        assert params.eirp_w == pytest.approx(10.0 ** (13.0 / 10.0))
        # 13 dB noise figure is a factor of ~19.95 on 290 K.
        assert params.noise_temp_k == pytest.approx(290.0 * 10 ** 1.3)
        assert params.noise_power_w() == pytest.approx(
            1.380649e-23 * 290.0 * 10 ** 1.3 * 100e6
        )


class TestForwardModels:
    def test_tdoa_zero_on_baseline_segment(self):
        pair = make_pair()
        assert true_tdoa(pair, TargetState(10.0, 0.0)) == pytest.approx(0.0, abs=1e-18)

    def test_tdoa_positive_off_baseline(self):
        pair = make_pair()
        assert true_tdoa(pair, TargetState(10.0, 5.0)) > 0.0

    def test_tdoa_known_value(self):
        # Ranges 3-4-5 triangle: n1 at origin, n2 at (3, 0), target at (3, 4).
        pair = make_pair(0, 0, 3, 0)
        target = TargetState(3.0, 4.0)
        assert true_tdoa(pair, target) == pytest.approx(
            (5.0 + 4.0 - 3.0) / SPEED_OF_LIGHT, rel=1e-15
        )

    def test_tdoa_mode_independent(self):
        target = TargetState(4.0, 9.0)
        assert true_tdoa(make_pair(), target) == true_tdoa(
            make_pair(mode=Mode.MODE2), target
        )

    def test_tdoa_degenerate_on_node(self):
        pair = make_pair()
        with pytest.raises(DegenerateGeometryError):
            true_tdoa(pair, TargetState(0.0, 0.0))

    def test_aoa_convention(self):
        node = NodePosition(2.0, 1.0)
        assert true_aoa(node, TargetState(2.0, 5.0)) == pytest.approx(0.0)
        assert true_aoa(node, TargetState(-1.0, 1.0)) == pytest.approx(math.pi / 2)
        assert true_aoa(node, TargetState(5.0, 1.0)) == pytest.approx(-math.pi / 2)
        assert true_aoa(node, TargetState(2.0, -4.0)) == pytest.approx(math.pi)

    def test_ranges_oracle(self):
        pair = make_pair(1.0, -2.0, 4.0, 2.0)
        target = TargetState(-3.0, 1.0)
        r1, r2 = bistatic_ranges(pair, target)
        assert r1 == pytest.approx(math.hypot(4.0, 3.0))
        assert r2 == pytest.approx(math.hypot(7.0, 1.0))


class TestInversion:
    def test_r2_against_bisection_oracle(self):
        """Compare the closed form with a bisection solve of the implicit model."""
        rng = np.random.default_rng(101)
        for _ in range(200):
            baseline = float(rng.uniform(1.0, 60.0))
            theta = float(rng.uniform(-math.pi, math.pi))
            tdoa = float(rng.uniform(1e-12, 5e-7))
            closed = r2_from_measurements(tdoa, theta, baseline)

            def model(r):
                x = -r * math.sin(theta)
                y = r * math.cos(theta)
                r1 = math.hypot(x - (-baseline), y)  # tx at (-L, 0), rx at origin
                return (r1 + r - baseline) / SPEED_OF_LIGHT - tdoa

            lo, hi = 1e-12, 1e9
            if model(lo) > 0 or model(hi) < 0:
                continue  # target at infinity branch, refused separately
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if model(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            assert closed == pytest.approx(0.5 * (lo + hi), rel=1e-6, abs=1e-9)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        pair = make_pair(-4.0, 2.0, 21.0, -3.0)
        for _ in range(500):
            target = TargetState(float(rng.uniform(-60, 60)), float(rng.uniform(-60, 60)))
            try:
                tdoa = true_tdoa(pair, target)
                aoa = true_aoa(pair.rx_node, target)
            except DegenerateGeometryError:
                continue
            meas = Measurement(tdoa_s=tdoa, aoa_rad=aoa, mode=pair.mode)
            try:
                x, y = locate_bistatic(pair, meas)
            except DegenerateGeometryError:
                continue
            assert math.hypot(x - target.x, y - target.y) < 1e-9

    def test_round_trip_mode2(self):
        pair = make_pair(mode=Mode.MODE2)
        target = TargetState(9.0, 14.0)
        meas = Measurement(
            tdoa_s=true_tdoa(pair, target),
            aoa_rad=true_aoa(pair.rx_node, target),
            mode=Mode.MODE2,
        )
        x, y = locate_bistatic(pair, meas)
        assert math.hypot(x - 9.0, y - 14.0) < 1e-9

    def test_mode_mismatch_rejected(self):
        pair = make_pair()
        meas = Measurement(tdoa_s=1e-9, aoa_rad=0.3, mode=Mode.MODE2)
        with pytest.raises(ValueError):
            locate_bistatic(pair, meas)

    def test_negative_tdoa_rejected(self):
        with pytest.raises(ValueError):
            r2_from_measurements(-1e-12, 0.0, 10.0)

    def test_bad_baseline_rejected(self):
        with pytest.raises(ValueError):
            r2_from_measurements(1e-9, 0.0, 0.0)

    def test_target_at_infinity_raises(self):
        # Zero TDOA along the baseline direction has no finite solution.
        with pytest.raises(DegenerateGeometryError):
            r2_from_measurements(0.0, math.pi / 2, 10.0)


def reference_locate(pair, meas):
    """The closed-form inversion in Python floats, step by step: the
    baseline-frame sin(theta) is (cos aoa * north + sin aoa * east) / L,
    with the baseline L from numpy's hypot (``math.hypot`` rounds some
    baselines one ulp apart)."""
    if meas.mode is not pair.mode:
        raise ValueError("mode mismatch")
    rx, tx = pair.rx_node, pair.tx_node
    east, north = rx.x - tx.x, tx.y - rx.y
    baseline = float(np.hypot(east, north))
    sin_aoa, cos_aoa = math.sin(meas.aoa_rad), math.cos(meas.aoa_rad)
    sine = (cos_aoa * north + sin_aoa * east) / baseline
    excess = SPEED_OF_LIGHT * meas.tdoa_s
    denominator = 2.0 * ((excess + baseline) - baseline * sine)
    if denominator <= MIN_RANGE_M:
        raise DegenerateGeometryError("target at infinity along the baseline")
    r_rx = (excess * excess + 2.0 * baseline * excess) / denominator
    return (rx.x - r_rx * sin_aoa, rx.y + r_rx * cos_aoa)


class TestLocateBatch:
    @staticmethod
    def random_problems(rng, count, mode):
        """Random pairs and measurements around random targets; every
        200th row is degenerate (zero TDOA, arriving from the transmitter)."""
        pairs, measurements = [], []
        while len(pairs) < count:
            xs = rng.uniform(-50.0, 50.0, 6).tolist()
            pair = BistaticPair(NodePosition(*xs[0:2]), NodePosition(*xs[2:4]), mode)
            target = TargetState(*xs[4:6])
            if len(pairs) % 200 == 0:
                tdoa, aoa = 0.0, true_aoa(pair.rx_node, pair.tx_node)
            else:
                noise = rng.standard_normal(2).tolist()
                tdoa = max(0.0, true_tdoa(pair, target) + 5e-9 * noise[0])
                aoa = wrap_angle(true_aoa(pair.rx_node, target) + 0.05 * noise[1])
            pairs.append(pair)
            measurements.append(Measurement(tdoa_s=tdoa, aoa_rad=aoa, mode=mode))
        return pairs, measurements

    @pytest.mark.parametrize("mode", [Mode.MODE1, Mode.MODE2])
    def test_matches_scalar_reference_bit_for_bit(self, mode):
        rng = np.random.default_rng(2000 + mode.value)
        pairs, measurements = self.random_problems(rng, 2000, mode)
        located = locate_batch(
            [[p.tx_node.x, p.tx_node.y] for p in pairs],
            [[p.rx_node.x, p.rx_node.y] for p in pairs],
            [m.tdoa_s for m in measurements],
            [m.aoa_rad for m in measurements],
        ).tolist()
        degenerate = 0
        for pair, meas, row in zip(pairs, measurements, located):
            try:
                expected = reference_locate(pair, meas)
            except DegenerateGeometryError:
                degenerate += 1
                assert all(math.isnan(v) for v in row)
                with pytest.raises(DegenerateGeometryError):
                    locate_bistatic(pair, meas)
                continue
            assert tuple(row) == expected
            assert locate_bistatic(pair, meas) == expected
        assert degenerate >= 10

    def test_degenerate_row_anywhere_leaves_the_others(self):
        pair = make_pair(-4.0, 2.0, 21.0, -3.0)
        target = TargetState(5.0, 17.0)
        good = (true_tdoa(pair, target), true_aoa(pair.rx_node, target))
        bad = (0.0, true_aoa(pair.rx_node, pair.tx_node))
        for where in (0, 2, 4):
            rows = [bad if i == where else good for i in range(5)]
            tdoa, aoa = np.transpose(rows)
            located = locate_batch([[-4.0, 2.0]] * 5, [[21.0, -3.0]] * 5, tdoa, aoa)
            assert np.isnan(located[where]).all()
            kept = np.delete(located, where, axis=0)
            assert np.hypot(kept[:, 0] - 5.0, kept[:, 1] - 17.0).max() < 1e-9

    def test_nan_tdoa_locates_to_nan(self):
        pair = make_pair()
        meas = Measurement(tdoa_s=math.nan, aoa_rad=0.3)
        assert all(math.isnan(v) for v in locate_bistatic(pair, meas))
        assert np.isnan(locate_batch([[0.0, 0.0]], [[25.0, 0.0]], [math.nan], [0.3])).all()

    @pytest.mark.parametrize("column", ["tdoa", "aoa", "tx_x", "tx_y", "rx_x", "rx_y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_give_nan_rows(self, column, bad):
        """A NaN or infinite TDOA, AoA or node coordinate reads NaN with
        no warning, and every finite row keeps its bits."""
        rng = np.random.default_rng(2010)
        pairs, measurements = self.random_problems(rng, 64, Mode.MODE1)
        tx = np.array([[p.tx_node.x, p.tx_node.y] for p in pairs])
        rx = np.array([[p.rx_node.x, p.rx_node.y] for p in pairs])
        tdoa = np.array([m.tdoa_s for m in measurements])
        aoa = np.array([m.aoa_rad for m in measurements])
        clean = locate_batch(tx, rx, tdoa, aoa)
        hit = np.zeros(len(pairs), dtype=bool)
        hit[[0, 5, 17, 63]] = True
        columns = {"tdoa": tdoa, "aoa": aoa, "tx_x": tx[:, 0], "tx_y": tx[:, 1],
                   "rx_x": rx[:, 0], "rx_y": rx[:, 1]}
        columns[column][hit] = bad
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            located = locate_batch(tx, rx, tdoa, aoa)
        assert np.isnan(located[hit]).all()
        assert np.array_equal(located[~hit], clean[~hit], equal_nan=True)

    def test_coincident_nodes_are_degenerate(self):
        located = locate_batch([[1.0, 2.0]], [[1.0, 2.0]], [1e-9], [0.3])
        assert np.isnan(located).all()

    def test_negative_tdoa_rejected(self):
        with pytest.raises(ValueError):
            locate_batch([[0.0, 0.0]], [[25.0, 0.0]], [-1e-12], [0.3])

    def test_empty_batch(self):
        empty = np.empty((0, 2))
        assert locate_batch(empty, empty, [], []).shape == (0, 2)


class TestIsoRange:
    def test_contour_points_satisfy_sum(self):
        pair = make_pair()
        for deg in range(0, 360, 7):
            target = TargetState(*iso_range_point(pair, 50.0, math.radians(deg)))
            if collinearity_deg(pair, target) < 5.0:
                continue
            r1, r2 = bistatic_ranges(pair, target)
            assert r1 + r2 == pytest.approx(50.0, abs=1e-6)
            assert true_aoa(pair.n2, target) == pytest.approx(
                wrap_angle(math.radians(deg)), abs=1e-9
            )

    def test_exclusion_band_refused(self):
        """2 degrees off the direction toward the peer, the contour point
        lies inside the 5 degree band that runs mark excluded."""
        pair = make_pair()
        toward_peer = true_aoa(pair.n2, pair.n1)
        point = iso_range_point(pair, 50.0, toward_peer + math.radians(2.0))
        assert collinearity_deg(pair, TargetState(*point)) < 5.0

    def test_point_is_the_target_position(self):
        """On a tilted, offset pair too, a target at the contour point
        lies on the contour and presents the arrival angle theta2 at n2."""
        pair = make_pair(-4.0, 2.0, 21.0, -3.0)
        for deg in (10.0, 100.0, 250.0):
            target = TargetState(*iso_range_point(pair, 50.0, math.radians(deg)))
            assert sum(bistatic_ranges(pair, target)) == pytest.approx(50.0, abs=1e-9)
            assert true_aoa(pair.n2, target) == pytest.approx(
                wrap_angle(math.radians(deg)), abs=1e-9
            )

    def test_sum_range_must_exceed_baseline(self):
        """A scenario refuses a contour that does not enclose its baseline."""
        with pytest.raises(ValueError, match="exceed the baseline"):
            dataclasses.replace(preset_scenario("scenario3"), sum_range=25.0)


class TestCollinearity:
    def test_zero_on_the_line(self):
        pair = make_pair()
        assert collinearity_deg(pair, TargetState(40.0, 0.0)) == pytest.approx(0.0, abs=1e-9)
        assert collinearity_deg(pair, TargetState(-9.0, 0.0)) == pytest.approx(0.0, abs=1e-9)

    def test_ninety_perpendicular(self):
        pair = make_pair()
        assert collinearity_deg(pair, TargetState(25.0, 30.0)) == pytest.approx(90.0)



class TestRangeRate:
    def test_static_target_zero(self):
        assert sum_range_rate(make_pair(), TargetState(10.0, 8.0)) == 0.0

    def test_finite_difference_oracle(self):
        pair = make_pair(2.0, -1.0, 20.0, 3.0)
        rng = np.random.default_rng(11)
        dt = 1e-7
        for _ in range(50):
            state = TargetState(
                float(rng.uniform(-30, 30)),
                float(rng.uniform(1, 30)),
                vx=float(rng.uniform(-3, 3)),
                vy=float(rng.uniform(-3, 3)),
            )
            r1a, r2a = bistatic_ranges(pair, state)
            moved = TargetState(state.x + state.vx * dt, state.y + state.vy * dt)
            r1b, r2b = bistatic_ranges(pair, moved)
            numeric = ((r1b + r2b) - (r1a + r2a)) / dt
            assert sum_range_rate(pair, state) == pytest.approx(numeric, abs=1e-4)


class TestGradients:
    def test_match_central_differences(self):
        pair = make_pair(2.0, -1.0, 20.0, 3.0)
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(50):
            x, y = float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30))

            def total(px, py):
                return sum(bistatic_ranges(pair, TargetState(px, py)))

            def angle(px, py):
                return true_aoa(pair.n2, TargetState(px, py))

            sum_grad = sum_range_gradient(pair, TargetState(x, y))
            aoa_grad = aoa_gradient(pair.n2, TargetState(x, y))
            for k, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
                numeric = (total(x + dx, y + dy) - total(x - dx, y - dy)) / (2 * h)
                assert sum_grad[k] == pytest.approx(numeric, abs=1e-6)
                numeric = wrap_angle(angle(x + dx, y + dy) - angle(x - dx, y - dy)) / (2 * h)
                assert aoa_grad[k] == pytest.approx(numeric, rel=1e-5, abs=1e-9)

    def test_on_a_node_raises(self):
        pair = make_pair()
        with pytest.raises(DegenerateGeometryError):
            sum_range_gradient(pair, TargetState(0.0, 0.0))
        with pytest.raises(DegenerateGeometryError):
            aoa_gradient(pair.n2, TargetState(25.0, 0.0))


class TestLinkBudget:
    def test_equal_range_apex_reference_value(self):
        """Frozen reference: 25 m / 25 m, 0 dBsm, default radio, 100 MHz."""
        pair = make_pair()
        apex = TargetState(12.5, math.sqrt(25.0**2 - 12.5**2), rcs_dbsm=0.0)
        assert bistatic_snr(RadarParams(), pair, apex) == pytest.approx(
            7.715744184957128, abs=1e-9
        )

    def test_db_domain_oracle(self):
        """Recompute the budget term by term in decibels."""
        pair = make_pair(0, 0, 14.0, 0)
        target = TargetState(3.0, 17.0, rcs_dbsm=-7.0)
        params = RadarParams()
        r1, r2 = bistatic_ranges(pair, target)
        lam = SPEED_OF_LIGHT / params.carrier_hz
        t_sys = 290.0 * 10 ** 1.3
        expected = (
            (43.0 - 30.0)
            + 10 * math.log10(16)
            + 20 * math.log10(lam)
            + (-7.0)
            - 30 * math.log10(4 * math.pi)
            - 20 * math.log10(r1 * r2)
            - 10 * math.log10(1.380649e-23 * t_sys * 100e6)
        )
        assert bistatic_snr(params, pair, target) == pytest.approx(expected, abs=1e-9)

    def test_rcs_scaling(self):
        pair = make_pair()
        base = bistatic_snr(RadarParams(), pair, TargetState(10.0, 12.0, rcs_dbsm=0.0))
        up = bistatic_snr(RadarParams(), pair, TargetState(10.0, 12.0, rcs_dbsm=10.0))
        assert up - base == pytest.approx(10.0, abs=1e-12)

    def test_cassini_invariance(self):
        """SNR depends on the ranges only through the product R1 * R2."""
        params = RadarParams()
        pair = make_pair(0, 0, 10, 0)
        # Both targets on the y axis through n1: r1 = y, r2 = hypot(10, y).
        a = TargetState(0.0, 8.0)
        r1a, r2a = bistatic_ranges(pair, a)
        snr_a = bistatic_snr(params, pair, a)
        # Construct a second geometry with the same product by scaling.
        pair_b = make_pair(0, 0, r1a * r2a / 8.0 / 5.0 * 0 + 10, 0)
        del pair_b
        b = TargetState(6.0, 0.0001)
        r1b, r2b = bistatic_ranges(pair, b)
        snr_b = bistatic_snr(params, pair, b)
        expected_delta = -20.0 * math.log10((r1b * r2b) / (r1a * r2a))
        assert snr_b - snr_a == pytest.approx(expected_delta, abs=1e-9)

    def test_bandwidth_scaling(self):
        pair = make_pair()
        target = TargetState(9.0, 9.0)
        narrow = bistatic_snr(RadarParams(), pair, target)
        wide = bistatic_snr(
            RadarParams(bandwidth_hz=400e6, sample_rate_hz=491.52e6), pair, target
        )
        assert narrow - wide == pytest.approx(10.0 * math.log10(4.0), abs=1e-12)
