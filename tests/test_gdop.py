"""Dilution-of-precision predictions against numerical oracles."""

import math

import numpy as np
import pytest

from bistar import (
    CONDITION_LIMIT,
    SPEED_OF_LIGHT,
    BistaticPair,
    DegenerateGeometryError,
    Measurement,
    MeasurementErrorModel,
    Mode,
    NodePosition,
    TargetState,
    bistatic_ranges,
    error_covariance,
    gdop,
    gdop_batch,
    jacobian_c1,
    jacobian_c2,
    locate_bistatic,
    select_mode,
    true_aoa,
    true_tdoa,
)


def pair_at(x1, y1, x2, y2, mode=Mode.MODE1, sigma=0.0):
    return BistaticPair(
        NodePosition(x1, y1, sigma, sigma), NodePosition(x2, y2, sigma, sigma), mode
    )


def reference_gdop(pair, target, meas):
    """Per-geometry formulas the stacked kernel replaced, kept as its oracle.

    Returns (C1, C2, P, gdop_m) or raises DegenerateGeometryError.
    """
    r1, r2 = bistatic_ranges(pair, target)
    n1, n2, rx, c = pair.n1, pair.n2, pair.rx_node, SPEED_OF_LIGHT
    dx = rx.x - target.x
    dy = target.y - rx.y
    r_sq = dx * dx + dy * dy
    if r_sq < 1e-18:
        raise DegenerateGeometryError("target coincides with the node")
    th_dx, th_dy = -dy / r_sq, -dx / r_sq
    c1 = np.array(
        [
            [
                ((target.x - n1.x) / r1 + (target.x - n2.x) / r2) / c,
                ((target.y - n1.y) / r1 + (target.y - n2.y) / r2) / c,
            ],
            [th_dx, th_dy],
        ]
    )
    length = pair.baseline
    row = np.zeros(4)
    if pair.mode is Mode.MODE1:
        row[2], row[3] = -th_dx, -th_dy
    else:
        row[0], row[1] = -th_dx, -th_dy
    c2 = np.array(
        [
            [
                ((n1.x - target.x) / r1 - (n1.x - n2.x) / length) / c,
                ((n1.y - target.y) / r1 - (n1.y - n2.y) / length) / c,
                ((n2.x - target.x) / r2 - (n2.x - n1.x) / length) / c,
                ((n2.y - target.y) / r2 - (n2.y - n1.y) / length) / c,
            ],
            row,
        ]
    )
    condition = np.linalg.cond(c1)
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise DegenerateGeometryError("ill conditioned")
    b = np.linalg.pinv(c1)
    r_z = np.diag([meas.sigma_tdoa_s**2, meas.sigma_aoa_rad**2])
    r_x = np.diag([n1.sigma_x**2, n1.sigma_y**2, n2.sigma_x**2, n2.sigma_y**2])
    p_dp = b @ (r_z + c2 @ r_x @ c2.T) @ b.T
    return c1, c2, p_dp, math.sqrt(np.trace(p_dp))


def reference_or_nan(pair, target, meas):
    try:
        return reference_gdop(pair, target, meas)[3]
    except DegenerateGeometryError:
        return math.nan


def same_bits(a, b):
    """Exact equality that also matches NaN with NaN."""
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def measurement_vector(pair, target):
    return np.array(
        [true_tdoa(pair, target), true_aoa(pair.rx_node, target)]
    )


class TestJacobians:
    def test_c1_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(50):
            pair = pair_at(
                rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(10, 30), rng.uniform(-5, 5)
            )
            target = TargetState(float(rng.uniform(-20, 20)), float(rng.uniform(5, 30)))
            jac = jacobian_c1(pair, target)
            for col, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
                plus = measurement_vector(pair, TargetState(target.x + dx, target.y + dy))
                minus = measurement_vector(pair, TargetState(target.x - dx, target.y - dy))
                numeric = (plus - minus) / (2.0 * h)
                assert jac[:, col] == pytest.approx(numeric, rel=1e-4, abs=1e-15)

    def test_c2_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        h = 1e-6
        for mode in (Mode.MODE1, Mode.MODE2):
            for _ in range(25):
                coords = [
                    float(rng.uniform(-5, 5)),
                    float(rng.uniform(-5, 5)),
                    float(rng.uniform(10, 30)),
                    float(rng.uniform(-5, 5)),
                ]
                target = TargetState(float(rng.uniform(-20, 20)), float(rng.uniform(5, 30)))
                pair = pair_at(*coords, mode=mode)
                jac = jacobian_c2(pair, target)
                for col in range(4):
                    bumped = list(coords)
                    bumped[col] += h
                    plus = measurement_vector(pair_at(*bumped, mode=mode), target)
                    bumped[col] -= 2 * h
                    minus = measurement_vector(pair_at(*bumped, mode=mode), target)
                    numeric = (plus - minus) / (2.0 * h)
                    assert jac[:, col] == pytest.approx(numeric, rel=1e-4, abs=1e-12)

    def test_c2_aoa_row_mode_structure(self):
        target = TargetState(7.0, 13.0)
        j1 = jacobian_c2(pair_at(0, 0, 25, 0, Mode.MODE1), target)
        assert j1[1, 0] == 0.0 and j1[1, 1] == 0.0
        assert j1[1, 2] != 0.0 or j1[1, 3] != 0.0
        j2 = jacobian_c2(pair_at(0, 0, 25, 0, Mode.MODE2), target)
        assert j2[1, 2] == 0.0 and j2[1, 3] == 0.0
        assert j2[1, 0] != 0.0 or j2[1, 1] != 0.0


class TestCovariance:
    def test_symmetric_positive_semidefinite(self):
        pair = pair_at(0, 0, 25, 0, sigma=0.01)
        target = TargetState(9.0, 17.0)
        model = MeasurementErrorModel(2e-9, math.radians(0.2))
        cov = error_covariance(jacobian_c1(pair, target), jacobian_c2(pair, target), model, pair)
        assert cov.shape == (2, 2)
        assert cov[0, 1] == pytest.approx(cov[1, 0], rel=1e-12)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-18)

    def test_zero_noise_gives_zero(self):
        pair = pair_at(0, 0, 25, 0)
        target = TargetState(9.0, 17.0)
        report = gdop(pair, target, MeasurementErrorModel(0.0, 0.0))
        assert report.gdop_m == 0.0

    def test_gdop_linear_in_measurement_sigma(self):
        pair = pair_at(0, 0, 25, 0)
        target = TargetState(9.0, 17.0)
        one = gdop(pair, target, MeasurementErrorModel(1e-9, math.radians(0.1))).gdop_m
        two = gdop(pair, target, MeasurementErrorModel(2e-9, math.radians(0.2))).gdop_m
        assert two == pytest.approx(2.0 * one, rel=1e-9)

    def test_translation_invariance(self):
        model = MeasurementErrorModel(1.5e-9, math.radians(0.15))
        base = gdop(pair_at(0, 0, 25, 0, sigma=0.01), TargetState(9.0, 17.0), model).gdop_m
        moved = gdop(
            pair_at(100.0, -40.0, 125.0, -40.0, sigma=0.01),
            TargetState(109.0, -23.0),
            model,
        ).gdop_m
        assert moved == pytest.approx(base, rel=1e-7)

    def test_rotation_invariance_of_scalar(self):
        model = MeasurementErrorModel(1.5e-9, math.radians(0.15))
        angle = 0.7
        c, s = math.cos(angle), math.sin(angle)

        def rot(x, y):
            return (c * x - s * y, s * x + c * y)

        base = gdop(pair_at(0, 0, 25, 0, sigma=0.01), TargetState(9.0, 17.0), model).gdop_m
        x1, y1 = rot(0, 0)
        x2, y2 = rot(25, 0)
        tx, ty = rot(9.0, 17.0)
        turned = gdop(pair_at(x1, y1, x2, y2, sigma=0.01), TargetState(tx, ty), model).gdop_m
        assert turned == pytest.approx(base, rel=1e-7)

    def test_degenerate_on_baseline_refused(self):
        pair = pair_at(0, 0, 25, 0)
        with pytest.raises(DegenerateGeometryError):
            gdop(pair, TargetState(12.0, 0.0), MeasurementErrorModel(1e-9, 1e-3))


class TestMonteCarlo:
    def test_predicted_rms_matches_simulation(self):
        """Propagate noise through the exact inversion 100k times."""
        rng = np.random.default_rng(2024)
        pair = pair_at(0, 0, 25, 0, sigma=0.01)
        target = TargetState(8.0, 16.0)
        model = MeasurementErrorModel(1.0e-9, math.radians(0.1))
        predicted = gdop(pair, target, model).gdop_m

        tdoa0 = true_tdoa(pair, target)
        aoa0 = true_aoa(pair.rx_node, target)
        trials = 100_000
        noise = rng.standard_normal((trials, 6))
        errors = np.empty(trials)
        for i in range(trials):
            believed = BistaticPair(
                NodePosition(0.01 * noise[i, 2], 0.01 * noise[i, 3]),
                NodePosition(25.0 + 0.01 * noise[i, 4], 0.01 * noise[i, 5]),
            )
            meas = Measurement(
                tdoa_s=max(0.0, tdoa0 + model.sigma_tdoa_s * noise[i, 0]),
                aoa_rad=aoa0 + model.sigma_aoa_rad * noise[i, 1],
            )
            x, y = locate_bistatic(believed, meas)
            errors[i] = (x - target.x) ** 2 + (y - target.y) ** 2
        simulated = math.sqrt(errors.mean())
        assert 0.9 < simulated / predicted < 1.1


class TestModeSelection:
    def test_prefers_lower_dilution(self):
        model = MeasurementErrorModel(1e-9, math.radians(0.1))
        pair = pair_at(0, 0, 25, 0)
        # Close to n1: receiving there (MODE2) resolves angle errors better.
        target_near_n1 = TargetState(2.0, 6.0)
        assert select_mode(pair, target_near_n1, model) is Mode.MODE2
        target_near_n2 = TargetState(23.0, 6.0)
        assert select_mode(pair, target_near_n2, model) is Mode.MODE1

    def test_selected_mode_has_smaller_gdop(self):
        from dataclasses import replace

        rng = np.random.default_rng(5)
        model = MeasurementErrorModel(2e-9, math.radians(0.2))
        pair = pair_at(0, 0, 25, 0)
        for _ in range(50):
            target = TargetState(float(rng.uniform(-20, 45)), float(rng.uniform(3, 40)))
            chosen = select_mode(pair, target, model)
            values = {}
            for mode in (Mode.MODE1, Mode.MODE2):
                values[mode] = gdop(replace(pair, mode=mode), target, model).gdop_m
            assert values[chosen] == min(values.values())

    def test_degenerate_both_modes_raises(self):
        model = MeasurementErrorModel(1e-9, math.radians(0.1))
        pair = pair_at(0, 0, 25, 0)
        with pytest.raises(DegenerateGeometryError):
            select_mode(pair, TargetState(12.0, 0.0), model)


class TestStackedKernel:
    """gdop_batch against the per-geometry reference, bit for bit."""

    def random_geometries(self, rng, count):
        pairs, xs, ys = [], [], []
        for k in range(count):
            sig = [0.0, 0.0, 0.0, 0.0] if k % 5 == 0 else list(rng.uniform(0.0, 0.05, 4))
            pairs.append(
                BistaticPair(
                    NodePosition(*rng.uniform(-10, 10, 2), sig[0], sig[1]),
                    NodePosition(*rng.uniform(5, 40, 2), sig[2], sig[3]),
                    Mode.MODE1 if k % 2 else Mode.MODE2,
                )
            )
            xs.append(float(rng.uniform(-40, 60)))
            ys.append(float(rng.uniform(-40, 60)))
        return pairs, xs, ys

    def test_random_geometries_match_reference(self):
        rng = np.random.default_rng(404)
        pairs, xs, ys = self.random_geometries(rng, 2000)
        for meas in (
            MeasurementErrorModel(1.3e-9, math.radians(0.17)),
            MeasurementErrorModel(0.0, math.radians(0.1)),
            MeasurementErrorModel(2e-9, 0.0),
        ):
            stacked = gdop_batch(pairs, xs, ys, meas)
            expected = [
                reference_or_nan(p, TargetState(x, y), meas) for p, x, y in zip(pairs, xs, ys)
            ]
            assert same_bits(stacked, expected)
            # One draw lands close enough to its baseline to be refused.
            assert np.isnan(stacked).sum() == 1

    def test_scalar_report_matches_reference(self):
        rng = np.random.default_rng(405)
        pairs, xs, ys = self.random_geometries(rng, 200)
        meas = MeasurementErrorModel(1e-9, math.radians(0.2))
        for pair, x, y in zip(pairs, xs, ys):
            target = TargetState(x, y)
            c1, c2, p_dp, value = reference_gdop(pair, target, meas)
            report = gdop(pair, target, meas)
            assert same_bits(report.c1, c1) and same_bits(report.c2, c2)
            assert same_bits(report.p_dp, p_dp) and report.gdop_m == value
            assert same_bits(jacobian_c1(pair, target), c1)
            assert same_bits(jacobian_c2(pair, target), c2)
            assert same_bits(error_covariance(c1, c2, meas, pair), p_dp)

    def test_one_pair_over_many_targets(self):
        rng = np.random.default_rng(406)
        meas = MeasurementErrorModel(1e-9, math.radians(0.1))
        xs, ys = rng.uniform(-30, 30, 500), rng.uniform(-30, 30, 500)
        for mode in (Mode.MODE1, Mode.MODE2):
            pair = pair_at(0, 0, 15, 0, mode=mode, sigma=0.01)
            expected = [
                reference_or_nan(pair, TargetState(float(x), float(y)), meas)
                for x, y in zip(xs, ys)
            ]
            assert same_bits(gdop_batch([pair], xs, ys, meas), expected)

    def test_target_on_a_node_is_nan(self):
        meas = MeasurementErrorModel(1e-9, 1e-3)
        for mode in (Mode.MODE1, Mode.MODE2):
            pair = pair_at(0, 0, 25, 0, mode=mode)
            values = gdop_batch([pair, pair, pair], [0.0, 25.0, 9.0], [0.0, 0.0, 17.0], meas)
            assert np.isnan(values[:2]).all() and np.isfinite(values[2])
            for node in (pair.n1, pair.n2):
                with pytest.raises(DegenerateGeometryError):
                    gdop(pair, TargetState(node.x, node.y), meas)
                with pytest.raises(DegenerateGeometryError):
                    jacobian_c1(pair, TargetState(node.x, node.y))

    def test_condition_limit_on_the_baseline_segment(self):
        meas = MeasurementErrorModel(1e-9, 1e-3)
        pair = pair_at(0, 0, 25, 0)
        # On the segment C1 is singular; just off it, finite but too large.
        near = TargetState(12.0, 1e-2)
        condition = np.linalg.cond(jacobian_c1(pair, near))
        assert CONDITION_LIMIT < condition < np.inf
        values = gdop_batch([pair], [12.0, near.x], [0.0, near.y], meas)
        assert np.isnan(values).all()
        with pytest.raises(DegenerateGeometryError):
            gdop(pair, near, meas)

    def test_collinear_beyond_the_nodes_is_finite(self):
        meas = MeasurementErrorModel(1e-9, 1e-3)
        for mode in (Mode.MODE1, Mode.MODE2):
            pair = pair_at(0, 0, 25, 0, mode=mode, sigma=0.01)
            for x in (-10.0, 40.0):
                value = gdop_batch([pair], x, 0.0, meas)
                assert np.isfinite(value).all()
                assert same_bits(value, [reference_or_nan(pair, TargetState(x, 0.0), meas)])

    def test_zero_sigmas_give_zero(self):
        meas = MeasurementErrorModel(0.0, 0.0)
        pairs = [pair_at(0, 0, 25, 0, mode=m) for m in (Mode.MODE1, Mode.MODE2)]
        values = gdop_batch(pairs, 9.0, 17.0, meas)
        assert same_bits(values, [0.0, 0.0])
        expected = [reference_or_nan(p, TargetState(9.0, 17.0), meas) for p in pairs]
        assert same_bits(values, expected)

    def test_empty_batch(self):
        values = gdop_batch([], [], [], MeasurementErrorModel(1e-9, 1e-3))
        assert values.shape == (0,)


class TestSelectModePinned:
    def test_matches_pinned_choices(self):
        """Choices recorded from the per-geometry implementation."""
        rng = np.random.default_rng(17)
        model = MeasurementErrorModel(2e-9, math.radians(0.2))
        pair = pair_at(0, 0, 25, 0, sigma=0.01)
        chosen = ""
        for _ in range(40):
            target = TargetState(float(rng.uniform(-20, 45)), float(rng.uniform(-30, 30)))
            chosen += str(select_mode(pair, target, model).value)
        assert chosen == "1122122112211222111112221111222211221121"
