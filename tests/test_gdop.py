"""Dilution-of-precision predictions against numerical oracles."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import bistar.gdop as gdop_module
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
    gdop_batch,
    gdop_weights,
    locate_bistatic,
    true_aoa,
    true_tdoa,
)
from bistar.geometry import MIN_RANGE_M


def pair_at(x1, y1, x2, y2, mode=Mode.MODE1, sigma=0.0):
    return BistaticPair(
        NodePosition(x1, y1, sigma, sigma), NodePosition(x2, y2, sigma, sigma), mode
    )


def reference_gdop(pair, target, meas):
    """Scalar closed form in Python floats, the stacked kernel's oracle.

    Builds C1 and C2 entry by entry, M = R_z + C2 R_x C2^T, B = adj(C1) / det
    and P = B M B^T, in the kernel's order of operations, and refuses C1
    with condition number s_max^2 / |det| above CONDITION_LIMIT.

    Ranges and the baseline are numpy's hypot of Python floats, as in the
    kernel (``math.hypot`` rounds some of them one ulp apart).

    Returns (C1, C2, P, gdop_m) or raises DegenerateGeometryError.
    """
    n1, n2, rx, c = pair.n1, pair.n2, pair.rx_node, SPEED_OF_LIGHT
    r1, r2 = (float(np.hypot(target.x - n.x, target.y - n.y)) for n in (n1, n2))
    if r1 < MIN_RANGE_M or r2 < MIN_RANGE_M:
        raise DegenerateGeometryError("target coincides with a node")
    dx = rx.x - target.x
    dy = target.y - rx.y
    r_sq = dx * dx + dy * dy
    if r_sq < 1e-18:
        raise DegenerateGeometryError("target coincides with the node")
    th_dx, th_dy = -dy / r_sq, -dx / r_sq
    a = ((target.x - n1.x) / r1 + (target.x - n2.x) / r2) / c
    b = ((target.y - n1.y) / r1 + (target.y - n2.y) / r2) / c
    length = float(np.hypot(n2.x - n1.x, n2.y - n1.y))
    t = [
        ((n1.x - target.x) / r1 - (n1.x - n2.x) / length) / c,
        ((n1.y - target.y) / r1 - (n1.y - n2.y) / length) / c,
        ((n2.x - target.x) / r2 - (n2.x - n1.x) / length) / c,
        ((n2.y - target.y) / r2 - (n2.y - n1.y) / length) / c,
    ]
    g = [0.0] * 4
    if pair.mode is Mode.MODE1:
        g[2], g[3] = -th_dx, -th_dy
    else:
        g[0], g[1] = -th_dx, -th_dy
    var = [n1.sigma_x * n1.sigma_x, n1.sigma_y * n1.sigma_y,
           n2.sigma_x * n2.sigma_x, n2.sigma_y * n2.sigma_y]
    m00 = meas.sigma_tdoa_s * meas.sigma_tdoa_s + (
        t[0] * (t[0] * var[0]) + t[1] * (t[1] * var[1])
        + t[2] * (t[2] * var[2]) + t[3] * (t[3] * var[3])
    )
    m01 = (
        t[0] * (g[0] * var[0]) + t[1] * (g[1] * var[1])
        + t[2] * (g[2] * var[2]) + t[3] * (g[3] * var[3])
    )
    m11 = meas.sigma_aoa_rad * meas.sigma_aoa_rad + (
        g[0] * (g[0] * var[0]) + g[1] * (g[1] * var[1])
        + g[2] * (g[2] * var[2]) + g[3] * (g[3] * var[3])
    )
    det = a * th_dy - b * th_dx
    s_max = (math.hypot(a + th_dy, b - th_dx) + math.hypot(a - th_dy, b + th_dx)) / 2.0
    if det == 0.0 or not s_max * s_max / abs(det) <= CONDITION_LIMIT:
        raise DegenerateGeometryError("ill conditioned")
    b00, b01, b10, b11 = th_dy / det, -b / det, -th_dx / det, a / det
    p00 = (b00 * m00 + b01 * m01) * b00 + (b00 * m01 + b01 * m11) * b01
    p01 = (b00 * m00 + b01 * m01) * b10 + (b00 * m01 + b01 * m11) * b11
    p11 = (b10 * m00 + b11 * m01) * b10 + (b10 * m01 + b11 * m11) * b11
    c1 = np.array([[a, b], [th_dx, th_dy]])
    p_dp = np.array([[p00, p01], [p01, p11]])
    return c1, np.array([t, g]), p_dp, math.sqrt(p00 + p11)


def reference_or_nan(pair, target, meas):
    try:
        return reference_gdop(pair, target, meas)[3]
    except DegenerateGeometryError:
        return math.nan


def exact_trace(c1, c2, meas, var):
    """trace(P) in rational arithmetic from the float entries of C1, C2
    and the node variances (x1, y1, x2, y2)."""
    (a, b), (c, d) = [[Fraction(v) for v in row] for row in c1.tolist()]
    t, g = [[Fraction(v) for v in row] for row in c2.tolist()]
    var = [Fraction(v) for v in var.tolist()]
    m00 = Fraction(meas.sigma_tdoa_s) ** 2 + sum(ti * ti * v for ti, v in zip(t, var))
    m01 = sum(ti * gi * v for ti, gi, v in zip(t, g, var))
    m11 = Fraction(meas.sigma_aoa_rad) ** 2 + sum(gi * gi * v for gi, v in zip(g, var))
    # trace(adj M adj^T) / det^2 with adj = [[d, -b], [-c, a]].
    num = (d * d + c * c) * m00 - 2 * (b * d + a * c) * m01 + (b * b + a * a) * m11
    return num / (a * d - b * c) ** 2


def exact_condition(c1):
    """2-norm condition number of C1 from rational arithmetic: with
    k = s_max / s_min, k + 1/k = ||C1||_F^2 / |det| exactly."""
    (a, b), (c, d) = [[Fraction(v) for v in row] for row in c1.tolist()]
    det = abs(a * d - b * c)
    if det == 0:
        return math.inf
    q = float((a * a + b * b + c * c + d * d) / det)
    return q if q > 1e150 else (q + math.sqrt(q * q - 4.0)) / 2.0


def same_bits(a, b):
    """Exact equality that also matches NaN with NaN."""
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def one_row(pair, target, meas=MeasurementErrorModel(0.0, 0.0)):
    """C1, C2 and P of one geometry from the stacked kernel, whether its
    target is off the nodes, and C1's condition number."""
    n1_xy, n2_xy, var, mode2 = gdop_module._node_arrays([pair])
    c1, c2, off_node = gdop_module._jacobians(n1_xy, n2_xy, mode2, target.x, target.y)
    p_dp, condition = gdop_module._covariance(c1, c2, meas, var)
    return c1[0], c2[0], p_dp[0], bool(off_node[0]), float(condition[0])


def gdop_at(pair, target, meas):
    """The predicted RMS error of one geometry, NaN where degenerate."""
    return float(gdop_batch([pair], target.x, target.y, meas)[0])


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
            jac = one_row(pair, target)[0]
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
                jac = one_row(pair, target)[1]
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
        j1 = one_row(pair_at(0, 0, 25, 0, Mode.MODE1), target)[1]
        assert j1[1, 0] == 0.0 and j1[1, 1] == 0.0
        assert j1[1, 2] != 0.0 or j1[1, 3] != 0.0
        j2 = one_row(pair_at(0, 0, 25, 0, Mode.MODE2), target)[1]
        assert j2[1, 2] == 0.0 and j2[1, 3] == 0.0
        assert j2[1, 0] != 0.0 or j2[1, 1] != 0.0


class TestCovariance:
    def test_symmetric_positive_semidefinite(self):
        pair = pair_at(0, 0, 25, 0, sigma=0.01)
        target = TargetState(9.0, 17.0)
        model = MeasurementErrorModel(2e-9, math.radians(0.2))
        cov = one_row(pair, target, model)[2]
        assert cov.shape == (2, 2)
        assert cov[0, 1] == pytest.approx(cov[1, 0], rel=1e-12)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-18)

    def test_zero_noise_gives_zero(self):
        pair = pair_at(0, 0, 25, 0)
        target = TargetState(9.0, 17.0)
        assert gdop_at(pair, target, MeasurementErrorModel(0.0, 0.0)) == 0.0

    def test_gdop_linear_in_measurement_sigma(self):
        pair = pair_at(0, 0, 25, 0)
        target = TargetState(9.0, 17.0)
        one = gdop_at(pair, target, MeasurementErrorModel(1e-9, math.radians(0.1)))
        two = gdop_at(pair, target, MeasurementErrorModel(2e-9, math.radians(0.2)))
        assert two == pytest.approx(2.0 * one, rel=1e-9)

    def test_translation_invariance(self):
        model = MeasurementErrorModel(1.5e-9, math.radians(0.15))
        base = gdop_at(pair_at(0, 0, 25, 0, sigma=0.01), TargetState(9.0, 17.0), model)
        moved = gdop_at(
            pair_at(100.0, -40.0, 125.0, -40.0, sigma=0.01),
            TargetState(109.0, -23.0),
            model,
        )
        assert moved == pytest.approx(base, rel=1e-7)

    def test_rotation_invariance_of_scalar(self):
        model = MeasurementErrorModel(1.5e-9, math.radians(0.15))
        angle = 0.7
        c, s = math.cos(angle), math.sin(angle)

        def rot(x, y):
            return (c * x - s * y, s * x + c * y)

        base = gdop_at(pair_at(0, 0, 25, 0, sigma=0.01), TargetState(9.0, 17.0), model)
        x1, y1 = rot(0, 0)
        x2, y2 = rot(25, 0)
        tx, ty = rot(9.0, 17.0)
        turned = gdop_at(pair_at(x1, y1, x2, y2, sigma=0.01), TargetState(tx, ty), model)
        assert turned == pytest.approx(base, rel=1e-7)

    def test_degenerate_on_baseline_refused(self):
        pair = pair_at(0, 0, 25, 0)
        assert math.isnan(gdop_at(pair, TargetState(12.0, 0.0), MeasurementErrorModel(1e-9, 1e-3)))


class TestMonteCarlo:
    def test_predicted_rms_matches_simulation(self):
        """Propagate noise through the exact inversion 100k times."""
        rng = np.random.default_rng(2024)
        pair = pair_at(0, 0, 25, 0, sigma=0.01)
        target = TargetState(8.0, 16.0)
        model = MeasurementErrorModel(1.0e-9, math.radians(0.1))
        predicted = gdop_at(pair, target, model)

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


def both_modes(pair, x, y, meas):
    """Predicted errors of ``pair`` transmitting in MODE1 and in MODE2 at
    the targets (two rows), from one `gdop_batch` call per mode."""
    return np.stack([gdop_batch([replace(pair, mode=m)], x, y, meas) for m in Mode])


class TestModeSelection:
    def test_prefers_lower_dilution(self):
        model = MeasurementErrorModel(1e-9, math.radians(0.1))
        pair = pair_at(0, 0, 25, 0)
        # Close to n1: receiving there (MODE2) resolves angle errors better.
        mode1, mode2 = both_modes(pair, [2.0, 23.0], [6.0, 6.0], model)
        assert mode2[0] < mode1[0]
        assert mode1[1] < mode2[1]

    def test_degenerate_both_modes_raises(self):
        model = MeasurementErrorModel(1e-9, math.radians(0.1))
        pair = pair_at(0, 0, 25, 0)
        assert np.isnan(both_modes(pair, 12.0, 0.0, model)).all()


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

    def test_matches_exact_rational(self):
        rng = np.random.default_rng(404)
        pairs, xs, ys = self.random_geometries(rng, 2000)
        meas = MeasurementErrorModel(1.3e-9, math.radians(0.17))
        stacked = gdop_batch(pairs, xs, ys, meas)
        worst = 0.0
        for pair, x, y, value in zip(pairs, xs, ys, stacked.tolist()):
            if math.isnan(value):
                continue
            c1, c2 = one_row(pair, TargetState(x, y))[:2]
            trace = exact_trace(c1, c2, meas, gdop_module._node_arrays([pair])[2][0])
            worst = max(worst, abs(Fraction(value) ** 2 / trace - 1))
        assert worst <= 1e-13

    def test_condition_matches_linalg_cond(self):
        rng = np.random.default_rng(404)
        pairs, xs, ys = self.random_geometries(rng, 2000)
        # Targets closing in on the baseline segment push C1 towards singular.
        near = pair_at(0, 0, 25, 0, mode=Mode.MODE2)
        for k in range(1, 16):
            for x in (3.0, 12.0, 21.5):
                pairs.append(near)
                xs.append(x)
                ys.append(10.0**-k)
        meas = MeasurementErrorModel(1e-9, 1e-3)
        n1_xy, n2_xy, var, mode2 = gdop_module._node_arrays(pairs)
        c1, c2, off_node = gdop_module._jacobians(n1_xy, n2_xy, mode2, xs, ys)
        condition = gdop_module._covariance(c1, c2, meas, var)[1]
        exact = np.array([exact_condition(m) for m in c1])
        assert np.allclose(condition, exact, rtol=1e-13, atol=0.0)
        # The SVD's small singular value is off by about eps * s_max, so
        # np.linalg.cond itself is only good to ~1e-7 up to 1e9.
        reference = np.linalg.cond(c1)
        trusted = reference < 1e9
        assert trusted.sum() > 1900
        assert np.allclose(condition[trusted], reference[trusted], rtol=1e-6, atol=0.0)
        refused = ~(off_node & (reference <= CONDITION_LIMIT))
        assert refused.sum() > 1
        assert np.array_equal(np.isnan(gdop_batch(pairs, xs, ys, meas)), refused)

    def test_scalar_report_matches_reference(self):
        """C1, C2, P and the value of one-row batches, bit for bit."""
        rng = np.random.default_rng(405)
        pairs, xs, ys = self.random_geometries(rng, 200)
        meas = MeasurementErrorModel(1e-9, math.radians(0.2))
        for pair, x, y in zip(pairs, xs, ys):
            target = TargetState(x, y)
            c1, c2, p_dp, value = reference_gdop(pair, target, meas)
            got_c1, got_c2, got_p = one_row(pair, target, meas)[:3]
            assert same_bits(got_c1, c1) and same_bits(got_c2, c2)
            assert same_bits(got_p, p_dp) and gdop_at(pair, target, meas) == value

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
                assert not one_row(pair, TargetState(node.x, node.y))[3]

    def test_condition_limit_on_the_baseline_segment(self):
        meas = MeasurementErrorModel(1e-9, 1e-3)
        pair = pair_at(0, 0, 25, 0)
        # On the segment C1 is singular; just off it, finite but too large.
        near = TargetState(12.0, 1e-2)
        condition = np.linalg.cond(one_row(pair, near)[0])
        assert CONDITION_LIMIT < condition < np.inf
        values = gdop_batch([pair], [12.0, near.x], [0.0, near.y], meas)
        assert np.isnan(values).all()

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


def array_inputs(pairs):
    """`gdop_arrays` inputs of ``pairs`` built in plain Python, with the
    variances as `NodePosition` sigmas squared."""
    n1 = [(p.n1.x, p.n1.y) for p in pairs]
    n2 = [(p.n2.x, p.n2.y) for p in pairs]
    var = [(p.n1.sigma_x**2, p.n1.sigma_y**2, p.n2.sigma_x**2, p.n2.sigma_y**2) for p in pairs]
    return n1, n2, var, [p.mode is Mode.MODE2 for p in pairs]


class TestArrayEntry:
    """gdop_arrays against the object path (`gdop_batch` and the scalar
    reference), bit for bit, and the refusals of the node objects."""

    meas = MeasurementErrorModel(1.3e-9, math.radians(0.17))

    def test_random_geometries_match_the_object_path(self):
        rng = np.random.default_rng(407)
        pairs, xs, ys = TestStackedKernel().random_geometries(rng, 2000)
        # Targets on a node and closing in on the baseline segment (C1
        # near singular), in both modes and with zero sigmas.
        for k in range(1, 16):
            for mode in (Mode.MODE1, Mode.MODE2):
                pairs.append(pair_at(0, 0, 25, 0, mode=mode, sigma=0.01 * (k % 2)))
                xs.append(12.0)
                ys.append(10.0**-k)
        for mode in (Mode.MODE1, Mode.MODE2):
            pairs += [pair_at(0, 0, 25, 0, mode=mode)] * 2
            xs += [0.0, 25.0]
            ys += [0.0, 0.0]
        n1, n2, var, mode2 = array_inputs(pairs)
        assert any(mode2) and not all(mode2)
        for meas in (self.meas, MeasurementErrorModel(0.0, 0.0), MeasurementErrorModel(2e-9, 0.0)):
            values = gdop_module.gdop_arrays(n1, n2, var, mode2, xs, ys, meas)
            assert same_bits(values, gdop_batch(pairs, xs, ys, meas))
            expected = [
                reference_or_nan(p, TargetState(x, y), meas) for p, x, y in zip(pairs, xs, ys)
            ]
            assert same_bits(values, expected)
            assert np.isnan(values[-4:]).all() and np.isnan(values[2000:2030]).any()

    def test_one_row_broadcasts_over_targets(self):
        pair = pair_at(0, 0, 15, 0, mode=Mode.MODE2, sigma=0.01)
        xs, ys = np.linspace(-20, 30, 40), np.linspace(3, 25, 40)
        n1, n2, var, mode2 = array_inputs([pair])
        values = gdop_module.gdop_arrays(n1, n2, var, True, xs, ys, self.meas)
        assert same_bits(values, gdop_batch([pair], xs, ys, self.meas))

    def geometry(self, **change):
        inputs = dict(n1_xy=[[0.0, 0.0], [0.0, 0.0]], n2_xy=[[25.0, 0.0], [10.0, 30.0]],
                      var=[[1e-4] * 4] * 2, mode2=False, x=9.0, y=17.0, err=self.meas)
        inputs.update(change)
        return inputs

    def test_valid_inputs_are_finite(self):
        assert np.isfinite(gdop_module.gdop_arrays(**self.geometry())).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_are_refused(self, bad):
        for name in ("n1_xy", "n2_xy"):
            coords = [[0.0, 0.0], [10.0, bad]]
            with pytest.raises(ValueError, match="finite"):
                gdop_module.gdop_arrays(**self.geometry(**{name: coords}))

    def test_negative_variances_are_refused(self):
        for column in range(4):
            var = [[1e-4] * 4, [1e-4] * 4]
            var[1][column] = -1e-4
            with pytest.raises(ValueError, match="non-negative"):
                gdop_module.gdop_arrays(**self.geometry(var=var))
        with pytest.raises(ValueError, match="non-negative"):
            gdop_module.gdop_arrays(**self.geometry(var=[[math.nan] * 4] * 2))

    def test_coincident_nodes_are_refused(self):
        for offset in (0.0, 0.5e-9):
            n2 = [[25.0, 0.0], [offset, 0.0]]
            with pytest.raises(ValueError, match="coincident"):
                gdop_module.gdop_arrays(**self.geometry(n2_xy=n2))
            with pytest.raises(ValueError, match="coincident"):
                BistaticPair(NodePosition(0.0, 0.0), NodePosition(offset, 0.0))


class TestNonFiniteAndZeroSigmaInputs:
    """Properties of gdop_batch and gdop_weights at the edges of their inputs."""

    meas = MeasurementErrorModel(1e-9, math.radians(0.1))

    def test_non_finite_targets_give_nan_rows(self):
        bad = [math.nan, math.inf, -math.inf]
        for mode in (Mode.MODE1, Mode.MODE2):
            pair = pair_at(0, 0, 25, 0, mode=mode, sigma=0.01)
            xs = bad + [9.0] * 3 + bad
            ys = [17.0] * 3 + bad + bad[::-1]
            with np.errstate(all="raise"):
                values = gdop_batch([pair], xs, ys, self.meas)
            assert np.isnan(values).all()
            weights = gdop_weights(np.stack([values, values, values], axis=1))
            assert np.isnan(weights).all()

    def test_target_on_a_node_gives_nan_and_no_weight(self):
        pairs = [pair_at(0, 0, 25, 0, mode=m) for m in (Mode.MODE1, Mode.MODE2)]
        pairs.append(pair_at(0, 0, 10, 30))
        with np.errstate(all="raise"):
            values = gdop_batch(pairs, 25.0, 0.0, self.meas)
        assert np.isnan(values[:2]).all() and np.isfinite(values[2])
        assert gdop_weights(values[None]).tolist() == [[0.0, 0.0, 3.0]]

    def test_zero_sigmas_give_finite_psd_covariance(self):
        rng = np.random.default_rng(31)
        cases = [
            (MeasurementErrorModel(2e-9, 0.0), 0.01),  # scenario1: sigma_aoa = 0
            (MeasurementErrorModel(2e-9, math.radians(0.2)), 0.0),  # exact nodes
            (MeasurementErrorModel(0.0, math.radians(0.2)), 0.01),
        ]
        for meas, sigma in cases:
            for mode in (Mode.MODE1, Mode.MODE2):
                pair = pair_at(0, 0, 25, 0, mode=mode, sigma=sigma)
                xs, ys = rng.uniform(-20, 45, 50), rng.uniform(3, 40, 50)
                with np.errstate(all="raise"):
                    values = gdop_batch([pair], xs, ys, meas)
                    weights = gdop_weights(values.reshape(-1, 2))
                assert np.isfinite(values).all() and (values > 0.0).all()
                assert np.isfinite(weights).all()
                for x, y in zip(xs[:10].tolist(), ys[:10].tolist()):
                    cov = one_row(pair, TargetState(x, y), meas)[2]
                    assert np.isfinite(cov).all() and cov[0, 1] == cov[1, 0]
                    assert np.all(np.linalg.eigvalsh(cov) >= -1e-12 * np.trace(cov))


class TestSigmaSquares:
    """Sigmas are squared by multiplication, which rounds correctly.
    ``s ** 2`` calls the C library's pow, which rounds these sigmas one
    ulp away from s * s on some platforms (glibc 2.36 on x86-64), so GDOP
    bytes would depend on the platform."""

    NODE, TDOA, AOA = 0.03046631750026156, 3.163247506746424e-09, 0.004336236631944122

    def test_node_and_measurement_variances(self):
        for s in (self.NODE, self.TDOA, self.AOA):
            assert s * s == float(Fraction(s) ** 2)  # the correctly rounded square
        pair = pair_at(0.0, 0.0, 25.0, 0.0, sigma=self.NODE)
        assert gdop_module._node_arrays([pair])[2].tolist() == [[self.NODE * self.NODE] * 4]
        # With C1 = I and C2 = 0 the covariance is R_z itself.
        err = MeasurementErrorModel(self.TDOA, self.AOA)
        p_dp, _ = gdop_module._covariance(np.eye(2)[None], np.zeros((1, 2, 4)), err, np.zeros(4))
        assert p_dp[0].tolist() == [[self.TDOA * self.TDOA, 0.0], [0.0, self.AOA * self.AOA]]
        target = TargetState(9.0, 17.0)
        assert same_bits(gdop_batch([pair], target.x, target.y, err),
                         [reference_gdop(pair, target, err)[3]])


class TestSelectModePinned:
    def test_matches_pinned_choices(self):
        """Choices recorded from the per-geometry implementation: the mode
        with the smaller predicted error, MODE1 on a tie."""
        rng = np.random.default_rng(17)
        model = MeasurementErrorModel(2e-9, math.radians(0.2))
        pair = pair_at(0, 0, 25, 0, sigma=0.01)
        xs, ys = [], []
        for _ in range(40):
            xs.append(float(rng.uniform(-20, 45)))
            ys.append(float(rng.uniform(-30, 30)))
        mode1, mode2 = both_modes(pair, xs, ys, model)
        assert np.isfinite(mode1).all() and np.isfinite(mode2).all()
        chosen = "".join("1" if g1 <= g2 else "2" for g1, g2 in zip(mode1, mode2))
        assert chosen == "1122122112211222111112221111222211221121"
