"""Multistatic weighted least-squares fusion solver tests."""

import math

import numpy as np
import pytest

from bistar import (
    BistaticPair,
    DegenerateGeometryError,
    FusionProblem,
    FusionResult,
    Measurement,
    MeasurementErrorModel,
    Mode,
    NodePosition,
    SolverOptions,
    TargetState,
    compute_weights,
    locate_bistatic,
    solve_multistatic,
    true_aoa,
    true_tdoa,
    wls_loss,
)
from bistar.fusion import _jacobian, _residuals

TRUTH = TargetState(12.0, 21.0)


def ring_pairs(count=3, radius=25.0, modes=None):
    """TX at origin plus receivers spread on a circle."""
    tx = NodePosition(0.0, 0.0)
    pairs = []
    for i in range(count):
        angle = 2.0 * math.pi * (i + 0.35) / count
        rx = NodePosition(radius * math.cos(angle), radius * math.sin(angle))
        mode = modes[i] if modes else Mode.MODE1
        pairs.append(BistaticPair(tx, rx, mode))
    return pairs


def exact_measurement(pair, target=TRUTH):
    return Measurement(
        tdoa_s=true_tdoa(pair, target),
        aoa_rad=true_aoa(pair.rx_node, target),
        mode=pair.mode,
    )


def exact_problem(count=3, **kw):
    pairs = ring_pairs(count)
    return FusionProblem(
        pairs=pairs, measurements=[exact_measurement(p) for p in pairs], **kw
    )


class TestFusionProblem:
    def test_broadcasts_scalars(self):
        problem = exact_problem(a=2.0, b=0.5, w=3.0)
        assert problem.a.shape == (3,) and problem.a[1] == 2.0
        assert problem.w.sum() == 9.0

    def test_validation(self):
        pairs = ring_pairs(2)
        meas = [exact_measurement(p) for p in pairs]
        with pytest.raises(ValueError):
            FusionProblem(pairs=[], measurements=[])
        with pytest.raises(ValueError):
            FusionProblem(pairs=pairs, measurements=meas[:1])
        with pytest.raises(ValueError):
            FusionProblem(pairs=pairs, measurements=meas, a=-1.0)
        with pytest.raises(ValueError):
            FusionProblem(pairs=pairs, measurements=meas, b=math.nan)
        with pytest.raises(ValueError):
            FusionProblem(pairs=pairs, measurements=meas, w=[1.0, -2.0])

    def test_mode_mismatch_rejected(self):
        pairs = ring_pairs(2)
        meas = [exact_measurement(p) for p in pairs]
        flipped = Measurement(
            tdoa_s=meas[0].tdoa_s, aoa_rad=meas[0].aoa_rad, mode=Mode.MODE2
        )
        with pytest.raises(ValueError):
            FusionProblem(pairs=pairs, measurements=[flipped, meas[1]])


class TestLoss:
    def test_zero_at_truth_positive_elsewhere(self):
        problem = exact_problem()
        assert wls_loss(TRUTH.x, TRUTH.y, problem) < 1e-18
        assert wls_loss(TRUTH.x + 0.5, TRUTH.y, problem) > 1e-6

    def test_weights_scale_loss_linearly(self):
        base = exact_problem()
        boosted = exact_problem(w=4.0)
        x, y = 14.0, 19.0
        assert wls_loss(x, y, boosted) == pytest.approx(
            4.0 * wls_loss(x, y, base), rel=1e-12
        )


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(50)
        for trial in range(8):
            count = int(rng.integers(1, 5))
            modes = [Mode.MODE1 if rng.random() < 0.5 else Mode.MODE2 for _ in range(count)]
            pairs = ring_pairs(count, radius=float(rng.uniform(15, 40)), modes=modes)
            target = TargetState(float(rng.uniform(-15, 15)), float(rng.uniform(8, 30)))
            problem = FusionProblem(
                pairs=pairs,
                measurements=[exact_measurement(p, target) for p in pairs],
                a=rng.uniform(0.5, 2.0, count),
                b=rng.uniform(0.5, 2.0, count),
                w=rng.uniform(0.2, 3.0, count),
            )
            x = target.x + float(rng.uniform(-2, 2))
            y = target.y + float(rng.uniform(-2, 2))
            jac = _jacobian(x, y, problem)
            h = 1e-6
            fd = np.empty_like(jac)
            fd[:, 0] = (_residuals(x + h, y, problem) - _residuals(x - h, y, problem)) / (2 * h)
            fd[:, 1] = (_residuals(x, y + h, problem) - _residuals(x, y - h, problem)) / (2 * h)
            scale = np.maximum(np.abs(jac), 1e-3)
            assert np.max(np.abs(jac - fd) / scale) < 1e-5


class TestSolver:
    def test_recovers_truth_from_far_guess(self):
        problem = exact_problem()
        result = solve_multistatic(
            problem, SolverOptions(initial_guess=(40.0, 60.0), max_iterations=200)
        )
        assert result.converged
        assert math.hypot(result.x - TRUTH.x, result.y - TRUTH.y) < 1e-6
        assert result.loss < 1e-12

    def test_default_guess_also_converges(self):
        result = solve_multistatic(exact_problem())
        assert math.hypot(result.x - TRUTH.x, result.y - TRUTH.y) < 1e-6
        assert isinstance(result, FusionResult)
        assert result.position == (result.x, result.y)

    def test_single_pair_matches_closed_form(self):
        """One pair: the iterative solution equals direct inversion."""
        for mode in (Mode.MODE1, Mode.MODE2):
            pair = BistaticPair(NodePosition(-12.0, 0.0), NodePosition(12.0, 0.0), mode)
            meas = exact_measurement(pair)
            closed_x, closed_y = locate_bistatic(pair, meas)
            problem = FusionProblem(pairs=[pair], measurements=[meas])
            result = solve_multistatic(problem)
            assert result.x == pytest.approx(closed_x, abs=1e-6)
            assert result.y == pytest.approx(closed_y, abs=1e-6)

    def test_loss_never_exceeds_initial_guess(self):
        rng = np.random.default_rng(51)
        pairs = ring_pairs(3)
        for trial in range(20):
            measurements = []
            for pair in pairs:
                clean = exact_measurement(pair)
                measurements.append(
                    Measurement(
                        tdoa_s=max(clean.tdoa_s + rng.normal(0.0, 3e-9), 0.0),
                        aoa_rad=clean.aoa_rad + rng.normal(0.0, 0.02),
                        mode=pair.mode,
                    )
                )
            problem = FusionProblem(pairs=pairs, measurements=measurements)
            guess = (float(rng.uniform(-20, 20)), float(rng.uniform(5, 40)))
            result = solve_multistatic(problem, SolverOptions(initial_guess=guess))
            assert result.loss <= wls_loss(guess[0], guess[1], problem) + 1e-12

    def test_down_weighting_a_biased_pair_helps(self):
        pairs = ring_pairs(2)
        clean = exact_measurement(pairs[0])
        biased_src = exact_measurement(pairs[1])
        biased = Measurement(
            tdoa_s=biased_src.tdoa_s + 30e-9,
            aoa_rad=biased_src.aoa_rad + 0.05,
            mode=pairs[1].mode,
        )
        uniform = FusionProblem(pairs=pairs, measurements=[clean, biased])
        skewed = FusionProblem(
            pairs=pairs, measurements=[clean, biased], w=[50.0, 1.0]
        )
        err_u = solve_multistatic(uniform)
        err_s = solve_multistatic(skewed)
        dist = lambda r: math.hypot(r.x - TRUTH.x, r.y - TRUTH.y)
        assert dist(err_s) < dist(err_u)


class TestComputeWeights:
    def test_normalized_to_pair_count(self):
        problem = exact_problem(4)
        weights = compute_weights(problem, (10.0, 20.0), MeasurementErrorModel(1e-9, 0.01))
        assert weights.shape == (4,)
        assert weights.sum() == pytest.approx(4.0, rel=1e-12)
        assert np.all(weights > 0)

    def test_degenerate_pair_gets_zero(self):
        pairs = ring_pairs(3)
        problem = FusionProblem(
            pairs=pairs, measurements=[exact_measurement(p) for p in pairs]
        )
        # Evaluating exactly on a receiver makes that pair undefined.
        rx = pairs[1].rx_node
        weights = compute_weights(problem, (rx.x, rx.y), MeasurementErrorModel(1e-9, 0.01))
        assert weights[1] == 0.0
        assert weights.sum() == pytest.approx(3.0, rel=1e-12)

    def test_matches_pinned_weights(self):
        """Weights recorded from the per-pair loop implementation."""
        tx = NodePosition(0.0, 0.0, 0.01, 0.01)
        pairs = []
        for i in range(3):
            angle = 2.0 * math.pi * (i + 0.35) / 3
            rx = NodePosition(25 * math.cos(angle), 25 * math.sin(angle), 0.01, 0.01)
            pairs.append(BistaticPair(tx, rx))
        problem = FusionProblem(
            pairs=pairs, measurements=[exact_measurement(p) for p in pairs]
        )
        weights = compute_weights(problem, (10.0, 20.0), MeasurementErrorModel(1e-9, 0.01))
        assert weights.tolist() == [1.1545865647149658, 0.9796814378148047, 0.8657319974702299]
        weights = compute_weights(problem, (-3.0, 7.5), MeasurementErrorModel(2e-9, 0.003))
        assert weights.tolist() == [0.8333534289759569, 0.5315489982532704, 1.6350975727707728]

    def test_zero_predicted_error_shares_weight_equally(self):
        problem = exact_problem(3)
        weights = compute_weights(problem, (10.0, 20.0), MeasurementErrorModel(0.0, 0.0))
        assert weights.tolist() == [1.0, 1.0, 1.0]

    def test_only_zero_error_pairs_get_weight(self):
        # Exact nodes on pair 0 only: with exact measurements it alone
        # predicts no error, so it takes the whole weight.
        tx = NodePosition(0.0, 0.0)
        pairs = [
            BistaticPair(tx, NodePosition(25.0, 0.0)),
            BistaticPair(tx, NodePosition(0.0, 25.0, 0.01, 0.01)),
            BistaticPair(tx, NodePosition(-25.0, 0.0, 0.01, 0.01)),
        ]
        problem = FusionProblem(
            pairs=pairs, measurements=[exact_measurement(p) for p in pairs]
        )
        weights = compute_weights(problem, (10.0, 20.0), MeasurementErrorModel(0.0, 0.0))
        assert weights.tolist() == [3.0, 0.0, 0.0]

    def test_all_degenerate_raises(self):
        pair = BistaticPair(NodePosition(0.0, 0.0), NodePosition(25.0, 0.0), Mode.MODE1)
        problem = FusionProblem(
            pairs=[pair], measurements=[exact_measurement(pair)]
        )
        rx = pair.rx_node
        with pytest.raises(DegenerateGeometryError):
            compute_weights(problem, (rx.x, rx.y), MeasurementErrorModel(1e-9, 0.01))
