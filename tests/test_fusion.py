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
    aoa_gradient,
    compute_weights,
    gdop_batch,
    gdop_weights,
    locate_bistatic,
    solve_multistatic,
    solve_multistatic_batch,
    sum_range_gradient,
    true_aoa,
    true_tdoa,
    wls_loss,
    wrap_angle,
)
from bistar.fusion import _initial_guess, _linearize, _prepare, _rows
from bistar.geometry import SPEED_OF_LIGHT

TRUTH = TargetState(12.0, 21.0)


# The per-pair scalar solver that the batched one replaced, kept as the
# reference: residuals, Jacobian and Levenberg-Marquardt loop.
def reference_residuals(x, y, problem):
    point = TargetState(x, y)
    out = np.empty(2 * len(problem.pairs))
    for i, (pair, meas) in enumerate(zip(problem.pairs, problem.measurements)):
        root_w = math.sqrt(problem.w[i])
        out[2 * i] = (
            root_w * problem.a[i] * SPEED_OF_LIGHT * (meas.tdoa_s - true_tdoa(pair, point))
        )
        out[2 * i + 1] = (
            root_w * problem.b[i] * wrap_angle(meas.aoa_rad - true_aoa(pair.rx_node, point))
        )
    return out


def reference_jacobian(x, y, problem):
    point = TargetState(x, y)
    out = np.empty((2 * len(problem.pairs), 2))
    for i, pair in enumerate(problem.pairs):
        root_w = math.sqrt(problem.w[i])
        gx, gy = sum_range_gradient(pair, point)
        th_dx, th_dy = aoa_gradient(pair.rx_node, point)
        scale_t = -root_w * problem.a[i] * SPEED_OF_LIGHT
        scale_a = -root_w * problem.b[i]
        out[2 * i] = (scale_t * (gx / SPEED_OF_LIGHT), scale_t * (gy / SPEED_OF_LIGHT))
        out[2 * i + 1] = (scale_a * th_dx, scale_a * th_dy)
    return out


def reference_loss(x, y, problem):
    try:
        r = reference_residuals(x, y, problem)
    except (DegenerateGeometryError, ValueError):
        return math.inf
    return float(r @ r)


def reference_solve(problem, guess, opts=SolverOptions()):
    """(x, y, iterations, converged, loss) of the scalar solver."""
    x, y = guess
    loss = reference_loss(x, y, problem)
    if not math.isfinite(loss):
        raise DegenerateGeometryError("initial guess is degenerate")
    damping = opts.initial_damping
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        jac = reference_jacobian(x, y, problem)
        residual = reference_residuals(x, y, problem)
        gradient = jac.T @ residual
        if np.max(np.abs(gradient)) < opts.gradient_tol:
            converged = True
            break
        normal = jac.T @ jac
        diag = np.clip(np.diag(normal), 1e-30, None)
        accepted = False
        while damping < 1e14:
            try:
                delta = np.linalg.solve(normal + damping * np.diag(diag), -gradient)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial_loss = reference_loss(x + delta[0], y + delta[1], problem)
            if trial_loss < loss:
                x, y = x + delta[0], y + delta[1]
                loss = trial_loss
                damping = max(damping / 10.0, 1e-15)
                accepted = True
                if np.hypot(delta[0], delta[1]) < opts.step_tol:
                    converged = True
                break
            damping *= 10.0
        if not accepted or converged:
            if not accepted:
                converged = np.max(np.abs(gradient)) < 1e-6
            break
    return x, y, iterations, bool(converged), loss


def linearize_one(problem, points):
    """Residuals (rows x 2P) and Jacobians (rows x 2P x 2) of one problem
    at several candidate positions, in the reference's row order."""
    stack = _prepare(*_rows(problem), problem.a, problem.b, problem.w)
    res, jac, loss = _linearize(stack, np.asarray(points, dtype=float))
    return res.reshape(len(points), -1), jac.reshape(len(points), -1, 2), loss


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
            h = 1e-6
            points = [(x, y), (x + h, y), (x - h, y), (x, y + h), (x, y - h)]
            res, jacs, loss = linearize_one(problem, points)
            jac = jacs[0]
            fd = np.stack([res[1] - res[2], res[3] - res[4]], axis=1) / (2 * h)
            scale = np.maximum(np.abs(jac), 1e-3)
            assert np.max(np.abs(jac - fd) / scale) < 1e-5
            # The batched helper against the per-pair loops it replaced.
            assert np.allclose(res[0], reference_residuals(x, y, problem), rtol=1e-9, atol=1e-12)
            assert np.allclose(jac, reference_jacobian(x, y, problem), rtol=1e-9, atol=1e-12)
            assert loss[0] == pytest.approx(reference_loss(x, y, problem), rel=1e-9)


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

    def test_unusable_pairs_fall_back_to_the_centroid(self):
        pairs = ring_pairs(2)
        problem = FusionProblem(
            pairs=pairs, measurements=[exact_measurement(p) for p in pairs], w=[0.0, 0.0]
        )
        nodes = [n for pair in pairs for n in (pair.n1, pair.n2)]
        assert _initial_guess(problem) == (
            sum(n.x for n in nodes) / 4, sum(n.y for n in nodes) / 4 + 1.0
        )
        problem.w = np.array([0.0, 1.0])
        assert _initial_guess(problem) == locate_bistatic(pairs[1], problem.measurements[1])

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


def random_problem(rng, count):
    """A transmitter, ``count`` receivers in random transmit directions,
    noisy measurements, random scalings and a guess near the target.

    Every echo path exceeds its baseline by at least 3 m (five TDOA
    sigmas): a TDOA clamped at zero has no minimum off the nodes, and
    both solvers then creep toward a receiver until the iteration cap."""
    tx = NodePosition(*rng.uniform(-5.0, 5.0, 2))
    while True:
        target = TargetState(*rng.uniform(-30.0, 30.0, 2))
        if math.hypot(target.x - tx.x, target.y - tx.y) > 2.0:
            break
    pairs, measurements = [], []
    while len(pairs) < count:
        rx = NodePosition(*rng.uniform(-30.0, 30.0, 2))
        if math.hypot(rx.x - tx.x, rx.y - tx.y) < 5.0 or math.hypot(
            rx.x - target.x, rx.y - target.y
        ) < 2.0:
            continue
        excess = true_tdoa(BistaticPair(tx, rx), target) * SPEED_OF_LIGHT
        if excess < 3.0:
            continue
        mode = Mode.MODE1 if rng.random() < 0.5 else Mode.MODE2
        pair = BistaticPair(tx, rx, mode) if mode is Mode.MODE1 else BistaticPair(rx, tx, mode)
        pairs.append(pair)
        measurements.append(
            Measurement(
                tdoa_s=max(true_tdoa(pair, target) + rng.normal(0.0, 2e-9), 0.0),
                aoa_rad=wrap_angle(true_aoa(pair.rx_node, target) + rng.normal(0.0, 0.02)),
                mode=mode,
            )
        )
    problem = FusionProblem(
        pairs=pairs,
        measurements=measurements,
        a=rng.uniform(0.1, 3.0, count),
        b=rng.uniform(1.0, 100.0, count),
        w=rng.uniform(0.2, 3.0, count),
    )
    return problem, (target.x + rng.uniform(-3.0, 3.0), target.y + rng.uniform(-3.0, 3.0))


def solve_stacked(problems, guesses, opts=None):
    """`solve_multistatic_batch` over problems with equal pair counts."""
    rows = [_rows(problem) for problem in problems]
    columns = [[row[k][0] for row in rows] for k in range(4)]
    scales = [np.array([getattr(p, name) for p in problems]) for name in "abw"]
    return solve_multistatic_batch(*columns, guesses, *scales, opts=opts)


class TestBatchedSolver:
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_matches_reference_solver(self, count):
        rng = np.random.default_rng(600 + count)
        problems, guesses = zip(*(random_problem(rng, count) for _ in range(260)))
        out = solve_stacked(problems, guesses)
        assert not out.failed.any() and out.converged.mean() > 0.95
        for row, (problem, guess) in enumerate(zip(problems, guesses)):
            x, y, _, _, _ = reference_solve(problem, guess)
            assert math.hypot(out.xy[row, 0] - x, out.xy[row, 1] - y) < 1e-6
            # The LM property, per row: never worse than the guess.
            assert out.loss[row] <= wls_loss(*guess, problem) + 1e-12
            assert out.loss[row] == wls_loss(*out.xy[row], problem)

    def test_failed_rows_stay_alone(self):
        rng = np.random.default_rng(610)
        problems, guesses = map(list, zip(*(random_problem(rng, 3) for _ in range(6))))
        receiver = problems[1].pairs[2].rx_node
        guesses[1] = (receiver.x, receiver.y)  # guess on a node
        guesses[4] = (math.nan, 2.0)
        clean = problems[3].measurements[0]
        problems[3].measurements[0] = Measurement(math.nan, clean.aoa_rad, mode=clean.mode)
        out = solve_stacked(problems, guesses)
        assert out.failed.tolist() == [False, True, False, True, True, False]
        assert np.isnan(out.xy[out.failed]).all() and np.isnan(out.loss[out.failed]).all()
        assert out.iterations[out.failed].tolist() == [0, 0, 0]
        assert not out.converged[out.failed].any()
        for row in (0, 2, 5):
            alone = solve_stacked([problems[row]], [guesses[row]])
            assert out.xy[row].tolist() == alone.xy[0].tolist()
            assert out.iterations[row] == alone.iterations[0]
        with pytest.raises(DegenerateGeometryError):
            solve_multistatic(problems[1], SolverOptions(initial_guess=guesses[1]))

    def test_empty_batch(self):
        empty = np.zeros((0, 3, 2))
        out = solve_multistatic_batch(empty, empty, np.zeros((0, 3)), np.zeros((0, 3)), [])
        assert out.xy.shape == (0, 2)
        assert out.failed.shape == out.iterations.shape == out.converged.shape == (0,)

    def test_options_apply_per_row(self):
        rng = np.random.default_rng(611)
        problems, guesses = zip(*(random_problem(rng, 2) for _ in range(20)))
        capped = solve_stacked(problems, guesses, SolverOptions(max_iterations=1))
        assert capped.iterations.max() == 1
        idle = solve_stacked(problems, guesses, SolverOptions(max_iterations=0))
        assert idle.iterations.max() == 0 and not idle.converged.any()
        assert idle.xy.tolist() == [list(g) for g in guesses]


class TestGdopWeights:
    def test_rows_match_compute_weights(self):
        err = MeasurementErrorModel(1e-9, 0.01)
        problem = exact_problem(4)
        positions = [(10.0, 20.0), (-3.0, 7.5), (5.0, -12.0)]
        stacked = gdop_weights(
            [gdop_batch(problem.pairs, x, y, err) for x, y in positions]
        )
        for row, position in zip(stacked, positions):
            assert row.tolist() == compute_weights(problem, position, err).tolist()

    def test_zero_error_and_degenerate_rows(self):
        nan = math.nan
        weights = gdop_weights([[0.5, 0.0, 0.0], [nan, nan, nan], [1.0, nan, 0.5]])
        assert weights[0].tolist() == [0.0, 1.5, 1.5]
        assert np.isnan(weights[1]).all()
        assert weights[2].tolist() == [1.0, 0.0, 2.0]
