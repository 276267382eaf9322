"""Multistatic weighted least-squares fusion solver tests."""

import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest

from bistar import (
    BistaticPair,
    DegenerateGeometryError,
    Measurement,
    MeasurementErrorModel,
    Mode,
    NodePosition,
    TargetState,
    aoa_gradient,
    gdop_arrays,
    gdop_batch,
    gdop_weights,
    locate_batch,
    solve_multistatic_batch,
    sum_range_gradient,
    true_aoa,
    true_tdoa,
    wrap_angle,
)
from bistar import fusion
from bistar.fusion import _linearize, _prepare
from bistar.geometry import SPEED_OF_LIGHT

TRUTH = TargetState(12.0, 21.0)
COLUMNS = ("tx_xy", "rx_xy", "tdoa_s", "aoa_rad")


def problem_of(pairs, measurements, a=1.0, b=1.0, w=1.0):
    """One fusion problem as a row of `solve_multistatic_batch`: the
    pairs' transmitter and receiver coordinates (P x 2), their TDOAs and
    AoAs, and the scales a, b and w broadcast to P."""
    count = len(pairs)
    scales = {k: np.broadcast_to(np.asarray(v, dtype=float), (count,)).copy()
              for k, v in (("a", a), ("b", b), ("w", w))}
    return {
        "tx_xy": np.array([(p.tx_node.x, p.tx_node.y) for p in pairs], dtype=float),
        "rx_xy": np.array([(p.rx_node.x, p.rx_node.y) for p in pairs], dtype=float),
        "tdoa_s": np.array([m.tdoa_s for m in measurements], dtype=float),
        "aoa_rad": np.array([m.aoa_rad for m in measurements], dtype=float),
        **scales,
    }


def solve_stacked(problems, guesses, max_iterations=fusion.MAX_ITERATIONS):
    """`solve_multistatic_batch` over problems with equal pair counts,
    stopped after ``max_iterations`` iterations."""
    rows = {k: np.stack([p[k] for p in problems]) for k in problems[0]}
    with patch.object(fusion, "MAX_ITERATIONS", max_iterations):
        return solve_multistatic_batch(
            *(rows[k] for k in COLUMNS), guesses, rows["a"], rows["b"], rows["w"]
        )


def loss_at(problem, x, y):
    """The loss of one problem at (x, y): the solver's loss at its guess
    after no iteration, NaN where (x, y) sits on a node."""
    idle = solve_stacked([problem], [(x, y)], max_iterations=0)
    return float(idle.loss[0])


# The per-pair scalar solver that the batched one replaced, kept as the
# reference: residuals, Jacobian and Levenberg-Marquardt loop.
def reference_pairs(problem):
    """The problem's pairs as objects, each transmitting from n1."""
    return [
        BistaticPair(NodePosition(*tx), NodePosition(*rx))
        for tx, rx in zip(problem["tx_xy"].tolist(), problem["rx_xy"].tolist())
    ]


def reference_residuals(x, y, problem):
    point = TargetState(x, y)
    pairs = reference_pairs(problem)
    out = np.empty(2 * len(pairs))
    for i, pair in enumerate(pairs):
        root_w = math.sqrt(problem["w"][i])
        out[2 * i] = (
            root_w * problem["a"][i] * SPEED_OF_LIGHT
            * (problem["tdoa_s"][i] - true_tdoa(pair, point))
        )
        out[2 * i + 1] = (
            root_w * problem["b"][i]
            * wrap_angle(problem["aoa_rad"][i] - true_aoa(pair.rx_node, point))
        )
    return out


def reference_jacobian(x, y, problem):
    point = TargetState(x, y)
    pairs = reference_pairs(problem)
    out = np.empty((2 * len(pairs), 2))
    for i, pair in enumerate(pairs):
        root_w = math.sqrt(problem["w"][i])
        gx, gy = sum_range_gradient(pair, point)
        th_dx, th_dy = aoa_gradient(pair.rx_node, point)
        scale_t = -root_w * problem["a"][i] * SPEED_OF_LIGHT
        scale_a = -root_w * problem["b"][i]
        out[2 * i] = (scale_t * (gx / SPEED_OF_LIGHT), scale_t * (gy / SPEED_OF_LIGHT))
        out[2 * i + 1] = (scale_a * th_dx, scale_a * th_dy)
    return out

def reference_loss(x, y, problem):
    try:
        r = reference_residuals(x, y, problem)
    except (DegenerateGeometryError, ValueError):
        return math.inf
    return float(r @ r)


def reference_solve(problem, guess):
    """(x, y, iterations, converged, loss) of the scalar solver, with the
    batched solver's constants."""
    x, y = guess
    loss = reference_loss(x, y, problem)
    if not math.isfinite(loss):
        raise DegenerateGeometryError("initial guess is degenerate")
    damping = fusion.INITIAL_DAMPING
    converged = False
    iterations = 0
    for iterations in range(1, fusion.MAX_ITERATIONS + 1):
        jac = reference_jacobian(x, y, problem)
        residual = reference_residuals(x, y, problem)
        gradient = jac.T @ residual
        if np.max(np.abs(gradient)) < fusion.GRADIENT_TOL:
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
                if np.hypot(delta[0], delta[1]) < fusion.STEP_TOL:
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
    columns = (problem[k][None] for k in COLUMNS)
    stack = _prepare(*columns, problem["a"], problem["b"], problem["w"])
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
    return problem_of(pairs, [exact_measurement(p) for p in pairs], **kw)


class TestLoss:
    def test_zero_at_truth_positive_elsewhere(self):
        problem = exact_problem()
        assert loss_at(problem, TRUTH.x, TRUTH.y) < 1e-18
        assert loss_at(problem, TRUTH.x + 0.5, TRUTH.y) > 1e-6

    def test_weights_scale_loss_linearly(self):
        base = exact_problem()
        boosted = exact_problem(w=4.0)
        x, y = 14.0, 19.0
        assert loss_at(boosted, x, y) == pytest.approx(4.0 * loss_at(base, x, y), rel=1e-12)


class TestJacobian:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(50)
        for trial in range(8):
            count = int(rng.integers(1, 5))
            modes = [Mode.MODE1 if rng.random() < 0.5 else Mode.MODE2 for _ in range(count)]
            pairs = ring_pairs(count, radius=float(rng.uniform(15, 40)), modes=modes)
            target = TargetState(float(rng.uniform(-15, 15)), float(rng.uniform(8, 30)))
            problem = problem_of(
                pairs,
                [exact_measurement(p, target) for p in pairs],
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
        result = solve_stacked(
            [exact_problem()], [(40.0, 60.0)], max_iterations=200
        )
        assert result.converged[0]
        assert math.hypot(result.xy[0, 0] - TRUTH.x, result.xy[0, 1] - TRUTH.y) < 1e-6
        assert result.loss[0] < 1e-12

    def test_single_pair_matches_closed_form(self):
        """One pair, started from its closed form: the iterative solution
        equals direct inversion."""
        for mode in (Mode.MODE1, Mode.MODE2):
            pair = BistaticPair(NodePosition(-12.0, 0.0), NodePosition(12.0, 0.0), mode)
            problem = problem_of([pair], [exact_measurement(pair)])
            (closed_x, closed_y), = locate_batch(*(problem[k] for k in COLUMNS)).tolist()
            result = solve_stacked([problem], [(closed_x, closed_y)])
            assert result.xy[0, 0] == pytest.approx(closed_x, abs=1e-6)
            assert result.xy[0, 1] == pytest.approx(closed_y, abs=1e-6)

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
            problem = problem_of(pairs, measurements)
            guess = (float(rng.uniform(-20, 20)), float(rng.uniform(5, 40)))
            result = solve_stacked([problem], [guess])
            assert result.loss[0] <= loss_at(problem, *guess) + 1e-12

    def test_down_weighting_a_biased_pair_helps(self):
        pairs = ring_pairs(2)
        clean = exact_measurement(pairs[0])
        biased_src = exact_measurement(pairs[1])
        biased = Measurement(
            tdoa_s=biased_src.tdoa_s + 30e-9,
            aoa_rad=biased_src.aoa_rad + 0.05,
            mode=pairs[1].mode,
        )
        uniform = problem_of(pairs, [clean, biased])
        skewed = problem_of(pairs, [clean, biased], w=[50.0, 1.0])
        guess = [(TRUTH.x + 3.0, TRUTH.y - 2.0)]
        err_u, err_s = (solve_stacked([p], guess).xy[0] for p in (uniform, skewed))
        dist = lambda xy: math.hypot(xy[0] - TRUTH.x, xy[1] - TRUTH.y)
        assert dist(err_s) < dist(err_u)


def weights_at(pairs, position, err):
    """The pair weights of one problem at a position: `gdop_weights` of
    the pairs' `gdop_batch` predictions there."""
    return gdop_weights(gdop_batch(pairs, position[0], position[1], err)[None])[0]


class TestComputeWeights:
    """Pair weights of one problem from the GDOP kernel at a position."""

    def test_normalized_to_pair_count(self):
        weights = weights_at(ring_pairs(4), (10.0, 20.0), MeasurementErrorModel(1e-9, 0.01))
        assert weights.shape == (4,)
        assert weights.sum() == pytest.approx(4.0, rel=1e-12)
        assert np.all(weights > 0)

    def test_degenerate_pair_gets_zero(self):
        pairs = ring_pairs(3)
        # Evaluating exactly on a receiver makes that pair undefined.
        rx = pairs[1].rx_node
        weights = weights_at(pairs, (rx.x, rx.y), MeasurementErrorModel(1e-9, 0.01))
        assert weights[1] == 0.0
        assert weights.sum() == pytest.approx(3.0, rel=1e-12)

    def test_matches_pinned_weights(self):
        """Weights recorded from the closed-form GDOP kernel (the SVD kernel's
        differed from the 9th digit on)."""
        tx = NodePosition(0.0, 0.0, 0.01, 0.01)
        pairs = []
        for i in range(3):
            angle = 2.0 * math.pi * (i + 0.35) / 3
            rx = NodePosition(25 * math.cos(angle), 25 * math.sin(angle), 0.01, 0.01)
            pairs.append(BistaticPair(tx, rx))
        weights = weights_at(pairs, (10.0, 20.0), MeasurementErrorModel(1e-9, 0.01))
        assert weights.tolist() == [1.1545865656830245, 0.9796814374895276, 0.8657319968274484]
        weights = weights_at(pairs, (-3.0, 7.5), MeasurementErrorModel(2e-9, 0.003))
        assert weights.tolist() == [0.8333534302329911, 0.5315489980368783, 1.6350975717301304]

    def test_zero_predicted_error_shares_weight_equally(self):
        weights = weights_at(ring_pairs(3), (10.0, 20.0), MeasurementErrorModel(0.0, 0.0))
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
        weights = weights_at(pairs, (10.0, 20.0), MeasurementErrorModel(0.0, 0.0))
        assert weights.tolist() == [3.0, 0.0, 0.0]

    def test_all_degenerate_is_nan(self):
        pair = BistaticPair(NodePosition(0.0, 0.0), NodePosition(25.0, 0.0), Mode.MODE1)
        rx = pair.rx_node
        weights = weights_at([pair], (rx.x, rx.y), MeasurementErrorModel(1e-9, 0.01))
        assert np.isnan(weights).all()


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
    problem = problem_of(
        pairs,
        measurements,
        a=rng.uniform(0.1, 3.0, count),
        b=rng.uniform(1.0, 100.0, count),
        w=rng.uniform(0.2, 3.0, count),
    )
    return problem, (target.x + rng.uniform(-3.0, 3.0), target.y + rng.uniform(-3.0, 3.0))


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
            assert out.loss[row] <= loss_at(problem, *guess) + 1e-12
            assert out.loss[row] == loss_at(problem, *out.xy[row])

    def test_scalars_broadcast(self):
        """Scalar a, b and w act as the same value for every pair."""
        rng = np.random.default_rng(613)
        problems, guesses = zip(*(random_problem(rng, 3) for _ in range(4)))
        full = [dict(p, a=np.full(3, 2.0), b=np.full(3, 0.5), w=np.full(3, 3.0)) for p in problems]
        columns = [np.stack([p[k] for p in problems]) for k in COLUMNS]
        scalar = solve_multistatic_batch(*columns, guesses, a=2.0, b=0.5, w=3.0)
        arrays = solve_stacked(full, guesses)
        for name in ("xy", "iterations", "converged", "loss", "failed"):
            np.testing.assert_array_equal(getattr(scalar, name), getattr(arrays, name))

    def test_failed_rows_stay_alone(self):
        rng = np.random.default_rng(610)
        problems, guesses = map(list, zip(*(random_problem(rng, 3) for _ in range(6))))
        guesses[1] = tuple(problems[1]["rx_xy"][2].tolist())  # guess on a node
        guesses[4] = (math.nan, 2.0)
        problems[3]["tdoa_s"][0] = math.nan
        out = solve_stacked(problems, guesses)
        assert out.failed.tolist() == [False, True, False, True, True, False]
        assert np.isnan(out.xy[out.failed]).all() and np.isnan(out.loss[out.failed]).all()
        assert out.iterations[out.failed].tolist() == [0, 0, 0]
        assert not out.converged[out.failed].any()
        for row in (0, 2, 5):
            alone = solve_stacked([problems[row]], [guesses[row]])
            assert out.xy[row].tolist() == alone.xy[0].tolist()
            assert out.iterations[row] == alone.iterations[0]

    def test_rows_solve_as_if_alone(self):
        """Every output of every row of a stack equals that row solved
        alone, bit for bit. A row with a NaN TDOA and a row whose weights
        are NaN (every pair degenerate where they were predicted) fail
        on their own and leave the other rows unchanged."""
        rng = np.random.default_rng(612)
        problems, guesses = map(list, zip(*(random_problem(rng, 3) for _ in range(8))))
        problems[2]["tdoa_s"][1] = math.nan
        columns = [np.stack([p[k] for p in problems]) for k in COLUMNS]
        a, b, w = (np.stack([p[k] for p in problems]) for k in "abw")
        tx_xy, rx_xy = problems[5]["tx_xy"], problems[5]["rx_xy"]
        at_tx = gdop_arrays(
            tx_xy, rx_xy, [0.0] * 4, False, *tx_xy[0], MeasurementErrorModel(1e-9, 0.01)
        )
        w[5] = gdop_weights(at_tx[None])[0]
        assert np.isnan(w[5]).all()
        stacked = solve_multistatic_batch(*columns, guesses, a, b, w)
        assert stacked.failed.tolist() == [row in (2, 5) for row in range(8)]
        for row in range(8):
            one = slice(row, row + 1)
            alone = solve_multistatic_batch(
                *(column[one] for column in columns), guesses[one], a[one], b[one], w[one]
            )
            for name in ("xy", "iterations", "converged", "loss", "failed"):
                np.testing.assert_array_equal(getattr(stacked, name)[row], getattr(alone, name)[0])

    @pytest.mark.parametrize("column", ["tx_xy", "rx_xy", "tdoa_s", "aoa_rad", "guess", "w"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_fails_its_row_alone(self, column, bad):
        """A NaN or infinite value in one input of row 3 of 8 fails that
        row with a NaN position and no warning; every other row is the
        clean solve's, bit for bit."""
        rng = np.random.default_rng(614)
        problems, guesses = zip(*(random_problem(rng, 3) for _ in range(8)))
        inputs = {k: np.stack([p[k] for p in problems]) for k in (*COLUMNS, "a", "b", "w")}
        inputs["guess"] = np.array(guesses)
        names = (*COLUMNS, "guess", "a", "b", "w")
        clean = solve_multistatic_batch(*(inputs[k] for k in names))
        inputs[column][3].flat[1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solve_multistatic_batch(*(inputs[k] for k in names))
        assert out.failed.tolist() == [row == 3 for row in range(8)]
        assert np.isnan(out.xy[3]).all()
        for name in ("xy", "iterations", "converged", "loss", "failed"):
            kept = np.delete(getattr(out, name), 3, axis=0)
            np.testing.assert_array_equal(kept, np.delete(getattr(clean, name), 3, axis=0))

    def test_empty_batch(self):
        empty = np.zeros((0, 3, 2))
        out = solve_multistatic_batch(empty, empty, np.zeros((0, 3)), np.zeros((0, 3)), [])
        assert out.xy.shape == (0, 2)
        assert out.failed.shape == out.iterations.shape == out.converged.shape == (0,)

    def test_options_apply_per_row(self):
        rng = np.random.default_rng(611)
        problems, guesses = zip(*(random_problem(rng, 2) for _ in range(20)))
        capped = solve_stacked(problems, guesses, max_iterations=1)
        assert capped.iterations.max() == 1
        idle = solve_stacked(problems, guesses, max_iterations=0)
        assert idle.iterations.max() == 0 and not idle.converged.any()
        assert idle.xy.tolist() == [list(g) for g in guesses]


class TestGdopWeights:
    def test_rows_match_rows_alone(self):
        err = MeasurementErrorModel(1e-9, 0.01)
        pairs = ring_pairs(4)
        positions = [(10.0, 20.0), (-3.0, 7.5), (5.0, -12.0)]
        stacked = gdop_weights([gdop_batch(pairs, x, y, err) for x, y in positions])
        for row, position in zip(stacked, positions):
            assert row.tolist() == weights_at(pairs, position, err).tolist()

    def test_zero_error_and_degenerate_rows(self):
        nan = math.nan
        weights = gdop_weights([[0.5, 0.0, 0.0], [nan, nan, nan], [1.0, nan, 0.5]])
        assert weights[0].tolist() == [0.0, 1.5, 1.5]
        assert np.isnan(weights[1]).all()
        assert weights[2].tolist() == [1.0, 0.0, 2.0]
