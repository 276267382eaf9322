"""Weighted least-squares fusion of multiple bistatic measurements.

The loss for a candidate position (x, y) sums, over pairs, the squared
scaled TDOA residual and the squared scaled angle residual:

    L = sum_i w_i [ (a_i c (dT_i - f_dT,i(x, y)))^2
                  + (b_i (theta_i - f_theta,i(x, y)))^2 ]

with angle residuals wrapped to (-pi, pi]. Choosing a_i and b_i as the
reciprocal standard deviations of the distance-scaled TDOA and of the
angle whitens the residuals, which balances the two measurement kinds
regardless of their units. A small Levenberg-Marquardt solver with an
analytic Jacobian minimizes the loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .estimation import Measurement
from .gdop import MeasurementErrorModel, gdop_batch
from .geometry import (
    SPEED_OF_LIGHT,
    BistaticPair,
    TargetState,
    aoa_gradient,
    locate_bistatic,
    sum_range_gradient,
    true_aoa,
    true_tdoa,
    wrap_angle,
)

# Reference error model used only to rank pairs for the initial guess.
_RANKING_ERR = MeasurementErrorModel(1e-9, math.radians(0.1))


@dataclass
class FusionProblem:
    """Measurements from several pairs plus loss scaling factors.

    ``a`` (1/m units) scales distance-converted TDOA residuals, ``b``
    (1/rad units) scales angle residuals, ``w`` weights pairs; scalars
    broadcast to all pairs.
    """

    pairs: list[BistaticPair]
    measurements: list[Measurement]
    a: np.ndarray | float = 1.0
    b: np.ndarray | float = 1.0
    w: np.ndarray | float = 1.0

    def __post_init__(self) -> None:
        if len(self.pairs) < 1:
            raise ValueError("need at least one pair")
        if len(self.pairs) != len(self.measurements):
            raise ValueError("pairs and measurements must align")
        count = len(self.pairs)
        for name in ("a", "b", "w"):
            value = np.broadcast_to(np.asarray(getattr(self, name), dtype=float), (count,))
            if np.any(value < 0) or not np.all(np.isfinite(value)):
                raise ValueError(f"{name} factors must be finite and non-negative")
            setattr(self, name, value.copy())
        for pair, meas in zip(self.pairs, self.measurements):
            if meas.mode is not pair.mode:
                raise ValueError("measurement mode must match its pair")


@dataclass(frozen=True)
class SolverOptions:
    """Levenberg-Marquardt controls."""

    max_iterations: int = 50
    gradient_tol: float = 1e-12
    step_tol: float = 1e-10
    initial_damping: float = 1e-3
    initial_guess: tuple[float, float] | None = None


@dataclass(frozen=True)
class FusionResult:
    """Converged position estimate and solver diagnostics."""

    x: float
    y: float
    iterations: int
    converged: bool
    loss: float

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


def _residuals(x: float, y: float, problem: FusionProblem) -> np.ndarray:
    point = TargetState(x, y)
    out = np.empty(2 * len(problem.pairs))
    for i, (pair, meas) in enumerate(zip(problem.pairs, problem.measurements)):
        root_w = math.sqrt(problem.w[i])
        out[2 * i] = (
            root_w
            * problem.a[i]
            * SPEED_OF_LIGHT
            * (meas.tdoa_s - true_tdoa(pair, point))
        )
        out[2 * i + 1] = (
            root_w
            * problem.b[i]
            * wrap_angle(meas.aoa_rad - true_aoa(pair.rx_node, point))
        )
    return out


def _jacobian(x: float, y: float, problem: FusionProblem) -> np.ndarray:
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


def wls_loss(x: float, y: float, problem: FusionProblem) -> float:
    """Weighted least-squares loss at a candidate position."""
    r = _residuals(x, y, problem)
    return float(r @ r)


def compute_weights(
    problem: FusionProblem,
    rough_position: tuple[float, float],
    err: MeasurementErrorModel,
) -> np.ndarray:
    """Per-pair weights inverse to predicted error, normalized to sum N.

    Pairs whose geometry is degenerate at the rough position get zero
    weight; at least one pair must remain usable.  Pairs predicted to
    make no error at all (zero sigmas) share the weight equally and the
    others get none, the limit of the inverse weighting.
    """
    rough = TargetState(rough_position[0], rough_position[1])
    predicted = gdop_batch(problem.pairs, rough.x, rough.y, err)
    exact = predicted == 0.0
    if exact.any():
        raw = exact * 1.0
    else:
        raw = np.divide(1.0, predicted, out=np.zeros(exact.size), where=~np.isnan(predicted))
    total = raw.sum()
    if total <= 0.0:
        raise DegenerateGeometryError("every pair is degenerate at the rough position")
    return raw * (len(problem.pairs) / total)


def _initial_guess(problem: FusionProblem) -> tuple[float, float]:
    """Closed-form solution of the best-ranked pair, else node centroid."""
    located = []
    for i, (pair, meas) in enumerate(zip(problem.pairs, problem.measurements)):
        try:
            located.append((i, locate_bistatic(pair, meas)))
        except (DegenerateGeometryError, ValueError):
            continue
    if located:
        index, points = zip(*located)
        pairs = [problem.pairs[i] for i in index]
        scores = gdop_batch(pairs, *np.transpose(points), _RANKING_ERR).tolist()
        order = [
            (score / problem.w[i], point)
            for i, point, score in zip(index, points, scores)
            if not math.isnan(score) and problem.w[i] > 0
        ]
        if order:
            return min(order, key=lambda item: item[0])[1]
    xs = [p for pair in problem.pairs for p in (pair.n1.x, pair.n2.x)]
    ys = [p for pair in problem.pairs for p in (pair.n1.y, pair.n2.y)]
    # Offset the centroid off the node row so the loss is evaluable even
    # when every node lies on one line.
    return (sum(xs) / len(xs), sum(ys) / len(ys) + 1.0)


def solve_multistatic(
    problem: FusionProblem, opts: SolverOptions | None = None
) -> FusionResult:
    """Minimize the fusion loss with Levenberg-Marquardt.

    Steps solve (J^T J + damping * diag(J^T J)) delta = -J^T r; a step
    that lowers the loss is accepted and relaxes the damping by 10, a
    rejected step tightens it by 10. The loss at the returned position
    never exceeds the loss at the initial guess.
    """
    opts = opts or SolverOptions()
    x, y = opts.initial_guess if opts.initial_guess is not None else _initial_guess(problem)

    def safe_loss(px: float, py: float) -> float:
        try:
            return wls_loss(px, py, problem)
        except DegenerateGeometryError:
            return math.inf

    loss = safe_loss(x, y)
    if not math.isfinite(loss):
        raise DegenerateGeometryError("initial guess is degenerate")
    damping = opts.initial_damping
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        jac = _jacobian(x, y, problem)
        residual = _residuals(x, y, problem)
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
            trial_loss = safe_loss(x + delta[0], y + delta[1])
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
    return FusionResult(x=x, y=y, iterations=iterations, converged=bool(converged), loss=loss)
