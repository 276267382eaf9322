"""Weighted least-squares fusion of multiple bistatic measurements.

The loss for a candidate position (x, y) sums, over pairs, the squared
scaled TDOA residual and the squared scaled angle residual:

    L = sum_i w_i [ (a_i c (dT_i - f_dT,i(x, y)))^2
                  + (b_i (theta_i - f_theta,i(x, y)))^2 ]

with angle residuals wrapped to (-pi, pi]. Choosing a_i and b_i as the
reciprocal standard deviations of the distance-scaled TDOA and of the
angle whitens the residuals, which balances the two measurement kinds
regardless of their units. A Levenberg-Marquardt solver with an
analytic Jacobian minimizes the losses of many problems at once: row r
of every array is one problem, with its own damping and stopping state.
`solve_multistatic_batch` is the one entry, and a single problem is a
batch of one row. `gdop_weights` turns predicted errors (R x P, from
`gdop.gdop_arrays`) into the pair weights w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MIN_RANGE_M, SPEED_OF_LIGHT, wrap_angles

# Levenberg-Marquardt controls of `solve_multistatic_batch`.
MAX_ITERATIONS = 50
GRADIENT_TOL = 1e-12
STEP_TOL = 1e-10
INITIAL_DAMPING = 1e-3


@dataclass(frozen=True)
class FusionBatchResult:
    """Per-row outcome of `solve_multistatic_batch` for R problems.

    ``xy`` is R x 2. A ``failed`` row had no finite loss at its guess (a
    guess on a node, or a non-finite input): it holds NaN position and
    loss, zero iterations and is not converged.
    """

    xy: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    loss: np.ndarray
    failed: np.ndarray


def _prepare(tx_xy, rx_xy, tdoa_s, aoa_rad, a, b, w) -> tuple:
    """Row x pair constants of a batch: the node coordinates (R x P x 2),
    the measured echo path c dT + L, the AoAs and the residual scales."""
    tx, rx = np.asarray(tx_xy, dtype=float), np.asarray(rx_xy, dtype=float)
    baseline = np.hypot(rx[..., 0] - tx[..., 0], rx[..., 1] - tx[..., 1])
    with np.errstate(invalid="ignore"):
        root_w = np.sqrt(np.asarray(w, dtype=float))
    path = SPEED_OF_LIGHT * np.asarray(tdoa_s, dtype=float) + baseline
    scales = (np.broadcast_to(root_w * k, path.shape) for k in (a, b))
    return (tx, rx, path, np.asarray(aoa_rad, dtype=float), *scales)


def _linearize(batch: tuple, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whitened residuals (R x P x [TDOA, AoA]), their Jacobian w.r.t.
    (x, y) (R x P x 2 x 2) and the loss of every row at ``xy`` (R x 2);
    the loss is infinite where the position sits on one of the row's
    nodes, which the scalar forward models refuse."""
    tx, rx, path, aoa, scale_t, scale_a = batch
    x, y = xy[:, None, 0], xy[:, None, 1]
    tx_dx, tx_dy = x - tx[..., 0], y - tx[..., 1]
    rx_dx, rx_dy = x - rx[..., 0], y - rx[..., 1]
    r_tx, r_rx = np.hypot(tx_dx, tx_dy), np.hypot(rx_dx, rx_dy)
    r_sq = rx_dx * rx_dx + rx_dy * rx_dy
    res = np.empty(r_tx.shape + (2,))
    jac = np.empty(r_tx.shape + (2, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        res[..., 0] = scale_t * (path - (r_tx + r_rx))
        # The bearing atan2(-rx_dx, rx_dy) as the angle of a complex log,
        # whose bits, unlike np.arctan2's, do not depend on SIMD dispatch.
        res[..., 1] = scale_a * wrap_angles(aoa - np.log(rx_dy - 1j * rx_dx).imag)
        jac[..., 0, 0] = -scale_t * (tx_dx / r_tx + rx_dx / r_rx)
        jac[..., 0, 1] = -scale_t * (tx_dy / r_tx + rx_dy / r_rx)
        jac[..., 1, 0] = scale_a * rx_dy / r_sq
        jac[..., 1, 1] = -scale_a * rx_dx / r_sq
    off_node = ((r_tx >= MIN_RANGE_M) & (r_rx >= MIN_RANGE_M)).all(axis=1)
    return res, jac, np.where(off_node, np.square(res).sum(axis=(1, 2)), np.inf)


def gdop_weights(predicted) -> np.ndarray:
    """Per-pair weights of R problems from their predicted errors (R x P,
    NaN where a pair is degenerate): inverse to the error, summing to P
    per row, zero for degenerate pairs. Where some pairs of a row predict
    no error at all (zero sigmas) they share the weight equally, the
    limit of the inverse rule. A row of degenerate pairs is NaN.
    """
    predicted = np.asarray(predicted, dtype=float)
    exact, known = predicted == 0.0, ~np.isnan(predicted)
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = np.divide(1.0, predicted, out=np.zeros_like(predicted), where=known)
        raw = np.where(exact.any(axis=1, keepdims=True), exact * 1.0, inverse)
        total = raw.sum(axis=1, keepdims=True)
        return np.where(total > 0.0, raw * (predicted.shape[1] / total), np.nan)


def _damped_steps(normal, diag, damping, gradient) -> np.ndarray:
    """Solutions of (J^T J + damping diag) delta = -J^T r per row, by
    Cramer's rule; a singular row comes back non-finite."""
    m11 = normal[:, 0, 0] + damping * diag[:, 0]
    m22 = normal[:, 1, 1] + damping * diag[:, 1]
    m12, m21 = normal[:, 0, 1], normal[:, 1, 0]
    g1, g2 = gradient[:, 0], gradient[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        det = m11 * m22 - m12 * m21
        return np.stack(((m12 * g2 - m22 * g1) / det, (m21 * g1 - m11 * g2) / det), axis=1)


def solve_multistatic_batch(
    tx_xy, rx_xy, tdoa_s, aoa_rad, guess, a=1.0, b=1.0, w=1.0
) -> FusionBatchResult:
    """Minimize R fusion losses at once with Levenberg-Marquardt.

    Row r is one problem: P pairs transmitting from ``tx_xy[r]`` and
    receiving at ``rx_xy[r]`` (R x P x 2), their TDOAs and global AoAs
    ``tdoa_s[r]`` and ``aoa_rad[r]`` (R x P), and the guess ``guess[r]``;
    ``a``, ``b`` and ``w`` broadcast to R x P. Each row steps on its own
    by (J^T J + damping diag(J^T J)) delta = -J^T r, from damping
    `INITIAL_DAMPING`, for at most `MAX_ITERATIONS` iterations: a step
    that lowers its loss is taken and divides its damping by 10 (floor
    1e-15), a rejected or singular one multiplies it by 10. A row
    converges when its gradient drops below `GRADIENT_TOL` or a taken
    step below `STEP_TOL`; at damping 1e14 it gives up, converged if the
    gradient is below 1e-6. No row ends above its loss at the guess; a
    row with no finite loss there fails alone (see `FusionBatchResult`).
    """
    batch = _prepare(tx_xy, rx_xy, tdoa_s, aoa_rad, a, b, w)
    xy = np.array(guess, dtype=float).reshape(-1, 2)
    res, jac, loss = _linearize(batch, xy)
    failed = ~np.isfinite(loss)
    rows = len(xy)
    damping = np.full(rows, INITIAL_DAMPING)
    iterations = np.zeros(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    active = ~failed
    for iteration in range(1, MAX_ITERATIONS + 1):
        if not active.any():
            break
        iterations[active] = iteration
        gradient = np.einsum("rpkj,rpk->rj", jac, res)
        steepest = np.abs(gradient).max(axis=1)
        flat = active & (steepest < GRADIENT_TOL)
        converged |= flat
        active &= ~flat
        normal = np.einsum("rpki,rpkj->rij", jac, jac)
        diag = np.clip(np.diagonal(normal, axis1=1, axis2=2), 1e-30, None)
        searching, accepted, width = active.copy(), np.zeros(rows, dtype=bool), 1
        while searching.any():
            # The next ``width`` dampings of every searching row at once,
            # d, 10 d, 100 d, ... as the rule tries them one by one; a row
            # takes the first below 1e14 that helps. Most rows take their
            # first, so the width doubles from 1 up to the 29 that span
            # 1e-15 to 1e14, not repeating every array 29 times at once.
            idx = np.flatnonzero(searching)
            ladder = np.full((idx.size, width), 10.0)
            ladder[:, 0] = damping[idx]
            ladder = np.multiply.accumulate(ladder, axis=1)
            r = np.repeat(idx, width)
            step = _damped_steps(normal[r], diag[r], ladder.ravel(), gradient[r])
            t_res, t_jac, t_loss = _linearize(tuple(v[r] for v in batch), xy[r] + step)
            ok = np.isfinite(step).all(axis=1) & (t_loss < loss[r])
            ok = ok.reshape(ladder.shape) & (ladder < 1e14)
            took = ok.any(axis=1)
            pick, better = (np.arange(idx.size) * width + ok.argmax(axis=1))[took], idx[took]
            xy[better] += step[pick]
            loss[better], res[better], jac[better] = t_loss[pick], t_res[pick], t_jac[pick]
            damping[better] = np.maximum(ladder.ravel()[pick] / 10.0, 1e-15)
            converged[better] = np.hypot(step[pick, 0], step[pick, 1]) < STEP_TOL
            accepted[better] = True
            damping[idx[~took]] = ladder[~took, -1] * 10.0
            searching &= ~accepted & (damping < 1e14)
            width = min(2 * width, 29)
        gave_up = active & ~accepted
        converged[gave_up] = steepest[gave_up] < 1e-6
        active &= accepted & ~converged
    xy[failed] = math.nan
    loss[failed] = math.nan
    return FusionBatchResult(xy, iterations, converged, loss, failed)

