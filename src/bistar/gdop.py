"""Dilution of precision for TDOA/AoA bistatic localization.

Propagates measurement noise and node position uncertainty through the
linearized measurement model to a position error covariance and its
RMS, the dilution of precision.  One stacked kernel evaluates N
geometries at once from coordinate arrays (`gdop_arrays`: node
coordinates, node variances and a MODE2 mask per row), so callers with
many drawn node positions build no objects.
`gdop_batch` is its one view, over `BistaticPair` objects; one geometry
is a batch of one row.  A degenerate row (target on a node, or C1
conditioned worse than CONDITION_LIMIT) is NaN.  The transmit direction
to prefer at a target is the one whose row predicts the smaller error,
MODE1 on a tie, as the `best_mode` of `harness.run_gdop_map` picks it.

C1 is 2x2, so the kernel inverts it in closed form, elementwise over
the rows, with no LAPACK call: B = adj(C1) / det.  That is invariant to
the scale of C1's rows, which matters here: the TDOA row (seconds per
meter) and the AoA row (radians per meter) differ by seven orders of
magnitude.  Scaling a row by s scales det and the matching column of B
by s and 1/s, so every rounding error is relative to the terms it
touches.  An SVD instead leaves an absolute error of eps * s_max on the
small singular value, about 1e-5 relative in P at ill-conditioned but
accepted geometries.  Results do not depend on the LAPACK/BLAS build.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import MIN_RANGE_M, SPEED_OF_LIGHT, BistaticPair, Mode

# Geometries whose measurement Jacobian is worse conditioned than this
# are refused rather than inverted.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class MeasurementErrorModel:
    """Standard deviations of one TDOA/AoA measurement."""

    sigma_tdoa_s: float
    sigma_aoa_rad: float

    def __post_init__(self) -> None:
        if self.sigma_tdoa_s < 0.0 or self.sigma_aoa_rad < 0.0:
            raise ValueError("measurement sigmas must be non-negative")


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # math.hypot, as bistatic_ranges uses: np.hypot differs in the last bit.
    return np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=float)


def _jacobians(n1_xy, n2_xy, mode2, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked C1 (N x 2 x 2), C2 (N x 2 x 4) and the rows off the nodes.

    Row i is the pair of nodes ``n1_xy[i]`` and ``n2_xy[i]`` (N x 2, or
    one row for all), receiving at n1 where ``mode2[i]``, else at n2.
    C1 is the Jacobian of (TDOA, AoA at the receiving node) w.r.t. the
    target (x, y); C2 the Jacobian w.r.t. the node coordinates (x1, y1,
    x2, y2): per node, minus its unit vector toward the target minus its
    baseline direction, over c, in the TDOA row; the AoA row is the
    negated target gradient in the receiving node's columns only.  Rows
    whose target sits on a node (or is not finite) hold an identity C1
    and a zero C2 so the stacked arithmetic stays finite; the mask
    refuses them.  Non-finite or coincident nodes raise ValueError.
    """
    n1, n2 = (np.asarray(n, dtype=float).reshape(-1, 2) for n in (n1_xy, n2_xy))
    if not (np.isfinite(n1).all() and np.isfinite(n2).all()):
        raise ValueError("node coordinates must be finite")
    (n1x, n1y), (n2x, n2y) = n1.T, n2.T
    length = _hypot(n2x - n1x, n2y - n1y)
    if not (length >= MIN_RANGE_M).all():
        raise ValueError("nodes of a pair must not be coincident")
    mode2 = np.asarray(mode2, dtype=bool)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    r1 = _hypot(x - n1x, y - n1y)
    r2 = _hypot(x - n2x, y - n2y)
    # AoA gradient at the receiving node, written with the squared range
    # so it stays finite when the target shares the node's y coordinate.
    dx = np.where(mode2, n1x, n2x) - x
    dy = y - np.where(mode2, n1y, n2y)
    r_sq = dx * dx + dy * dy
    off_node = (r1 >= MIN_RANGE_M) & (r2 >= MIN_RANGE_M) & (1e-18 <= r_sq) & (r_sq < np.inf)
    c = SPEED_OF_LIGHT
    bx, by = (n1x - n2x) / length, (n1y - n2y) / length
    with np.errstate(divide="ignore", invalid="ignore"):
        u1x, u1y, u2x, u2y = (x - n1x) / r1, (y - n1y) / r1, (x - n2x) / r2, (y - n2y) / r2
        th_dx, th_dy = -dy / r_sq, -dx / r_sq
    c1 = np.stack([(u1x + u2x) / c, (u1y + u2y) / c, th_dx, th_dy], axis=-1).reshape(-1, 2, 2)
    c2 = np.zeros((len(r1), 2, 4))
    c2[:, 0] = np.stack(
        [(-u1x - bx) / c, (-u1y - by) / c, (bx - u2x) / c, (by - u2y) / c], axis=-1
    )
    rows, col = np.arange(len(r1)), np.where(mode2, 0, 2)
    c2[rows, 1, col] = -th_dx
    c2[rows, 1, col + 1] = -th_dy
    c1[~off_node] = np.eye(2)
    c2[~off_node] = 0.0
    return c1, c2, off_node


def _covariance(c1: np.ndarray, c2: np.ndarray, meas: MeasurementErrorModel, var) -> tuple:
    """Stacked P = B (R_z + C2 R_x C2^T) B^T and the condition numbers of C1.

    ``var`` holds the variances of the node coordinates (x1, y1, x2, y2),
    N x 4 or one row for all: the diagonal of R_x.  Closed form of the
    2x2 algebra, elementwise over the N rows: B is adj(C1) / det, M = R_z
    + C2 R_x C2^T takes three sums because R_x is diagonal, and P's
    off-diagonal entry is formed once, so P is exactly symmetric.  cond
    = s_max^2 / |det|, with C1's larger singular value s_max from two
    hypots.  Rows with det = 0 hold inf or NaN, and an infinite or NaN
    condition number.  A negative or non-finite variance raises ValueError.
    """
    var = np.asarray(var, dtype=float).reshape(-1, 4).T
    if not (np.isfinite(var).all() and (var >= 0.0).all()):
        raise ValueError("node variances must be finite and non-negative")
    t, g = np.moveaxis(c2, 0, -1)  # TDOA and AoA rows, each 4 x N
    tv, gv = t * var, g * var
    s_t, s_a = meas.sigma_tdoa_s, meas.sigma_aoa_rad  # squared by multiplying: no libm pow
    m00 = s_t * s_t + (t[0] * tv[0] + t[1] * tv[1] + t[2] * tv[2] + t[3] * tv[3])
    m01 = t[0] * gv[0] + t[1] * gv[1] + t[2] * gv[2] + t[3] * gv[3]
    m11 = s_a * s_a + (g[0] * gv[0] + g[1] * gv[1] + g[2] * gv[2] + g[3] * gv[3])
    a, b, c, d = np.moveaxis(c1.reshape(-1, 4), 0, -1)
    det = a * d - b * c
    with np.errstate(divide="ignore", invalid="ignore"):
        b00, b01, b10, b11 = d / det, -b / det, -c / det, a / det
        s_max = (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2.0
        condition = s_max * s_max / np.abs(det)
        bm00, bm01 = b00 * m00 + b01 * m01, b00 * m01 + b01 * m11  # first row of B M
        bm10, bm11 = b10 * m00 + b11 * m01, b10 * m01 + b11 * m11
        p00 = bm00 * b00 + bm01 * b01
        p01 = bm00 * b10 + bm01 * b11
        p11 = bm10 * b10 + bm11 * b11
    p_dp = np.stack([p00, p01, p01, p11], axis=-1).reshape(-1, 2, 2)
    return p_dp, condition


def _node_arrays(pairs: Sequence[BistaticPair]) -> tuple:
    """The `gdop_arrays` inputs of ``pairs``: n1 and n2 coordinates, the
    node variances and the MODE2 mask, one row per pair."""
    rows = np.array([
        (p.n1.x, p.n1.y, p.n2.x, p.n2.y, p.n1.sigma_x, p.n1.sigma_y,
         p.n2.sigma_x, p.n2.sigma_y, p.mode is Mode.MODE2) for p in pairs
    ], dtype=float).reshape(-1, 9)
    return rows[:, 0:2], rows[:, 2:4], rows[:, 4:8] * rows[:, 4:8], rows[:, 8] == 1.0


def _rms(p_dp: np.ndarray) -> np.ndarray:
    return np.sqrt(p_dp[..., 0, 0] + p_dp[..., 1, 1])


def gdop_arrays(n1_xy, n2_xy, var, mode2, x, y, err: MeasurementErrorModel) -> np.ndarray:
    """Predicted RMS position error of N geometries, NaN where degenerate.

    Row i is the pair of nodes at ``n1_xy[i]`` and ``n2_xy[i]`` (N x 2)
    with coordinate variances ``var[i]`` (sigma squared of x1, y1, x2,
    y2; N x 4), receiving at n1 where ``mode2[i]`` and at n2 elsewhere,
    and the target ``(x[i], y[i])``; the nodes or the targets set N, any
    other input may be one row for all.  A row is NaN where the target
    sits on a node (or is not finite) or C1 is conditioned worse than
    CONDITION_LIMIT, and ValueError is raised where `NodePosition` or
    `BistaticPair` would: non-finite coordinates, coincident nodes, a
    negative variance.
    """
    c1, c2, off_node = _jacobians(n1_xy, n2_xy, mode2, x, y)
    p_dp, condition = _covariance(c1, c2, err, var)
    usable = off_node & (condition <= CONDITION_LIMIT)
    with np.errstate(invalid="ignore"):
        return np.where(usable, _rms(p_dp), np.nan)


def gdop_batch(pairs: Sequence[BistaticPair], x, y, err: MeasurementErrorModel) -> np.ndarray:
    """`gdop_arrays` of ``pairs``, one pair or N pairs, at the targets
    ``x`` and ``y``, scalars or length-N arrays broadcast against the
    pairs.
    """
    n1_xy, n2_xy, var, mode2 = _node_arrays(pairs)
    return gdop_arrays(n1_xy, n2_xy, var, mode2, x, y, err)

