"""Dilution of precision for TDOA/AoA bistatic localization.

Propagates measurement noise and node position uncertainty through the
linearized measurement model to a position error covariance, and selects
the transmit direction with the smaller predicted error.  One stacked
kernel, `gdop_batch`, evaluates N geometries at once; the scalar
functions are its one-row views.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import MIN_RANGE_M, SPEED_OF_LIGHT, BistaticPair, Mode, TargetState

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


@dataclass(frozen=True)
class GdopReport:
    """Intermediate matrices and the scalar dilution value for one geometry."""

    c1: np.ndarray
    c2: np.ndarray
    p_dp: np.ndarray
    gdop_m: float
    mode: Mode


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # math.hypot, as bistatic_ranges uses: np.hypot differs in the last bit.
    return np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=float)


def _jacobians(
    pairs: Sequence[BistaticPair], x, y
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked C1 (N x 2 x 2), C2 (N x 2 x 4) and the rows off the nodes.

    C1 is the Jacobian of (TDOA, AoA at the receiving node) w.r.t. the
    target (x, y); C2 the Jacobian w.r.t. the node coordinates (x1, y1,
    x2, y2): per node, minus its unit vector toward the target minus its
    baseline direction, over c, in the TDOA row; the AoA row is the
    negated target gradient in the receiving node's columns only.  Rows
    whose target sits on a node (or is not finite) hold an identity C1
    and a zero C2 so the stacked SVDs stay finite; the mask refuses them.
    """
    n1x, n1y, n2x, n2y, length = np.array(
        [(p.n1.x, p.n1.y, p.n2.x, p.n2.y, p.baseline) for p in pairs], dtype=float
    ).reshape(-1, 5).T
    mode2 = np.array([p.mode is Mode.MODE2 for p in pairs])
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


def _covariance(
    c1: np.ndarray, c2: np.ndarray, meas: MeasurementErrorModel, pairs: Sequence[BistaticPair]
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked P = B (R_z + C2 R_x C2^T) B^T and the condition numbers of C1."""
    r_z = np.diag([meas.sigma_tdoa_s**2, meas.sigma_aoa_rad**2])
    r_x = np.zeros((len(pairs), 4, 4))
    r_x[:, range(4), range(4)] = np.array(
        [(p.n1.sigma_x**2, p.n1.sigma_y**2, p.n2.sigma_x**2, p.n2.sigma_y**2) for p in pairs]
    ).reshape(-1, 4)
    b = np.linalg.pinv(c1)
    p_dp = b @ (r_z + c2 @ r_x @ np.swapaxes(c2, -1, -2)) @ np.swapaxes(b, -1, -2)
    return p_dp, np.linalg.cond(c1)


def _rms(p_dp: np.ndarray) -> np.ndarray:
    return np.sqrt(np.trace(p_dp, axis1=-2, axis2=-1))


def gdop_batch(pairs: Sequence[BistaticPair], x, y, err: MeasurementErrorModel) -> np.ndarray:
    """Predicted RMS position error of N geometries, NaN where degenerate.

    ``pairs`` holds one pair or N pairs; ``x`` and ``y`` are the target
    coordinates, scalars or length-N arrays, broadcast against the pairs.
    A row is NaN exactly where `gdop` raises: the target on a node, or
    C1 conditioned worse than CONDITION_LIMIT.  Every row equals the
    `gdop` value of its geometry bit for bit.
    """
    c1, c2, off_node = _jacobians(pairs, x, y)
    p_dp, condition = _covariance(c1, c2, err, pairs)
    usable = off_node & (condition <= CONDITION_LIMIT)
    with np.errstate(invalid="ignore"):
        return np.where(usable, _rms(p_dp), np.nan)


def _one_row(pair: BistaticPair, target: TargetState) -> tuple[np.ndarray, np.ndarray]:
    c1, c2, off_node = _jacobians([pair], target.x, target.y)
    if not off_node[0]:
        raise DegenerateGeometryError("target coincides with a node")
    return c1[0], c2[0]


def jacobian_c1(pair: BistaticPair, target: TargetState) -> np.ndarray:
    """2x2 Jacobian of (TDOA, AoA at the receiving node) w.r.t. target (x, y)."""
    return _one_row(pair, target)[0]


def jacobian_c2(pair: BistaticPair, target: TargetState) -> np.ndarray:
    """2x4 Jacobian of (TDOA, AoA) w.r.t. node coordinates (x1, y1, x2, y2)."""
    return _one_row(pair, target)[1]


def error_covariance(
    c1: np.ndarray, c2: np.ndarray, meas: MeasurementErrorModel, pair: BistaticPair
) -> np.ndarray:
    """2x2 position error covariance from measurement and node noise.

    Solves the linearized model dZ = C1 dp + C2 dX for dp with the
    pseudo-inverse B of C1, giving

        P = B (R_z + C2 R_x C2^T) B^T

    where R_z holds the measurement variances and R_x the node
    coordinate variances.  B is computed by SVD rather than through the
    normal equations because the TDOA row (seconds per meter) and the
    AoA row (radians per meter) differ in scale by seven orders of
    magnitude, and forming C1^T C1 would square that imbalance.

    Raises:
        DegenerateGeometryError: when C1 is ill conditioned
            (condition number above CONDITION_LIMIT).
    """
    c1 = np.asarray(c1, dtype=float)[None]
    c2 = np.asarray(c2, dtype=float)[None]
    p_dp, condition = _covariance(c1, c2, meas, [pair])
    if not condition[0] <= CONDITION_LIMIT:
        raise DegenerateGeometryError(
            f"measurement Jacobian condition number {condition[0]:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}"
        )
    return p_dp[0]


def gdop(pair: BistaticPair, target: TargetState, meas: MeasurementErrorModel) -> GdopReport:
    """Predicted RMS position error for one pair, target, and error model."""
    c1, c2 = _one_row(pair, target)
    p_dp = error_covariance(c1, c2, meas, pair)
    return GdopReport(c1=c1, c2=c2, p_dp=p_dp, gdop_m=float(_rms(p_dp)), mode=pair.mode)


def select_mode(
    pair: BistaticPair, target: TargetState, meas: MeasurementErrorModel
) -> Mode:
    """Transmit direction with the lower predicted error; ties pick MODE1."""
    pairs = [replace(pair, mode=Mode.MODE1), replace(pair, mode=Mode.MODE2)]
    g1, g2 = gdop_batch(pairs, target.x, target.y, meas).tolist()
    if math.isnan(g1) and math.isnan(g2):
        raise DegenerateGeometryError("both transmit directions are degenerate")
    return Mode.MODE1 if math.isnan(g2) or g1 <= g2 else Mode.MODE2
