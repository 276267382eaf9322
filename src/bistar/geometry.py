"""Exact 2-D geometry for one bistatic transmitter/receiver pair.

Forward models (true delay difference, angle of arrival, received echo
SNR) and their inverses (target position from a TDOA/AoA pair, iso-range
parameterization of constant bistatic range contours). Angles are in
radians internally; degrees appear only at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateGeometryError

if TYPE_CHECKING:  # pragma: no cover
    from .estimation import Measurement

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
BOLTZMANN = 1.380649e-23  # J/K

# Below this separation two points are treated as coincident.
MIN_RANGE_M = 1e-9


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """`wrap_angle` of every element, bit for bit.

    Both compute the one value in (-pi, pi] that differs from the angle
    by a multiple of the float 2*pi, and every step is exact: ``fmod``
    and ``remainder`` always are, and the +-2*pi shifts subtract numbers
    within a factor two of each other.
    """
    turn = 2.0 * math.pi
    wrapped = np.fmod(angles, turn)
    wrapped = np.where(wrapped > math.pi, wrapped - turn, wrapped)
    return np.where(wrapped <= -math.pi, wrapped + turn, wrapped)


def ordered_sum(values):
    """Sums along the last axis, added left to right from 0.0, as Python
    floats: bit for bit the builtin `sum` of floats up to Python 3.11,
    where 3.12's compensates (``sum([1e16, 1.0, -1e16])`` is 1.0 there,
    0.0 here). A cumulative sum adds in order; numpy's `sum` is pairwise.
    """
    values = np.asarray(values, dtype=float)
    buffer = np.zeros((*values.shape[:-1], values.shape[-1] + 1))
    buffer[..., 1:] = values
    return np.cumsum(buffer, axis=-1)[..., -1].tolist()


class Mode(Enum):
    """Transmit direction of a pair: MODE1 is n1 -> n2, MODE2 is n2 -> n1."""

    MODE1 = 1
    MODE2 = 2


@dataclass(frozen=True)
class NodePosition:
    """A radar node location with per-axis position uncertainty.

    Args:
        x: east coordinate in meters.
        y: north coordinate in meters.
        sigma_x: standard deviation of the known x coordinate, meters.
        sigma_y: standard deviation of the known y coordinate, meters.
    """

    x: float
    y: float
    sigma_x: float = 0.0
    sigma_y: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x", "y", "sigma_x", "sigma_y"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.sigma_x < 0.0 or self.sigma_y < 0.0:
            raise ValueError("position uncertainties must be non-negative")


@dataclass(frozen=True)
class TargetState:
    """A point scatterer with optional velocity and radar cross section."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0
    rcs_dbsm: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x", "y", "vx", "vy", "rcs_dbsm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class BistaticPair:
    """Two nodes acting as one bistatic transmitter/receiver pair."""

    n1: NodePosition
    n2: NodePosition
    mode: Mode = Mode.MODE1

    def __post_init__(self) -> None:
        if self.baseline < MIN_RANGE_M:
            raise ValueError("nodes of a pair must not be coincident")

    @property
    def baseline(self) -> float:
        """Separation between the two nodes in meters."""
        return math.hypot(self.n2.x - self.n1.x, self.n2.y - self.n1.y)

    @property
    def tx_node(self) -> NodePosition:
        return self.n1 if self.mode is Mode.MODE1 else self.n2

    @property
    def rx_node(self) -> NodePosition:
        return self.n2 if self.mode is Mode.MODE1 else self.n1


@dataclass(frozen=True)
class RadarParams:
    """Link-budget and sampling parameters shared by all scenarios."""

    carrier_hz: float = 28e9
    bandwidth_hz: float = 100e6
    subcarrier_spacing_hz: float = 120e3
    eirp_dbm: float = 43.0
    tx_elements: int = 8
    rx_elements: int = 16
    noise_figure_db: float = 13.0
    sample_rate_hz: float = 122.88e6
    reference_temp_k: float = 290.0

    def __post_init__(self) -> None:
        if self.carrier_hz <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("carrier and bandwidth must be positive")
        if self.sample_rate_hz < self.bandwidth_hz:
            raise ValueError("sample rate must cover the signal bandwidth")
        if self.tx_elements < 1 or self.rx_elements < 1:
            raise ValueError("element counts must be at least 1")
        if self.subcarrier_spacing_hz <= 0 or self.reference_temp_k <= 0:
            raise ValueError("subcarrier spacing and temperature must be positive")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def eirp_w(self) -> float:
        return 10.0 ** ((self.eirp_dbm - 30.0) / 10.0)

    @property
    def noise_temp_k(self) -> float:
        """System noise temperature, reference temperature times the noise factor."""
        return self.reference_temp_k * 10.0 ** (self.noise_figure_db / 10.0)

    def noise_power_w(self) -> float:
        """Thermal noise power k*T_s*B in the signal bandwidth."""
        return BOLTZMANN * self.noise_temp_k * self.bandwidth_hz


def _range(a, b) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


def bistatic_ranges(pair: BistaticPair, target: TargetState) -> tuple[float, float]:
    """Distances (n1 to target, n2 to target) in meters.

    Raises DegenerateGeometryError if the target coincides with a node.
    """
    r1 = _range(pair.n1, target)
    r2 = _range(pair.n2, target)
    if r1 < MIN_RANGE_M or r2 < MIN_RANGE_M:
        raise DegenerateGeometryError("target coincides with a node")
    return r1, r2


def true_tdoa(pair: BistaticPair, target: TargetState) -> float:
    """Delay of the echo path relative to the direct path, in seconds.

    The echo travels n_tx -> target -> n_rx while the direct signal
    travels the baseline, so the difference is (R1 + R2 - L) / c. The
    result is zero when the target sits on the baseline segment and is
    independent of mode.
    """
    r1, r2 = bistatic_ranges(pair, target)
    return (r1 + r2 - pair.baseline) / SPEED_OF_LIGHT


def true_aoa(node: NodePosition, target) -> float:
    """Angle of arrival at ``node`` of a signal from ``target``, radians.

    Measured from the node's +y direction, increasing toward -x:
    atan2(x_node - x_target, y_target - y_node), in (-pi, pi]. A target
    straight above the node reads 0; one on the -x side reads +pi/2.
    """
    if _range(node, target) < MIN_RANGE_M:
        raise DegenerateGeometryError("target coincides with the node")
    return math.atan2(node.x - target.x, target.y - node.y)


def r2_from_measurements(tdoa_s: float, aoa_rad: float, baseline_m: float) -> float:
    """Receiver-to-target range implied by a TDOA/AoA measurement pair.

    Inverts the bistatic delay equation given the angle of arrival at
    the receiving node:

        R = (c^2 dT^2 + 2 c L dT) / (2 ((c dT + L) - L sin(theta)))

    The angle is expressed in the baseline frame of the receiving node:
    the transmitting node sits in the +pi/2 direction, so sin(theta) is
    the cosine of the angle between the arrival direction and the
    direction toward the transmitter. ``locate_bistatic`` performs that
    rotation for arbitrary node layouts.

    Args:
        tdoa_s: delay of the echo relative to the direct path, >= 0.
        aoa_rad: angle of arrival at the receiving node, baseline frame.
        baseline_m: node separation L, > 0.

    Returns:
        Range from the receiving node to the target in meters.
    """
    if tdoa_s < 0.0:
        raise ValueError("tdoa must be non-negative")
    if baseline_m <= 0.0:
        raise ValueError("baseline must be positive")
    numerator, denominator = _range_fraction(
        SPEED_OF_LIGHT * tdoa_s, baseline_m, math.sin(aoa_rad)
    )
    if denominator <= MIN_RANGE_M:
        raise DegenerateGeometryError(
            "tdoa/aoa combination puts the target at infinity along the baseline"
        )
    return numerator / denominator


def _range_fraction(excess, baseline, sine):
    """Numerator and denominator of `r2_from_measurements` from the excess
    path c*dT, the baseline and sin(theta); floats or arrays."""
    numerator = excess * excess + 2.0 * baseline * excess
    return numerator, 2.0 * ((excess + baseline) - baseline * sine)


def _inversion(east, north, tdoa, aoa):
    """Baseline, range fraction and (sin, cos) of the AoA of the
    closed-form inversion.

    ``east`` is receiver minus transmitter x and ``north`` transmitter
    minus receiver y, so (east, north) / L is the direction of the
    direct path's arrival, and the baseline-frame sin(theta) of
    `r2_from_measurements` is the cosine of the angle between it and
    the AoA: (cos aoa * north + sin aoa * east) / L, with no atan2.
    Runs on floats for `locate_bistatic` and on arrays for
    `locate_batch` with the same ufuncs (hypot, sin and cos, whose bits
    do not depend on numpy's SIMD dispatch), so the two agree bit for
    bit. A zero baseline divides by zero.
    """
    baseline = np.hypot(east, north)
    sin_aoa, cos_aoa = np.sin(aoa), np.cos(aoa)
    sine = (cos_aoa * north + sin_aoa * east) / baseline
    return baseline, _range_fraction(SPEED_OF_LIGHT * tdoa, baseline, sine), (sin_aoa, cos_aoa)


def locate_batch(
    tx_xy: np.ndarray, rx_xy: np.ndarray, tdoa_s: np.ndarray, aoa_rad: np.ndarray
) -> np.ndarray:
    """Closed-form target positions of N TDOA/AoA measurements, (N, 2).

    Row i inverts ``tdoa_s[i]`` and ``aoa_rad[i]`` (the global arrival
    angle at the receiving node) for the pair that transmits from
    ``tx_xy[i]`` and receives at ``rx_xy[i]`` (both N x 2), bit for bit
    as `locate_bistatic` does. Rows where that raises
    `DegenerateGeometryError` (coincident nodes, or a target at infinity
    along the baseline) are NaN, and so are rows with a NaN or infinite
    TDOA, AoA or node coordinate, without a warning.

    Raises:
        ValueError: if any finite TDOA is negative.
    """
    tx = np.asarray(tx_xy, dtype=float)
    rx = np.asarray(rx_xy, dtype=float)
    tdoa = np.asarray(tdoa_s, dtype=float)
    aoa = np.asarray(aoa_rad, dtype=float)
    finite = np.isfinite(tdoa)
    if np.any(finite & (tdoa < 0.0)):
        raise ValueError("tdoa must be non-negative")
    for column in (aoa, tx[:, 0], tx[:, 1], rx[:, 0], rx[:, 1]):
        finite &= np.isfinite(column)
    if not finite.all():  # non-finite rows invert zeros instead, then read NaN
        tdoa, aoa = np.where(finite, tdoa, 0.0), np.where(finite, aoa, 0.0)
        tx, rx = (np.where(finite[:, np.newaxis], xy, 0.0) for xy in (tx, rx))
    with np.errstate(divide="ignore", invalid="ignore"):
        baseline, (numerator, denominator), (sin_aoa, cos_aoa) = _inversion(
            rx[:, 0] - tx[:, 0], tx[:, 1] - rx[:, 1], tdoa, aoa
        )
    usable = finite & (baseline >= MIN_RANGE_M) & (denominator > MIN_RANGE_M)
    r_rx = numerator / np.where(usable, denominator, 1.0)
    xy = np.stack((rx[:, 0] - r_rx * sin_aoa, rx[:, 1] + r_rx * cos_aoa), axis=1)
    xy[~usable] = math.nan
    return xy


def locate_bistatic(pair: BistaticPair, meas: "Measurement") -> tuple[float, float]:
    """Closed-form target position from one TDOA/AoA measurement.

    The measurement's angle must be the global arrival angle at the
    receiving node implied by ``pair.mode``; it is rotated into the
    baseline frame before the range inversion, so any node layout and
    either transmit direction works. Returns (x, y) in meters. The
    one-row case of `locate_batch`, evaluated on floats because a
    one-row array call costs about twenty times as much.
    """
    mode = getattr(meas, "mode", None)
    if mode is not None and mode is not pair.mode:
        raise ValueError(f"measurement mode {mode} does not match pair mode {pair.mode}")
    if meas.tdoa_s < 0.0:
        raise ValueError("tdoa must be non-negative")
    rx, tx = pair.rx_node, pair.tx_node
    baseline, (numerator, denominator), (sin_aoa, cos_aoa) = _inversion(
        rx.x - tx.x, tx.y - rx.y, meas.tdoa_s, meas.aoa_rad
    )
    if baseline < MIN_RANGE_M or denominator <= MIN_RANGE_M:
        raise DegenerateGeometryError(
            "tdoa/aoa combination puts the target at infinity along the baseline"
        )
    r_rx = numerator / denominator
    return (float(rx.x - r_rx * sin_aoa), float(rx.y + r_rx * cos_aoa))


def collinearity_deg(pair: BistaticPair, target) -> float:
    """Angular distance in degrees of the target from the baseline line.

    Measured at node n2 between the target direction and the direction
    of n1 (or its opposite), so 0 means the nodes and target are
    collinear. Used to flag geometries where the direct signal masks the
    echo.
    """
    toward_target = true_aoa(pair.n2, target)
    toward_peer = true_aoa(pair.n2, pair.n1)
    delta = wrap_angle(toward_target - toward_peer)
    distance = min(abs(delta), math.pi - abs(delta))
    return math.degrees(distance)


def iso_range_point(
    pair: BistaticPair, sum_range_m: float, theta2_rad: float
) -> tuple[float, float]:
    """Point on the contour R1 + R2 = sum_range at angle theta2 from n2."""
    length = pair.baseline
    tdoa = (sum_range_m - length) / SPEED_OF_LIGHT
    relative = math.pi / 2.0 - wrap_angle(theta2_rad - true_aoa(pair.n2, pair.n1))
    r2 = r2_from_measurements(tdoa, relative, length)
    n2 = pair.n2
    return (n2.x - r2 * math.sin(theta2_rad), n2.y + r2 * math.cos(theta2_rad))


def sum_range_gradient(pair: BistaticPair, target) -> tuple[float, float]:
    """d(R1 + R2)/d(target x, y): the sum of the unit vectors from the nodes."""
    r1, r2 = bistatic_ranges(pair, target)
    return (
        (target.x - pair.n1.x) / r1 + (target.x - pair.n2.x) / r2,
        (target.y - pair.n1.y) / r1 + (target.y - pair.n2.y) / r2,
    )


def aoa_gradient(node: NodePosition, target) -> tuple[float, float]:
    """d(true_aoa)/d(target x, y), over the squared range so it stays finite
    when the target shares a y coordinate with the node."""
    dx = node.x - target.x
    dy = target.y - node.y
    r_sq = dx * dx + dy * dy
    if r_sq < 1e-18:
        raise DegenerateGeometryError("target coincides with the node")
    return (-dy / r_sq, -dx / r_sq)


def sum_range_rate(pair: BistaticPair, target: TargetState) -> float:
    """Time derivative of R1 + R2 for the target's velocity, m/s."""
    gx, gy = sum_range_gradient(pair, target)
    return target.vx * gx + target.vy * gy


def bistatic_snr(params: RadarParams, pair: BistaticPair, target: TargetState) -> float:
    """Received echo SNR in dB from the bistatic radar equation.

    SNR = EIRP * G_R * lambda^2 * sigma / ((4 pi)^3 (R1 R2)^2 k T_s B)
    with receive gain G_R equal to the receive element count and system
    temperature T_s derived from the noise figure. Constant along curves
    of constant R1 * R2 (Cassini ovals).
    """
    r1, r2 = bistatic_ranges(pair, target)
    rcs_m2 = 10.0 ** (target.rcs_dbsm / 10.0)
    gain_rx = float(params.rx_elements)
    wavelength = params.wavelength_m
    numerator = params.eirp_w * gain_rx * wavelength * wavelength * rcs_m2
    denominator = (
        (4.0 * math.pi) ** 3 * (r1 * r2) ** 2 * params.noise_power_w()
    )
    return 10.0 * math.log10(numerator / denominator)
