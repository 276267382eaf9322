"""End-to-end acceptance gate.

Eight numbered criteria cover geometry inversion, the signal-level
measurement chain at both bandwidths, dilution-of-precision validity,
bistatic and multistatic localization accuracy, Doppler-based velocity
recovery, and the formal property suites. Each test prints one
pass/fail line with the measured values.

The signal-level sweeps are shared through a module-scoped cache since
each takes minutes; criteria that reuse a sweep inherit its timing.
"""

import io
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import bistar.gdop as gdop_module
from bistar import (
    BistaticPair,
    Measurement,
    MeasurementErrorModel,
    Mode,
    MotionConfig,
    NodePosition,
    RadarParams,
    TargetState,
    bistatic_ranges,
    collinearity_deg,
    locate_batch,
    locate_bistatic,
    preset_scenario,
    run_doppler,
    run_iso_range_sweep,
    run_multistatic,
    solve_multistatic_batch,
    true_aoa,
    true_tdoa,
    write_sweep_csv,
)
from bistar.config import ENGINE_MODEL
from bistar.fusion import _linearize, _prepare
from bistar.geometry import SPEED_OF_LIGHT
from bistar.harness import STATUS_OK

# Minutes of signal-level sweeps: `pytest -m "not slow"` skips the gate.
pytestmark = pytest.mark.slow

WORKERS = 4


class SweepStore:
    """Lazy cache of signal-level sweeps with per-sweep wall times."""

    def __init__(self):
        self.results = {}
        self.elapsed = {}

    def get(self, name, mhz):
        key = (name, mhz)
        if key not in self.results:
            cfg = preset_scenario(name, bandwidth_mhz=mhz)
            start = time.perf_counter()
            self.results[key] = run_iso_range_sweep(cfg, workers=WORKERS)
            self.elapsed[key] = time.perf_counter() - start
        return self.results[key]


@pytest.fixture(scope="module")
def sweeps():
    return SweepStore()


def random_pair(rng, min_baseline=1.0):
    while True:
        n1 = NodePosition(*rng.uniform(-50.0, 50.0, 2))
        n2 = NodePosition(*rng.uniform(-50.0, 50.0, 2))
        if math.hypot(n2.x - n1.x, n2.y - n1.y) >= min_baseline:
            return n1, n2


def random_clear_target(rng, pair, min_collinear=2.0, min_standoff=0.5):
    while True:
        target = TargetState(*rng.uniform(-60.0, 60.0, 2))
        if collinearity_deg(pair, target) < min_collinear:
            continue
        if any(
            math.hypot(target.x - n.x, target.y - n.y) < min_standoff
            for n in (pair.n1, pair.n2)
        ):
            continue
        return target


def test_c1_geometry_round_trip(report):
    rng = np.random.default_rng(2026)
    worst = 0.0
    count = 10_000
    start = time.perf_counter()
    for _ in range(count):
        n1, n2 = random_pair(rng)
        probe = BistaticPair(n1, n2, Mode.MODE1)
        target = random_clear_target(rng, probe)
        for mode in (Mode.MODE1, Mode.MODE2):
            pair = BistaticPair(n1, n2, mode)
            meas = Measurement(
                tdoa_s=true_tdoa(pair, target),
                aoa_rad=true_aoa(pair.rx_node, target),
                mode=mode,
            )
            x, y = locate_bistatic(pair, meas)
            worst = max(worst, math.hypot(x - target.x, y - target.y))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    report(
        1,
        ok,
        f"{count} configs x 2 modes, max round-trip error {worst:.3e} m, "
        f"{elapsed:.2f} s",
    )


def test_c2_tdoa_quantization_lattice(report, sweeps):
    s1 = sweeps.get("scenario1", 100)
    s2 = sweeps.get("scenario2", 100)
    elapsed = sweeps.elapsed[("scenario1", 100)] + sweeps.elapsed[("scenario2", 100)]

    s1_ok = [r for r in s1.rows if r.status == STATUS_OK]
    lattice = {round(r.tdoa_meas_ns, 2) for r in s1_ok}
    on_lattice = lattice <= {8.14, 16.28}
    errs = [abs(r.tdoa_err_ns) for r in s1_ok]
    in_band = min(errs) >= 1.86 and max(errs) <= 6.28

    s2_ok = [r for r in s2.rows if r.status == STATUS_OK]
    s2_vals = [r.tdoa_meas_ns for r in s2_ok]
    single_step = max(abs(v - 48.84) for v in s2_vals) <= 0.05

    ok = on_lattice and in_band and single_step and elapsed < 300.0
    report(
        2,
        ok,
        f"scenario1 lattice {sorted(lattice)} ns, |err| in "
        f"[{min(errs):.2f}, {max(errs):.2f}] ns over {len(s1_ok)} points; "
        f"scenario2 all {len(s2_ok)} valid points at "
        f"{s2_vals[0]:.2f} ns; {elapsed:.0f} s",
    )


def test_c3_mean_measurement_errors(report, sweeps):
    bands_100 = {"scenario1": 4.2, "scenario2": 1.21, "scenario3": 3.55}
    details = []
    ok = True
    for name, center in bands_100.items():
        summary = sweeps.get(name, 100).summary
        tdoa = summary["mean_abs_tdoa_err_ns"]
        aoa = summary["mean_abs_aoa_err_deg"]
        ok &= 0.5 * center <= tdoa <= 1.5 * center and aoa < 1.0
        details.append(f"{name}@100: {tdoa:.2f} ns (target {center}), {aoa:.2f} deg")
    for name in ("scenario1", "scenario3"):
        summary = sweeps.get(name, 400).summary
        tdoa = summary["mean_abs_tdoa_err_ns"]
        aoa = summary["mean_abs_aoa_err_deg"]
        ok &= tdoa <= 0.5 and aoa < 1.0
        details.append(f"{name}@400: {tdoa:.2f} ns, {aoa:.2f} deg")
    report(3, ok, "; ".join(details))


def test_c4_gdop_predicts_monte_carlo(report):
    cfg = preset_scenario("scenario1")
    cfg.engine = ENGINE_MODEL
    cfg.trials_per_point = 800
    cfg.error_override = MeasurementErrorModel(1e-10, math.radians(0.5))
    start = time.perf_counter()
    result = run_iso_range_sweep(cfg, workers=WORKERS)
    elapsed = time.perf_counter() - start

    rows = [r for r in result.rows if r.status == STATUS_OK]
    ratios = []
    agree = 0
    for row in rows:
        ratios.append(row.err_rms_mode1_m / row.gdop_mode1_m)
        ratios.append(row.err_rms_mode2_m / row.gdop_mode2_m)
        empirical = (
            Mode.MODE1 if row.err_rms_mode1_m <= row.err_rms_mode2_m else Mode.MODE2
        )
        # The mode with the smaller predicted error, MODE1 on a tie.
        predicted = Mode.MODE1 if row.gdop_mode1_m <= row.gdop_mode2_m else Mode.MODE2
        agree += empirical is predicted
    ratio_lo, ratio_hi = min(ratios), max(ratios)
    fraction = agree / len(rows)
    ok = ratio_lo >= 0.85 and ratio_hi <= 1.15 and fraction >= 0.90 and elapsed < 120.0
    report(
        4,
        ok,
        f"RMS/gdop in [{ratio_lo:.3f}, {ratio_hi:.3f}] over {len(rows)} points, "
        f"mode agreement {fraction:.1%}, {elapsed:.0f} s",
    )


def test_c5_bistatic_localization_error(report):
    bands = {
        100: ((0.3, 0.9), (0.315, 0.943)),
        400: ((0.05, 0.2), (0.06, 0.24)),
    }
    details = []
    ok = True
    for mhz, (band1, band2) in bands.items():
        cfg = preset_scenario("scenario3", bandwidth_mhz=mhz)
        cfg.engine = ENGINE_MODEL
        cfg.trials_per_point = 100
        summary = run_iso_range_sweep(cfg, workers=WORKERS).summary
        m1 = summary["mean_err_mode1_m"]
        m2 = summary["mean_err_mode2_m"]
        ok &= band1[0] <= m1 <= band1[1] and band2[0] <= m2 <= band2[1]
        details.append(f"@{mhz}: mode1 {m1:.3f} m, mode2 {m2:.3f} m")
    report(5, ok, "; ".join(details))


def test_c6_multistatic_fusion(report):
    limits = {100: 0.7, 400: 0.05}
    details = []
    ok = True
    for mhz, limit in limits.items():
        cfg = preset_scenario("scenario3", bandwidth_mhz=mhz)
        cfg.engine = ENGINE_MODEL
        cfg.trials_per_point = 10
        result = run_multistatic(cfg, workers=WORKERS)
        fused = result.summary["mean_err_fused_m"]
        wins = result.summary["fused_win_fraction"]
        ok &= fused <= limit and wins >= 0.80
        details.append(f"@{mhz}: fused {fused:.3f} m (limit {limit}), wins {wins:.1%}")
    report(6, ok, "; ".join(details))


def test_c7_velocity_recovery(report):
    cfg = preset_scenario("scenario3")
    cfg.motion = MotionConfig(speed_mps=0.2, theta2_deg=60.0, pulses=64)
    start = time.perf_counter()
    result = run_doppler(cfg)
    elapsed = time.perf_counter() - start
    ok = result.speed_err_mps <= 0.05 and elapsed < 120.0
    report(
        7,
        ok,
        f"64 pulses: speed {result.speed_est_mps:.4f} m/s vs 0.2 m/s, "
        f"error {result.speed_err_mps:.4f} m/s, {elapsed:.0f} s",
    )


def _kernel_row(pair, target, err=MeasurementErrorModel(0.0, 0.0)):
    """C1, C2 and P of one geometry: a one-row batch of the GDOP kernel."""
    n1_xy, n2_xy, var, mode2 = gdop_module._node_arrays([pair])
    c1, c2, _ = gdop_module._jacobians(n1_xy, n2_xy, mode2, target.x, target.y)
    return c1[0], c2[0], gdop_module._covariance(c1, c2, err, var)[0][0]


def _fusion_columns(pairs, tdoa, aoa):
    """One fusion problem as a one-row batch: transmitter and receiver
    coordinates, TDOAs and AoAs of its pairs."""
    return (
        [[(p.tx_node.x, p.tx_node.y) for p in pairs]],
        [[(p.rx_node.x, p.rx_node.y) for p in pairs]],
        [tdoa],
        [aoa],
    )


def _check_jacobians(rng, trials=20):
    """Max relative finite-difference mismatch across random setups."""
    worst = 0.0
    h = 1e-6
    for _ in range(trials):
        n1, n2 = random_pair(rng)
        mode = Mode.MODE1 if rng.random() < 0.5 else Mode.MODE2
        pair = BistaticPair(n1, n2, mode)
        target = random_clear_target(rng, pair)

        def meas_vec(t):
            return np.array(
                [true_tdoa(pair, t), true_aoa(pair.rx_node, t)]
            )

        fd = np.empty((2, 2))
        fd[:, 0] = (
            meas_vec(TargetState(target.x + h, target.y))
            - meas_vec(TargetState(target.x - h, target.y))
        ) / (2 * h)
        fd[:, 1] = (
            meas_vec(TargetState(target.x, target.y + h))
            - meas_vec(TargetState(target.x, target.y - h))
        ) / (2 * h)
        c1, c2, _ = _kernel_row(pair, target)
        scale = np.maximum(np.abs(c1), 1e-6)
        worst = max(worst, float(np.max(np.abs(c1 - fd) / scale)))

        fd2 = np.empty((2, 4))
        for j, (node, attr) in enumerate(
            [(pair.n1, "x"), (pair.n1, "y"), (pair.n2, "x"), (pair.n2, "y")]
        ):
            def shifted(sign):
                kw1 = {"x": pair.n1.x, "y": pair.n1.y}
                kw2 = {"x": pair.n2.x, "y": pair.n2.y}
                (kw1 if node is pair.n1 else kw2)[attr] += sign * h
                moved = BistaticPair(
                    NodePosition(kw1["x"], kw1["y"], pair.n1.sigma_x, pair.n1.sigma_y),
                    NodePosition(kw2["x"], kw2["y"], pair.n2.sigma_x, pair.n2.sigma_y),
                    mode,
                )
                return np.array(
                    [true_tdoa(moved, target), true_aoa(moved.rx_node, target)]
                )

            fd2[:, j] = (shifted(+1) - shifted(-1)) / (2 * h)
        scale2 = np.maximum(np.abs(c2), 1e-6)
        worst = max(worst, float(np.max(np.abs(c2 - fd2) / scale2)))

        # Fusion residual jacobian on a 3-pair problem.
        pairs = [BistaticPair(*random_pair(rng), Mode.MODE1) for _ in range(3)]
        fused_target = random_clear_target(rng, pairs[0])
        columns = _fusion_columns(
            pairs,
            [true_tdoa(p, fused_target) for p in pairs],
            [true_aoa(p.rx_node, fused_target) for p in pairs],
        )
        x = fused_target.x + 0.7
        y = fused_target.y - 0.4
        stack = _prepare(*columns, 1.0, 1.0, 1.0)
        # Rows: the candidate and its four central-difference neighbours.
        points = np.array([[x, y], [x + h, y], [x - h, y], [x, y + h], [x, y - h]])
        res, jacs, _ = _linearize(stack, points)
        res, jac = res.reshape(5, -1), jacs[0].reshape(-1, 2)
        fdj = np.stack([res[1] - res[2], res[3] - res[4]], axis=1) / (2 * h)
        scale3 = np.maximum(np.abs(jac), 1e-3)
        worst = max(worst, float(np.max(np.abs(jac - fdj) / scale3)))
    return worst


def _check_covariance_psd(rng, trials=50):
    err = MeasurementErrorModel(2e-9, math.radians(0.5))
    worst_asym = 0.0
    worst_eig = 0.0
    for _ in range(trials):
        n1, n2 = random_pair(rng)
        n1 = NodePosition(n1.x, n1.y, 0.01, 0.02)
        n2 = NodePosition(n2.x, n2.y, 0.015, 0.01)
        pair = BistaticPair(n1, n2, Mode.MODE2)
        target = random_clear_target(rng, pair)
        cov = _kernel_row(pair, target, err)[2]
        scale = max(abs(cov).max(), 1e-30)
        worst_asym = max(worst_asym, float(abs(cov - cov.T).max() / scale))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(cov).min() / scale))
    return worst_asym, worst_eig


def _check_lm_properties(rng):
    """Monotone acceptance and single-pair equivalence to closed form."""
    worst_gap = -math.inf
    for _ in range(25):
        pairs = [BistaticPair(*random_pair(rng), Mode.MODE1) for _ in range(3)]
        target = random_clear_target(rng, pairs[0])
        tdoa, aoa = [], []
        for p in pairs:
            tdoa.append(max(true_tdoa(p, target) + rng.normal(0.0, 2e-9), 0.0))
            aoa.append(true_aoa(p.rx_node, target) + rng.normal(0.0, 0.02))
        columns = _fusion_columns(pairs, tdoa, aoa)
        guess = [(target.x + rng.uniform(-5, 5), target.y + rng.uniform(-5, 5))]
        result = solve_multistatic_batch(*columns, guess)
        # The loss at the guess, where the solver starts.
        (idle_loss,) = _linearize(_prepare(*columns, 1.0, 1.0, 1.0), np.array(guess))[2]
        worst_gap = max(worst_gap, result.loss[0] - idle_loss)

    worst_dist = 0.0
    for _ in range(20):
        mode = Mode.MODE1 if rng.random() < 0.5 else Mode.MODE2
        pair = BistaticPair(*random_pair(rng), mode)
        target = random_clear_target(rng, pair)
        meas = Measurement(
            tdoa_s=true_tdoa(pair, target),
            aoa_rad=true_aoa(pair.rx_node, target),
            mode=mode,
        )
        cx, cy = locate_bistatic(pair, meas)
        columns = _fusion_columns([pair], [meas.tdoa_s], [meas.aoa_rad])
        guess = locate_batch(*(np.asarray(column[0], dtype=float) for column in columns))
        (x, y), = solve_multistatic_batch(*columns, guess).xy.tolist()
        worst_dist = max(worst_dist, math.hypot(x - cx, y - cy))
    return worst_gap, worst_dist


def _check_determinism():
    cfg = preset_scenario("scenario1", seed=4)
    cfg.engine = ENGINE_MODEL
    cfg.trials_per_point = 2
    model_csv = []
    for workers in (1, 4):
        buffer = io.StringIO()
        write_sweep_csv(run_iso_range_sweep(cfg, workers=workers), buffer)
        model_csv.append(buffer.getvalue())

    signal_cfg = preset_scenario("scenario1", seed=4)
    signal_cfg.sweep_points = 12
    signal_csv = []
    for workers in (1, 3):
        buffer = io.StringIO()
        write_sweep_csv(run_iso_range_sweep(signal_cfg, workers=workers), buffer)
        signal_csv.append(buffer.getvalue())
    return model_csv[0] == model_csv[1], signal_csv[0] == signal_csv[1]


def _check_tdoa_identity(rng, trials=200):
    worst = 0.0
    for _ in range(trials):
        pair = BistaticPair(*random_pair(rng), Mode.MODE1)
        target = TargetState(*rng.uniform(-60.0, 60.0, 2))
        r1, r2 = bistatic_ranges(pair, target)
        direct = (r1 + r2 - pair.baseline) / SPEED_OF_LIGHT
        modeled = true_tdoa(pair, target)
        worst = max(worst, abs(modeled - direct) / max(abs(direct), 1e-15))
    return worst


def test_c8_property_suites(report):
    rng = np.random.default_rng(88)
    jac_worst = _check_jacobians(rng)
    asym, eig = _check_covariance_psd(rng)
    lm_gap, lm_dist = _check_lm_properties(rng)
    model_same, signal_same = _check_determinism()
    identity = _check_tdoa_identity(rng)
    ok = (
        jac_worst < 1e-5
        and asym < 1e-12
        and eig > -1e-9
        and lm_gap <= 1e-12
        and lm_dist < 1e-6
        and model_same
        and signal_same
        and identity < 1e-12
    )
    report(
        8,
        ok,
        f"jacobian FD mismatch {jac_worst:.1e}, covariance asymmetry {asym:.1e}, "
        f"min eigenvalue ratio {eig:.1e}, LM loss gap {lm_gap:.1e}, "
        f"single-pair gap {lm_dist:.1e} m, deterministic CSV "
        f"(model {model_same}, signal {signal_same}), "
        f"range-sum identity {identity:.1e}",
    )
