"""Harness orchestration: determinism, row bookkeeping, CSV output, CLI."""

import io
import math

import numpy as np
import pytest

from bistar import (
    BistaticPair,
    FusionProblem,
    SolverOptions,
    ConfigError,
    DegenerateGeometryError,
    GridSpec,
    DetectionError,
    Measurement,
    MeasurementErrorModel,
    Mode,
    MotionConfig,
    NodePosition,
    RadarParams,
    TargetState,
    collinearity_deg,
    compute_weights,
    gdop,
    iso_range_point,
    iso_range_target,
    locate_batch,
    locate_bistatic,
    preset_scenario,
    r2_from_measurements,
    run_doppler,
    run_gdop_map,
    run_iso_range_sweep,
    run_multistatic,
    solve_multistatic,
    true_aoa,
    true_tdoa,
    wrap_angle,
    write_multistatic_csv,
    write_sweep_csv,
)
from bistar import harness
from bistar.cli import main
from bistar.config import ENGINE_MODEL
from bistar.geometry import SPEED_OF_LIGHT
from bistar.harness import (
    STATUS_EXCLUDED,
    STATUS_OK,
    SweepRow,
    _SignalBench,
    _multistatic_point,
    _primary_pair,
    _resolve_survey_aoa,
    _sweep_point,
    deg360,
    moving_target,
    multistatic_nodes,
    summarize_sweep,
    theta_grid_deg,
    waveform_for_radar,
    write_doppler_csv,
    write_range_doppler_csv,
)


def model_config(name="scenario1", points=24, trials=2, seed=3):
    cfg = preset_scenario(name, seed=seed)
    cfg.engine = ENGINE_MODEL
    cfg.sweep_points = points
    cfg.trials_per_point = trials
    return cfg


class TestGridHelpers:
    def test_theta_grid(self):
        grid = theta_grid_deg(360)
        assert grid.size == 360
        assert grid[0] == 0.0 and grid[-1] == 359.0
        assert np.allclose(np.diff(theta_grid_deg(48)), 7.5)

    def test_deg360(self):
        assert deg360(-math.pi / 2) == pytest.approx(270.0)
        assert deg360(2 * math.pi + 0.1) == pytest.approx(math.degrees(0.1))

    def test_gridspec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1, 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0, 5, 0.0, 1.0, 5)


class TestResolveSurveyAoa:
    def test_keeps_or_flips_by_hint(self):
        """Each ambiguity candidate wins when the hint sits next to it."""
        bore, angle = 0.3, 0.8
        alias = math.pi + 2 * bore - angle  # front/back alias of the line array
        assert _resolve_survey_aoa(angle, bore, 0.7) == angle
        assert _resolve_survey_aoa(angle, bore, alias + 0.05) == wrap_angle(alias)
        assert _resolve_survey_aoa(angle, bore, 2 * bore - angle) == wrap_angle(2 * bore - angle)
        assert _resolve_survey_aoa(angle, bore, angle + math.pi - 0.05) == wrap_angle(
            angle + math.pi
        )


class TestWaveformForRadar:
    def test_known_numerologies(self):
        narrow = waveform_for_radar(RadarParams())
        assert (narrow.fft_size, narrow.occupied_subcarriers, narrow.cp_samples) == (
            1024,
            792,
            72,
        )
        wide = waveform_for_radar(preset_scenario("scenario1", 400).radar)
        assert (wide.fft_size, wide.occupied_subcarriers, wide.cp_samples) == (
            4096,
            3168,
            288,
        )

    def test_rejects_incompatible_sampling(self):
        bad = RadarParams(sample_rate_hz=100e6)
        with pytest.raises(ConfigError):
            waveform_for_radar(bad)
        with pytest.raises(ConfigError):
            waveform_for_radar(RadarParams(sample_rate_hz=184.32e6))
        with pytest.raises(ConfigError):
            waveform_for_radar(
                RadarParams(sample_rate_hz=61.44e6, bandwidth_hz=50e6)
            )


class TestMultistaticNodes:
    def test_two_node_expansion(self):
        cfg = preset_scenario("scenario3")
        nodes = multistatic_nodes(cfg)
        assert len(nodes) == 4
        assert nodes[0] == cfg.nodes[0] and nodes[1] == cfg.nodes[1]
        for extra in nodes[2:]:
            assert math.hypot(extra.x, extra.y) == pytest.approx(25.0)
            assert extra.sigma_x == cfg.nodes[1].sigma_x
        angles = sorted(
            math.degrees(math.atan2(n.y, n.x)) % 360.0 for n in nodes[1:]
        )
        assert angles == pytest.approx([0.0, 120.0, 240.0])

    def test_explicit_layout_passthrough(self):
        cfg = model_config()
        cfg.nodes = [
            NodePosition(0.0, 0.0),
            NodePosition(3.0, 0.0),
            NodePosition(0.0, 9.0),
            NodePosition(-5.0, 2.0),
        ]
        assert multistatic_nodes(cfg) == cfg.nodes


class TestMovingTarget:
    def test_velocity_is_inward_contour_normal(self):
        cfg = preset_scenario("scenario1")
        for theta in (35.0, 90.0, 200.0):
            state = moving_target(cfg, MotionConfig(speed_mps=0.3, theta2_deg=theta))
            assert math.hypot(state.vx, state.vy) == pytest.approx(0.3, rel=1e-12)
            n1, n2 = cfg.nodes[0], cfg.nodes[1]
            r1 = math.hypot(state.x - n1.x, state.y - n1.y)
            r2 = math.hypot(state.x - n2.x, state.y - n2.y)
            gx = (state.x - n1.x) / r1 + (state.x - n2.x) / r2
            gy = (state.y - n1.y) / r1 + (state.y - n2.y) / r2
            norm = math.hypot(gx, gy)
            # Anti-parallel to the range-sum gradient: straight inward.
            assert state.vx == pytest.approx(-0.3 * gx / norm, abs=1e-12)
            assert state.vy == pytest.approx(-0.3 * gy / norm, abs=1e-12)
            assert state.rcs_dbsm == cfg.rcs_dbsm


class TestSummarize:
    def fake_row(self, status=STATUS_OK, tdoa_err=1.0, mode1=2.0):
        return SweepRow(
            theta2_deg=0.0,
            x_m=0.0,
            y_m=0.0,
            tdoa_true_ns=0.0,
            tdoa_meas_ns=0.0,
            tdoa_err_ns=tdoa_err,
            aoa_true_deg=0.0,
            aoa_meas_deg=0.0,
            aoa_err_deg=0.5,
            err_mode1_m=mode1,
            err_mode2_m=3.0,
            err_rms_mode1_m=mode1,
            err_rms_mode2_m=3.0,
            gdop_mode1_m=1.0,
            gdop_mode2_m=2.0,
            status=status,
        )

    def test_only_ok_rows_counted(self):
        rows = [
            self.fake_row(tdoa_err=-2.0, mode1=1.0),
            self.fake_row(tdoa_err=4.0, mode1=3.0),
            self.fake_row(status=STATUS_EXCLUDED, tdoa_err=99.0, mode1=99.0),
        ]
        summary = summarize_sweep(rows)
        assert summary["points"] == 3.0
        assert summary["ok_points"] == 2.0
        assert summary["mean_abs_tdoa_err_ns"] == pytest.approx(3.0)
        assert summary["mean_err_mode1_m"] == pytest.approx(2.0)

    def test_empty_ok_set_gives_nan(self):
        summary = summarize_sweep([self.fake_row(status="fail:detect")])
        assert math.isnan(summary["mean_abs_tdoa_err_ns"])


class TestSweepRuns:
    def test_row_layout_and_exclusion(self):
        cfg = model_config(points=24, trials=1)
        result = run_iso_range_sweep(cfg)
        assert len(result.rows) == 24
        assert [r.theta2_deg for r in result.rows] == list(theta_grid_deg(24))
        # The exclusion wedge flags near-collinear contour points and
        # leaves their measurement columns blank.
        pair = BistaticPair(cfg.nodes[0], cfg.nodes[1], Mode.MODE1)
        excluded = [r for r in result.rows if r.status == STATUS_EXCLUDED]
        assert excluded
        for row in result.rows:
            near = collinearity_deg(pair, TargetState(row.x_m, row.y_m))
            assert (row.status == STATUS_EXCLUDED) == (near < cfg.exclusion_deg)
        assert math.isnan(excluded[0].tdoa_err_ns)
        ok = [r for r in result.rows if r.status == STATUS_OK]
        assert len(ok) >= 18
        for row in ok:
            assert row.err_rms_mode1_m >= abs(row.err_mode1_m) - 1e-12
        assert result.summary == summarize_sweep(result.rows)

    def test_deterministic_per_seed(self):
        a = run_iso_range_sweep(model_config(seed=9))
        b = run_iso_range_sweep(model_config(seed=9))
        c = run_iso_range_sweep(model_config(seed=10))
        assert a == b
        assert a != c

    def test_csv_identical_across_workers(self):
        serial, threaded = io.StringIO(), io.StringIO()
        write_sweep_csv(run_iso_range_sweep(model_config(), workers=1), serial)
        write_sweep_csv(run_iso_range_sweep(model_config(), workers=4), threaded)
        assert serial.getvalue() == threaded.getvalue()
        header = serial.getvalue().splitlines()[0]
        assert header.startswith("theta2_deg,x_m,y_m,")
        assert "# mean_abs_tdoa_err_ns" in serial.getvalue()

    def test_csv_floats_are_plain_reprs(self):
        signal = preset_scenario("scenario3", seed=5)
        signal.sweep_points = 4
        for cfg in (signal, model_config(points=8, trials=1)):
            out = io.StringIO()
            write_sweep_csv(run_iso_range_sweep(cfg), out)
            assert "np." not in out.getvalue()
            assert out.getvalue().splitlines()[1].startswith("0.0,")

    def test_modes_share_delayed_frames_bit_for_bit(self):
        cfg = preset_scenario("scenario3", seed=6)
        bench = _SignalBench(cfg)
        target = iso_range_target(
            _primary_pair(cfg), cfg.sum_range, math.radians(50.0), cfg.rcs_dbsm
        )
        shared: dict = {}
        for mode in (Mode.MODE1, Mode.MODE2):
            pair = _primary_pair(cfg, mode)
            key = (cfg.seed, 0, 0, 1, mode.value)
            alone = bench.measure(pair, target, key)
            assert bench.measure(pair, target, key, shared) == alone
        assert len(shared) == 1

    def test_model_engine_requires_error_model(self):
        cfg = model_config()
        cfg.error_override = None
        with pytest.raises(ConfigError):
            run_iso_range_sweep(cfg)


def reference_sweep_point(cfg, index, theta_deg):
    """One model-engine contour point by a per-trial scalar loop over the
    v2 draws: one substream per point and purpose, trial t reading row t."""
    err = cfg.error_override
    trials = cfg.trials_per_point
    nodes = cfg.nodes[:2]
    x, y = iso_range_point(_primary_pair(cfg), cfg.sum_range, math.radians(theta_deg))
    target = TargetState(x, y)

    def draws(*key, shape):
        seq = np.random.SeedSequence([cfg.seed, index, 0, *key])
        return np.random.default_rng(seq).standard_normal(shape).tolist()

    wobble = draws(2, shape=(trials, 2, 2))
    errors, first = {}, None
    for mode in (Mode.MODE1, Mode.MODE2):
        truth = _primary_pair(cfg, mode)
        noise = draws(3, mode.value, shape=(trials, 2))
        errs = []
        for t in range(trials):
            believed = [
                NodePosition(n.x + n.sigma_x * dx, n.y + n.sigma_y * dy)
                for n, (dx, dy) in zip(nodes, wobble[t])
            ]
            pair = BistaticPair(believed[0], believed[1], mode)
            tdoa = max(0.0, true_tdoa(truth, target) + err.sigma_tdoa_s * noise[t][0])
            aoa = wrap_angle(true_aoa(truth.rx_node, target) + err.sigma_aoa_rad * noise[t][1])
            first = first or Measurement(tdoa, aoa)
            rx, tx = pair.rx_node, pair.tx_node
            relative = math.pi / 2.0 - wrap_angle(aoa - true_aoa(rx, tx))
            r_rx = r2_from_measurements(tdoa, relative, pair.baseline)
            px, py = rx.x - r_rx * math.sin(aoa), rx.y + r_rx * math.cos(aoa)
            errs.append(math.hypot(px - x, py - y))
        errors[mode] = errs
    return first, errors


class TestBatchedModelSweep:
    def test_trials_1_matches_pinned_rows(self, capsys):
        """Rows recorded before the trials of a point were batched."""
        argv = [
            "sweep", "--scenario", "scenario3", "--bandwidth-mhz", "100",
            "--engine", "model", "--points", "8", "--trials", "1", "--seed", "5",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == (
            "45.0,4.490568974573982,20.509431025426018,83.391023799538,"
            "82.82290319921525,-0.5681206003227635,45.0,44.823490155144306,"
            "-0.1765098448557034,0.17220961367687926,0.5748847333805388,"
            "0.17220961367687926,0.5748847333805388,0.8742085455145368,"
            "0.8705449669033845,ok"
        )
        assert lines[8] == (
            "315.0,34.7951453111403,9.795145311140303,83.391023799538,"
            "78.53040997230205,-4.860613827235953,315.0,315.304173866606,"
            "0.3041738666059819,0.7803896857346155,0.8084000914661823,"
            "0.7803896857346155,0.8084000914661823,0.7143215633438774,"
            "0.7244682317613829,ok"
        )
        assert "# mean_err_mode1_m = 0.4949635927650092" in lines
        assert "# mean_err_mode2_m = 0.6776664424044787" in lines

    @pytest.mark.parametrize("name, trials", [("scenario1", 7), ("scenario3", 40)])
    def test_matches_per_trial_scalar_loop(self, name, trials):
        cfg = model_config(name, points=12, trials=trials, seed=21)
        rows = run_iso_range_sweep(cfg).rows
        assert sum(row.status == STATUS_OK for row in rows) >= 8
        for index, row in enumerate(rows):
            if row.status != STATUS_OK:
                continue
            first, errors = reference_sweep_point(cfg, index, row.theta2_deg)
            e1, e2 = errors[Mode.MODE1], errors[Mode.MODE2]
            assert row.tdoa_meas_ns == first.tdoa_s * 1e9
            assert row.aoa_meas_deg == deg360(first.aoa_rad)
            assert row.err_mode1_m == sum(e1) / trials
            assert row.err_mode2_m == sum(e2) / trials
            assert row.err_rms_mode1_m == math.sqrt(sum(e * e for e in e1) / trials)
            assert row.err_rms_mode2_m == math.sqrt(sum(e * e for e in e2) / trials)

    @pytest.mark.parametrize("where", [0, 4, 8])
    @pytest.mark.parametrize("mode", [Mode.MODE1, Mode.MODE2])
    def test_degenerate_trial_anywhere_fails_the_point(self, monkeypatch, where, mode):
        cfg = model_config("scenario3", points=8, trials=9)
        clean = run_iso_range_sweep(cfg).rows
        calls = []

        def locate_with_hole(tx, rx, tdoa, aoa):
            located = locate_batch(tx, rx, tdoa, aoa)
            calls.append(None)
            # Per point the sweep locates mode 1, then mode 2.
            if len(calls) % 2 == mode.value % 2:
                located[where] = math.nan
            return located

        monkeypatch.setattr(harness, "locate_batch", locate_with_hole)
        rows = run_iso_range_sweep(cfg).rows
        assert any(row.status == STATUS_OK for row in clean)
        for before, after in zip(clean, rows):
            expected = "fail:degenerate" if before.status == STATUS_OK else before.status
            assert after.status == expected
            if after.status == "fail:degenerate":
                assert math.isnan(after.err_mode1_m) and math.isnan(after.tdoa_meas_ns)


class FakeReceiver:
    """Signal-engine measurements that refuse at the given (trial, stream)
    keys, the stream being the mode or the receiver index; the TDOA is
    exact at trial 0 in stream 1 and off by a known amount elsewhere."""

    def __init__(self, refuse=()):
        self.refuse = set(refuse)
        self.calls = []

    def measure(self, pair, target, seed_key, delayed_frames=None):
        trial, stream = seed_key[2], seed_key[4]
        self.calls.append((trial, stream))
        if (trial, stream) in self.refuse:
            raise DetectionError("refused")
        offset = 1e-9 * trial + 1e-10 * (stream - 1)
        tdoa = true_tdoa(pair, target) + offset
        return Measurement(tdoa, true_aoa(pair.rx_node, target), mode=pair.mode)


class TestSignalSweepTrials:
    """The signal engine measures trial by trial, mode 1 before mode 2,
    and the first refusal or degenerate location ends the point."""

    def sweep_point(self, monkeypatch, refuse, degenerate_call=None):
        cfg = preset_scenario("scenario1", seed=4)
        cfg.trials_per_point = 4
        located = []

        def locate(pair, meas):
            located.append(None)
            if len(located) == degenerate_call:
                raise DegenerateGeometryError("at infinity")
            return harness_locate(pair, meas)

        harness_locate = harness.locate_bistatic
        monkeypatch.setattr(harness, "locate_bistatic", locate)
        bench = FakeReceiver(refuse)
        return _sweep_point(cfg, bench, 0, 45.0, (math.nan, math.nan)), bench.calls

    def test_trial_major_order(self, monkeypatch):
        row, calls = self.sweep_point(monkeypatch, ())
        assert row.status == STATUS_OK
        assert calls == [(t, m) for t in range(4) for m in (1, 2)]
        assert row.tdoa_err_ns == 0.0 and row.err_mode1_m < 1.0  # trial 0, mode 1

    def test_refusal_ends_the_point(self, monkeypatch):
        row, calls = self.sweep_point(monkeypatch, {(2, 2)})
        assert row.status == "fail:detect"
        assert calls == [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]

    def test_degenerate_location_ends_the_point(self, monkeypatch):
        row, calls = self.sweep_point(monkeypatch, {(2, 1)}, degenerate_call=3)
        assert row.status == "fail:degenerate"
        assert calls == [(0, 1), (0, 2), (1, 1)]

    def test_refusal_before_the_degenerate_location(self, monkeypatch):
        row, calls = self.sweep_point(monkeypatch, {(1, 1)}, degenerate_call=4)
        assert row.status == "fail:detect"
        assert calls == [(0, 1), (0, 2), (1, 1)]


class TestMultistaticRuns:
    def test_rows_and_worker_identity(self):
        cfg = model_config("scenario3", points=10, trials=2)
        serial, threaded = io.StringIO(), io.StringIO()
        result = run_multistatic(cfg, workers=1)
        write_multistatic_csv(result, serial)
        write_multistatic_csv(run_multistatic(cfg, workers=3), threaded)
        assert serial.getvalue() == threaded.getvalue()
        assert len(result.rows) == 10
        ok = [r for r in result.rows if r.status == STATUS_OK]
        assert ok, "expected usable fusion points"
        for row in ok:
            assert row.pairs_used >= 2
            assert 0 <= row.fused_wins <= row.trials == 2
        assert 0.0 <= result.summary["fused_win_fraction"] <= 1.0

    def test_requires_error_model(self):
        cfg = model_config("scenario3")
        cfg.error_override = None
        with pytest.raises(ConfigError):
            run_multistatic(cfg)

    def test_matches_pinned_rows(self, capsys):
        """Rows of the per-trial draws (substream layout v1) under the
        batched solver: the best-pair columns equal the scalar solver's
        rows, the fused errors differ from them in the eleventh digit."""
        argv = [
            "multistatic", "--scenario", "scenario3", "--bandwidth-mhz", "400",
            "--engine", "model", "--points", "8", "--trials", "4", "--seed", "5",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == (
            "45.0,4.490568974573982,20.509431025426018,0.012619217475804287,"
            "0.14691117107336385,4,4,3,ok"
        )
        assert lines[5] == (
            "180.0,24.999999999999996,-18.75,0.023805280775462234,"
            "0.02463030886960958,3,4,3,ok"
        )
        assert "# mean_err_fused_m = 0.020485606954022892" in lines

    @pytest.mark.parametrize("name, trials", [("scenario1", 3), ("scenario3", 12)])
    def test_matches_per_trial_scalar_loop(self, name, trials):
        cfg = model_config(name, points=12, trials=trials, seed=22)
        nodes = multistatic_nodes(cfg)
        rows = run_multistatic(cfg).rows
        assert sum(row.status == STATUS_OK for row in rows) >= 8
        for index, row in enumerate(rows):
            if row.status != STATUS_OK:
                continue
            fused, closed = reference_multistatic_point(cfg, nodes, index, row.theta2_deg)
            assert row.trials == len(fused) and row.trials >= 1
            assert row.err_fused_m == sum(fused) / len(fused)
            assert row.err_best_pair_m == sum(closed) / len(closed)
            assert row.fused_wins == sum(f <= c + 1e-12 for f, c in zip(fused, closed))


def reference_multistatic_point(cfg, nodes, index, theta_deg):
    """Fused and best-pair errors of one model-engine fusion point by a
    per-trial loop over the v1 draws (one substream per trial) through
    the one-row API: scalar GDOP ranking, closed form, `compute_weights`
    and `solve_multistatic`."""
    err = cfg.error_override
    anchor = BistaticPair(nodes[0], nodes[1])
    x, y = iso_range_point(anchor, cfg.sum_range, math.radians(theta_deg))
    target = TargetState(x, y)
    true_pairs = [BistaticPair(nodes[0], rx) for rx in nodes[1:]]
    usable = [
        i for i, pair in enumerate(true_pairs)
        if collinearity_deg(pair, target) >= cfg.exclusion_deg
    ]

    def draws(t, *key):
        seq = np.random.SeedSequence([cfg.seed, index, t, *key])
        return np.random.default_rng(seq)

    fused, closed = [], []
    for t in range(cfg.trials_per_point):
        wobble = draws(t, 2)
        believed = []
        for n in nodes:
            dx, dy = wobble.standard_normal(2).tolist()
            believed.append(
                NodePosition(n.x + n.sigma_x * dx, n.y + n.sigma_y * dy, n.sigma_x, n.sigma_y)
            )
        pairs = [BistaticPair(believed[0], believed[i + 1]) for i in usable]
        measurements = []
        for i in usable:
            truth = true_pairs[i]
            noise_t, noise_a = draws(t, 3, i).standard_normal(2).tolist()
            tdoa = true_tdoa(truth, target) + err.sigma_tdoa_s * noise_t
            aoa = true_aoa(truth.rx_node, target) + err.sigma_aoa_rad * noise_a
            measurements.append(Measurement(max(0.0, tdoa), wrap_angle(aoa)))
        ranks = []
        for pair in pairs:
            try:
                ranks.append(gdop(pair, target, err).gdop_m)
            except DegenerateGeometryError:
                ranks.append(math.inf)
        best = ranks.index(min(ranks))
        try:
            guess = locate_bistatic(pairs[best], measurements[best])
            problem = FusionProblem(
                pairs=pairs,
                measurements=measurements,
                a=1.0 / (SPEED_OF_LIGHT * max(err.sigma_tdoa_s, 1e-15)),
                b=1.0 / max(err.sigma_aoa_rad, 1e-12),
            )
            problem.w = compute_weights(problem, guess, err)
            solution = solve_multistatic(problem, SolverOptions(initial_guess=guess))
        except DegenerateGeometryError:
            continue
        fused.append(math.hypot(solution.x - x, solution.y - y))
        closed.append(math.hypot(guess[0] - x, guess[1] - y))
    return fused, closed


class TestSignalMultistatic:
    """Signal-engine fusion measures trial by trial, receivers in order,
    and drops a trial whose measurement was refused."""

    def point(self, refuse):
        cfg = preset_scenario("scenario3", seed=4)
        cfg.trials_per_point = 4
        bench = FakeReceiver(refuse)
        return _multistatic_point(cfg, bench, multistatic_nodes(cfg), 0, 45.0), bench.calls

    def test_refused_trial_is_dropped(self):
        clean, calls = self.point(())
        assert clean.status == STATUS_OK and clean.trials == 4 and clean.pairs_used == 3
        assert calls == [(t, i) for t in range(4) for i in range(3)]
        row, calls = self.point({(1, 1)})
        assert row.status == STATUS_OK and row.trials == 3
        assert calls == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)] + [
            (t, i) for t in (2, 3) for i in range(3)
        ]

    def test_no_trial_left_reads_fail_detect(self):
        row, calls = self.point({(t, 2) for t in range(4)})
        assert row.status == "fail:detect" and row.trials == 0
        assert math.isnan(row.err_fused_m) and row.pairs_used == 3
        assert len(calls) == 12

    def test_refusals_do_not_stop_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "_SignalBench", lambda cfg: FakeReceiver({(0, 0)}))
        argv = ["multistatic", "--scenario", "scenario3", "--points", "6", "--trials", "1"]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:7]]
        assert {row[-1] for row in rows} <= {"fail:detect", "excluded"}
        assert "fail:detect" in {row[-1] for row in rows}


class TestDopplerRun:
    def test_short_run_recovers_speed(self):
        cfg = preset_scenario("scenario1", seed=2)
        cfg.motion = MotionConfig(speed_mps=0.2, theta2_deg=60.0, pulses=16)
        result = run_doppler(cfg)
        assert result.speed_true_mps == 0.2
        assert result.speed_err_mps == pytest.approx(
            abs(result.speed_est_mps - 0.2), rel=1e-12
        )
        assert result.speed_err_mps < 0.1
        assert result.doppler_true_hz > 0  # closing motion raises the carrier
        doppler_csv = io.StringIO()
        write_doppler_csv(result, doppler_csv)
        lines = doppler_csv.getvalue().splitlines()
        assert len(lines) == 2 and "rd_map" not in lines[0]
        map_csv = io.StringIO()
        write_range_doppler_csv(result.rd_map, map_csv, max_delay_bins=16)
        assert len(map_csv.getvalue().splitlines()) == 17
        assert "np." not in map_csv.getvalue()


class TestGdopMap:
    def test_grid_layout_and_modes(self):
        cfg = preset_scenario("scenario1")
        cells = run_gdop_map(cfg, GridSpec(-2.0, 2.0, 5, 1.0, 3.0, 3))
        assert len(cells) == 15
        assert cells[0].x_m == -2.0 and cells[0].y_m == 1.0
        assert cells[1].x_m == -1.0 and cells[1].y_m == 1.0
        assert cells[5].y_m == 2.0
        for cell in cells:
            if math.isnan(cell.gdop_mode1_m) and math.isnan(cell.gdop_mode2_m):
                assert cell.best_mode == "degenerate"
            elif cell.gdop_mode1_m <= cell.gdop_mode2_m:
                assert cell.best_mode == "mode1"
            else:
                assert cell.best_mode == "mode2"

    def test_requires_error_model(self):
        cfg = preset_scenario("scenario1")
        cfg.error_override = None
        with pytest.raises(ConfigError):
            run_gdop_map(cfg, GridSpec(-1.0, 1.0, 3, 1.0, 2.0, 3))

    def test_matches_per_cell_loop(self):
        """The stacked map against the per-cell scalar loop it replaced."""
        cfg = preset_scenario("scenario2")
        # The grid passes through both nodes and along the baseline.
        grid = GridSpec(-30.0, 30.0, 41, -30.0, 30.0, 41)
        err = cfg.error_override
        pair1, pair2 = _primary_pair(cfg, Mode.MODE1), _primary_pair(cfg, Mode.MODE2)
        expected = []
        for yv in np.linspace(grid.y_min, grid.y_max, grid.ny):
            for xv in np.linspace(grid.x_min, grid.x_max, grid.nx):
                target = TargetState(float(xv), float(yv))
                values = []
                for pair in (pair1, pair2):
                    try:
                        values.append(gdop(pair, target, err).gdop_m)
                    except DegenerateGeometryError:
                        values.append(math.nan)
                g1, g2 = values
                if math.isnan(g1) and math.isnan(g2):
                    best = "degenerate"
                elif math.isnan(g2) or g1 <= g2:
                    best = "mode1"
                else:
                    best = "mode2"
                expected.append((float(xv), float(yv), g1, g2, best))
        cells = run_gdop_map(cfg, grid)
        got = [(c.x_m, c.y_m, c.gdop_mode1_m, c.gdop_mode2_m, c.best_mode) for c in cells]
        assert [c[4] for c in got] == [c[4] for c in expected]
        assert "degenerate" in {c[4] for c in got}
        assert np.array_equal(
            np.array([c[:4] for c in got]), np.array([c[:4] for c in expected]), equal_nan=True
        )


class TestCli:
    def test_scenarios_round_trip(self, tmp_path, capsys):
        out = tmp_path / "preset.cfg"
        assert main(["scenarios", "--scenario", "scenario2", "--out", str(out)]) == 0
        text = out.read_text()
        assert "baseline_l = 15.0" in text
        assert main(["scenarios", "--scenario", "scenario2"]) == 0
        assert capsys.readouterr().out == text

    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--scenario",
                "scenario1",
                "--engine",
                "model",
                "--points",
                "8",
                "--trials",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("theta2_deg,")
        assert len([l for l in lines if not l.startswith("#")]) == 9

    def test_gdop_map_to_stdout(self, capsys):
        code = main(
            ["gdop-map", "--scenario", "scenario1", "--nx", "3", "--ny", "2",
             "--y-min", "1.0", "--y-max", "2.0"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x_m,y_m,gdop_mode1_m,gdop_mode2_m,best_mode"
        assert len(lines) == 7

    def test_config_problem_exits_1(self, capsys):
        assert main(["sweep", "--scenario", "scenario9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_runtime_problem_exits_2(self, capsys):
        assert main(["sweep", "--scenario", "scenario1", "--points", "3"]) == 2
        assert "runtime failure:" in capsys.readouterr().err

    def test_zero_sigma_multistatic_exits_0(self, tmp_path, capsys):
        """Exact nodes and zero measurement sigmas: every pair predicts no error."""
        scene = tmp_path / "zero.cfg"
        scene.write_text(
            "engine = model_based\nsweep_points = 8\ntrials_per_point = 2\n"
            "[nodes]\nnode = 0 0\nnode = 15 0\n"
            "[sweep]\nbaseline_l = 15\nsum_range = 25\n"
            "sigma_tdoa_ns = 0\nsigma_aoa_deg = 0\n"
        )
        assert main(["multistatic", "--scenario", str(scene)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        ok = [row for row in rows if row[-1] == "ok"]
        assert len(rows) == 8 and ok
        assert all(row[6] == "2" and float(row[3]) < 1e-9 for row in ok)

    def test_bad_grid_exits_1(self, capsys):
        assert main(["gdop-map", "--scenario", "scenario1", "--nx", "1"]) == 1
        capsys.readouterr()
