"""Harness orchestration: determinism, row bookkeeping, CSV output, CLI."""

import io
import math

import numpy as np
import pytest

from bistar import (
    BistaticPair,
    ConfigError,
    GridSpec,
    MeasurementErrorModel,
    Mode,
    MotionConfig,
    NodePosition,
    RadarParams,
    TargetState,
    collinearity_deg,
    iso_range_target,
    preset_scenario,
    run_doppler,
    run_gdop_map,
    run_iso_range_sweep,
    run_multistatic,
    write_multistatic_csv,
    write_sweep_csv,
)
from bistar.cli import main
from bistar.config import ENGINE_MODEL
from bistar.harness import (
    STATUS_EXCLUDED,
    STATUS_OK,
    SweepRow,
    _SignalBench,
    _primary_pair,
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

    def test_bad_grid_exits_1(self, capsys):
        assert main(["gdop-map", "--scenario", "scenario1", "--nx", "1"]) == 1
        capsys.readouterr()
