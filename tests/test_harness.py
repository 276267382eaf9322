"""Harness orchestration: determinism, row bookkeeping, CSV output, CLI."""

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bistar import (
    BistaticPair,
    ConfigError,
    DegenerateGeometryError,
    GridSpec,
    DetectionError,
    IqCapture,
    Measurement,
    MeasurementErrorModel,
    Mode,
    MotionConfig,
    NodePosition,
    RadarParams,
    TargetState,
    collinearity_deg,
    gdop_batch,
    gdop_weights,
    iso_range_point,
    locate_batch,
    locate_bistatic,
    preset_scenario,
    run_doppler,
    run_gdop_map,
    run_iso_range_sweep,
    run_multistatic,
    solve_multistatic_batch,
    true_aoa,
    true_tdoa,
    wrap_angle,
    write_multistatic_csv,
    write_sweep_csv,
)
from bistar import channel, cli, estimation, harness
from bistar.cli import main
from bistar.config import ENGINE_MODEL, ENGINE_SIGNAL, parse_scenario
from bistar.estimation import RangeDopplerMap
from bistar.geometry import SPEED_OF_LIGHT, ordered_sum
from bistar.harness import (
    STATUS_EXCLUDED,
    DopplerResult,
    STATUS_OK,
    SweepRow,
    _SignalBench,
    _fuse,
    _multistatic_stage,
    _pair_variances,
    _primary_pair,
    _resolve_survey_aoa,
    _score_sweep,
    _sweep_stage,
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


    @pytest.mark.parametrize("bore_deg", [180.0, 0.0, 90.0, -61.3])
    def test_exact_ties_go_to_the_first_candidate(self, bore_deg):
        """A hint on the boresight line or on the array axis lies midway
        between two candidates that are reflections of each other across
        that line (in exact arithmetic, in degrees off the boresight);
        the first of the two in the order raw, across the boresight,
        across the axis, both wins, whichever way the float distances
        round. scenario1's 0 degree point, a target straight above the
        receiver, is a hint on the array axis."""
        bore = math.radians(bore_deg)
        for offset_deg in np.linspace(0.05, 80.0, 41):
            for sign in (1, -1):
                phi = sign * Fraction(offset_deg)
                raw = wrap_angle(bore + math.radians(float(phi)))
                candidates = (raw, wrap_angle(2.0 * bore - raw),
                              wrap_angle(2.0 * bore + math.pi - raw), wrap_angle(raw + math.pi))
                for turn in (0, 180, 90, -90):
                    exact = [(off - turn) % 360 for off in (phi, -phi, 180 - phi, 180 + phi)]
                    exact = [min(d, 360 - d) for d in exact]
                    assert exact.count(min(exact)) == 2
                    want = candidates[exact.index(min(exact))]
                    hint = wrap_angle(bore + math.radians(turn))
                    assert _resolve_survey_aoa(raw, bore, hint) == want


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

    def test_subcarrier_spacing_is_honoured(self):
        cfg = parse_scenario(
            "[nodes]\nnode = 0 0\nnode = 25 0\n"
            "[radar]\nsubcarrier_spacing_hz = 60000.0\n"
            "[sweep]\nsum_range = 50\n"
        )
        bench = _SignalBench(cfg)
        assert bench.wcfg.fft_size == 2048
        assert bench.slot.sample_rate_hz == cfg.radar.sample_rate_hz


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

    def test_three_node_layout_is_kept(self):
        """A configured third node is fused where it is, not replaced by
        the two-node expansion's receivers."""
        cfg = model_config("scenario3", points=12)
        cfg.nodes = [*cfg.nodes, NodePosition(-10.0, 20.0, 0.01, 0.01)]
        assert multistatic_nodes(cfg) == cfg.nodes
        rows = run_multistatic(cfg).rows
        assert max(row.pairs_used for row in rows) == 2


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
        """Both modes of a point have the same path delays: the first
        measurement marks the key, the second stores its frames and the
        third reads them, each equal to an uncached measurement."""
        cfg = preset_scenario("scenario3", seed=6)
        bench, uncached = _SignalBench(cfg), _SignalBench(cfg)
        uncached.delayed_frames = None
        point = iso_range_point(_primary_pair(cfg), cfg.sum_range, math.radians(50.0))
        target = TargetState(*point, rcs_dbsm=cfg.rcs_dbsm)
        for mode in (Mode.MODE1, Mode.MODE2, Mode.MODE1):
            pair = _primary_pair(cfg, mode)
            key = (cfg.seed, 0, 0, 1, mode.value)
            assert bench.measure(pair, target, key) == uncached.measure(pair, target, key)
        (frames,) = bench.delayed_frames.values()
        assert frames is not None

    def test_model_engine_requires_error_model(self):
        cfg = model_config()
        cfg.scenario_id = "custom"  # no explicit sigmas and no table
        with pytest.raises(ConfigError):
            run_iso_range_sweep(cfg)


def reference_sweep_point(cfg, index, theta_deg):
    """One model-engine contour point by a per-trial scalar loop over the
    v2 draws: one substream per point and purpose, trial t reading row t."""
    err = cfg.error_model
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
            px, py = locate_bistatic(pair, Measurement(tdoa, aoa, mode))
            errs.append(float(np.hypot(px - x, py - y)))
        errors[mode] = errs
    return first, errors


class TestBatchedModelSweep:
    def test_trials_1_matches_pinned_rows(self, capsys):
        """Rows recorded before the trials of a point were batched; the
        GDOP columns re-recorded from the closed-form GDOP kernel, the
        position errors from the atan2-free locator and numpy's hypot."""
        argv = [
            "sweep", "--scenario", "scenario3", "--bandwidth-mhz", "100",
            "--engine", "model", "--points", "8", "--trials", "1", "--seed", "5",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == (
            "45.0,4.490568974573982,20.509431025426018,83.391023799538,"
            "82.82290319921525,-0.5681206003227635,45.0,44.823490155144306,"
            "-0.1765098448557034,0.17220961367687143,0.5748847333805425,"
            "0.17220961367687143,0.5748847333805425,0.8742085455107859,"
            "0.8705449676505854,ok"
        )
        assert lines[8] == (
            "315.0,34.7951453111403,9.795145311140303,83.391023799538,"
            "78.53040997230205,-4.860613827235953,315.0,315.304173866606,"
            "0.3041738666059819,0.7803896857346155,0.8084000914661823,"
            "0.7803896857346155,0.8084000914661823,0.7143215638289838,"
            "0.7244682316491513,ok"
        )
        assert "# mean_err_mode1_m = 0.49496359276500784" in lines
        assert "# mean_err_mode2_m = 0.6776664424044778" in lines

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
            assert row.err_mode1_m == ordered_sum(e1) / trials
            assert row.err_mode2_m == ordered_sum(e2) / trials
            assert row.err_rms_mode1_m == math.sqrt(ordered_sum([e * e for e in e1]) / trials)
            assert row.err_rms_mode2_m == math.sqrt(ordered_sum([e * e for e in e2]) / trials)

    @pytest.mark.parametrize("where", [0, 4, 8])
    @pytest.mark.parametrize("mode", [Mode.MODE1, Mode.MODE2])
    def test_degenerate_trial_anywhere_fails_the_point(self, monkeypatch, where, mode):
        """A trial located at infinity fails exactly its own point. The
        hole is row (point k, trial ``where``) of the stacked call of
        ``mode``, for the first, a middle and the last measured point."""
        cfg = model_config("scenario3", points=8, trials=9)
        clean = run_iso_range_sweep(cfg).rows
        measured = [i for i, row in enumerate(clean) if row.status != STATUS_EXCLUDED]
        assert len(measured) >= 3 and all(clean[i].status == STATUS_OK for i in measured)
        for k in (0, len(measured) // 2, len(measured) - 1):
            calls = []

            def locate_with_hole(tx, rx, tdoa, aoa):
                located = locate_batch(tx, rx, tdoa, aoa)
                calls.append(len(located))
                # The block locates mode 1, then mode 2, each over its
                # measured points in contour order, trial by trial.
                if len(calls) == mode.value:
                    located[k * cfg.trials_per_point + where] = math.nan
                return located

            monkeypatch.setattr(harness, "locate_batch", locate_with_hole)
            rows = run_iso_range_sweep(cfg).rows
            assert calls == [len(measured) * cfg.trials_per_point] * 2
            for index, (before, after) in enumerate(zip(clean, rows)):
                if index != measured[k]:
                    assert repr(after) == repr(before)
                    continue
                assert after.status == "fail:degenerate"
                assert math.isnan(after.err_mode1_m) and math.isnan(after.tdoa_meas_ns)

    def test_locates_twice_per_block(self, monkeypatch):
        """One `locate_batch` call per mode and 64-point block, over all
        trials of the block's measured points."""
        calls = []

        def counted(tx, rx, tdoa, aoa):
            calls.append(len(tdoa))
            return locate_batch(tx, rx, tdoa, aoa)

        monkeypatch.setattr(harness, "locate_batch", counted)
        rows = run_iso_range_sweep(model_config("scenario3", points=130, trials=3)).rows
        blocks = {i // 64 for i, row in enumerate(rows) if row.status == STATUS_OK}
        assert len(blocks) == 3 and len(calls) == 2 * len(blocks)
        assert sum(calls) == 2 * 3 * sum(row.status == STATUS_OK for row in rows)

    def test_stacked_scoring_matches_point_by_point(self, monkeypatch):
        """Scoring a sweep in stacks (two 64-point blocks and a remainder)
        writes the rows that scoring each point alone writes, among them
        excluded points, refused points (fail:detect) and a trial located
        at infinity (fail:degenerate) in the middle of a stack."""
        cfg = model_config("scenario3", points=130, trials=3, seed=8)
        measure = harness._measurements

        def refusing(cfg, bench, workers, index, *args):
            tdoa, aoa = measure(cfg, bench, workers, index, *args)
            for point in (20, 100):
                tdoa[index.index(point), 1, 0] = math.nan
            return tdoa, aoa

        monkeypatch.setattr(harness, "_measurements", refusing)

        def stage():
            rows, measured = _sweep_stage(cfg, None, 1, theta_grid_deg(cfg.sweep_points).tolist())
            aoa = measured[-1][measured[0].tolist().index(40)]
            aoa[2, 1] = math.nan  # trial 2's mode-2 AoA: no finite location
            return rows, measured

        stacked = _score_sweep(*stage())
        alone, measured = stage()
        for k in range(len(measured[0])):
            _score_sweep(alone, tuple(v[k : k + 1] for v in measured))
        assert [stacked[i].status for i in (20, 32, 40, 100)] == [
            "fail:detect", STATUS_EXCLUDED, "fail:degenerate", "fail:detect"
        ]
        assert sum(row.status == STATUS_OK for row in stacked) > 100
        assert list(map(repr, stacked)) == list(map(repr, alone))


class FakeReceiver:
    """Signal-engine measurements that refuse at the given (trial, stream)
    keys, the stream being the mode or the receiver index, and record
    the (trial, stream) of each call, at contour point ``point`` or, if
    None, at every point; the TDOA is exact at trial 0 in stream 1 and
    off by a known amount elsewhere."""

    def __init__(self, refuse=(), point=None):
        self.refuse, self.point = set(refuse), point
        self.calls = []

    def measure(self, pair, target, seed_key):
        point, trial, stream = seed_key[1], seed_key[2], seed_key[4]
        if self.point in (None, point):
            self.calls.append((trial, stream))
            if (trial, stream) in self.refuse:
                raise DetectionError("refused")
        offset = 1e-9 * trial + 1e-10 * (stream - 1)
        tdoa = true_tdoa(pair, target) + offset
        return Measurement(tdoa, true_aoa(pair.rx_node, target), mode=pair.mode)


class TestSignalSweepTrials:
    """The signal engine measures every trial, mode 1 before mode 2. A
    refusal skips the rest of its own trial and fails the point as
    fail:detect, which outranks a degenerate location: a refused point
    never reaches the scoring stage."""

    def sweep_points(self, monkeypatch, refuse, hole=None):
        """The points at 45 and 135 degrees through the draw stage, then one
        scoring stage. ``refuse`` applies to the first point's receives;
        ``hole`` is (mode, point, trial), the row of the stacked call of
        that mode that comes out NaN, points counted within the stack.
        Returns the rows, the first point's receiver calls and the row
        counts of the stacked calls."""
        cfg = preset_scenario("scenario1", seed=4)
        cfg.trials_per_point = 4
        located = []

        def locate_with_hole(tx, rx, tdoa, aoa):
            xy = locate_batch(tx, rx, tdoa, aoa)
            located.append(len(xy))
            if hole is not None and len(located) == hole[0].value:
                xy[hole[1] * cfg.trials_per_point + hole[2]] = math.nan
            return xy

        monkeypatch.setattr(harness, "locate_batch", locate_with_hole)
        bench = FakeReceiver(refuse, point=0)
        return _score_sweep(*_sweep_stage(cfg, bench, 1, [45.0, 135.0])), bench.calls, located

    def test_trial_major_order(self, monkeypatch):
        rows, calls, located = self.sweep_points(monkeypatch, ())
        assert [row.status for row in rows] == [STATUS_OK] * 2 and located == [8, 8]
        assert calls == [(t, m) for t in range(4) for m in (1, 2)]
        assert rows[0].tdoa_err_ns == 0.0 and rows[0].err_mode1_m < 1.0  # trial 0, mode 1

    def test_refusal_skips_the_rest_of_its_trial(self, monkeypatch):
        rows, calls, located = self.sweep_points(monkeypatch, {(1, 1)})
        assert rows[0].status == "fail:detect" and rows[1].status == STATUS_OK
        assert located == [4, 4]  # only the second point's trials
        assert calls == [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]
        assert math.isnan(rows[0].tdoa_meas_ns) and math.isnan(rows[0].err_mode1_m)

    def test_degenerate_location_fails_the_point(self, monkeypatch):
        for mode, point, trial in ((Mode.MODE1, 0, 0), (Mode.MODE2, 0, 3), (Mode.MODE2, 1, 2)):
            rows, calls, located = self.sweep_points(monkeypatch, (), hole=(mode, point, trial))
            assert rows[point].status == "fail:degenerate" and located == [8, 8]
            assert rows[1 - point].status == STATUS_OK
            assert len(calls) == 8 and math.isnan(rows[point].err_mode2_m)

    def test_refusal_before_the_degenerate_location(self, monkeypatch):
        rows, calls, located = self.sweep_points(
            monkeypatch, {(3, 2)}, hole=(Mode.MODE1, 0, 0)
        )
        assert rows[0].status == "fail:detect" and located == [4, 4]
        assert len(calls) == 8
        # The refused point is not in the stack, so its hole row falls on
        # the second point.
        assert rows[1].status == "fail:degenerate"

    def test_trials_1_matches_pinned_rows(self, capsys):
        """Rows of channel draw layout v3 (beam-space receiver) on
        5-smooth pulse frames, with the receiver's capture sums in fixed
        einsum order and MUSIC's closed-form null spectrum, GDOP columns
        from the closed-form kernel, position errors from the atan2-free
        locator and numpy's hypot."""
        argv = [
            "sweep", "--scenario", "scenario3", "--bandwidth-mhz", "100",
            "--engine", "signal", "--points", "8", "--trials", "1", "--seed", "5",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "theta2_deg,x_m,y_m,tdoa_true_ns,tdoa_meas_ns,tdoa_err_ns,aoa_true_deg,"
            "aoa_meas_deg,aoa_err_deg,err_mode1_m,err_mode2_m,err_rms_mode1_m,"
            "err_rms_mode2_m,gdop_mode1_m,gdop_mode2_m,status"
        )
        assert lines[1] == (
            "0.0,25.0,18.75,83.391023799538,,,0.0,,,,,,,"
            "0.8369757659394245,0.842688122173002,fail:detect"
        )
        assert lines[2] == (
            "45.0,4.490568974573982,20.509431025426018,83.391023799538,"
            "81.38020833333333,-2.010815466204679,45.0,44.93129494940584,"
            "-0.06870505059416697,0.4043717378931976,0.3843896898488558,"
            "0.4043717378931976,0.3843896898488558,0.8742085455107859,"
            "0.8705449676505854,ok"
        )
        assert lines[9:] == [
            "# mean_abs_aoa_err_deg = 0.052190890120311396",
            "# mean_abs_tdoa_err_ns = 2.010815466204679",
            "# mean_err_mode1_m = 0.3735808337137906",
            "# mean_err_mode2_m = 0.36770800555397404",
            "# mean_gdop_mode1_m = 0.794265054669885",
            "# mean_gdop_mode2_m = 0.7975065996498684",
            "# ok_points = 4.0",
            "# points = 8.0",
        ]


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
        cfg.scenario_id = "custom"  # no explicit sigmas and no table
        with pytest.raises(ConfigError):
            run_multistatic(cfg)

    def test_stacked_fusion_matches_point_by_point(self):
        """Fusing a run in stacks (two 64-point blocks and a remainder
        here, mixed pair counts) writes the rows that fusing each point
        alone writes."""
        cfg = model_config("scenario3", points=130, trials=3, seed=8)
        nodes = multistatic_nodes(cfg)
        thetas = theta_grid_deg(cfg.sweep_points).tolist()
        stacked = _fuse(cfg.error_model, nodes, *_multistatic_stage(cfg, None, 1, nodes, thetas))
        alone, inputs = _multistatic_stage(cfg, None, 1, nodes, thetas)
        for k in range(len(inputs[0])):
            _fuse(cfg.error_model, nodes, alone, tuple(v[k : k + 1] for v in inputs))
        assert len({row.pairs_used for row in stacked if row.status == STATUS_OK}) >= 2
        assert list(map(repr, stacked)) == list(map(repr, alone))

    def test_seeding_does_not_grow_with_points_and_trials(self, monkeypatch):
        """A model run seeds all its draws in one `substream_normals` call
        per purpose: neither those calls nor `make_rng` calls grow with
        points x trials."""
        calls = []

        def counted(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(channel, "make_rng", counted(channel.make_rng))
        monkeypatch.setattr(harness, "make_rng", counted(channel.make_rng), raising=False)
        monkeypatch.setattr(harness, "substream_normals", counted(harness.substream_normals))
        counts = []
        for points, trials in ((4, 2), (12, 6)):
            calls.clear()
            run_multistatic(model_config("scenario3", points=points, trials=trials))
            counts.append((calls.count("make_rng"), calls.count("substream_normals")))
        assert counts[0] == counts[1] and counts[0][0] == 0

    def test_matches_pinned_rows(self, capsys):
        """Rows of the per-trial draws (substream layout v1) under the
        batched solver: the best-pair columns equal the scalar solver's
        rows, the fused errors differ from them in the eleventh digit.
        The fused errors were re-recorded when the GDOP weights moved to
        the closed-form kernel, and both error columns when the locator
        dropped atan2 and the solver's bearing moved to a complex log,
        whose bits do not depend on numpy's SIMD dispatch."""
        argv = [
            "multistatic", "--scenario", "scenario3", "--bandwidth-mhz", "400",
            "--engine", "model", "--points", "8", "--trials", "4", "--seed", "5",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == (
            "45.0,4.490568974573982,20.509431025426018,0.012619217476818809,"
            "0.14691117107336274,4,4,3,ok"
        )
        assert lines[5] == (
            "180.0,24.999999999999996,-18.75,0.023805280767784247,"
            "0.024630308869611206,3,4,3,ok"
        )
        assert "# mean_err_fused_m = 0.02048560686075961" in lines

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
            assert row.err_fused_m == ordered_sum(fused) / len(fused)
            assert row.err_best_pair_m == ordered_sum(closed) / len(closed)
            assert row.fused_wins == sum(f <= c + 1e-12 for f, c in zip(fused, closed))


def reference_multistatic_point(cfg, nodes, index, theta_deg):
    """Fused and best-pair errors of one model-engine fusion point by a
    per-trial loop over the v1 draws (one substream per trial), each
    trial on its own: GDOP ranking at the target, closed form, weights
    at the closed form and a one-row solve."""
    err = cfg.error_model
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
        ranks = [
            math.inf if math.isnan(g) else g
            for g in (float(gdop_batch([pair], x, y, err)[0]) for pair in pairs)
        ]
        best = ranks.index(min(ranks))
        try:
            guess = locate_bistatic(pairs[best], measurements[best])
        except DegenerateGeometryError:
            continue
        weights = gdop_weights(gdop_batch(pairs, guess[0], guess[1], err)[None])
        solution = solve_multistatic_batch(
            [[(p.tx_node.x, p.tx_node.y) for p in pairs]],
            [[(p.rx_node.x, p.rx_node.y) for p in pairs]],
            [[m.tdoa_s for m in measurements]],
            [[m.aoa_rad for m in measurements]],
            [guess],
            a=1.0 / (SPEED_OF_LIGHT * max(err.sigma_tdoa_s, 1e-15)),
            b=1.0 / max(err.sigma_aoa_rad, 1e-12),
            w=weights,
        )
        if solution.failed[0]:
            continue
        (fused_x, fused_y), = solution.xy.tolist()
        fused.append(float(np.hypot(fused_x - x, fused_y - y)))
        closed.append(float(np.hypot(guess[0] - x, guess[1] - y)))
    return fused, closed


class TestFusionVariances:
    def test_pair_variances_square_by_multiplying(self):
        """The fuse stage's node variances are s * s, the rounded square
        (``s ** 2`` rounds this s one ulp away with some C library pows)."""
        s = 0.03046631750026156
        cfg = model_config("scenario3", points=8)
        cfg.nodes = [NodePosition(node.x, node.y, s, s) for node in cfg.nodes]
        nodes = multistatic_nodes(cfg)
        rows, _ = _multistatic_stage(cfg, None, 1, nodes, [0.0, 45.0])
        assert rows[1].pairs_used == 3 and _pair_variances(nodes).tolist() == [[s * s] * 4] * 3


class TestSignalMultistatic:
    """Signal-engine fusion measures trial by trial, receivers in order,
    and drops a trial whose measurement was refused."""

    def point(self, refuse):
        """The row at 45 degrees through the draw stage, then the fuse stage."""
        cfg = preset_scenario("scenario3", seed=4)
        cfg.trials_per_point = 4
        bench = FakeReceiver(refuse)
        nodes = multistatic_nodes(cfg)
        rows = _fuse(cfg.error_model, nodes, *_multistatic_stage(cfg, bench, 1, nodes, [45.0]))
        return rows[0], bench.calls

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


    @pytest.mark.parametrize("bandwidth_mhz, worst_m", [(100, 1.0), (400, 0.5)])
    def test_fusion_is_no_worse_than_its_best_pair(self, bandwidth_mhz, worst_m):
        """scenario3's signal run of 36 points x 3 trials on 2 workers at
        the default seed: the fused mean is no worse than the best pair's
        and no point's fused error reaches ``worst_m`` (measured: 0.119
        against 0.370 m, worst 0.720 m at 100 MHz; 0.110 against 0.136 m,
        worst 0.261 m at 400 MHz). A TDOA read on the comb pilot's N/2
        replica used to put 105.8 m on the 70 degree point at 400 MHz and
        3.41 m on its mean."""
        cfg = preset_scenario("scenario3", bandwidth_mhz)
        cfg.sweep_points, cfg.trials_per_point = 36, 3
        result = run_multistatic(cfg, workers=2)
        fused = [row.err_fused_m for row in result.rows if row.status == STATUS_OK]
        assert len(fused) == 32
        assert result.summary["mean_err_fused_m"] <= result.summary["mean_err_best_pair_m"]
        assert max(fused) < worst_m


def stored_frames(cache: dict) -> int:
    """Keys of a delayed-frame cache that hold frames, not just a mark."""
    return sum(frames is not None for frames in cache.values())


class RecordingBench(_SignalBench):
    """A bench that records each measurement (None for a refusal), its
    path delays, whether its frames came from the run-wide cache, and the
    count of stored frames after it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.seen, self.delays, self.hits, self.sizes = [], [], [], []

    def measure(self, pair, target, seed_key):
        paths = channel.build_paths(pair, target, self.cfg.radar, self.cfg.direct_path_gain_db)
        delays = tuple(p.delay_s for p in paths)
        self.delays.append(delays)
        self.hits.append(self.delayed_frames.get(delays) is not None)
        meas = None
        try:
            meas = super().measure(pair, target, seed_key)
            return meas
        finally:
            self.seen.append((pair, target, seed_key, meas))
            self.sizes.append(stored_frames(self.delayed_frames))


class TestRunWideFrames:
    """One run's points share the delayed path frames of its slot."""

    @staticmethod
    def recorded_run(monkeypatch, run, cfg) -> RecordingBench:
        benches = []
        monkeypatch.setattr(
            harness, "_SignalBench", lambda c: benches.append(RecordingBench(c)) or benches[-1]
        )
        run(cfg)
        (bench,) = benches
        return bench

    def test_sweep_matches_uncached_measurements(self, monkeypatch):
        cfg = preset_scenario("scenario3", bandwidth_mhz=400, seed=18)
        cfg.engine, cfg.sweep_points, cfg.trials_per_point = ENGINE_SIGNAL, 24, 1
        bench = self.recorded_run(monkeypatch, run_iso_range_sweep, cfg)
        uncached = _SignalBench(cfg)
        uncached.delayed_frames = None
        measured = [seen for seen in bench.seen if seen[3] is not None]
        assert len(measured) >= 36
        for pair, target, key, meas in bench.seen:
            if meas is None:
                with pytest.raises(DetectionError):
                    uncached.measure(pair, target, key)
                continue
            alone = uncached.measure(pair, target, key)
            assert (alone.tdoa_s.hex(), alone.aoa_rad.hex()) == (
                meas.tdoa_s.hex(), meas.aoa_rad.hex()
            )
        assert 1 <= len(bench.delayed_frames) <= len(bench.seen) // 8  # few exact delays

    def test_multistatic_cache_stays_bounded(self, monkeypatch):
        """A signal `multistatic` run meets more keys than the bound, most
        of them once: only keys met again store frames, so every later
        receive of a repeating key hits and one-off keys hold none."""
        cfg = preset_scenario("scenario3", seed=18)
        cfg.engine, cfg.sweep_points, cfg.trials_per_point = ENGINE_SIGNAL, 12, 1
        bench = self.recorded_run(monkeypatch, run_multistatic, cfg)
        counts = {key: bench.delays.count(key) for key in bench.delays}
        repeating = {key for key, count in counts.items() if count > 1}
        assert len(counts) > channel._FRAME_KEYS > len(repeating) > 0
        assert sum(bench.hits) == sum(counts[key] - 2 for key in repeating)
        stored = {key for key, frames in bench.delayed_frames.items() if frames is not None}
        assert stored == repeating
        assert max(bench.sizes) == len(repeating)

    def test_stored_keys_stay_bounded(self):
        """Past `_FRAME_KEYS` stored keys the cache empties before it
        stores another; a key met once is only marked."""
        params = RadarParams()
        tx = IqCapture(np.ones(64, dtype=complex), params.sample_rate_hz)
        cache, sizes = {}, []
        for k in range(2 * channel._FRAME_KEYS + 3):
            paths = [channel.PathDescriptor(delay_s=k * 1e-9, amplitude=1.0, aoa_rad=0.0)]
            for _ in range(2):
                channel._path_frames(tx, paths, params, cache, 1)
                sizes.append(stored_frames(cache))
        assert max(sizes) == channel._FRAME_KEYS
        assert sizes[:4] == [0, 1, 1, 2]
        assert any(after < before for before, after in zip(sizes, sizes[1:]))
        channel._path_frames(tx, [channel.PathDescriptor(5e-7, 1.0, 0.0)], params, cache, 1)
        assert cache[(5e-7,)] is None

    def test_threads_share_the_cache(self):
        """More workers than cores, switching threads every microsecond,
        write the bytes of one worker."""
        cfg = preset_scenario("scenario3", seed=18)
        cfg.engine, cfg.sweep_points, cfg.trials_per_point = ENGINE_SIGNAL, 8, 1
        serial, threaded = io.StringIO(), io.StringIO()
        write_multistatic_csv(run_multistatic(cfg), serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            write_multistatic_csv(run_multistatic(cfg, workers=4), threaded)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.getvalue() == serial.getvalue()
        assert serial.getvalue().count(",ok\n") >= 4


class TestDopplerRun:
    def test_short_run_recovers_speed(self, monkeypatch):
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
        write_range_doppler_csv(result.rd_map, map_csv)
        assert len(map_csv.getvalue().splitlines()) == 257
        monkeypatch.setattr(harness, "DELAY_BINS", 16)
        map_csv = io.StringIO()
        write_range_doppler_csv(result.rd_map, map_csv)
        assert len(map_csv.getvalue().splitlines()) == 17
        assert "np." not in map_csv.getvalue()

    @staticmethod
    def short_run(bandwidth_mhz, pulses=16):
        cfg = preset_scenario("scenario3", bandwidth_mhz=bandwidth_mhz, seed=31)
        cfg.motion = MotionConfig(speed_mps=0.2, theta2_deg=60.0, pulses=pulses)
        return run_doppler(cfg)

    @staticmethod
    def csv_digests(result):
        """SHA-256 of the run's Doppler CSV and range-Doppler map CSV."""
        doppler_csv, map_csv = io.StringIO(), io.StringIO()
        write_doppler_csv(result, doppler_csv)
        write_range_doppler_csv(result.rd_map, map_csv)
        return tuple(
            hashlib.sha256(out.getvalue().encode()).hexdigest() for out in (doppler_csv, map_csv)
        )

    @pytest.mark.parametrize("bandwidth_mhz, digests", [
        (100, (
            "34442153d35952f0ca80242ffd04e7755ffb3f4b36c34497f494e78d692f2768",
            "650ddb99ddbc9c5ada8079b1ff71819f9d06e0693102fdd244bad51ff0d832bc",
            "1e48437be680c71b5928a528f8d01cc1229c0f678a0903ee84cc75f342329fec",
            (20, 32),
            "38922153a15104d4f3820db92e6a11ab2b8cdae646ec8b340abe4781de134af6",
        )),
        (400, (
            "593669acabb641cdde25db223fb7e96b9a70766c3c5b9441f438717f91cdee62",
            "fdb794aab20cfee5cd92ab085db6a3b0e575d8b230bd6742dc681af4cc21f3c6",
            "d1b7b54a34f455e0481b579c7b3fabce3f796bd65990018976a0822578210486",
            (82, 32),
            "d5e283ab8236acdc4d7b3c7d571e8f50bb9490019e5559ec88f4199d8651c88e",
        )),
    ])
    def test_matches_pinned_bytes(self, bandwidth_mhz, digests):
        """SHA-256 of the Doppler CSV and the range-Doppler map CSV of a
        16-pulse run, and of the map's held rows, its peak cell (delay
        sample, Doppler bin) and the SHA-256 of the peak's row, recorded
        with the receiver's capture sums in fixed einsum order, so any
        OpenBLAS thread count writes them (numpy 2.4.6, x86-64; other FFT
        builds may round differently). The held rows and the peak were
        recorded off the whole magnitude map that runs held before."""
        result = self.short_run(bandwidth_mhz)
        rd_map = result.rd_map
        fs = preset_scenario("scenario3", bandwidth_mhz=bandwidth_mhz).radar.sample_rate_hz
        sample = round(rd_map.peak_delay_s * fs)
        assert rd_map.peak_delay_s == sample / fs
        assert rd_map.magnitudes.shape[0] == harness.DELAY_BINS
        assert (
            *self.csv_digests(result),
            hashlib.sha256(rd_map.magnitudes.tobytes()).hexdigest(),
            (sample, rd_map.peak_bin),
            hashlib.sha256(rd_map.peak_row.tobytes()).hexdigest(),
        ) == digests

    @pytest.mark.parametrize("bandwidth_mhz, digests", [
        (100, (
            "081e06c2e72aabb6a67766d05dfb95fed0152eb9c2548bfd4348d54da6674519",
            "d2bb3c686a74f4dbd6c8741c947903f507be02cdf307576825b6e3f252620c94",
        )),
        (400, (
            "915f24b9d41e1ddd4b9c2ea5aee7b7a3b267078378564d023af29988b6b7f065",
            "63c9782ab44c523a40cce630b97756cbb0e1995c280d1eccd3cbdba1947919d3",
        )),
    ])
    def test_64_pulse_run_matches_pinned_bytes(self, bandwidth_mhz, digests):
        """SHA-256 of the Doppler CSV and the range-Doppler map CSV of a
        64-pulse run, recorded while runs held every capture-size beam and
        the whole map. At 400 MHz a pulse spans 8 `BeamCapture` blocks and
        the map 61 blocks of delay rows, so the guard's normals drawn
        pulse by pulse and the peak found block by block are read."""
        assert self.csv_digests(self.short_run(bandwidth_mhz, pulses=64)) == digests

    def test_peak_memory_in_capture_rows(self, monkeypatch):
        """The run's traced peak, in complex rows of its capture (pulses
        x frame samples), was 15.2 while the chain kept full-size
        temporaries, 6.9 while the receiver held its path units and ζ
        over the train, and 4.0 at 16 pulses (3.67 at 64) while it held
        the guard beam over the train, a second cleaned echo and the
        whole map. Holding the direct and echo beams, it reads 2.26 at
        64 pulses and 3.04 at 16, where the first pulse's TDOA
        transforms, the same at any pulse count, weigh four times as
        much. A first run imports numpy modules lazily, so the second is
        traced."""
        frames = []

        def range_doppler(train, *args):
            frames.append(train.samples_per_pulse)
            return estimation.range_doppler(train, *args)

        monkeypatch.setattr(harness, "range_doppler", range_doppler)
        self.short_run(100)
        started = not tracemalloc.is_tracing()
        for pulses, bound in ((16, 3.3), (64, 2.6)):
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                self.short_run(100, pulses)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                if started:
                    tracemalloc.stop()
            row = frames[-1] * pulses * np.dtype(np.complex128).itemsize
            assert peak / row < bound, (pulses, peak / row)


class TestCsvBytes:
    """Exact bytes: NaN is a blank cell, floats are shortest round-trip reprs."""

    def test_doppler_csv(self):
        result = DopplerResult(
            theta2_deg=60.0,
            doppler_true_hz=0.1 + 0.2,
            doppler_est_hz=math.nan,
            range_rate_true_mps=-1.5,
            range_rate_est_mps=1e-20,
            speed_true_mps=0.2,
            speed_est_mps=2.0 / 3.0,
            speed_err_mps=0.0,
            tdoa_est_ns=8.138020833333334,
            aoa_est_deg=359.99999999999994,
            rd_map=RangeDopplerMap(np.ones((1, 1)), [0.0], [0.0], 0.0, 0, [1.0]),
        )
        out = io.StringIO()
        write_doppler_csv(result, out)
        assert out.getvalue() == (
            "theta2_deg,doppler_true_hz,doppler_est_hz,range_rate_true_mps,"
            "range_rate_est_mps,speed_true_mps,speed_est_mps,speed_err_mps,"
            "tdoa_est_ns,aoa_est_deg\n"
            "60.0,0.30000000000000004,,-1.5,1e-20,0.2,0.6666666666666666,0.0,"
            "8.138020833333334,359.99999999999994\n"
        )

    def test_range_doppler_csv(self, tmp_path, monkeypatch):
        rd_map = RangeDopplerMap(
            [[1.0, math.nan], [0.1 + 0.2, 2.5], [3.0, 4.0]],
            [0.0, 1e-9, 2e-9],
            [-12.5, 1.0 / 3.0],
            2e-9, 1, [3.0, 4.0],
        )
        path = tmp_path / "rd.csv"
        monkeypatch.setattr(harness, "DELAY_BINS", 2)
        write_range_doppler_csv(rd_map, path)
        assert path.read_bytes() == (
            b"delay_s,-12.5,0.3333333333333333\n"
            b"0.0,1.0,\n"
            b"1e-09,0.30000000000000004,2.5\n"
        )


    def test_range_doppler_csv_matches_csv_module(self, tmp_path, monkeypatch):
        """Byte for byte the csv module's output of the formatted values,
        with NaN blank, signed zeros, the smallest subnormal and huge
        values, in distinct and in repeating columns."""
        rng = np.random.default_rng(18)
        magnitudes = rng.uniform(0.0, 3.0, (40, 9))
        specials = [math.nan, -0.0, 0.0, 5e-324, 1e300]
        magnitudes.flat[rng.choice(magnitudes.size, 60, replace=False)] = rng.choice(specials, 60)
        magnitudes[:, 4] = rng.choice(specials, 40)  # a column of repeats
        rd_map = RangeDopplerMap(
            magnitudes, np.arange(40) * 1e-9, [-1e300, -2.5, -0.0, 5e-324, 0.1, 1.0, 7.0, 1e20, 1e300],
            0.0, 0, magnitudes[0],
        )

        def text(value):
            return "" if math.isnan(value) else repr(value)

        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["delay_s", *map(text, rd_map.doppler_axis_hz.tolist())])
        for delay, row in zip(rd_map.delay_axis_s[:32].tolist(), magnitudes[:32].tolist()):
            writer.writerow([text(delay), *map(text, row)])
        path = tmp_path / "rd.csv"
        monkeypatch.setattr(harness, "DELAY_BINS", 32)
        write_range_doppler_csv(rd_map, path)
        assert path.read_bytes() == expected.getvalue().encode()
        assert b",," in path.read_bytes() and b"-0.0" in path.read_bytes()

    def test_repeated_values_print_like_single_cells(self):
        """Every value prints as `_format` prints it alone: signed zeros,
        NaN (two NaN objects), numpy scalars and equal values of other
        types (1, 1.0, True), in columns of repeats and of distinct
        values alike."""
        nan = math.nan
        xs = [0.0, -0.0, 1.5, 1.5, -0.0, 0.0, nan, float("nan"), 1.5, 0.0]
        ys = [1, 1.0, True, np.float64(1.0), np.int64(1), 1.0, 1, 1.0, True, 2]
        g1 = [1e-20, 1e-20, 2.5, 2.5, nan, nan, 2.5, 1e-20, 2.5, 2.5]
        g2 = np.linspace(0.0, 1.0, 10).tolist()
        out = io.StringIO()
        harness._write_table(out, list("abcde"), [xs, ys, g1, g2, ["mode1"] * 10])
        expected = [",".join(map(harness._format, row)) + ",mode1" for row in zip(xs, ys, g1, g2)]
        assert out.getvalue().splitlines()[1:] == expected
        assert expected[:2] == ["0.0,1,1e-20,0.0,mode1", "-0.0,1.0,1e-20,0.1111111111111111,mode1"]

    @pytest.mark.parametrize("distinct", [14, 15, 16])
    def test_texts_at_the_cache_threshold(self, distinct):
        """Columns of 20 floats with 14, 15 and 16 distinct values (either
        side of the 3/4 share at which a per-column text cache once
        switched on), among them signed zeros and NaN, print as their
        values would alone; so do columns mixing other types."""
        # 0.0 and -0.0 are equal; two NaN objects are two values.
        values = [v / 3.0 for v in range(distinct - 2)] + [math.nan, float("nan")]
        values += ([-0.0, 1.0 / 3.0] * 4)[: 20 - len(values)]
        assert len(values) == 20 and len(set(values)) == distinct
        columns = [values, values[::-1], values[:19] + [np.float64(2.0)], values[:19] + [1]]
        out = io.StringIO()
        harness._write_table(out, ["a", "b", "c", "d"], columns)
        rows = [",".join(map(harness._format, row)) for row in zip(*columns)]
        assert out.getvalue().splitlines() == ["a,b,c,d", *rows]
        assert "-0.0," in out.getvalue() and ",," in out.getvalue()

    def test_every_output_reads_back_unquoted(self, tmp_path):
        """No text the program writes needs CSV quoting: the csv module
        reads every line of every output kind back as the line split on
        commas (the summary lines too)."""
        runs = [
            ["sweep", "--scenario", "scenario3", "--engine", "model", "--points", "8"],
            ["sweep", "--scenario", "scenario1", "--points", "6"],
            ["multistatic", "--scenario", "scenario3", "--engine", "model", "--points", "6"],
            ["multistatic", "--scenario", "scenario3", "--engine", "signal", "--points", "4",
             "--trials", "1"],
            ["doppler", "--scenario", "scenario3", "--pulses", "4",
             "--map-out", str(tmp_path / "rd.csv")],
            ["gdop-map", "--scenario", "scenario2", "--nx", "9", "--ny", "7"],
        ]
        outputs = []
        for k, argv in enumerate(runs):
            outputs.append(tmp_path / f"{k}.csv")
            assert main(argv + ["--out", str(outputs[-1])]) == 0
        outputs.append(tmp_path / "rd.csv")
        statuses = set()
        for path in outputs:
            lines = path.read_text().splitlines()
            assert len(lines) > 1
            assert list(csv.reader(lines)) == [line.split(",") for line in lines]
            statuses.update(line.rsplit(",", 1)[-1] for line in lines)
        assert {"ok", "excluded", "mode1", "mode2", "degenerate"} <= statuses


class TestGdopMap:
    def test_grid_layout_and_modes(self):
        cfg = preset_scenario("scenario1")
        result = run_gdop_map(cfg, GridSpec(-2.0, 2.0, 5, 1.0, 3.0, 3))
        assert result.x_m.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert result.y_m.tolist() == [1.0, 2.0, 3.0]
        maps = result.gdop_mode1_m, result.gdop_mode2_m, result.best_mode
        assert [m.shape for m in maps] == [(3, 5)] * 3
        for g1, g2, best in zip(*(m.ravel().tolist() for m in maps)):
            if math.isnan(g1) and math.isnan(g2):
                assert best == "degenerate"
            elif g1 <= g2:
                assert best == "mode1"
            else:
                assert best == "mode2"

    def test_requires_error_model(self):
        cfg = preset_scenario("scenario1")
        cfg.scenario_id = "custom"  # no explicit sigmas and no table
        with pytest.raises(ConfigError):
            run_gdop_map(cfg, GridSpec(-1.0, 1.0, 3, 1.0, 2.0, 3))

    def test_matches_per_cell_loop(self):
        """The stacked map against the per-cell scalar loop it replaced."""
        cfg = preset_scenario("scenario2")
        # The grid passes through both nodes and along the baseline.
        grid = GridSpec(-30.0, 30.0, 41, -30.0, 30.0, 41)
        err = cfg.error_model
        pair1, pair2 = _primary_pair(cfg, Mode.MODE1), _primary_pair(cfg, Mode.MODE2)
        expected = []
        for yv in np.linspace(grid.y_min, grid.y_max, grid.ny):
            for xv in np.linspace(grid.x_min, grid.x_max, grid.nx):
                target = TargetState(float(xv), float(yv))
                g1, g2 = (
                    float(gdop_batch([p], target.x, target.y, err)[0]) for p in (pair1, pair2)
                )
                if math.isnan(g1) and math.isnan(g2):
                    best = "degenerate"
                elif math.isnan(g2) or g1 <= g2:
                    best = "mode1"
                else:
                    best = "mode2"
                expected.append((float(xv), float(yv), g1, g2, best))
        result = run_gdop_map(cfg, grid)
        got = [
            (x, y, g1, g2, best)
            for y, *rows in zip(result.y_m.tolist(), result.gdop_mode1_m.tolist(),
                                result.gdop_mode2_m.tolist(), result.best_mode.tolist())
            for x, g1, g2, best in zip(result.x_m.tolist(), *rows)
        ]
        assert [c[4] for c in got] == [c[4] for c in expected]
        assert "degenerate" in {c[4] for c in got}
        assert np.array_equal(
            np.array([c[:4] for c in got]), np.array([c[:4] for c in expected]), equal_nan=True
        )


    def test_csv_matches_the_csv_module_cell_by_cell(self):
        """The writer repeats each axis text; the bytes are the csv
        module's rows of the formatted cells, y outer and x inner, on a
        grid through both nodes (degenerate cells print blank)."""
        result = run_gdop_map(preset_scenario("scenario2"), GridSpec(-15.0, 15.0, 7, -6.0, -0.0, 4))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["x_m", "y_m", "gdop_mode1_m", "gdop_mode2_m", "best_mode"])
        for j, y in enumerate(result.y_m.tolist()):
            for i, x in enumerate(result.x_m.tolist()):
                cell = result.gdop_mode1_m[j, i], result.gdop_mode2_m[j, i]
                writer.writerow([*map(harness._format, (x, y, *map(float, cell))),
                                 result.best_mode[j, i]])
        out = io.StringIO()
        harness.write_gdop_map_csv(result, out)
        assert out.getvalue() == expected.getvalue()
        assert "degenerate" in out.getvalue() and "\n-15.0,-0.0," in out.getvalue()


class TestCli:
    def test_scenarios_round_trip(self, tmp_path, capsys):
        out = tmp_path / "preset.cfg"
        assert main(["scenarios", "--scenario", "scenario2", "--out", str(out)]) == 0
        text = out.read_text()
        assert "node = 15.0 0.0 0.01 0.01" in text and "baseline_l" not in text
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

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        """A directory, or a file that is not UTF-8 text, is a configuration
        problem (exit 1) named by its path, not a traceback or exit 2."""
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"seed = 1 # caf\xe9\n")
        for source in (tmp_path, latin1):
            assert main(["sweep", "--scenario", str(source)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and repr(str(source)) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--points", "3"],
            ["multistatic", "--trials", "0"],
            ["doppler", "--pulses", "1"],
            ["doppler", "--speed-mps", "nan"],
            ["gdop-map", "--x-min", "nan"],
            ["sweep", "--points", "x"],
            ["sweep", "--bandwidth-mhz", "250"],
            ["sweep", "--bogus"],
            ["sweep", "--workers", "0"],
            ["multistatic", "--workers", "-1"],
        ],
    )
    def test_flag_problems_exit_1(self, argv, capsys):
        assert main(argv + ["--scenario", "scenario1"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and not captured.out

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["multistatic", "--help"])
        assert exit_.value.code == 0 and "--workers" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["gdop-map", "--nx", "3", "--ny", "3", "--out", "{missing}"],
            ["sweep", "--out", ""],
            ["doppler", "--map-out", "{missing}"],
            ["scenarios", "--out", "{missing}"],
        ],
    )
    def test_unwritable_output_exits_1_before_the_run(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started before the output was checked")

        for name in ("run_gdop_map", "run_iso_range_sweep", "run_doppler"):
            monkeypatch.setattr(cli, name, no_run)
        missing = str(tmp_path / "missing" / "x.csv")
        argv = [arg.format(missing=missing) for arg in argv]
        assert main(argv + ["--scenario", "scenario1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write") and not captured.out

    def test_runtime_problem_exits_2(self, capsys):
        argv = ["doppler", "--scenario", "scenario1", "--theta2-deg", "90", "--pulses", "2"]
        assert main(argv) == 2
        assert "runtime failure:" in capsys.readouterr().err

    def test_zero_sigma_multistatic_exits_0(self, tmp_path, capsys):
        """Exact nodes and zero measurement sigmas: every pair predicts no error."""
        scene = tmp_path / "zero.cfg"
        scene.write_text(
            "engine = model_based\nsweep_points = 8\ntrials_per_point = 2\n"
            "[nodes]\nnode = 0 0\nnode = 15 0\n"
            "[sweep]\nsum_range = 25\n"
            "sigma_tdoa_s = 0\nsigma_aoa_rad = 0\n"
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

    def test_back_to_back_calls_write_the_bytes_of_separate_ones(self, tmp_path, capsys):
        """`main` parses every call of a process with one parser. Calls in
        one process, with a usage error (exit 1) after each, write the
        bytes each writes in a fresh process: a sweep with ``--points``,
        one that leaves them to the scenario, a map and a fusion run."""
        runs = {
            "points": ["sweep", "--scenario", "scenario3", "--engine", "model",
                       "--points", "4", "--trials", "3"],
            "default": ["sweep", "--scenario", "scenario3", "--engine", "model", "--trials", "3"],
            "map": ["gdop-map", "--scenario", "scenario2", "--nx", "5", "--ny", "4"],
            "fused": ["multistatic", "--scenario", "scenario3", "--engine", "model",
                      "--points", "6", "--trials", "2", "--workers", "3"],
        }
        together = {}
        for name, argv in runs.items():
            out = tmp_path / f"{name}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            assert main(["sweep", "--scenario", "scenario3", "--points", "x"]) == 1
            together[name] = out.read_bytes()
        assert capsys.readouterr().err.count("error:") == len(runs)
        assert cli._parser() is cli._parser()
        for name, argv in runs.items():
            alone = outputs_in_subprocess(tmp_path / f"alone-{name}", {name: argv}, {})
            assert alone == {f"{name}.csv": together[name]}, name
        assert together["default"].count(b"\n") > together["points"].count(b"\n")


# SHA-256 of model-engine outputs, recorded before the model engine drew
# and wrote its runs as whole-run arrays: a sweep, a fusion run and a map
# over a y range symmetric about the baseline.
MODEL_PINS = {
    "sweep": (["sweep", "--scenario", "scenario3", "--bandwidth-mhz", "100", "--engine", "model",
               "--points", "36", "--trials", "25", "--seed", "20231"],
              "38e7ab15dc0004e96f8c89fec459d0bc32bbee2dd518b9e2f356b8d0dc89558d"),
    "multistatic": (["multistatic", "--scenario", "scenario3", "--bandwidth-mhz", "400",
                     "--engine", "model", "--points", "36", "--trials", "10", "--seed", "20231"],
                    "b5ecead7dc070706d4bf3f381e689195b64c2382780001f47b1156a22c468d63"),
    "gdop-map": (["gdop-map", "--scenario", "scenario2", "--x-min", "-31.5", "--x-max", "36.25",
                  "--nx", "21", "--y-min", "-27.75", "--y-max", "27.75", "--ny", "21"],
                 "d83986e878618b78cdda4d876f4503ec2efae741551e8ca8953bb431ef08a705"),
}


class TestModelEnginePins:
    @pytest.mark.parametrize("name, workers", [
        ("sweep", 1), ("sweep", 3), ("multistatic", 1), ("multistatic", 3), ("gdop-map", None),
    ])
    def test_matches_pinned_bytes(self, tmp_path, name, workers):
        argv, digest = MODEL_PINS[name]
        if workers is not None:
            argv = argv + ["--workers", str(workers)]
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# numpy's AVX-512 kernels that the baseline x86-64 dispatch level lacks.
AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

SIMD_RUNS = {
    "sweep": ["sweep", "--scenario", "scenario3", "--engine", "model",
              "--points", "24", "--trials", "5"],
    "multistatic-model": ["multistatic", "--scenario", "scenario3", "--engine", "model",
                          "--bandwidth-mhz", "400", "--points", "24", "--trials", "5"],
    "multistatic-signal": ["multistatic", "--scenario", "scenario3", "--engine", "signal",
                           "--points", "8", "--trials", "1"],
    "gdop-map": ["gdop-map", "--scenario", "scenario1", "--nx", "61", "--ny", "61"],
}


# Signal-engine runs whose bytes once depended on the BLAS thread count:
# the 400 MHz sweep's last digits and both Doppler pins moved under
# OPENBLAS_NUM_THREADS=1.
BLAS_RUNS = {
    "sweep-100": ["sweep", "--scenario", "scenario3", "--points", "24", "--seed", "5"],
    "sweep-400": ["sweep", "--scenario", "scenario1", "--bandwidth-mhz", "400",
                  "--points", "24", "--seed", "1"],
    "doppler": ["doppler", "--scenario", "scenario3", "--pulses", "16"],
    "multistatic": ["multistatic", "--scenario", "scenario3", "--engine", "signal",
                    "--points", "8", "--trials", "1"],
}


def outputs_in_subprocess(directory: Path, runs: dict, env: dict) -> dict:
    """Each run's CSV bytes (and the Doppler map's) from one fresh process
    with ``env`` over this one's environment (None removes a variable)."""
    directory.mkdir()
    package = str(Path(harness.__file__).resolve().parents[1])
    script = (
        "import sys\nfrom bistar.cli import main\n"
        f"for name, argv in {runs!r}.items():\n"
        "    out = [f'{sys.argv[1]}/{name}.csv']\n"
        "    if argv[0] == 'doppler':\n"
        "        out += ['--map-out', f'{sys.argv[1]}/{name}-map.csv']\n"
        "    assert main(argv + ['--out', *out]) == 0\n"
    )
    env = {key: value for key, value in {**os.environ, **env}.items() if value is not None}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package, env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-c", script, str(directory)], env=env, check=True,
                   timeout=300)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestSimdDispatch:
    def test_bytes_do_not_depend_on_the_simd_level(self, tmp_path):
        """Each output of one process with numpy's AVX-512 kernels turned
        off has the bytes of one with the default dispatch (identical
        runs on a host without AVX-512). np.arctan2's AVX-512 kernel
        rounds apart from the C library's, which moved both engines'
        multistatic CSVs while the fusion bearing used it."""
        default, baseline = (
            outputs_in_subprocess(tmp_path / level, SIMD_RUNS, {"NPY_DISABLE_CPU_FEATURES": off})
            for level, off in (("default", ""), ("baseline", AVX512))
        )
        assert len(default) == len(SIMD_RUNS)
        for name in default:
            assert default[name] == baseline[name], name


class TestBlasThreads:
    def test_signal_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """Signal sweeps at 100 and 400 MHz, a 16-pulse Doppler run with
        its map and a signal fusion run write the same bytes with one
        OpenBLAS thread as with the default count: the receiver's sums
        over a capture are einsum sums in a fixed order, not BLAS
        products that split across threads."""
        one, many = (
            outputs_in_subprocess(tmp_path / name, BLAS_RUNS, {"OPENBLAS_NUM_THREADS": threads})
            for name, threads in (("one", "1"), ("default", None))
        )
        assert len(one) == len(BLAS_RUNS) + 1
        for name in one:
            assert one[name] == many[name], name
