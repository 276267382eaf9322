"""Scenario configuration: presets, parsing, serialization round trips."""

import math

import pytest

from bistar import (
    ConfigError,
    MeasurementErrorModel,
    MotionConfig,
    NodePosition,
    RadarParams,
    ScenarioConfig,
    apply_bandwidth,
    dumps_scenario,
    error_model_for,
    load_scenario,
    parse_scenario,
    preset_scenario,
)
from bistar.config import ENGINE_MODEL, ENGINE_SIGNAL, MEAN_ABS_TDOA_NS
from bistar.estimation import MEAN_ABS_TO_SIGMA

GOOD_TEXT = """\
# A complete scenario file.
scenario_id = custom
seed = 7
engine = model_based
sweep_points = 90
trials_per_point = 3

[nodes]
node = 0.0 0.0 0.01 0.01
node = 10.0 0.0          # plain x y form
node = -4.0 6.5 0.0 0.02

[radar]
carrier_hz = 28e9
bandwidth_hz = 100e6
eirp_dbm = 43.0
tx_elements = 8
rx_elements = 16

[sweep]
sum_range = 24.0
rcs_dbsm = -10.0
exclusion_deg = 4.0
sigma_tdoa_ns = 2.5
sigma_aoa_deg = 0.1

[motion]
speed_mps = 0.4
theta2_deg = 45.0
pulses = 32
"""


class TestMotionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MotionConfig(speed_mps=-0.1)
        with pytest.raises(ValueError):
            MotionConfig(pulses=1)


class TestScenarioConfig:
    def test_baseline_is_the_first_two_nodes_apart(self):
        nodes = [NodePosition(1.0, 2.0), NodePosition(4.0, 6.0), NodePosition(9.0, 9.0)]
        assert ScenarioConfig("x", nodes, sum_range=24.0, rcs_dbsm=0.0).baseline_l == 5.0
        with pytest.raises(ValueError, match="sum_range must exceed the baseline"):
            ScenarioConfig("x", nodes, sum_range=5.0, rcs_dbsm=0.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"sum_range": 5.0},
            {"sweep_points": 3},
            {"trials_per_point": 0},
            {"engine": "exact"},
            {"seed": -1},
            {"exclusion_deg": 60.0},
        ],
    )
    def test_scalar_validation(self, kw):
        base = dict(
            scenario_id="x",
            nodes=[NodePosition(0.0, 0.0), NodePosition(10.0, 0.0)],
            sum_range=24.0,
            rcs_dbsm=0.0,
        )
        base.update(kw)
        with pytest.raises(ValueError):
            ScenarioConfig(**base)


class TestPresets:
    def test_geometries(self):
        for name, baseline, sum_range in [
            ("scenario1", 3.0, 6.0),
            ("scenario2", 15.0, 30.0),
            ("scenario3", 25.0, 50.0),
        ]:
            cfg = preset_scenario(name)
            assert cfg.baseline_l == baseline
            assert cfg.sum_range == sum_range
            assert cfg.nodes[0] == NodePosition(0.0, 0.0, 0.01, 0.01)
            assert cfg.nodes[1] == NodePosition(baseline, 0.0, 0.01, 0.01)
            assert cfg.radar.sample_rate_hz == 122.88e6
            assert cfg.engine == ENGINE_SIGNAL

    def test_bandwidth_variant(self):
        cfg = preset_scenario("scenario3", bandwidth_mhz=400)
        assert cfg.radar.bandwidth_hz == 400e6
        assert cfg.radar.sample_rate_hz == 491.52e6
        assert cfg.error_override == error_model_for("scenario3", 400)

    def test_error_model_table(self):
        model = error_model_for("scenario1", 100)
        assert model.sigma_tdoa_s == pytest.approx(4.2e-9 * MEAN_ABS_TO_SIGMA)
        assert model.sigma_aoa_rad == 0.0
        model = error_model_for("scenario2", 100)
        assert model.sigma_aoa_rad == pytest.approx(
            math.radians(0.03) * MEAN_ABS_TO_SIGMA
        )
        with pytest.raises(ConfigError):
            error_model_for("scenario9", 100)
        with pytest.raises(ConfigError):
            error_model_for("scenario1", 200)

    def test_rejects_unknown_inputs(self):
        with pytest.raises(ConfigError):
            preset_scenario("scenario7")
        with pytest.raises(ConfigError):
            preset_scenario("scenario1", bandwidth_mhz=200)


class TestParse:
    def test_full_document(self):
        cfg = parse_scenario(GOOD_TEXT)
        assert cfg.scenario_id == "custom"
        assert cfg.seed == 7
        assert cfg.engine == ENGINE_MODEL
        assert cfg.sweep_points == 90
        assert cfg.trials_per_point == 3
        assert cfg.nodes == [
            NodePosition(0.0, 0.0, 0.01, 0.01),
            NodePosition(10.0, 0.0, 0.0, 0.0),
            NodePosition(-4.0, 6.5, 0.0, 0.02),
        ]
        assert cfg.radar.carrier_hz == 28e9
        assert cfg.radar.tx_elements == 8
        assert cfg.baseline_l == 10.0
        assert cfg.rcs_dbsm == -10.0
        assert cfg.exclusion_deg == 4.0
        assert cfg.error_override == MeasurementErrorModel(2.5e-9, math.radians(0.1))
        assert cfg.motion == MotionConfig(0.4, 45.0, 32)

    def test_defaults_without_optional_keys(self):
        text = "\n".join(
            [
                "[nodes]",
                "node = 0 0",
                "node = 8 0",
                "[sweep]",
                "sum_range = 20",
            ]
        )
        cfg = parse_scenario(text)
        assert cfg.scenario_id == "custom"
        assert cfg.error_override is None
        assert cfg.motion is None
        assert cfg.radar == RadarParams()
        assert cfg.sweep_points == 360 and cfg.trials_per_point == 1

    @pytest.mark.parametrize(
        "mutation, line, fragment",
        [
            ("[orbit]", 2, "unknown section"),
            ("just words", 2, "key = value"),
            ("colour = red", 2, "unknown top-level key"),
            ("seed = 1.5", 2, "must be an integer"),
            ("seed =", 2, "empty value"),
            ("seed = inf", 2, "must be finite"),
            ("seed = -inf", 2, "must be finite"),
            ("seed = nan", 2, "must be finite"),
            ("[sweep]\nsum_range = nan", 3, "must be finite"),
            ("[sweep]\nsigma_tdoa_ns = nan", 3, "must be finite"),
            ("[nodes]\nnode = 0 inf", 3, "must be finite"),
            ("[radar]\ntx_elements = 8.5", 3, "must be an integer"),
            ("[radar]\nrx_elements = 16.5", 3, "must be an integer"),
        ],
    )
    def test_top_level_errors_carry_line_numbers(self, mutation, line, fragment):
        text = "scenario_id = x\n" + mutation + "\n"
        with pytest.raises(ConfigError, match=fragment) as info:
            parse_scenario(text)
        assert f"line {line}" in str(info.value)

    def test_node_errors(self):
        with pytest.raises(ConfigError, match="only 'node'"):
            parse_scenario("[nodes]\nfoo = 1 2\n")
        with pytest.raises(ConfigError, match="node needs"):
            parse_scenario("[nodes]\nnode = 1 2 3\n")
        with pytest.raises(ConfigError, match="not a number"):
            parse_scenario("[nodes]\nnode = 1 east\n")

    def test_section_key_errors(self):
        with pytest.raises(ConfigError, match=r"unknown \[radar\] key"):
            parse_scenario("[radar]\nwavelength = 0.01\n")
        with pytest.raises(ConfigError, match=r"unknown \[sweep\] key"):
            parse_scenario("[sweep]\nstride = 2\n")
        with pytest.raises(ConfigError, match=r"unknown \[motion\] key"):
            parse_scenario("[motion]\nheading = 3\n")

    def test_missing_required_pieces(self):
        with pytest.raises(ConfigError, match="sum_range"):
            parse_scenario("[nodes]\nnode = 0 0\nnode = 8 0\n[sweep]\nrcs_dbsm = 0\n")
        with pytest.raises(ConfigError, match="two"):
            parse_scenario("[nodes]\nnode = 0 0\n[sweep]\nsum_range = 20\n")

    @pytest.mark.parametrize(
        "section, key", [("sweep", "baseline_l"), ("motion", "direction")]
    )
    def test_derived_and_fixed_keys_are_refused(self, section, key):
        """The baseline comes from the first two nodes and the motion is
        always radial inward: a file that states either is refused."""
        text = f"[nodes]\nnode = 0 0\nnode = 8 0\n[sweep]\nsum_range = 20\n[{section}]\n"
        with pytest.raises(ConfigError, match=rf"line 7: unknown \[{section}\] key '{key}'"):
            parse_scenario(text + f"{key} = 8\n")

    def test_semantic_errors_become_config_errors(self):
        text = "\n".join(
            [
                "[nodes]",
                "node = 0 0",
                "node = 8 0",
                "[sweep]",
                "sum_range = 4",
            ]
        )
        with pytest.raises(ConfigError, match="sum_range"):
            parse_scenario(text)


class TestRoundTrip:
    def test_parse_of_dumps_is_identity(self):
        cfg = preset_scenario("scenario2", bandwidth_mhz=400, seed=5)
        cfg.motion = MotionConfig(0.2, 60.0, 64)
        cfg.direct_path_gain_db = -20.0
        cfg.trials_per_point = 4
        assert parse_scenario(dumps_scenario(cfg)) == cfg

    def test_round_trip_without_optionals(self):
        text = "\n".join(
            [
                "[nodes]",
                "node = 0 0",
                "node = 8 0",
                "[sweep]",
                "sum_range = 20",
            ]
        )
        cfg = parse_scenario(text)
        assert parse_scenario(dumps_scenario(cfg)) == cfg


    def test_dumps_text_is_fixed(self):
        text = GOOD_TEXT.replace("rx_elements = 16", "rx_elements = 16\ndirect_path_gain_db = -20")
        assert dumps_scenario(parse_scenario(text)) == (
            "scenario_id = custom\nseed = 7\nengine = model_based\n"
            "sweep_points = 90\ntrials_per_point = 3\n"
            "\n[nodes]\n"
            "node = 0.0 0.0 0.01 0.01\nnode = 10.0 0.0 0.0 0.0\nnode = -4.0 6.5 0.0 0.02\n"
            "\n[radar]\n"
            "carrier_hz = 28000000000.0\nbandwidth_hz = 100000000.0\n"
            "subcarrier_spacing_hz = 120000.0\neirp_dbm = 43.0\n"
            "tx_elements = 8\nrx_elements = 16\nnoise_figure_db = 13.0\n"
            "sample_rate_hz = 122880000.0\nreference_temp_k = 290.0\n"
            "direct_path_gain_db = -20.0\n"
            "\n[sweep]\n"
            "sum_range = 24.0\nrcs_dbsm = -10.0\nexclusion_deg = 4.0\n"
            "sigma_tdoa_ns = 2.5\nsigma_aoa_deg = 0.1\n"
            "\n[motion]\n"
            "speed_mps = 0.4\ntheta2_deg = 45.0\npulses = 32\n"
        )

    def test_dumps_text_without_sigmas_or_motion(self):
        cfg = parse_scenario(
            "[nodes]\nnode = 0 0\nnode = 8 0\n[sweep]\nsum_range = 20\n"
        )
        assert dumps_scenario(cfg) == (
            "scenario_id = custom\nseed = 1\nengine = signal_level\n"
            "sweep_points = 360\ntrials_per_point = 1\n"
            "\n[nodes]\n"
            "node = 0.0 0.0 0.0 0.0\nnode = 8.0 0.0 0.0 0.0\n"
            "\n[radar]\n"
            "carrier_hz = 28000000000.0\nbandwidth_hz = 100000000.0\n"
            "subcarrier_spacing_hz = 120000.0\neirp_dbm = 43.0\n"
            "tx_elements = 8\nrx_elements = 16\nnoise_figure_db = 13.0\n"
            "sample_rate_hz = 122880000.0\nreference_temp_k = 290.0\n"
            "\n[sweep]\n"
            "sum_range = 20.0\nrcs_dbsm = 0.0\nexclusion_deg = 5.0\n"
        )


class TestLoadScenario:
    def test_preset_by_name(self):
        assert load_scenario("scenario1") == preset_scenario("scenario1")
        assert load_scenario("scenario1", 400) == preset_scenario("scenario1", 400)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="neither a preset"):
            load_scenario("/nonexistent/path.cfg")

    def test_file_path(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(GOOD_TEXT)
        cfg = load_scenario(path)
        assert cfg == parse_scenario(GOOD_TEXT)

    def test_file_with_bandwidth_override(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(GOOD_TEXT)
        cfg = load_scenario(path, bandwidth_mhz=400)
        assert cfg.radar.sample_rate_hz == 491.52e6
        # Explicit sigmas in the file survive a bandwidth switch.
        assert cfg.error_override == MeasurementErrorModel(2.5e-9, math.radians(0.1))


class TestApplyBandwidth:
    def test_switches_sampling(self):
        cfg = apply_bandwidth(preset_scenario("scenario1"), 400)
        assert cfg.radar.bandwidth_hz == 400e6
        assert cfg.radar.sample_rate_hz == 491.52e6
        with pytest.raises(ConfigError):
            apply_bandwidth(cfg, 250)

    def test_refreshes_table_derived_model(self):
        cfg = preset_scenario("scenario1")
        assert cfg.error_override == error_model_for("scenario1", 100)
        wide = apply_bandwidth(cfg, 400)
        assert wide.error_override == error_model_for("scenario1", 400)
        assert wide.error_override.sigma_tdoa_s == pytest.approx(
            MEAN_ABS_TDOA_NS[("scenario1", 400)] * 1e-9 * MEAN_ABS_TO_SIGMA
        )

    def test_keeps_explicit_override(self):
        cfg = preset_scenario("scenario1")
        custom = MeasurementErrorModel(9e-9, 0.001)
        cfg.error_override = custom
        assert apply_bandwidth(cfg, 400).error_override == custom

    def test_unknown_scenario_id_keeps_none(self):
        cfg = parse_scenario(
            "[nodes]\nnode = 0 0\nnode = 8 0\n[sweep]\nsum_range = 20\n"
        )
        assert apply_bandwidth(cfg, 400).error_override is None
