"""Scenario configuration: presets, parsing, serialization round trips."""

import math

import numpy as np
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
from bistar.config import _KEYS, ENGINE_MODEL, ENGINE_SIGNAL, MEAN_ABS_TDOA_NS
from bistar.estimation import MEAN_ABS_TO_SIGMA
from bistar.geometry import SPEED_OF_LIGHT

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
sigma_tdoa_s = 2.5e-9
sigma_aoa_rad = 0.0017453292519943296

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
        assert cfg.error_override is None
        assert cfg.error_model == error_model_for("scenario3", 400)

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
            ("[sweep]\nsigma_tdoa_s = nan", 3, "must be finite"),
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

    @pytest.mark.parametrize("key", ["sigma_tdoa_s", "sigma_aoa_rad"])
    def test_negative_sigma_is_a_config_error(self, key):
        """A negative sigma used to escape as ValueError, which the CLI
        reports as a runtime failure (exit 2), not a configuration
        problem (exit 1)."""
        text = f"[nodes]\nnode = 0 0\nnode = 8 0\n[sweep]\nsum_range = 20\n{key} = -1e-9\n"
        with pytest.raises(ConfigError, match="non-negative"):
            parse_scenario(text)

    def test_mutated_files_parse_or_raise_config_error(self):
        """Property over seeded random edits of a preset's text: values
        replaced by non-finite, huge, tiny, negative, malformed or empty
        ones, node lines of every length, keys repeated or unknown. Each
        text parses to a config that writes itself back bit for bit, or
        raises ConfigError; nothing else escapes."""
        rng = np.random.default_rng(26)
        values = ["0", "-1", "1", "2.5", "1e300", "-1e300", "5e-324", "nan", "inf", "-inf",
                  "1e999", "x", "3 4", "0x10", "1_000", "4.0", "2.5e-9", "-0.0", "100e6",
                  "9" * 30]
        keys = [(section, key) for section, table in _KEYS.items() for key in table]
        base = dumps_scenario(preset_scenario("scenario3", 400)).splitlines()
        outcomes = set()
        for _ in range(1500):
            lines = list(base)
            for _ in range(int(rng.integers(1, 4))):
                i = int(rng.integers(len(lines)))
                key = lines[i].partition("=")[0].strip()
                if key == "node":
                    parts = rng.choice(values, int(rng.integers(1, 6)))
                    lines[i] = "node = " + " ".join(parts)
                elif key:
                    lines[i] = f"{key} = {rng.choice(values)}"
                else:
                    section, key = keys[int(rng.integers(len(keys)))]
                    lines.insert(i + 1, f"{key or 'bogus'} = {rng.choice(values)}")
            try:
                cfg = parse_scenario("\n".join(lines))
            except ConfigError:
                outcomes.add("refused")
                continue
            outcomes.add("parsed")
            assert parse_scenario(dumps_scenario(cfg)) == cfg
            assert math.isfinite(cfg.baseline_l) and math.isfinite(cfg.sum_range)
        assert outcomes == {"parsed", "refused"}

    @pytest.mark.parametrize(
        "text, line, first",
        [
            ("seed = 1\nseed = 2\n", 2, 1),
            ("[sweep]\nsum_range = 50\nrcs_dbsm = 0\nsum_range = 60\n", 4, 2),
            ("[radar]\ntx_elements = 8\n[sweep]\nsum_range = 50\n[radar]\ntx_elements = 4\n", 6, 2),
        ],
        ids=["top-level", "sweep", "split-section"],
    )
    def test_repeated_key_is_refused(self, text, line, first):
        """A key set twice in one section names both lines, also when its
        section header appears twice; it used to take the last value."""
        key = text.splitlines()[line - 1].partition("=")[0].strip()
        with pytest.raises(ConfigError, match=rf"line {line}: '{key}' repeats .* line {first}$"):
            parse_scenario(text)

    def test_node_entries_and_split_sections_are_not_repeats(self):
        cfg = parse_scenario(
            "[radar]\ntx_elements = 8\n[nodes]\nnode = 0 0\nnode = 8 0\nnode = 4 4\n"
            "[sweep]\nsum_range = 20\n[radar]\nrx_elements = 4\n"
        )
        assert len(cfg.nodes) == 3
        assert (cfg.radar.tx_elements, cfg.radar.rx_elements) == (8, 4)

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

    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    @pytest.mark.parametrize("bandwidth_mhz", [100, 400])
    def test_every_preset_round_trips_bit_for_bit(self, name, bandwidth_mhz):
        """A preset's text names its table and parses back to the preset;
        the same sigmas written out as explicit numbers come back with
        their bits (scenario1's 5.263919376725101e-09 s came back one ulp
        up through nanoseconds)."""
        cfg = preset_scenario(name, bandwidth_mhz, seed=9)
        text = dumps_scenario(cfg)
        assert "sigma" not in text
        assert parse_scenario(text) == cfg
        assert parse_scenario(text).error_model == error_model_for(name, bandwidth_mhz)
        cfg.error_override = cfg.error_model
        back = parse_scenario(dumps_scenario(cfg))
        assert back == cfg
        assert back.error_override.sigma_tdoa_s.hex() == cfg.error_override.sigma_tdoa_s.hex()

    def test_explicit_sigmas_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(23)
        cfg = parse_scenario(GOOD_TEXT)
        for tdoa, aoa in zip(rng.uniform(0.0, 1e-8, 200), rng.uniform(0.0, 0.1, 200)):
            cfg.error_override = MeasurementErrorModel(float(tdoa), float(aoa))
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
            "sigma_tdoa_s = 2.5e-09\nsigma_aoa_rad = 0.0017453292519943296\n"
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

    def test_unreadable_paths_are_config_errors(self, tmp_path):
        """A directory and a file that is not UTF-8 text are configuration
        problems that name the path; they used to escape as
        IsADirectoryError and UnicodeDecodeError."""
        with pytest.raises(ConfigError, match=f"cannot read '{tmp_path}': Is a directory"):
            load_scenario(tmp_path)
        path = tmp_path / "latin1.cfg"
        path.write_bytes(GOOD_TEXT.encode() + b"# caf\xe9\n")
        with pytest.raises(ConfigError, match=f"'{path}' is not UTF-8 text"):
            load_scenario(path)

    def test_file_path(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(GOOD_TEXT)
        cfg = load_scenario(path)
        assert cfg == parse_scenario(GOOD_TEXT)

    def test_preset_file_loaded_at_400_gets_the_400_table(self, tmp_path):
        """`bistar scenarios --scenario scenario1` written to a file and run
        at 400 MHz uses the 400 MHz sigmas (0.213 ns), not the 100 MHz
        file's 5.26 ns."""
        path = tmp_path / "s1.cfg"
        path.write_text(dumps_scenario(preset_scenario("scenario1")))
        cfg = load_scenario(path, 400)
        assert cfg == preset_scenario("scenario1", 400)
        assert cfg.error_model == error_model_for("scenario1", 400)
        assert cfg.error_model.sigma_tdoa_s == pytest.approx(0.213e-9, abs=1e-12)

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
        assert cfg.error_model == error_model_for("scenario1", 100)
        wide = apply_bandwidth(cfg, 400)
        assert wide.error_model == error_model_for("scenario1", 400)
        assert wide.error_model.sigma_tdoa_s == pytest.approx(
            MEAN_ABS_TDOA_NS[("scenario1", 400)] * 1e-9 * MEAN_ABS_TO_SIGMA
        )

    def test_keeps_explicit_override(self):
        cfg = preset_scenario("scenario1")
        custom = MeasurementErrorModel(9e-9, 0.001)
        cfg.error_override = custom
        assert apply_bandwidth(cfg, 400).error_model == custom

    def test_unknown_scenario_id_keeps_none(self):
        cfg = parse_scenario(
            "[nodes]\nnode = 0 0\nnode = 8 0\n[sweep]\nsum_range = 20\n"
        )
        assert apply_bandwidth(cfg, 400).error_model is None


class TestTdoaReach:
    """The comb pilot resolves echoes within c / (2 x spacing) of transmit
    (1,249 m at 120 kHz, 2,498 m at 60 kHz); a config any of whose pairs
    can see a larger sum range is refused."""

    @staticmethod
    def text(sum_range, spacing_hz=120e3, extra_node=None, rcs_dbsm=0.0):
        nodes = ["node = 0 0", "node = 25 0"] + ([extra_node] if extra_node else [])
        return "\n".join(
            ["[nodes]", *nodes, "[radar]", f"subcarrier_spacing_hz = {spacing_hz!r}",
             "[sweep]", f"sum_range = {sum_range!r}", f"rcs_dbsm = {rcs_dbsm!r}", ""]
        )

    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    @pytest.mark.parametrize("bandwidth_mhz", [100, 400])
    def test_presets_lie_inside_the_reach(self, name, bandwidth_mhz):
        cfg = preset_scenario(name, bandwidth_mhz)
        reach = SPEED_OF_LIGHT / (2.0 * cfg.radar.subcarrier_spacing_hz)
        assert reach == pytest.approx(1249.135, abs=1e-3)
        assert cfg.sum_range + math.sqrt(3.0) * cfg.baseline_l < 0.1 * reach

    @pytest.mark.parametrize("spacing_hz", [120e3, 60e3])
    def test_file_just_past_the_reach_is_refused(self, spacing_hz):
        """Two nodes 25 m apart: the fusion receivers added 120 degrees
        round the transmitter sit 25 sqrt(3) m from the primary one, so
        the bound is the sum range plus that, whichever run it is."""
        reach = SPEED_OF_LIGHT / (2.0 * spacing_hz)
        edge = reach - 25.0 * math.sqrt(3.0)
        parse_scenario(self.text(edge - 0.01, spacing_hz))
        with pytest.raises(ConfigError, match="comb pilot resolves"):
            parse_scenario(self.text(edge + 0.01, spacing_hz))

    def test_laid_out_receivers_bound_by_the_farthest(self):
        """With more than two nodes the receivers are the nodes as laid
        out: the bound is the sum range plus the farthest receiver's
        distance from the primary one (here 1,000 m)."""
        reach = SPEED_OF_LIGHT / (2.0 * 120e3)
        far = "node = 25 1000"
        parse_scenario(self.text(reach - 1000.01, extra_node=far))
        with pytest.raises(ConfigError, match="comb pilot resolves"):
            parse_scenario(self.text(reach - 999.99, extra_node=far))

    def test_file_just_inside_runs(self, tmp_path):
        """A strong target 10 m inside the reach: its echo arrives 494 of
        the 512 lags after transmit at 100 MHz, and the signal sweep reads
        it on the sample nearest its TDOA."""
        from bistar.cli import main

        reach = SPEED_OF_LIGHT / (2.0 * 120e3)
        path, out = tmp_path / "inside.cfg", tmp_path / "inside.csv"
        path.write_text(self.text(reach - 25.0 * math.sqrt(3.0) - 0.01, rcs_dbsm=60.0))
        assert main(["sweep", "--scenario", str(path), "--points", "8",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:9]]
        ok = [row for row in rows if row[-1] == "ok"]
        assert len(ok) == 4
        for row in ok:
            assert abs(float(row[5])) < 0.5e9 / 122.88e6
