from datetime import date
from pathlib import Path

import pytest

from tempdyn.stations import (
    ConfigError,
    default_config_path,
    load_config,
    parse_config,
)

SAMPLE = """
# comment line
window_start = 1970-01-01
window_end = 1979-12-31
hac_bandwidth = 7
output_dir = results
cache_dir = downloads
endpoint = http://archive.example/dly
strict_qc = true

[stations]
AAA USW00000001 Alpha-City
!BBB USW00000002 Beta-City
CCC USW00000003 Gamma-City
"""


class TestParseConfig:
    def test_full_round_trip(self):
        config = parse_config(SAMPLE)
        assert config.window_start == date(1970, 1, 1)
        assert config.window_end == date(1979, 12, 31)
        assert config.hac_bandwidth == 7
        assert config.output_dir == Path("results")
        assert config.cache_dir == Path("downloads")
        assert config.endpoint == "http://archive.example/dly"
        assert config.strict_qc is True
        assert [s.code for s in config.stations] == ["AAA", "BBB", "CCC"]
        assert [s.code for s in config.active_stations()] == ["AAA", "CCC"]
        assert config.station("BBB").excluded

    def test_select_defaults_to_active(self):
        config = parse_config(SAMPLE)
        assert [s.code for s in config.select(None)] == ["AAA", "CCC"]

    def test_select_explicit_includes_excluded(self):
        config = parse_config(SAMPLE)
        assert [s.code for s in config.select(["BBB", "AAA"])] == ["BBB", "AAA"]

    def test_select_rejects_a_repeated_code(self):
        config = parse_config(SAMPLE)
        with pytest.raises(ConfigError, match="^station 'AAA' requested more than once$"):
            config.select(["AAA", "CCC", "AAA"])

    def test_unknown_station_rejected(self):
        config = parse_config(SAMPLE)
        with pytest.raises(ConfigError, match="ZZZ"):
            config.select(["ZZZ"])

    def test_duplicate_station_code_rejected(self):
        text = "[stations]\nAAA USW1 One\nAAA USW2 Two\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_window_ordering_enforced(self):
        text = "window_start = 2000-01-01\nwindow_end = 1999-01-01\n"
        with pytest.raises(ConfigError, match="window"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config("no_such_key = 1\n")

    def test_malformed_station_row(self):
        with pytest.raises(ConfigError, match="station rows"):
            parse_config("[stations]\nAAA USW1\n")

    @pytest.mark.parametrize(
        "row, label",
        [
            ("A,B USW1 One", "station code 'A,B'"),
            ("../x USW1 One", "station code '../x'"),
            ("AAA ../x One", "GHCN ID '../x'"),
            ("AAA USW1,2 One", "GHCN ID 'USW1,2'"),
        ],
    )
    def test_code_or_id_outside_the_file_name_alphabet_rejected(self, row, label):
        text = f"[stations]\nBBB USW2 Two\n{row}\n"
        with pytest.raises(ConfigError) as caught:
            parse_config(text, source="run.cfg")
        assert str(caught.value).startswith(f"run.cfg:3: {label} may hold only")

    def test_config_that_is_not_utf8_names_the_line_of_the_bad_byte(self, tmp_path):
        # Latin-1 text, as an editor set to a legacy encoding saves it
        config_file = tmp_path / "run.cfg"
        text = "window_start = 1960-01-01\n[stations]\nMSY USW1 Nouvelle-Orléans\n"
        config_file.write_bytes(text.encode("latin-1"))
        with pytest.raises(ConfigError) as caught:
            load_config(config_file)
        assert str(caught.value) == (
            f"{config_file}:3: byte 0xe9 is not UTF-8; save the file as UTF-8"
        )

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=":1:"):
            parse_config("window_start = not-a-date\n")

    @pytest.mark.parametrize(
        "value, expected",
        [(v, True) for v in ("1", "true", "Yes", "ON")]
        + [(v, False) for v in ("0", "FALSE", "no", "Off")],
    )
    def test_strict_qc_flag_values(self, value, expected):
        assert parse_config(f"strict_qc = {value}\n").strict_qc is expected

    @pytest.mark.parametrize("value", ["ture", "maybe", "", "2"])
    def test_unknown_strict_qc_value_rejected(self, value):
        with pytest.raises(ConfigError) as caught:
            parse_config(f"window_end = 2000-01-01\nstrict_qc = {value}\n", source="run.cfg")
        assert str(caught.value).startswith("run.cfg:2: bad value for strict_qc: ")
        assert repr(value) in str(caught.value)

    def test_auto_bandwidth_default(self):
        assert parse_config("").hac_bandwidth == "auto"


class TestEnvOverrides:
    def test_endpoint_and_cache_dir(self, tmp_path, monkeypatch):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(SAMPLE)
        monkeypatch.setenv("TEMPDYN_ENDPOINT", "http://mirror.example")
        monkeypatch.setenv("TEMPDYN_CACHE_DIR", str(tmp_path / "alt-cache"))
        config = load_config(config_file)
        assert config.endpoint == "http://mirror.example"
        assert config.cache_dir == tmp_path / "alt-cache"


class TestPackagedDefault:
    def test_default_config_loads(self):
        config = load_config()
        codes = [s.code for s in config.stations]
        assert len(codes) == 18
        assert len(config.active_stations()) == 15
        excluded = {s.code for s in config.stations if s.excluded}
        assert excluded == {"IAH", "MCI", "SAC"}
        assert config.window_start == date(1960, 1, 1)
        assert config.window_end == date(2017, 12, 31)
        assert config.station("PHL").ghcn_id.startswith("USW")

    def test_default_path_exists(self):
        assert default_config_path().exists()


class TestComments:
    def test_trailing_comment_leaves_the_station_name(self):
        config = parse_config(
            "[stations]\n!IAH USW00012960 Houston   # '!' = excluded unless requested\n"
        )
        assert config.station("IAH").name == "Houston"
        assert config.station("IAH").excluded

    def test_trailing_comment_leaves_the_setting(self):
        config = parse_config("hac_bandwidth = auto  # default\nstrict_qc = yes\t# tab\n")
        assert config.hac_bandwidth == "auto"
        assert config.strict_qc is True

    def test_hash_inside_a_value_is_kept(self):
        assert parse_config("endpoint = http://x/#y\n").endpoint == "http://x/#y"

    def test_indented_comment_and_commented_block_header(self):
        config = parse_config("  # indented\n[stations]  # the block\nAAA USW1 One\n")
        assert [s.code for s in config.stations] == ["AAA"]

    def test_readme_block_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Configuration", 1)[1].split("```")[1]
        config = parse_config(block)
        assert config.station("IAH").name == "Houston"
        assert config.hac_bandwidth == "auto"
