import pytest

from conftest import SCENARIO_DIR
from wbancomp.config import ConfigError, parse_scenario
from wbancomp.signals import FileSource, SyntheticSource

MINIMAL = """\
[run]
duration_s = 60

[device:temp]
id = 1
mode = CGLS
threshold = 1
signal = temperature
sample_period_ms = 500
"""


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_scenario(tmp_path):
    sc = parse_scenario(write(tmp_path, MINIMAL))
    assert sc.duration_s == 60.0
    assert len(sc.devices) == 1
    dev = sc.devices[0]
    assert dev.device_id == 1
    assert dev.mode == "CGLS"
    assert isinstance(dev.trace.source, SyntheticSource)
    assert dev.cd_ms == 1.0  # temperature default
    assert dev.dd_ms == 1.0


def test_signal_class_cd_defaults(tmp_path):
    text = MINIMAL + """
[device:ecg]
id = 2
mode = CGLL
signal = ecg
sample_period_ms = 100

[device:ppg]
id = 3
mode = CGLS
threshold = 2
signal = ppg
sample_period_ms = 100
"""
    sc = parse_scenario(write(tmp_path, text))
    by_name = {d.name: d for d in sc.devices}
    assert by_name["ecg"].cd_ms == 3.0
    assert by_name["ppg"].cd_ms == 2.0


def test_missing_file_raises_filenotfound(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_scenario(tmp_path / "absent.cfg")


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        parse_scenario(write(tmp_path, MINIMAL + "\n[radio]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_scenario(write(tmp_path, MINIMAL + "voltage = 9\n"))


def test_missing_run_section(tmp_path):
    with pytest.raises(ConfigError, match=r"\[run\]"):
        parse_scenario(write(tmp_path, MINIMAL.split("[device", 1)[0]
                             .replace("[run]\nduration_s = 60\n", "")
                             + "[device:t]\nid = 1\nmode = CGWC\n"
                               "signal = temperature\n"
                               "sample_period_ms = 500\n"))


def test_duplicate_device_ids(tmp_path):
    text = MINIMAL + """
[device:other]
id = 1
mode = CGLL
signal = ppg
sample_period_ms = 500
"""
    with pytest.raises(ConfigError, match="not unique"):
        parse_scenario(write(tmp_path, text))


def test_mode_threshold_validation(tmp_path):
    bad = MINIMAL.replace("mode = CGLS", "mode = CGLL")
    with pytest.raises(ConfigError, match="CGLL"):
        parse_scenario(write(tmp_path, bad))


def test_non_divisible_period_rejected(tmp_path):
    bad = MINIMAL.replace("sample_period_ms = 500", "sample_period_ms = 7000")
    with pytest.raises(ConfigError, match="whole number"):
        parse_scenario(write(tmp_path, bad))


def test_signal_and_file_are_exclusive(tmp_path):
    bad = MINIMAL + "file = trace.csv\n"
    with pytest.raises(ConfigError, match="exactly one"):
        parse_scenario(write(tmp_path, bad))


def test_file_device_requires_range(tmp_path):
    (tmp_path / "trace.csv").write_text("37.0\n" * 120)
    text = MINIMAL.replace("signal = temperature",
                           "file = trace.csv").replace(
        "sample_period_ms = 500", "sample_period_ms = 500\n")
    with pytest.raises(ConfigError, match="adc_range"):
        parse_scenario(write(tmp_path, text))


def test_file_paths_resolve_relative_to_config(tmp_path):
    (tmp_path / "trace.csv").write_text("37.0\n" * 120)
    text = MINIMAL.replace(
        "signal = temperature",
        "file = trace.csv\nadc_range = 30,45")
    sc = parse_scenario(write(tmp_path, text))
    source = sc.devices[0].trace.source
    assert isinstance(source, FileSource)
    assert source.path == str(tmp_path / "trace.csv")
    assert sc.devices[0].cd_ms == 3.0  # file default


def test_synth_params_forwarded(tmp_path):
    text = MINIMAL + "step_probability = 0.25\nseed = 9\n"
    sc = parse_scenario(write(tmp_path, text))
    source = sc.devices[0].trace.source
    assert source.seed == 9
    assert source.params == {"step_probability": 0.25}


def test_synth_param_of_another_signal_rejected(tmp_path):
    text = MINIMAL.replace("signal = temperature", "signal = ecg")
    with pytest.raises(ConfigError, match=r"\[device:temp\].*start_code"):
        parse_scenario(write(tmp_path, text + "start_code = 5\n"))


def test_device_energy_overrides(tmp_path):
    text = MINIMAL + "idle_ma = 38.0\ntx_ma = 39.0\n"
    sc = parse_scenario(write(tmp_path, text))
    dev = sc.devices[0]
    assert dev.energy is not None
    assert dev.energy.idle_ma == 38.0
    assert dev.energy.tx_ma == 39.0
    # untouched fields inherit the run-level model
    assert dev.energy.battery_mah == sc.energy.battery_mah


def test_bad_number_reports_section_and_key(tmp_path):
    bad = MINIMAL + "cd_ms = fast\n"
    with pytest.raises(ConfigError, match=r"\[device:temp\] cd_ms"):
        parse_scenario(write(tmp_path, bad))


def test_shipped_scenarios_parse():
    for name in ("four_device.cfg", "temperature_sleep.cfg",
                 "lifetime_table.cfg"):
        sc = parse_scenario(SCENARIO_DIR / name)
        assert sc.devices
