import re
from dataclasses import fields

import pytest

from conftest import SCENARIO_DIR
from wbancomp.config import (ChannelModel, RadioEnergyModel, SleepPolicy,
                             parse_scenario)
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
    with pytest.raises(ValueError, match="unknown section"):
        parse_scenario(write(tmp_path, MINIMAL + "\n[radio]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown keys"):
        parse_scenario(write(tmp_path, MINIMAL + "voltage = 9\n"))


def test_missing_run_section(tmp_path):
    with pytest.raises(ValueError, match=r"\[run\]"):
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
    with pytest.raises(ValueError, match="not unique"):
        parse_scenario(write(tmp_path, text))


def test_mode_threshold_validation(tmp_path):
    bad = MINIMAL.replace("mode = CGLS", "mode = CGLL")
    with pytest.raises(ValueError, match="CGLL"):
        parse_scenario(write(tmp_path, bad))


def test_non_divisible_period_rejected(tmp_path):
    bad = MINIMAL.replace("sample_period_ms = 500", "sample_period_ms = 7000")
    with pytest.raises(ValueError, match="whole number"):
        parse_scenario(write(tmp_path, bad))


def test_signal_and_file_are_exclusive(tmp_path):
    bad = MINIMAL + "file = trace.csv\n"
    with pytest.raises(ValueError, match="exactly one"):
        parse_scenario(write(tmp_path, bad))


def test_file_device_requires_range(tmp_path):
    (tmp_path / "trace.csv").write_text("37.0\n" * 120)
    text = MINIMAL.replace("signal = temperature",
                           "file = trace.csv").replace(
        "sample_period_ms = 500", "sample_period_ms = 500\n")
    with pytest.raises(ValueError, match="adc_range"):
        parse_scenario(write(tmp_path, text))


def test_reversed_adc_range_rejected(tmp_path):
    (tmp_path / "trace.csv").write_text("37.0\n" * 120)
    text = MINIMAL.replace("signal = temperature",
                           "file = trace.csv\nadc_range = 2,1")
    with pytest.raises(ValueError, match=r"\[device:.*\] adc_range: "):
        parse_scenario(write(tmp_path, text))


def test_negative_value_column_rejected(tmp_path):
    # A negative index would read the last column of each row.
    (tmp_path / "trace.csv").write_text("1,37.0\n" * 120)
    text = MINIMAL.replace(
        "signal = temperature",
        "file = trace.csv\nadc_range = 30,45\nvalue_column = -1")
    with pytest.raises(ValueError, match=r"\[device:temp\] value_column"):
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


def test_percent_in_value_is_literal(tmp_path):
    # No interpolation: a '%' in a value is an ordinary character.
    text = MINIMAL.replace(
        "signal = temperature",
        "file = 100%(x)s.csv\nadc_range = 30,45")
    sc = parse_scenario(write(tmp_path, text))
    assert sc.devices[0].trace.source.path == str(tmp_path / "100%(x)s.csv")


def test_synth_params_forwarded(tmp_path):
    text = MINIMAL + "step_probability = 0.25\nseed = 9\n"
    sc = parse_scenario(write(tmp_path, text))
    source = sc.devices[0].trace.source
    assert source.seed == 9
    assert source.params == {"step_probability": 0.25}


def test_synth_param_of_another_signal_rejected(tmp_path):
    text = MINIMAL.replace("signal = temperature", "signal = ecg")
    with pytest.raises(ValueError, match=r"\[device:temp\].*start_code"):
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


# A valid non-default value for every field a model section may set.
SECTION_VALUES = {
    "base_latency_ms": ("40.5", 40.5),
    "per_bit_delay_ms": ("0.25", 0.25),
    "tx_ma": ("30", 30.0),
    "idle_ma": ("9.5", 9.5),
    "sleep_ma": ("0.5", 0.5),
    "cpu_active_ma": ("12", 12.0),
    "wake_latency_ms": ("1.5", 1.5),
    "battery_mah": ("500", 500.0),
    "enabled": ("yes", True),
    "suppressions_before_sleep": ("3", 3),
}
NOT_A = {"float": "not a number", "int": "not an integer",
         "bool": "not a boolean"}


def _section_fields():
    for section, model, read in (
            ("channel", ChannelModel, lambda sc: sc.channel),
            ("energy", RadioEnergyModel, lambda sc: sc.energy),
            ("device:temp", RadioEnergyModel, lambda sc: sc.devices[0].energy),
            ("sleep", SleepPolicy, lambda sc: sc.sleep)):
        for fld in fields(model):
            yield pytest.param(section, fld, read, id=f"{section}-{fld.name}")


@pytest.mark.parametrize("section, fld, read", _section_fields())
def test_model_section_keys(tmp_path, section, fld, read):
    # Each field is a key of its section: a value lands in the model, a
    # mistyped value names the key and its type, a misspelled key is unknown.
    assert fld.name in SECTION_VALUES, f"no test value for {fld.name}"
    text, value = SECTION_VALUES[fld.name]
    assert value != fld.default
    header = "" if section.startswith("device:") else f"\n[{section}]\n"

    def parse(line):
        return parse_scenario(write(tmp_path, f"{MINIMAL}{header}{line}\n"))

    assert getattr(read(parse(f"{fld.name} = {text}")), fld.name) == value
    with pytest.raises(ValueError, match=re.escape(
            f"[{section}] {fld.name}: {NOT_A[fld.type]}")):
        parse(f"{fld.name} = x1")
    with pytest.raises(ValueError, match=re.escape(
            f"[{section}]: unknown keys ['{fld.name}s']")):
        parse(f"{fld.name}s = {text}")


def test_bad_number_reports_section_and_key(tmp_path):
    bad = MINIMAL + "cd_ms = fast\n"
    with pytest.raises(ValueError, match=r"\[device:temp\] cd_ms"):
        parse_scenario(write(tmp_path, bad))


def test_shipped_scenarios_parse():
    for name in ("four_device.cfg", "temperature_sleep.cfg",
                 "lifetime_table.cfg"):
        sc = parse_scenario(SCENARIO_DIR / name)
        assert sc.devices
