"""Each command loads only the modules it runs, no import order cycles, and
the layering of codec and bitstream holds.

Every run-time check runs in a fresh interpreter, since the test process has
already imported the whole package.
"""

import ast
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import REPO_ROOT, SCENARIO_DIR
from test_cli import pinned_readings, write_codes
from wbancomp.cli import EXIT_OK, main

ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
SRC = REPO_ROOT / "src" / "wbancomp"
MODULES = sorted("wbancomp" if path.stem == "__init__" else f"wbancomp.{path.stem}"
                 for path in SRC.glob("*.py"))

# Runs the command line in-process, then prints the modules loaded.
RUN_AND_LIST = """\
import contextlib, io, sys
from wbancomp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def python(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *map(str, argv)],
                          capture_output=True, text=True, env=ENV)


def test_every_module_imports_first_and_alone():
    # An import cycle can pass in one import order and fail in another, so
    # each module is the first one a fresh interpreter imports.
    with ThreadPoolExecutor(max_workers=3) as pool:
        done = dict(zip(MODULES, pool.map(
            lambda module: python("-S", "-c", f"import {module}"), MODULES)))
    assert {module: run.stderr for module, run in done.items()
            if run.returncode} == {}


def modules_after(*argv) -> set[str]:
    """Every module loaded once the command line has run."""
    run = python("-c", RUN_AND_LIST, *argv)
    assert run.returncode == 0, run.stderr
    code, *modules = run.stdout.split()
    assert int(code) == EXIT_OK, run.stderr
    return set(modules)


def package_modules(modules: set[str]) -> set[str]:
    """The package's modules among modules, by their names in the package."""
    return {module.removeprefix("wbancomp.") for module in modules
            if module.startswith("wbancomp.")}


def loaded_after(*argv) -> set[str]:
    """The package's modules loaded once the command line has run."""
    return package_modules(modules_after(*argv))


@pytest.fixture(scope="module")
def codec_modules(tmp_path_factory):
    """Every module loaded by encode, and by decode of its trace."""
    tmp = tmp_path_factory.mktemp("codec")
    src, trace = tmp / "codes.csv", tmp / "packets.trace"
    write_codes(src, pinned_readings())
    encode = modules_after("--out", trace, "encode", src, "--adc-bits", "11")
    decode = modules_after("--out", tmp / "recon.csv", "decode", trace)
    return encode, decode


@pytest.fixture(scope="module")
def codec_imports(codec_modules):
    return tuple(map(package_modules, codec_modules))


def test_simulate_and_encode_load_no_sink(codec_imports, tmp_path):
    # Both write packet traces as text and decode none of them.
    encode, _ = codec_imports
    simulate = loaded_after("--out", tmp_path / "run", "simulate",
                            SCENARIO_DIR / "temperature_sleep.cfg")
    assert "netmodel" in simulate
    assert "sink" not in encode | simulate


def test_simulate_loads_the_whole_model_once(tmp_path):
    # simulate runs the model, the codec's trace cells and the run
    # directory's writer; nothing else, so no start-up cost hides here.
    assert loaded_after("--out", tmp_path / "run", "simulate",
                        SCENARIO_DIR / "temperature_sleep.cfg") == {
        "cli", "config", "signals", "netmodel", "codec", "control",
        "metrics", "rundir", "tracefile"}


# Parses each scenario file named, as a run's setup does, then prints the
# modules loaded.
PARSE_AND_LIST = """\
import sys
import wbancomp.cli
from wbancomp import config
for path in sys.argv[1:]:
    config.parse_scenario(path)
print(*sorted(sys.modules))
"""


def test_parsing_a_scenario_loads_no_simulator():
    # The scenario's records live in config, so parsing one loads none of
    # the device loop, the codec or the run directory, nor their json.
    scenarios = sorted(SCENARIO_DIR.glob("*.cfg"))
    assert scenarios
    run = python("-c", PARSE_AND_LIST, *scenarios)
    assert run.returncode == 0, run.stderr
    modules = set(run.stdout.split())
    assert package_modules(modules) == {"cli", "config", "signals"}
    assert modules.isdisjoint({"json", "decimal"})


def test_codec_commands_load_no_simulator(codec_imports):
    for loaded in codec_imports:
        assert loaded.isdisjoint({"netmodel", "config", "rundir"})


def test_decode_loads_only_the_sink_side(codec_imports):
    _, decode = codec_imports
    assert decode == {"cli", "tracefile", "sink", "codec"}


def test_codec_commands_load_no_dataclasses(codec_modules):
    # Their records are plain classes: dataclasses (with inspect) would
    # generate and compile code for each one at every start.
    for loaded in codec_modules:
        assert loaded.isdisjoint({"dataclasses", "inspect"})
    # encode reads its CSV through tracefile, and writes no JSON.
    encode, _ = codec_modules
    assert encode.isdisjoint({"wbancomp.signals", "json"})


@pytest.fixture(scope="module")
def report_imports(tmp_path_factory):
    run = tmp_path_factory.mktemp("report") / "run"
    assert main(["--out", str(run), "simulate",
                 str(SCENARIO_DIR / "temperature_sleep.cfg")]) == EXIT_OK
    return modules_after("--format", "json", "report", run)


def test_report_loads_no_model_or_signals(report_imports):
    assert report_imports.isdisjoint(
        {"wbancomp.netmodel", "wbancomp.config", "wbancomp.signals",
         "wbancomp.control"})


def test_report_loads_no_packet_stack_dataclasses_or_decimal(report_imports):
    # report reads two files and renders a document: the packet stack,
    # dataclasses (with inspect) and decimal would be start-up it never uses.
    assert report_imports.isdisjoint(
        {"dataclasses", "inspect", "decimal", "wbancomp.tracefile",
         "wbancomp.sink", "wbancomp.codec"})


def import_statements(path) -> list[str]:
    """The text of each import statement in a source file."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_codec_imports_no_package_module():
    # Every other module builds on the codec's (bit_count, payload) ints.
    # Its limits live in the package, which rundir reads without the codec.
    assert [text for text in import_statements(SRC / "codec.py")
            if text.startswith("from .") or "wbancomp" in text] == [
        "from . import MAX_CODEWORD_BITS, MAX_GROUP, RESIDUAL_MAX, RESIDUAL_MIN"]


def test_netmodel_imports_nothing_from_sink():
    # The device loop writes its packets and decodes none of them: a sink
    # rebuilding the readings is checked by the tests, on the saved trace.
    assert [text for text in import_statements(SRC / "netmodel.py")
            if "sink" in text] == []


def test_no_module_but_bitstream_imports_it():
    # bitstream sits on top of codec, and only the benchmark's traced replay
    # runs it, so no other module imports it, not even for an annotation.
    # The package __init__ resolves its names by module name.
    assert {path.stem: text for path in SRC.glob("*.py")
            if path.stem != "bitstream"
            for text in import_statements(path) if "bitstream" in text} == {}
