import ast
import importlib
import io
import os
import subprocess
import sys
import tokenize

import pytest

from conftest import REPO_ROOT
import wbancomp

SOURCES = sorted((REPO_ROOT / "src" / "wbancomp").glob("*.py"))
CALLERS = sorted(path for path in (*SOURCES,
                                   *(REPO_ROOT / "perfbench").glob("*.py"))
                 if path.name != "__init__.py")


def code_names(path):
    """Every name token in a file's code, leaving out comments, strings and
    the name a def or class line defines."""
    names = set()
    previous = None
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(token.string)
        previous = token.string
    return names


USED = set().union(*map(code_names, CALLERS))


# Run in a fresh interpreter, where no test has imported a module yet.
LAZY_PACKAGE_CHECKS = """\
import importlib, sys
import wbancomp

assert [name for name in sys.modules if name.startswith("wbancomp.")] == []
for name in wbancomp.__all__:
    if name != "__version__":
        value = getattr(wbancomp, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("wbancomp."), name
        assert getattr(home, name) is value, name
assert set(wbancomp.__all__) <= set(dir(wbancomp))
try:
    wbancomp.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
namespace = {}
exec("from wbancomp import *", namespace)
assert set(wbancomp.__all__) <= set(namespace)
"""


def test_package_resolves_its_names_on_first_access():
    done = subprocess.run(
        [sys.executable, "-c", LAZY_PACKAGE_CHECKS], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", sorted(set(wbancomp.__all__) - {"__version__"}))
def test_exported_name_has_a_caller_outside_tests(name):
    # A public name that only tests use is API surface to delete, not keep:
    # each export must be used by the package itself or by the benchmark.
    assert name in USED


def is_exception_base(base, module):
    """Whether a class's base expression names an exception class in the
    class's module."""
    value = eval(ast.unparse(base), vars(module))
    return isinstance(value, type) and issubclass(value, BaseException)


def test_the_only_exception_class_is_the_usage_error():
    # Data errors are plain ValueErrors told apart by their messages, and
    # only cli.main maps errors to exit codes: no handler needs a subclass.
    found = []
    for path in SOURCES:
        module = importlib.import_module(
            "wbancomp" if path.stem == "__init__" else f"wbancomp.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    is_exception_base(base, module) for base in node.bases):
                found.append(f"{path.stem}.{node.name}")
    assert found == ["cli.UsageError"]
