import io
import tokenize

import pytest

from conftest import REPO_ROOT
import wbancomp

CALLERS = sorted(path for path in (*(REPO_ROOT / "src" / "wbancomp").glob("*.py"),
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


@pytest.mark.parametrize("name", sorted(set(wbancomp.__all__) - {"__version__"}))
def test_exported_name_has_a_caller_outside_tests(name):
    # A public name that only tests use is API surface to delete, not keep:
    # each export must be used by the package itself or by the benchmark.
    assert name in USED
