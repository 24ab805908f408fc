import ast
import sys

import pytest

from conftest import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "wbancomp").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    # The package runs on a bare Python 3.10+; relative imports stay inside
    # it, and every absolute import must be a standard-library module.
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = {name for name in modules
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert not outside


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_parses_as_python_3_10(path):
    # The grammar floor of requires-python: syntax newer than 3.10, such as
    # except* or a type statement, fails to parse here.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
