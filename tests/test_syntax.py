"""The sources parse as the oldest Python that pyproject.toml supports,
whichever interpreter runs the tests, and a deprecated call in the package
fails the tests on the newest."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "compass_consensus").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])
OLDEST = tuple(map(int, re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE).groups()))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_source_parses_as_the_oldest_supported_python(path):
    # Newer syntax, such as except* (3.11) or a PEP 695 type alias (3.12), fails here.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


@pytest.mark.parametrize("category", [DeprecationWarning, PendingDeprecationWarning])
def test_a_deprecation_in_the_package_fails_the_tests(category):
    # pyproject.toml turns the warning into an error for package modules only.
    scope = {"__name__": "compass_consensus._probe", "category": category}
    exec("import warnings\ndef old():\n    warnings.warn('old', category)", scope)
    with pytest.raises(category):
        scope["old"]()
    scope["__name__"] = "elsewhere"
    exec("def old():\n    warnings.warn('old', category)", scope)
    with pytest.warns(category):
        scope["old"]()
