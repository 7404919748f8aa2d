"""The committed mutant list stays applicable (`tests/mutants.py` runs it)."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once_and_names_tests_that_exist(mutant):
    assert mutant.path.startswith("src/") and mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.kills
    for test in mutant.kills:
        path, *scopes = test.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        for scope in scopes:
            assert re.search(rf"^\s*(def|class) {re.escape(scope)}\b", text, re.M), test


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
