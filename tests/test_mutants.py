"""Each entry of the mutant table (``tests/mutants.py``) still names one
place in its file and tests that exist."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_one_place_and_existing_tests(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        path, *_, name = test.split("::")
        assert re.search(rf"^\s*def {name}\(", (ROOT / path).read_text(), re.MULTILINE), test


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
