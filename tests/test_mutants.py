import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_text_occurs_once(mutant):
    """Each mutant of ``tests/mutants.py`` replaces text that occurs exactly
    once in its file, so it still breaks the code it was written for, and
    every test it names exists in a test file."""
    assert (ROOT / mutant.path).read_text().count(mutant.original) == 1
    for test in mutant.tests:
        path, *names = test.split("::")
        source = (ROOT / path).read_text()
        assert all(f"def {name}(" in source or f"class {name}" in source for name in names), test
