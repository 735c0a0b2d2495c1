"""The mutant list of tools/mutants.py stays in step with the code and the tests it names."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def mutants(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("mutants").MUTANTS


def test_each_mutant_edits_one_place_and_names_existing_tests(mutants):
    # a refactor that moves a mutant's old text, or renames one of its tests, must update the list
    for mutant in mutants:
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new and mutant.tests, mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            assert f"\ndef {name.split('[')[0]}(" in (ROOT / path).read_text(), test
    assert len({mutant.name for mutant in mutants}) == len(mutants)
