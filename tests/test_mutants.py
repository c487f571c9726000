"""Each mutant in ``tests/mutants.py`` still occurs in the source and is
killed by its tests, run in a subprocess against a mutated copy of ``src/``
(slow: a few seconds per mutant)."""

import pytest

from mutants import MUTANTS, run


@pytest.mark.slow
@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_is_killed(mutant):
    assert run(mutant) is None
