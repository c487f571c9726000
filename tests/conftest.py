"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from fgquad import BasisTag, RingElement, Word
from oracles import PiElement


def random_word(rng: random.Random, basis: BasisTag, max_len: int = 8) -> Word:
    length = rng.randint(0, max_len)
    syls = [(rng.randrange(2), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(length)]
    return Word.from_syllables(basis, syls)


def random_pi(rng: random.Random, epsilon: int, span: int = 8) -> PiElement:
    return PiElement(epsilon, rng.randint(-span, span), rng.randint(-span, span))


def mono(g: PiElement, coeff: int = 1) -> RingElement:
    """The ring element coeff * g, keyed by the (r, s) pair of the group element g."""
    return RingElement.monomial(g.epsilon, g.pair, coeff)


def syllable_lists(max_size: int = 8):
    return st.lists(
        st.tuples(st.integers(0, 1), st.integers(-4, 4).filter(lambda e: e != 0)),
        max_size=max_size,
    )


def words_strategy(basis: BasisTag, max_size: int = 8):
    return syllable_lists(max_size).map(lambda syls: Word.from_syllables(basis, syls))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


ADAPTED_MINUS = BasisTag.adapted(-1)
ADAPTED_PLUS = BasisTag.adapted(1)
CLASSIC_MINUS = BasisTag.classic(-1)
CLASSIC_PLUS = BasisTag.classic(1)
