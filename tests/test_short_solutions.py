"""Short-solution table: an oracle for every verdict that shares no code with
the Wicks search.

For each delta, ``Q_delta(z1, z2)`` is computed over all pairs of reduced
classic words of length at most k, as plain strings over ``aAbB``, and keyed
by the reduced result.  Each key keeps the orientation parities of its pairs,
from which the faithful and non-faithful flags follow for either epsilon.
Every right-hand side ``v R^theta v^-1 R`` of a short ``v`` is then looked up:
a hit in the asked class on a ``not_exists`` verdict is a soundness bug; a hit
on an ``undetermined`` verdict is a missed witness, counted but not asserted.
"""

from __future__ import annotations

from functools import cache

import pytest

from fgquad import EquationSpec, classify, parse_word

_INV = str.maketrans("aAbB", "AaBb")
_RELATOR = {1: "abAB", -1: "aabb"}


def inv(w: str) -> str:
    return w[::-1].translate(_INV)


def reduce(w: str) -> str:
    out: list[str] = []
    for ch in w:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def reduced_words(k: int) -> list[str]:
    words, layer = [""], [""]
    for _ in range(k):
        layer = [w + ch for w in layer for ch in "aAbB" if not w or w[-1] != ch.swapcase()]
        words += layer
    return words


@cache
def q_table(delta: int, k: int) -> dict[str, set[tuple[int, int]]]:
    """Reduced ``Q_delta(z1, z2)`` -> the length parities of its short pairs."""
    table: dict[str, set[tuple[int, int]]] = {}
    words = [(w, inv(w), len(w) % 2) for w in reduced_words(k)]
    for z1, z1_inv, p1 in words:
        for z2, z2_inv, p2 in words:
            q = z1 + z2 + z1_inv + z2_inv if delta == 1 else z1 + z1 + z2 + z2
            table.setdefault(reduce(q), set()).add((p1, p2))
    return table


def classes(delta: int, eps: int, parities: set[tuple[int, int]]) -> set[str]:
    """A pair is faithful when both z-unknowns have orientation character
    delta; for eps = -1 the character of a classic word is (-1)^length."""
    out = set()
    for p1, p2 in parities:
        signs = (1, 1) if eps == 1 else ((-1) ** p1, (-1) ** p2)
        out.add("faithful" if signs == (delta, delta) else "nonfaithful")
    return out


def rhs(eps: int, theta: int, v: str) -> str:
    rel = _RELATOR[eps]
    return reduce(v + (rel if theta == 1 else inv(rel)) + inv(v) + rel)


@pytest.mark.parametrize("k", [4, pytest.param(5, marks=pytest.mark.slow)])
def test_no_not_exists_has_a_short_solution(k):
    contradictions, missed, found = [], [], 0
    for delta in (1, -1):
        table = q_table(delta, k)
        for eps in (1, -1):
            for theta in (1, -1):
                for cls in ("faithful", "nonfaithful"):
                    spec = EquationSpec(delta, eps, theta, cls, "original_z")
                    for v in reduced_words(4):
                        hit = cls in classes(delta, eps, table.get(rhs(eps, theta, v), set()))
                        outcome = classify(spec, parse_word(" ".join(v), spec.basis)).outcome
                        if hit and outcome == "not_exists":
                            contradictions.append((spec, v))
                        elif hit and outcome == "undetermined":
                            missed.append((spec, v))
                        found += hit and outcome == "exists"
    print(f"k={k}: {found} exists with a short solution, {len(missed)} undetermined with one")
    assert found  # the lookup is live: the table holds solutions of decided inputs
    assert not contradictions, contradictions[:5]
