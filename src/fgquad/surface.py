"""The quotients of F2 by the relator: torus (eps=+1) and Klein bottle (eps=-1).

Every element has a unique canonical form alpha^r * beta^s, and the package
holds it as the integer pair ``(r, s)``, with the sign epsilon alongside.
The product rule is twisted by the sign ``sigma(s) = epsilon**s``; all
Klein-bottle identities follow from it.  ``mul`` and ``inv`` are that rule on
pairs, the one product and inverse of the package, and ``project`` reads a
word's pair off its syllables: the branch tables read the projected pair, the
group ring keys its terms by pairs, and the orbit layer and the translation
search move pairs.  The orientation character of ``(r, s)`` is epsilon**s.
"""

from __future__ import annotations

from .words import BasisTag, Word, change_basis

Pair = tuple[int, int]  # canonical coordinates (r, s) of alpha^r * beta^s


def mul(epsilon: int, x: Pair, y: Pair) -> Pair:
    """The product x * y: beta^s moves alpha^r' to alpha^(sigma(s) r')."""
    r, s = x
    return (r - y[0] if epsilon == -1 and s & 1 else r + y[0]), s + y[1]


def inv(epsilon: int, x: Pair) -> Pair:
    r, s = x
    return (r if epsilon == -1 and s & 1 else -r), -s


def project(w: Word) -> Pair:
    """Project a word to the quotient (classic words are converted first)."""
    if w.basis.kind != "adapted":
        w = change_basis(w, BasisTag.adapted(w.basis.epsilon))
    r = s = 0
    twisted = w.basis.epsilon == -1
    for gen, exp in w.syls:
        if gen:
            s += exp
        else:
            r += -exp if twisted and s & 1 else exp
    return r, s
