"""The quotient of Z[pi - {1}] by the relations g + g**-1, and its mod-2 version.

Classes are stored on canonical orbit representatives: the representative of
{g, g**-1} is the one with s > 0, or with s == 0 and r > 0.  Inversion negates
s (and negates r when s == 0), so exactly one of the two qualifies.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DomainMismatch, EpsilonMismatch
from .groupring import RingElement, SparseSum
from .surface import PiElement


def representative(g: PiElement) -> tuple[PiElement, int]:
    """Return (representative, sign) with g == sign-side of the class."""
    if g.s > 0 or (g.s == 0 and g.r > 0):
        return g, 1
    return g.inv(), -1


class QElement(SparseSum):
    """Element of Q: a sum of non-identity classes, each stored on its representative."""

    @classmethod
    def make(cls, epsilon: int, items: Iterable[tuple[PiElement, int]], mod: int = 0) -> "QElement":
        """Fold each term onto its representative and drop the identity.

        Modulo 2 the fold needs no sign, since -c and c agree there.
        """

        def folded() -> Iterator[tuple[PiElement, int]]:
            for g, c in items:
                if g.epsilon != epsilon:
                    raise EpsilonMismatch("term epsilon differs from element epsilon")
                if not g.is_identity:
                    rep, sign = representative(g)
                    yield rep, sign * c

        return super().make(epsilon, folded(), mod)


def p_q(p: RingElement) -> QElement:
    """Project a ring element: drop the identity, fold g onto g**-1."""
    return QElement.make(p.epsilon, p.terms.items(), p.mod)


def q_divisible_by_two(x: QElement) -> bool:
    if x.mod != 0:
        raise DomainMismatch("divisibility test needs integer coefficients")
    return all(c % 2 == 0 for c in x.terms.values())
