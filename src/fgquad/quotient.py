"""The quotient of Z[pi - {1}] by the relations g + g**-1, and its mod-2 version.

Classes are stored on canonical orbit representatives: the representative of
{g, g**-1} is the one with s > 0, or with s == 0 and r > 0.  Inversion negates
s (and negates r when s == 0), so exactly one of the two qualifies.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DomainMismatch, EpsilonMismatch
from .groupring import RingElement, SparseSum
from .surface import PiElement, project
from .words import Word


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


def q_nf_commutator(
    left: Iterable[tuple[Word, int]], right: Iterable[tuple[Word, int]]
) -> QElement:
    """Image in Q of the commutator of two products of relator conjugates.

    [prod_i (u_i R u_i^-1)^{n_i}, prod_j (v_j R v_j^-1)^{m_j}] maps to the
    class of sum_{i,j} n_i m_j * class(u_i)^-1 class(v_j).
    """
    lefts = [(project(u), n) for u, n in left]
    rights = [(project(v), m) for v, m in right]
    if not lefts or not rights:
        eps = (lefts or rights)[0][0].epsilon if (lefts or rights) else 1
        return QElement.zero(eps)
    eps = lefts[0][0].epsilon
    items = [
        (ubar.inv() * vbar, n * m)
        for ubar, n in lefts
        for vbar, m in rights
    ]
    return QElement.make(eps, items)


def q_divisible_by_two(x: QElement) -> bool:
    if x.mod != 0:
        raise DomainMismatch("divisibility test needs integer coefficients")
    return all(c % 2 == 0 for c in x.terms.values())
