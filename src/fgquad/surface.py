"""The quotients of F2 by the relator: torus (eps=+1) and Klein bottle (eps=-1).

Every element has a unique canonical form alpha^r * beta^s, stored as the
integer pair ``(r, s)``.  The product rule is twisted by the sign
``sigma(s) = epsilon**s``; all Klein-bottle identities follow from it.
``mul`` and ``inv`` are that rule on pairs, the one product and inverse of
the package: the group ring keys its terms by pairs, the orbit layer and the
translation search move pairs, and ``PiElement``, the value of one projected
element, delegates to them.
"""

from __future__ import annotations

from .errors import EpsilonMismatch, InvalidSpec
from .record import Record
from .words import BasisTag, Word, change_basis

Pair = tuple[int, int]  # canonical coordinates (r, s) of alpha^r * beta^s


def mul(epsilon: int, x: Pair, y: Pair) -> Pair:
    """The product x * y: beta^s moves alpha^r' to alpha^(sigma(s) r')."""
    r, s = x
    return (r - y[0] if epsilon == -1 and s & 1 else r + y[0]), s + y[1]


def inv(epsilon: int, x: Pair) -> Pair:
    r, s = x
    return (r if epsilon == -1 and s & 1 else -r), -s


class PiElement(Record):
    """The element alpha^r * beta^s."""

    __slots__ = ("epsilon", "r", "s")
    epsilon: int
    r: int
    s: int

    def __init__(self, epsilon: int, r: int, s: int) -> None:
        if epsilon not in (1, -1):
            raise InvalidSpec("epsilon must be +1 or -1")
        _set_epsilon(self, epsilon)
        _set_r(self, r)
        _set_s(self, s)

    @staticmethod
    def identity(epsilon: int) -> "PiElement":
        return PiElement(epsilon, 0, 0)

    @property
    def pair(self) -> Pair:
        return self.r, self.s

    def __mul__(self, other: "PiElement") -> "PiElement":
        if self.epsilon != other.epsilon:
            raise EpsilonMismatch(f"{self.epsilon} vs {other.epsilon}")
        return PiElement(self.epsilon, *mul(self.epsilon, self.pair, other.pair))

    def inv(self) -> "PiElement":
        return PiElement(self.epsilon, *inv(self.epsilon, self.pair))

    def __pow__(self, k: int) -> "PiElement":
        if k < 0:
            return self.inv() ** -k
        result = PiElement.identity(self.epsilon)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    @property
    def is_identity(self) -> bool:
        return self.r == 0 and self.s == 0

    def w_eps(self) -> int:
        """Orientation character epsilon**s."""
        return -1 if (self.epsilon == -1 and self.s % 2) else 1

    def __str__(self) -> str:
        return f"({self.r},{self.s})"


# the slots' setters, bound once: an element is built on every projection,
# and a setter call costs less than object.__setattr__
_set_epsilon, _set_r, _set_s = PiElement.epsilon.__set__, PiElement.r.__set__, PiElement.s.__set__


def project(w: Word) -> PiElement:
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
    return PiElement(w.basis.epsilon, r, s)
