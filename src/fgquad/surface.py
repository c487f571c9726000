"""The quotients of F2 by the relator: torus (eps=+1) and Klein bottle (eps=-1).

Every element has a unique canonical form alpha^r * beta^s, stored as the
integer pair ``(r, s)``.  The product rule is twisted by the sign
``sigma(s) = epsilon**s``; all Klein-bottle identities follow from it.
"""

from __future__ import annotations

from .errors import EpsilonMismatch
from .record import Record
from .words import BasisTag, Word, change_basis


class PiElement(Record):
    """The element alpha^r * beta^s."""

    __slots__ = ("epsilon", "r", "s")
    epsilon: int
    r: int
    s: int

    def __init__(self, epsilon: int, r: int, s: int) -> None:
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        _set_epsilon(self, epsilon)
        _set_r(self, r)
        _set_s(self, s)

    def __eq__(self, other: object) -> bool:
        if type(other) is not PiElement:
            return NotImplemented
        return (self.epsilon, self.r, self.s) == (other.epsilon, other.r, other.s)

    def __hash__(self) -> int:
        return hash((self.epsilon, self.r, self.s))

    @staticmethod
    def identity(epsilon: int) -> "PiElement":
        return PiElement(epsilon, 0, 0)

    def _check(self, other: "PiElement") -> None:
        if self.epsilon != other.epsilon:
            raise EpsilonMismatch(f"{self.epsilon} vs {other.epsilon}")

    def __mul__(self, other: "PiElement") -> "PiElement":
        self._check(other)
        return PiElement(self.epsilon, self.r + self.w_eps() * other.r, self.s + other.s)

    def inv(self) -> "PiElement":
        return PiElement(self.epsilon, -self.w_eps() * self.r, -self.s)

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


# the slots' setters, bound once: an element is built on every product and
# inverse, and a setter call costs less than object.__setattr__
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

