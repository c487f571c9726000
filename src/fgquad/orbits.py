"""Group actions on the Klein-bottle/torus quotient and their augmentations.

Four action kinds act on the quotient group:

* ``HatAbs(u)``    -- left translation by powers of a fixed element plus
                      inversion (both signs of epsilon);
* ``Tilde(n)``     -- left translation by beta^{2n} plus inversion;
* ``TildeL(n, L)`` -- Tilde extended by the reflection j_L;
* ``HatL(n, L)``   -- left translation by alpha^L beta^{l_max} plus inversion.

Elements are the ``(r, s)`` pairs that key the group ring's terms, moved by
``surface.mul`` and ``surface.inv``, the one product rule.  Each action
serves one decider.  The squares decider partitions a mod-2 support into
HatAbs orbits by their closed-form key (``orbit_key``: g and g^-1 reduced
modulo the translation lattice), one key per term, and sums each orbit's
coefficients itself.  The translation search augments over orbits of the
other three (``augment``) at a base pair: each orbit is a finite union of
arithmetic families ``{(r, s + period*k)}`` through heads that are products
of pairs, and the augmentation, twisted by the character that sends both
generators of the acting group to -1, reads the coefficient sums of the
heads' residue classes (``RingElement.residue_sums``, kept with the
element).  An action sets its period and u_L = alpha^L beta^l_max once,
when it is built, so the search pays for them once per L, not once per
candidate.  Both are linear in the support.
"""

from __future__ import annotations

import math

from .errors import EpsilonMismatch, InconsistentSign, InvalidSpec, SingularBase
from .groupring import RingElement
from .record import Record
from .surface import Pair, PiElement, inv, mul


def odd_part(n: int) -> int:
    """The odd part l_max of |n|: |n| = 2^k * l_max with l_max odd."""
    if n == 0:
        raise InvalidSpec("n must be nonzero")
    m = abs(n)
    while m % 2 == 0:
        m //= 2
    return m


class HatAbs(Record):
    __slots__ = ("u",)
    u: PiElement

    def __init__(self, u: PiElement) -> None:
        if u.epsilon == -1 and u.w_eps() != 1:
            raise InvalidSpec("translation element must be orientation-preserving")
        object.__setattr__(self, "u", u)


class _Translation(Record):
    """An action built on translation by the nonzero parameter n, on the
    Klein bottle group.

    Its orbits are unions of the families ``{(r, s + period*k)}`` through
    the heads that ``_heads(g)`` lists, each with the character sign of
    reaching it from g.  The period, and u_L = alpha^L beta^l_max for the
    actions with a parameter L, are set once per action.
    """

    __slots__ = ("n", "_period")
    n: int
    _period: int
    epsilon = -1

    def __init__(self, n: int) -> None:
        if n == 0:
            raise InvalidSpec("n must be nonzero")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_period", 2 * abs(n))


class Tilde(_Translation):
    __slots__ = ()

    def _heads(self, g: Pair) -> list[tuple[Pair, int]]:
        return [(g, 1), (inv(-1, g), -1)]


class _WithL(_Translation):
    """A translation action with the parameter L."""

    __slots__ = ("L", "_u")
    L: int
    _u: Pair

    def __init__(self, n: int, L: int) -> None:
        super().__init__(n)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "_u", (L, odd_part(n)))


class TildeL(_WithL):
    __slots__ = ()

    def _heads(self, g: Pair) -> list[tuple[Pair, int]]:
        u = self._u
        jg = mul(-1, u, inv(-1, mul(-1, u, g)))  # the reflection j_L
        return [(g, 1), (inv(-1, g), -1), (inv(-1, jg), 1), (jg, -1)]


class HatL(_WithL):
    __slots__ = ()

    def __init__(self, n: int, L: int) -> None:
        super().__init__(n, L)
        object.__setattr__(self, "_period", 2 * self._u[1])

    def _heads(self, g: Pair) -> list[tuple[Pair, int]]:
        # the square of u is central, so the orbit of g is the union of the
        # two-sided translate families u^a g^e u^b with a, b mod 2.  The
        # character sends both generators to -1, giving the sign (-1)^(a+b)
        # for e=+1 and its negative for e=-1.
        u, gi = self._u, inv(-1, g)
        ug, ugi = mul(-1, u, g), mul(-1, u, gi)
        return [
            (g, 1),
            (gi, -1),
            (ug, -1),
            (ugi, 1),
            (mul(-1, g, u), -1),
            (mul(-1, gi, u), 1),
            (mul(-1, ug, u), 1),
            (mul(-1, ugi, u), -1),
        ]


def _lattice_rep(r: int, s: int, a: int, b: int, c: int) -> Pair:
    """Canonical representative of (r, s) modulo the lattice Z(a, b) + Z(0, c)."""
    if a:
        q, r = divmod(r, a)
        s -= q * b
        return r, s % c if c else s
    m = math.gcd(b, c)
    return r, s % m if m else s


def orbit_key(action: HatAbs, g: Pair) -> Pair:
    """A canonical point of the orbit of ``g``: two elements share an orbit
    exactly when their keys are equal.

    The orbit of g is the two cosets of a lattice through g and g^-1, and the
    key is the lesser of their lattice representatives.  Orientation-preserving
    elements move by Z*u.  On the Klein bottle an orientation-reversing g also
    moves by two-sided translates, giving the lattice Z*u + Z*(0, 2*u.s), and
    its inverse is (r, -s).
    """
    u, (r, s) = action.u, g
    if u.epsilon == -1 and s & 1:
        return min(_lattice_rep(r, s, u.r, u.s, 2 * u.s), _lattice_rep(r, -s, u.r, u.s, 2 * u.s))
    return min(_lattice_rep(r, s, u.r, u.s, 0), _lattice_rep(-r, -s, u.r, u.s, 0))


def same_orbit(action: HatAbs, g: Pair, h: Pair) -> bool:
    """Decide orbit membership by comparing orbit keys."""
    return orbit_key(action, g) == orbit_key(action, h)


def augment(action: _Translation, v: RingElement, base: Pair) -> int:
    """Sum the coefficients of ``v`` over the orbit of ``base``, an ``(r, s)``
    pair, twisted by the character.

    A base is defective when n divides its beta-degree, and singular when it
    is defective and its beta-degree is odd or its alpha-degree is 0.  Tilde
    refuses a singular base; TildeL/HatL fall back to the plain parity at
    defective ones.
    """
    if v.epsilon != action.epsilon:
        raise EpsilonMismatch("ring element epsilon does not match the action")
    r, s = base
    defective = s % action.n == 0
    if isinstance(action, Tilde) and defective and (s % 2 or r == 0):
        raise SingularBase(f"({r},{s}) is singular for the translation action")
    period = action._period
    sums = v.residue_sums(period)
    key_sign: dict[Pair, int] = {}  # 0 where both signs resolve
    for (hr, hs), sign in action._heads(base):
        key = (hr, hs % period)
        if key_sign.setdefault(key, sign) != sign:
            key_sign[key] = 0
    if defective and not isinstance(action, Tilde):
        return sum(sums.get(key, 0) for key in key_sign) % 2
    total = 0
    for key, sign in key_sign.items():
        if key in sums:
            if not sign:
                gr, gs = next(g for g in v.terms if key_sign.get((g[0], g[1] % period)) == 0)
                raise InconsistentSign(f"({gr},{gs}) resolves with both signs from base ({r},{s})")
            total += sign * sums[key]
    return total % 2 if v.mod == 2 else total
