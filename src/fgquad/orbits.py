"""Group actions on the Klein-bottle/torus quotient and their augmentations.

Four action kinds act on the quotient group:

* ``HatAbs(u)``    -- left translation by powers of a fixed element plus
                      inversion (both signs of epsilon);
* ``Tilde(n)``     -- left translation by beta^{2n} plus inversion;
* ``TildeL(n, L)`` -- Tilde extended by the reflection j_L;
* ``HatL(n, L)``   -- left translation by alpha^L beta^{l_max} plus inversion.

Orbits of all four are finite unions of arithmetic families in the
canonical coordinates ``(r, s)``, so every orbit has a closed-form key
(``orbit_key``): HatAbs reduces g and g^-1 modulo its translation lattice,
and the other three take the least residue class ``(r, s mod period)`` over
the heads of their families, which are computed on integer pairs.
Augmentations sum coefficients over an orbit, plainly mod 2 or twisted by
the character that sends both generators of the acting group to -1; they
read the coefficient sums of the orbit's residue classes
(``RingElement.residue_sums``) or compare one key per term, so partitioning
a support into orbits and augmenting over one are both linear in the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import (
    DomainMismatch,
    EpsilonMismatch,
    InconsistentSign,
    SingularBase,
)
from .groupring import RingElement
from .surface import PiElement


def odd_part(n: int) -> tuple[int, int, int]:
    """Return (l_max, two_exp, mu) with n = mu * l_max, l_max the odd part of |n|."""
    if n == 0:
        raise ValueError("n must be nonzero")
    s = 0
    m = abs(n)
    while m % 2 == 0:
        m //= 2
        s += 1
    mu = (1 if n > 0 else -1) * (1 << s)
    return m, s, mu


@dataclass(frozen=True)
class HatAbs:
    u: PiElement

    def __post_init__(self) -> None:
        if self.u.epsilon == -1 and self.u.w_eps() != 1:
            raise ValueError("translation element must be orientation-preserving")

    @property
    def epsilon(self) -> int:
        return self.u.epsilon


@dataclass(frozen=True)
class _Translation:
    """An action built on translation by the nonzero parameter n, on the
    Klein bottle group."""

    n: int

    def __post_init__(self) -> None:
        if self.n == 0:
            raise ValueError("n must be nonzero")

    epsilon = -1


@dataclass(frozen=True)
class Tilde(_Translation):
    pass


@dataclass(frozen=True)
class TildeL(_Translation):
    L: int


@dataclass(frozen=True)
class HatL(_Translation):
    L: int


Action = Union[HatAbs, _Translation]


def _check_eps(action: Action, *elements: PiElement) -> None:
    for g in elements:
        if g.epsilon != action.epsilon:
            raise EpsilonMismatch("element epsilon does not match the action")


Pair = tuple[int, int]  # canonical coordinates (r, s)


def _lattice_rep(r: int, s: int, a: int, b: int, c: int) -> Pair:
    """Canonical representative of (r, s) modulo the lattice Z(a, b) + Z(0, c)."""
    if a:
        q, r = divmod(r, a)
        s -= q * b
        return r, s % c if c else s
    m = math.gcd(b, c)
    return r, s % m if m else s


def _hat_abs_key(u: PiElement, r: int, s: int) -> Pair:
    """The lesser lattice representative of g = (r, s) and of g^-1: the
    orbit of g is the two cosets of a lattice through them.

    Orientation-preserving elements move by Z*u.  On the Klein bottle an
    orientation-reversing g also moves by two-sided translates, giving the
    lattice Z*u + Z*(0, 2*u.s), and its inverse is (r, -s).
    """
    if u.epsilon == -1 and s & 1:
        return min(_lattice_rep(r, s, u.r, u.s, 2 * u.s), _lattice_rep(r, -s, u.r, u.s, 2 * u.s))
    return min(_lattice_rep(r, s, u.r, u.s, 0), _lattice_rep(-r, -s, u.r, u.s, 0))


def _mul(x: Pair, y: Pair) -> Pair:
    """``PiElement.mul`` on the Klein bottle, without building elements."""
    return x[0] + (-y[0] if x[1] & 1 else y[0]), x[1] + y[1]


def _inv(x: Pair) -> Pair:
    return (x[0] if x[1] & 1 else -x[0]), -x[1]


def _period(action: _Translation) -> int:
    if isinstance(action, HatL):
        return 2 * odd_part(action.n)[0]
    return 2 * abs(action.n)


def _heads(action: _Translation, g: Pair) -> list[tuple[Pair, int]]:
    """Heads of the families {(r, s + period*k)} whose union is the orbit of g,
    each with the character sign of reaching it from g."""
    gi = _inv(g)
    if isinstance(action, Tilde):
        return [(g, 1), (gi, -1)]
    u = (action.L, odd_part(action.n)[0])
    if isinstance(action, TildeL):
        jg = _mul(u, _inv(_mul(u, g)))  # the reflection j_L
        return [(g, 1), (gi, -1), (_inv(jg), 1), (jg, -1)]
    # HatL: the square of u is central, so the orbit of g is the union of the
    # two-sided translate families u^a g^e u^b with a, b mod 2.  The character
    # sends both generators to -1, giving the sign (-1)^(a+b) for e=+1 and
    # its negative for e=-1.
    ug, ugi = _mul(u, g), _mul(u, gi)
    return [
        (g, 1),
        (gi, -1),
        (ug, -1),
        (ugi, 1),
        (_mul(g, u), -1),
        (_mul(gi, u), 1),
        (_mul(ug, u), 1),
        (_mul(ugi, u), -1),
    ]


def orbit_key(action: Action, g: PiElement) -> Pair:
    """A canonical point of the orbit of ``g``: two elements share an orbit
    exactly when their keys are equal.

    HatAbs reduces g and g^-1 modulo the translation lattice; the other
    actions take the least residue class ``(r, s mod period)`` over the
    family heads.
    """
    _check_eps(action, g)
    if isinstance(action, HatAbs):
        return _hat_abs_key(action.u, g.r, g.s)
    period = _period(action)
    return min((r, s % period) for (r, s), _ in _heads(action, (g.r, g.s)))


def same_orbit(action: Action, g: PiElement, h: PiElement) -> bool:
    """Decide orbit membership by comparing orbit keys."""
    return orbit_key(action, g) == orbit_key(action, h)


@dataclass(frozen=True)
class ElementClass:
    g_tilde_regular: bool
    defective: bool


def element_class(action: _Translation, g: PiElement) -> ElementClass:
    """Stabilizer classification relative to the translation parameter n."""
    _check_eps(action, g)
    n = action.n
    defective = g.s % n == 0
    singular = defective and (g.r == 0 if g.s % 2 == 0 else True)
    return ElementClass(g_tilde_regular=not singular, defective=defective)


def augment(action: Action, v: RingElement, base: PiElement) -> int:
    """Sum the coefficients of ``v`` over the orbit of ``base``.

    HatAbs uses the plain mod-2 augmentation.  Tilde requires a regular base
    and twists by the character; TildeL/HatL twist at non-defective bases and
    fall back to the plain parity at defective ones.
    """
    _check_eps(action, base)
    if v.epsilon != base.epsilon:
        raise EpsilonMismatch("ring element epsilon does not match the base")
    if isinstance(action, HatAbs):
        if v.mod != 2:
            raise DomainMismatch("plain augmentation expects mod-2 coefficients")
        u = action.u
        key = _hat_abs_key(u, base.r, base.s)
        return sum(c for g, c in v.terms.items() if _hat_abs_key(u, g.r, g.s) == key) % 2
    cls = element_class(action, base)
    if isinstance(action, Tilde) and not cls.g_tilde_regular:
        raise SingularBase(f"{base} is singular for the translation action")
    period = _period(action)
    sums = v.residue_sums(period)
    key_sign: dict[Pair, int] = {}  # 0 where both signs resolve
    for (r, s), sign in _heads(action, (base.r, base.s)):
        key = (r, s % period)
        key_sign[key] = sign if key_sign.get(key, sign) == sign else 0
    if cls.defective and not isinstance(action, Tilde):
        return sum(sums.get(key, 0) for key in key_sign) % 2
    if any(not sign and key in sums for key, sign in key_sign.items()):
        for g in v.terms:
            if key_sign.get((g.r, g.s % period)) == 0:
                raise InconsistentSign(f"{g} resolves with both signs from base {base}")
    total = sum(sign * sums[key] for key, sign in key_sign.items() if key in sums)
    return total % 2 if v.mod == 2 else total
