"""Group actions on the Klein-bottle/torus quotient and their augmentations.

Four action kinds act on the quotient group:

* ``HatAbs(u)``    -- left translation by powers of a fixed element plus
                      inversion (both signs of epsilon);
* ``Tilde(n)``     -- left translation by beta^{2n} plus inversion;
* ``TildeL(n, L)`` -- Tilde extended by the reflection j_L;
* ``HatL(n, L)``   -- left translation by alpha^L beta^{l_max} plus inversion.

Orbits of all four are finite unions of arithmetic families, so membership
reduces to solving small linear congruences in the exponents.  Augmentations
sum coefficients over an orbit, plainly mod 2 or twisted by the character
that sends both generators of the acting group to -1.
"""

from __future__ import annotations

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
class Tilde:
    n: int

    def __post_init__(self) -> None:
        if self.n == 0:
            raise ValueError("n must be nonzero")

    epsilon = -1


@dataclass(frozen=True)
class TildeL:
    n: int
    L: int

    def __post_init__(self) -> None:
        if self.n == 0:
            raise ValueError("n must be nonzero")

    epsilon = -1


@dataclass(frozen=True)
class HatL:
    n: int
    L: int

    def __post_init__(self) -> None:
        if self.n == 0:
            raise ValueError("n must be nonzero")

    epsilon = -1


Action = Union[HatAbs, Tilde, TildeL, HatL]


def _check_eps(action: Action, *elements: PiElement) -> None:
    for g in elements:
        if g.epsilon != action.epsilon:
            raise EpsilonMismatch("element epsilon does not match the action")


def _u_of(action: Union[TildeL, HatL]) -> PiElement:
    ell, _, _ = odd_part(action.n)
    return PiElement(-1, action.L, ell)


def _j_l(action: TildeL, g: PiElement) -> PiElement:
    u = _u_of(action)
    return u * (u * g).inv()


@dataclass(frozen=True)
class _Family:
    """Arithmetic family {(r, s + period*k)} with an attached character sign."""

    head: PiElement
    period: int  # 0 means the single element {head}
    sign: int

    def contains(self, x: PiElement) -> bool:
        if x.r != self.head.r:
            return False
        if self.period == 0:
            return x.s == self.head.s
        return (x.s - self.head.s) % self.period == 0


def _families(action: Union[Tilde, TildeL, HatL], g: PiElement) -> list[_Family]:
    if isinstance(action, Tilde):
        period = 2 * abs(action.n)
        return [_Family(g, period, 1), _Family(g.inv(), period, -1)]
    if isinstance(action, TildeL):
        period = 2 * abs(action.n)
        jg = _j_l(action, g)
        return [
            _Family(g, period, 1),
            _Family(g.inv(), period, -1),
            _Family(jg.inv(), period, 1),
            _Family(jg, period, -1),
        ]
    # HatL: the square of the translation element is central, so the orbit of
    # g is the union of the two-sided translate families u^a g^e u^b with
    # a, b mod 2, each with period 2*l_max in s.  The character sends both
    # generators to -1, giving the sign (-1)^(a+b) for e=+1 and its negative
    # for e=-1.
    ell, _, _ = odd_part(action.n)
    u = _u_of(action)
    gi = g.inv()
    period = 2 * ell
    return [
        _Family(g, period, 1),
        _Family(gi, period, -1),
        _Family(u * g, period, -1),
        _Family(u * gi, period, 1),
        _Family(g * u, period, -1),
        _Family(gi * u, period, 1),
        _Family(u * g * u, period, 1),
        _Family(u * gi * u, period, -1),
    ]


def _hat_abs_even_member(u: PiElement, head: PiElement, x: PiElement) -> bool:
    """Is x = u**k * head for some k (all elements orientation-preserving)?"""
    um, us = u.r, u.s
    if um == 0 and us == 0:
        return x == head
    if um == 0:
        return x.r == head.r and (x.s - head.s) % us == 0
    if us == 0:
        return x.s == head.s and (x.r - head.r) % um == 0
    if (x.r - head.r) % um or (x.s - head.s) % us:
        return False
    return (x.r - head.r) // um == (x.s - head.s) // us


def _hat_abs_odd_member(u: PiElement, head: PiElement, x: PiElement) -> bool:
    """Klein-bottle orbit family through an orientation-reversing head."""
    um, un2 = u.r, u.s  # u = alpha^um beta^un2 with un2 even
    if um != 0:
        if (x.r - head.r) % um:
            return False
        k = (x.r - head.r) // um
        if un2 == 0:
            return x.s == head.s
        return (x.s - head.s - k * un2) % (2 * un2) == 0
    if x.r != head.r:
        return False
    if un2 == 0:
        return x.s == head.s
    return (x.s - head.s) % un2 == 0


def same_orbit(action: Action, g: PiElement, h: PiElement) -> bool:
    """Decide orbit membership from the closed-form orbit descriptions."""
    _check_eps(action, g, h)
    if isinstance(action, HatAbs):
        u = action.u
        if u.epsilon == -1 and g.w_eps() != h.w_eps():
            return False
        if u.epsilon == -1 and g.w_eps() == -1:
            return _hat_abs_odd_member(u, g, h) or _hat_abs_odd_member(u, g.inv(), h)
        return _hat_abs_even_member(u, g, h) or _hat_abs_even_member(u, g.inv(), h)
    return any(f.contains(h) for f in _families(action, g))


@dataclass(frozen=True)
class ElementClass:
    g_tilde_regular: bool
    defective: bool


def element_class(action: Union[Tilde, TildeL, HatL], g: PiElement) -> ElementClass:
    """Stabilizer classification relative to the translation parameter n."""
    _check_eps(action, g)
    n = action.n
    defective = g.s % n == 0
    singular = defective and (g.r == 0 if g.s % 2 == 0 else True)
    return ElementClass(g_tilde_regular=not singular, defective=defective)


def _orbit_parity(action: Action, v: RingElement, base: PiElement) -> int:
    total = sum(c for g, c in v.terms.items() if same_orbit(action, base, g))
    return total % 2


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
        return _orbit_parity(action, v, base)
    cls = element_class(action, base)
    if isinstance(action, Tilde):
        if not cls.g_tilde_regular:
            raise SingularBase(f"{base} is singular for the translation action")
    elif cls.defective:
        return _orbit_parity(action, v, base)
    families = _families(action, base)
    period = families[0].period  # shared by every family of one action
    key_signs: dict[tuple[int, int], set[int]] = {}
    for f in families:
        key_signs.setdefault((f.head.r, f.head.s % period), set()).add(f.sign)
    sums = v.residue_sums(period)
    if any(len(signs) == 2 and key in sums for key, signs in key_signs.items()):
        for g in v.terms:
            if len(key_signs.get((g.r, g.s % period), ())) == 2:
                raise InconsistentSign(f"{g} resolves with both signs from base {base}")
    total = sum(signs.pop() * sums[key] for key, signs in key_signs.items() if key in sums)
    return total % 2 if v.mod == 2 else total
