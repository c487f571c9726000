"""Sparse group rings Z[pi] and Z2[pi] with the twisted product.

Includes the geometric-series expansions used throughout, the Fox
differential calculus on adapted words, exact division by the alpha-column
of the relator's Jacobian, and the resulting projection of the relator
subgroup onto (Z[pi], +).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, TypeVar

from .errors import DomainMismatch, EpsilonMismatch, NotDivisible, NotInKernel
from .surface import PiElement, project
from .words import BasisTag, Word, change_basis


_Sum = TypeVar("_Sum", bound="SparseSum")


@dataclass(frozen=True)
class SparseSum:
    """Finite formal sum over the quotient group; no zero coefficients stored.

    The additive structure shared by the group ring and by its quotient Q;
    subclasses differ only in how ``make`` normalises the terms.
    """

    epsilon: int
    mod: int = 0  # 0 = integer coefficients, 2 = mod-2 coefficients
    terms: Mapping[PiElement, int] = field(default_factory=dict)

    @classmethod
    def make(cls: type[_Sum], epsilon: int, items: Iterable[tuple[PiElement, int]], mod: int = 0) -> _Sum:
        acc: dict[PiElement, int] = {}
        for g, c in items:
            if g.epsilon != epsilon:
                raise EpsilonMismatch("term epsilon differs from element epsilon")
            acc[g] = acc.get(g, 0) + c
        if mod == 2:
            return cls(epsilon, mod, {g: 1 for g, c in acc.items() if c % 2})
        return cls(epsilon, mod, {g: c for g, c in acc.items() if c})

    @classmethod
    def zero(cls: type[_Sum], epsilon: int, mod: int = 0) -> _Sum:
        return cls(epsilon, mod, {})

    def _check(self, other: "SparseSum") -> None:
        if self.epsilon != other.epsilon:
            raise EpsilonMismatch("mixed epsilon in ring operation")
        if self.mod != other.mod:
            raise DomainMismatch("mixed coefficient domains")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[PiElement]:
        return sorted(self.terms, key=lambda g: (g.s, g.r))

    def __add__(self: _Sum, other: _Sum) -> _Sum:
        self._check(other)
        items = list(self.terms.items()) + list(other.terms.items())
        return self.make(self.epsilon, items, self.mod)

    def __neg__(self: _Sum) -> _Sum:
        return self.make(self.epsilon, [(g, -c) for g, c in self.terms.items()], self.mod)

    def __sub__(self: _Sum, other: _Sum) -> _Sum:
        return self + -other

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.epsilon == other.epsilon
            and self.mod == other.mod
            and dict(self.terms) == dict(other.terms)
        )

    def __hash__(self) -> int:
        return hash((self.epsilon, self.mod, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "{" + ", ".join(f"({g.r},{g.s}): {self.terms[g]}" for g in self.support()) + "}"


class RingElement(SparseSum):
    """Element of Z[pi] or Z2[pi] with the twisted product."""

    @staticmethod
    def monomial(g: PiElement, coeff: int = 1, mod: int = 0) -> "RingElement":
        return RingElement.make(g.epsilon, [(g, coeff)], mod)

    @staticmethod
    def one(epsilon: int, mod: int = 0) -> "RingElement":
        return RingElement.monomial(PiElement.identity(epsilon), 1, mod)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        items = [
            (g * h, c * d)
            for g, c in self.terms.items()
            for h, d in other.terms.items()
        ]
        return RingElement.make(self.epsilon, items, self.mod)

    def translate(self, g: PiElement) -> "RingElement":
        """Left multiplication by the group element ``g``."""
        return RingElement.make(
            self.epsilon, [(g * h, c) for h, c in self.terms.items()], self.mod
        )

    def residue_sums(self, period: int) -> dict[tuple[int, int], int]:
        """Coefficient sums over the classes ``{(r, s + period*k)}``, keyed by
        ``(r, s mod period)``.

        The orbit augmentations read them for many bases of one element, so
        they are computed once per period and kept with the element.
        """
        sums = self._residue_sums.get(period)
        if sums is None:
            sums = self._residue_sums[period] = {}
            for g, c in self.terms.items():
                key = (g.r, g.s % period)
                sums[key] = sums.get(key, 0) + c
        return sums

    @cached_property
    def _residue_sums(self) -> dict[int, dict[tuple[int, int], int]]:
        return {}

    def reduce_mod2(self) -> "RingElement":
        return RingElement.make(self.epsilon, self.terms.items(), mod=2)


def one_minus_pow(x: PiElement, k: int, mod: int = 0) -> RingElement:
    """The element 1 - x**k."""
    return RingElement.make(
        x.epsilon, [(PiElement.identity(x.epsilon), 1), (x**k, -1)], mod
    )


def geom_ratio(x: PiElement, a: int, b: int) -> RingElement:
    """(1 - x**a) / (1 - x**b) expanded as a finite geometric sum.

    Requires b | a, and x of infinite order unless a == 0.  The result is
    post-verified by multiplying back.
    """
    if b == 0 or a % b:
        raise NotDivisible(f"{b} does not divide {a}")
    if a == 0:
        return RingElement.zero(x.epsilon)
    if x.is_identity:
        raise NotDivisible("ratio base must not be the identity")
    m = a // b
    if m >= 0:
        items = [(x ** (j * b), 1) for j in range(m)]
    else:
        items = [(x ** (a + (j - 1) * b), -1) for j in range(1, -m + 1)]
    result = RingElement.make(x.epsilon, items)
    if result * one_minus_pow(x, b) != one_minus_pow(x, a):
        raise NotDivisible("geometric expansion failed verification")
    return result


def alt_geom_ratio(x: PiElement, two_d: int, ell: int) -> RingElement:
    """(1 - x**two_d) / (1 + x**ell) as the alternating two-branch sum."""
    if ell == 0 or two_d % 2 or (two_d // 2) % ell:
        raise NotDivisible(f"{ell} does not divide {two_d}/2")
    if two_d == 0:
        return RingElement.zero(x.epsilon)
    if x.is_identity:
        raise NotDivisible("ratio base must not be the identity")
    m = two_d // ell
    if m > 0:
        items = [(x ** (j * ell), 1 if j % 2 == 0 else -1) for j in range(m)]
    else:
        items = [(x ** (-j * ell), 1 if j % 2 else -1) for j in range(1, -m + 1)]
    result = RingElement.make(x.epsilon, items)
    check = RingElement.make(
        x.epsilon, [(PiElement.identity(x.epsilon), 1), (x**ell, 1)]
    )
    if result * check != one_minus_pow(x, two_d):
        raise NotDivisible("alternating expansion failed verification")
    return result


# ---------------------------------------------------------------------------
# Fox calculus and the projection of N onto (Z[pi], +)
# ---------------------------------------------------------------------------


def fox_derivative(w: Word, gen: str) -> RingElement:
    """The quotient-projected free derivative of ``w`` by generator 'a' or 'b'.

    The prefix walks canonical coordinates ``(r, s)``: a letter alpha^{+-1}
    moves r by +-sigma(s) and a letter beta^{+-1} moves s by +-1.
    """
    if w.basis.kind != "adapted":
        w = change_basis(w, BasisTag.adapted(w.basis.epsilon))
    eps = w.basis.epsilon
    idx = 0 if gen == "a" else 1
    acc: dict[tuple[int, int], int] = {}
    r = s = 0
    for g, e in w.syls:
        sigma = -1 if eps == -1 and s & 1 else 1
        if g == idx:
            # a letter adds the prefix before it, an inverse letter subtracts
            # the prefix after it
            c = 1 if e > 0 else -1
            for j in range(e) if e > 0 else range(-1, e - 1, -1):
                key = (r + sigma * j, s) if g == 0 else (r, s + j)
                acc[key] = acc.get(key, 0) + c
        if g == 0:
            r += sigma * e
        else:
            s += e
    return RingElement(
        eps, 0, {PiElement(eps, r, s): c for (r, s), c in acc.items() if c}
    )


def relator_jacobian_alpha(epsilon: int) -> RingElement:
    """Projected derivative of the relator by alpha: 1 - beta (torus) or 1 + alpha*beta."""
    one = PiElement.identity(epsilon)
    if epsilon == 1:
        return RingElement.make(1, [(one, 1), (PiElement.beta(1), -1)])
    return RingElement.make(-1, [(one, 1), (PiElement(-1, 1, 1), 1)])


def relator_jacobian_beta(epsilon: int) -> RingElement:
    """Projected derivative of the relator by beta: alpha - 1 for both signs."""
    return RingElement.make(
        epsilon,
        [(PiElement.alpha(epsilon), 1), (PiElement.identity(epsilon), -1)],
    )


def exact_divide(p: RingElement, d: RingElement) -> RingElement:
    """Solve lam * d == p exactly, for d the alpha-column Jacobian element.

    Elements are peeled row by row in the beta-degree grading; the top row of
    the product is contributed by a single row of ``lam``, so the quotient is
    recovered top-down and the remainder must vanish.  The remainder is kept
    as rows ``{s: {r: c}}``: subtracting ``lam_row * d`` clears row ``s_top``
    and touches only row ``s_top - 1``, so the division is linear in the terms
    it visits.
    """
    if p.mod != 0:
        raise DomainMismatch("exact division works over integer coefficients")
    eps = p.epsilon
    if d != relator_jacobian_alpha(eps):
        raise NotDivisible("divisor must be the alpha-column Jacobian element")
    if p.is_zero:
        return RingElement.zero(eps)
    rows: dict[int, dict[int, int]] = {}
    for g, c in p.terms.items():
        rows.setdefault(g.s, {})[g.r] = c
    tops = sorted(rows)  # rows still to peel, the top one last
    s_min = tops[0]
    lam: dict[PiElement, int] = {}
    while tops[-1] > s_min:
        s_top = tops.pop()
        row = {r: c for r, c in rows.pop(s_top).items() if c}
        if not row:
            continue
        if s_top - 1 not in rows:
            rows[s_top - 1] = {}
            tops.append(s_top - 1)
        below = rows[s_top - 1]
        if eps == 1:  # d = 1 - beta: lam holds -c at (r, s_top - 1)
            shift, sign = 0, -1
        else:  # d = 1 + alpha*beta: lam holds c at (r - sigma, s_top - 1)
            shift, sign = (-1 if (s_top - 1) % 2 else 1), 1
        for r, c in row.items():
            lam[PiElement(eps, r - shift, s_top - 1)] = sign * c
            below[r - shift] = below.get(r - shift, 0) - sign * c
    if any(rows[s_min].values()):
        raise NotDivisible("nonzero remainder in exact division")
    return RingElement(eps, 0, lam)


def q_n(w: Word) -> RingElement:
    """Image of a relator-subgroup element in (Z[pi], +).

    A product of conjugates prod_i (u_i R u_i^-1)^{n_i} maps to
    sum_i n_i * class(u_i).  Computed via Fox calculus plus exact division,
    with the beta-column identity as a built-in consistency check.
    """
    if not project(w).is_identity:
        raise NotInKernel("word does not project to the identity")
    eps = w.basis.epsilon
    try:
        lam = exact_divide(fox_derivative(w, "a"), relator_jacobian_alpha(eps))
    except NotDivisible as exc:  # pragma: no cover - guarded by the projection test
        raise NotInKernel(str(exc)) from exc
    if lam * relator_jacobian_beta(eps) != fox_derivative(w, "b"):
        raise NotInKernel("beta-column consistency check failed")
    return lam


def conjugate_power_product(
    epsilon: int, factors: Iterable[tuple[Word, int]]
) -> Word:
    """Build prod_i (u_i R u_i^-1)^{n_i} in the adapted basis."""
    from .words import conj, relator

    rel = relator(epsilon)
    out = Word.identity(rel.basis)
    for u, n in factors:
        out = out * conj(u, rel) ** n
    return out
