"""Sparse group rings Z[pi] and Z2[pi] with the twisted product.

Includes the geometric-series expansions used throughout, the Fox
differential calculus on adapted words, exact division by the alpha-column
of the relator's Jacobian, and the resulting projection of the relator
subgroup onto (Z[pi], +).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, TypeVar

from .errors import DomainMismatch, EpsilonMismatch, NotDivisible, NotInKernel
from .record import Record
from .surface import PiElement, project
from .words import BasisTag, Word, change_basis, conj, relator_in


_Sum = TypeVar("_Sum", bound="SparseSum")
_Pair = tuple[int, int]  # canonical coordinates (r, s) of a quotient-group element


class SparseSum(Record):
    """Finite formal sum over the quotient group; no zero coefficients stored.

    The additive structure shared by the group ring and by its quotient Q;
    subclasses differ only in how ``make`` normalises the terms.
    """

    __slots__ = ("epsilon", "mod", "terms")
    epsilon: int
    mod: int  # 0 = integer coefficients, 2 = mod-2 coefficients
    terms: Mapping[PiElement, int]

    def __init__(self, epsilon: int, mod: int, terms: Mapping[PiElement, int]) -> None:
        _set_epsilon(self, epsilon)
        _set_mod(self, mod)
        _set_terms(self, terms)

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
    def zero(cls: type[_Sum], epsilon: int) -> _Sum:
        return cls(epsilon, 0, {})

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


# the slots' setters, bound once: a sum is built on every ring operation
_set_epsilon, _set_mod, _set_terms = SparseSum.epsilon.__set__, SparseSum.mod.__set__, SparseSum.terms.__set__


class RingElement(SparseSum):
    """Element of Z[pi] or Z2[pi] with the twisted product.

    It keeps a ``__dict__`` (no ``__slots__``) for its cache of residue sums.
    """

    @staticmethod
    def monomial(g: PiElement, coeff: int = 1) -> "RingElement":
        return RingElement.make(g.epsilon, [(g, coeff)])

    @staticmethod
    def one(epsilon: int) -> "RingElement":
        return RingElement.monomial(PiElement.identity(epsilon))

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        items = [
            (g * h, c * d)
            for g, c in self.terms.items()
            for h, d in other.terms.items()
        ]
        return RingElement.make(self.epsilon, items, self.mod)

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


def one_minus_pow(x: PiElement, k: int) -> RingElement:
    """The element 1 - x**k."""
    return RingElement.make(x.epsilon, [(PiElement.identity(x.epsilon), 1), (x**k, -1)])


def geom_terms(a: int, b: int) -> list[tuple[int, int]]:
    """The (exponent, sign) terms of (1 - x**a) / (1 - x**b), for b | a.

    They are listed in the order of the factors of the representative word
    prod (c^e R c^-e)^sign; the series of a == 0 is empty.
    """
    if b == 0 or a % b:
        raise NotDivisible(f"{b} does not divide {a}")
    m = a // b
    if m >= 0:
        return [(j * b, 1) for j in range(m - 1, -1, -1)]
    return [(a + j * b, -1) for j in range(-m)]


def alt_geom_terms(two_d: int, ell: int) -> list[tuple[int, int]]:
    """The (exponent, sign) terms of (1 - x**two_d) / (1 + x**ell), for
    ell | two_d / 2: the even multiples of ell, then the odd ones, in the
    order of the representative word's factors."""
    if ell == 0 or two_d % 2 or (two_d // 2) % ell:
        raise NotDivisible(f"{ell} does not divide {two_d}/2")
    k = two_d // 2 // ell
    if k >= 0:
        evens = [(2 * j * ell, 1) for j in range(k - 1, -1, -1)]
        return evens + [((2 * j + 1) * ell, -1) for j in range(k)]
    evens = [(two_d + 2 * j * ell, -1) for j in range(-k)]
    return evens + [(-(2 * j + 1) * ell, 1) for j in range(-k)]


def series_word(c: Word, terms: Iterable[tuple[int, int]]) -> Word:
    """The representative word prod (c^e R c^-e)^sign of a term list.

    It is read as c^e1 R^sign1 c^(e2-e1) ... R^signk c^-ek: one syllable
    list, reduced once, so no power c^e is built only to cancel again.
    """
    rel = relator_in(c.basis)
    syls: list[tuple[int, int]] = []
    at = 0
    for e, sign in terms:
        syls += (c ** (e - at)).syls
        syls += (rel**sign).syls
        at = e
    syls += (c**-at).syls
    return Word.from_syllables(c.basis, syls)


def _series(x: PiElement, terms: list[tuple[int, int]], divisor: RingElement, a: int) -> RingElement:
    """The sum of the terms at powers of ``x``, checked by multiplying it back
    by ``divisor`` onto 1 - x**a.

    Each term's power is the previous one times ``x`` to the step between
    their exponents; the term lists hold runs of one step, so each step's
    power is built once.
    """
    if terms and x.is_identity:
        raise NotDivisible("ratio base must not be the identity")
    items: list[tuple[PiElement, int]] = []
    power, at, steps = PiElement.identity(x.epsilon), 0, {}
    for e, sign in terms:
        if e - at not in steps:
            steps[e - at] = x ** (e - at)
        power, at = power * steps[e - at], e
        items.append((power, sign))
    result = RingElement.make(x.epsilon, items)
    if result * divisor != one_minus_pow(x, a):
        raise NotDivisible("geometric expansion failed verification")
    return result


def geom_ratio(x: PiElement, a: int, b: int) -> RingElement:
    """(1 - x**a) / (1 - x**b) expanded as a finite geometric sum.

    Requires b | a, and x of infinite order unless a == 0.  The result is
    post-verified by multiplying back.
    """
    return _series(x, geom_terms(a, b), one_minus_pow(x, b), a)


def alt_geom_ratio(x: PiElement, two_d: int, ell: int) -> RingElement:
    """(1 - x**two_d) / (1 + x**ell) as the alternating two-branch sum."""
    terms = alt_geom_terms(two_d, ell)
    one_plus = RingElement.make(x.epsilon, [(PiElement.identity(x.epsilon), 1), (x**ell, 1)])
    return _series(x, terms, one_plus, two_d)


# ---------------------------------------------------------------------------
# Fox calculus and the projection of N onto (Z[pi], +)
# ---------------------------------------------------------------------------


def _fox_pairs(w: Word) -> tuple[dict[_Pair, int], dict[_Pair, int]]:
    """One walk over ``w``: its quotient-projected free derivatives by alpha
    and by beta, keyed by ``(r, s)``, zeros dropped.

    A letter alpha^{+-1} moves r by +-sigma(s) and a letter beta^{+-1} moves
    s by +-1.  A letter adds the prefix before it and an inverse letter
    subtracts the prefix after it; keys keep the order of their first letter.
    """
    if w.basis.kind != "adapted":
        w = change_basis(w, BasisTag.adapted(w.basis.epsilon))
    twisted = w.basis.epsilon == -1
    d_alpha: dict[_Pair, int] = {}
    d_beta: dict[_Pair, int] = {}
    get_alpha, get_beta = d_alpha.get, d_beta.get
    r = s = 0
    for g, e in w.syls:
        c = 1 if e > 0 else -1
        if g:
            first = s if e > 0 else s - 1
            for t in range(first, first + e, c):
                key = (r, t)
                d_beta[key] = get_beta(key, 0) + c
            s += e
        else:
            sigma = -1 if twisted and s & 1 else 1
            first = r if e > 0 else r - sigma
            for x in range(first, first + sigma * e, sigma * c):
                key = (x, s)
                d_alpha[key] = get_alpha(key, 0) + c
            r += sigma * e
    return {key: c for key, c in d_alpha.items() if c}, {key: c for key, c in d_beta.items() if c}


def _ring(epsilon: int, pairs: Mapping[_Pair, int]) -> RingElement:
    """The integer element with the nonzero coefficients ``pairs``, in their order."""
    return RingElement(
        epsilon, 0, {PiElement(epsilon, r, s): c for (r, s), c in pairs.items()}
    )


def fox_derivative(w: Word, gen: str) -> RingElement:
    """The quotient-projected free derivative of ``w`` by generator 'a' or 'b'."""
    if gen not in ("a", "b"):
        raise ValueError(f"generator must be 'a' or 'b', got {gen!r}")
    d_alpha, d_beta = _fox_pairs(w)
    return _ring(w.basis.epsilon, d_alpha if gen == "a" else d_beta)


def relator_jacobian_alpha(epsilon: int) -> RingElement:
    """Projected derivative of the relator by alpha: 1 - beta (torus) or 1 + alpha*beta."""
    one = PiElement.identity(epsilon)
    if epsilon == 1:
        return RingElement.make(1, [(one, 1), (PiElement.beta(1), -1)])
    return RingElement.make(-1, [(one, 1), (PiElement(-1, 1, 1), 1)])


def _divide_pairs(epsilon: int, p: Mapping[_Pair, int]) -> dict[_Pair, int]:
    """Solve lam * d == p exactly, for d the alpha-column Jacobian element and
    ``p`` given by its nonzero coefficients keyed by ``(r, s)``.

    Elements are peeled row by row in the beta-degree grading; the top row of
    the product is contributed by a single row of ``lam``, so the quotient is
    recovered top-down and the remainder must vanish.  The remainder is kept
    as rows ``{s: {r: c}}``: subtracting ``lam_row * d`` clears row ``s_top``
    and touches only row ``s_top - 1``, so the division is linear in the terms
    it visits.
    """
    lam: dict[_Pair, int] = {}
    if not p:
        return lam
    rows: dict[int, dict[int, int]] = {}
    for (r, s), c in p.items():
        rows.setdefault(s, {})[r] = c
    tops = sorted(rows)  # rows still to peel, the top one last
    s_min = tops[0]
    while tops[-1] > s_min:
        s_top = tops.pop()
        row = {r: c for r, c in rows.pop(s_top).items() if c}
        if not row:
            continue
        if s_top - 1 not in rows:
            rows[s_top - 1] = {}
            tops.append(s_top - 1)
        below = rows[s_top - 1]
        if epsilon == 1:  # d = 1 - beta: lam holds -c at (r, s_top - 1)
            shift, sign = 0, -1
        else:  # d = 1 + alpha*beta: lam holds c at (r - sigma, s_top - 1)
            shift, sign = (-1 if (s_top - 1) % 2 else 1), 1
        for r, c in row.items():
            lam[(r - shift, s_top - 1)] = sign * c
            below[r - shift] = below.get(r - shift, 0) - sign * c
    if any(rows[s_min].values()):
        raise NotDivisible("nonzero remainder in exact division")
    return lam


def exact_divide(p: RingElement, d: RingElement) -> RingElement:
    """Solve lam * d == p exactly, for d the alpha-column Jacobian element."""
    if p.mod != 0:
        raise DomainMismatch("exact division works over integer coefficients")
    eps = p.epsilon
    if d != relator_jacobian_alpha(eps):
        raise NotDivisible("divisor must be the alpha-column Jacobian element")
    return _ring(eps, _divide_pairs(eps, {(g.r, g.s): c for g, c in p.terms.items()}))


def q_n(w: Word) -> RingElement:
    """Image of a relator-subgroup element in (Z[pi], +).

    A product of conjugates prod_i (u_i R u_i^-1)^{n_i} maps to
    sum_i n_i * class(u_i).  Computed via Fox calculus plus exact division,
    with the beta-column identity as a built-in consistency check, all on
    coefficients keyed by ``(r, s)``; group elements are built for the result
    only.  A classic word is converted once.  A word outside the kernel is
    refused by its projection, which walks syllables, before the Fox walk
    expands it letter by letter.
    """
    if w.basis.kind != "adapted":
        w = change_basis(w, BasisTag.adapted(w.basis.epsilon))
    if not project(w).is_identity:
        raise NotInKernel("word does not project to the identity")
    d_alpha, d_beta = _fox_pairs(w)
    eps = w.basis.epsilon
    try:
        lam = _divide_pairs(eps, d_alpha)
    except NotDivisible as exc:  # pragma: no cover - guarded by the projection test
        raise NotInKernel(str(exc)) from exc
    # the beta-column of the relator's Jacobian is alpha - 1, and
    # lam * (alpha - 1) holds +c at (r + sigma(s), s) and -c at (r, s)
    twisted = eps == -1
    check: dict[_Pair, int] = {}
    for (r, s), c in lam.items():
        key = (r - 1 if twisted and s & 1 else r + 1, s)
        check[key] = check.get(key, 0) + c
        key = (r, s)
        check[key] = check.get(key, 0) - c
    if {key: c for key, c in check.items() if c} != d_beta:
        raise NotInKernel("beta-column consistency check failed")
    return _ring(eps, lam)


def conjugate_power_product(
    epsilon: int, factors: Iterable[tuple[Word, int]]
) -> Word:
    """Build prod_i (u_i R u_i^-1)^{n_i} in the adapted basis."""
    rel = relator_in(BasisTag.adapted(epsilon))
    out = Word.identity(rel.basis)
    for u, n in factors:
        out = out * conj(u, rel) ** n
    return out
