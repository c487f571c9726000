"""Sparse group rings Z[pi] and Z2[pi] with the twisted product.

Includes the term lists of the first derived equation's geometric series
and their representative words, the Fox differential calculus on adapted
words, exact division by the alpha-column of the relator's Jacobian, and the
resulting projection ``q_n`` of the relator subgroup onto (Z[pi], +), which
reads a series' ring value off its word.

Ring terms are the ``(r, s)`` pairs of ``surface``, with epsilon stored once
per element; the product runs ``surface.mul``, the one product rule, and the
Fox walk and the division build their elements straight from pair dicts.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from .errors import DomainMismatch, EpsilonMismatch, InvalidSpec, NotDivisible, NotInKernel
from .record import Record
from .surface import Pair, mul, project
from .words import BasisTag, Word, change_basis, conj, relator_in


class RingElement(Record):
    """Element of Z[pi] or Z2[pi] with the twisted product: a finite formal
    sum over the quotient group, keyed by ``(r, s)`` pairs, with no zero
    coefficients stored.

    Its ``__dict__`` holds the cache of residue sums.
    """

    __slots__ = ("epsilon", "mod", "terms", "__dict__")
    epsilon: int
    mod: int  # 0 = integer coefficients, 2 = mod-2 coefficients
    terms: Mapping[Pair, int]

    def __init__(self, epsilon: int, mod: int, terms: Mapping[Pair, int]) -> None:
        _set_epsilon(self, epsilon)
        _set_mod(self, mod)
        _set_terms(self, terms)

    @staticmethod
    def make(epsilon: int, items: Iterable[tuple[Pair, int]], mod: int = 0) -> "RingElement":
        acc: dict[Pair, int] = {}
        for g, c in items:
            acc[g] = acc.get(g, 0) + c
        if mod == 2:
            return RingElement(epsilon, mod, {g: 1 for g, c in acc.items() if c % 2})
        return RingElement(epsilon, mod, {g: c for g, c in acc.items() if c})

    @staticmethod
    def zero(epsilon: int) -> "RingElement":
        return RingElement(epsilon, 0, {})

    def _check(self, other: "RingElement") -> None:
        if self.epsilon != other.epsilon:
            raise EpsilonMismatch("mixed epsilon in ring operation")
        if self.mod != other.mod:
            raise DomainMismatch("mixed coefficient domains")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Pair]:
        """The terms' pairs by beta-degree, then alpha-degree."""
        return sorted(self.terms, key=lambda g: (g[1], g[0]))

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        items = list(self.terms.items()) + list(other.terms.items())
        return RingElement.make(self.epsilon, items, self.mod)

    def __neg__(self) -> "RingElement":
        return RingElement.make(self.epsilon, [(g, -c) for g, c in self.terms.items()], self.mod)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + -other

    def __hash__(self) -> int:
        return hash((self.epsilon, self.mod, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "{" + ", ".join(f"({r},{s}): {self.terms[r, s]}" for r, s in self.support()) + "}"

    @staticmethod
    def monomial(epsilon: int, g: Pair, coeff: int = 1) -> "RingElement":
        return RingElement.make(epsilon, [(g, coeff)])

    @staticmethod
    def one(epsilon: int) -> "RingElement":
        return RingElement.monomial(epsilon, (0, 0))

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        eps = self.epsilon
        items = [
            (mul(eps, g, h), c * d)
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
            for (r, s), c in self.terms.items():
                key = (r, s % period)
                sums[key] = sums.get(key, 0) + c
        return sums

    @cached_property
    def _residue_sums(self) -> dict[int, dict[tuple[int, int], int]]:
        return {}

    def reduce_mod2(self) -> "RingElement":
        return RingElement.make(self.epsilon, self.terms.items(), mod=2)


# the slots' setters, bound once: a sum is built on every ring operation
_set_epsilon, _set_mod, _set_terms = RingElement.epsilon.__set__, RingElement.mod.__set__, RingElement.terms.__set__


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


# ---------------------------------------------------------------------------
# Fox calculus and the projection of N onto (Z[pi], +)
# ---------------------------------------------------------------------------


def _fox_pairs(w: Word) -> tuple[dict[Pair, int], dict[Pair, int]]:
    """One walk over ``w``: its quotient-projected free derivatives by alpha
    and by beta, keyed by ``(r, s)``, zeros dropped.

    A letter alpha^{+-1} moves r by +-sigma(s) and a letter beta^{+-1} moves
    s by +-1.  A letter adds the prefix before it and an inverse letter
    subtracts the prefix after it; keys keep the order of their first letter.
    """
    if w.basis.kind != "adapted":
        w = change_basis(w, BasisTag.adapted(w.basis.epsilon))
    twisted = w.basis.epsilon == -1
    d_alpha: dict[Pair, int] = {}
    d_beta: dict[Pair, int] = {}
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


def fox_derivative(w: Word, gen: str) -> RingElement:
    """The quotient-projected free derivative of ``w`` by generator 'a' or 'b'."""
    if gen not in ("a", "b"):
        raise InvalidSpec(f"generator must be 'a' or 'b', got {gen!r}")
    d_alpha, d_beta = _fox_pairs(w)
    return RingElement(w.basis.epsilon, 0, d_alpha if gen == "a" else d_beta)


def relator_jacobian_alpha(epsilon: int) -> RingElement:
    """Projected derivative of the relator by alpha: 1 - beta (torus) or 1 + alpha*beta."""
    if epsilon == 1:
        return RingElement.make(1, [((0, 0), 1), ((0, 1), -1)])
    return RingElement.make(-1, [((0, 0), 1), ((1, 1), 1)])


def _divide_pairs(epsilon: int, p: Mapping[Pair, int]) -> dict[Pair, int]:
    """Solve lam * d == p exactly, for d the alpha-column Jacobian element and
    ``p`` given by its nonzero coefficients keyed by ``(r, s)``.

    Elements are peeled row by row in the beta-degree grading; the top row of
    the product is contributed by a single row of ``lam``, so the quotient is
    recovered top-down and the remainder must vanish.  The remainder is kept
    as rows ``{s: {r: c}}``: subtracting ``lam_row * d`` clears row ``s_top``
    and touches only row ``s_top - 1``, so the division is linear in the terms
    it visits.
    """
    lam: dict[Pair, int] = {}
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
    return RingElement(eps, 0, _divide_pairs(eps, p.terms))


def q_n(w: Word) -> RingElement:
    """Image of a relator-subgroup element in (Z[pi], +).

    A product of conjugates prod_i (u_i R u_i^-1)^{n_i} maps to
    sum_i n_i * class(u_i).  Computed via Fox calculus plus exact division,
    with the beta-column identity as a built-in consistency check, all on
    coefficients keyed by ``(r, s)``, which the result holds as they are.  A
    classic word is converted once.  A word outside the kernel is refused by
    its projection, which walks syllables, before the Fox walk expands it
    letter by letter.
    """
    if w.basis.kind != "adapted":
        w = change_basis(w, BasisTag.adapted(w.basis.epsilon))
    if project(w) != (0, 0):
        raise NotInKernel("word does not project to the identity")
    d_alpha, d_beta = _fox_pairs(w)
    eps = w.basis.epsilon
    try:
        lam = _divide_pairs(eps, d_alpha)
    except NotDivisible as exc:  # pragma: no cover - guarded by the projection test
        raise NotInKernel(str(exc)) from exc
    # the beta-column of the relator's Jacobian is alpha - 1, and
    # lam * (alpha - 1) holds +c at g * alpha and -c at g
    check: dict[Pair, int] = {}
    for g, c in lam.items():
        key = mul(eps, g, (1, 0))
        check[key] = check.get(key, 0) + c
        check[g] = check.get(g, 0) - c
    if {key: c for key, c in check.items() if c} != d_beta:
        raise NotInKernel("beta-column consistency check failed")
    return RingElement(eps, 0, lam)


def conjugate_power_product(
    epsilon: int, factors: Iterable[tuple[Word, int]]
) -> Word:
    """Build prod_i (u_i R u_i^-1)^{n_i} in the adapted basis."""
    rel = relator_in(BasisTag.adapted(epsilon))
    out = Word.identity(rel.basis)
    for u, n in factors:
        out = out * conj(u, rel) ** n
    return out
