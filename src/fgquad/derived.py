"""First and second derived equations for the four mixed parameter families.

A mixed family is one of:

* ``eq2_nf``  -- delta=+1, eps=-1, non-faithful, vbar = beta^{2n};
* ``eq3_nf``  -- delta=-1, eps=+1, non-faithful, vbar = alpha^{2m} beta^{2n};
* ``eq4_f``   -- delta=-1, eps=-1, faithful,     vbar = beta^{2n};
* ``eq4_nf``  -- delta=-1, eps=-1, non-faithful, vbar = alpha^{2m} beta^{4n};

with theta = -1 throughout.  The first derived equation
``(1 - delta*ybar) * xtilde = 1 + theta*vbar`` lives in the group ring; its
solutions are enumerated as representative words, and each ring value is read
off its word by ``q_n`` and checked against the equation.  Solvability of
the second derived equation (in the quotient Q) is decided exactly, by orbit
augmentations for the squares families and by a finite translation-parameter
search for the beta-power families, over a window that ``_beta_decide``
proves complete, so it has no knob.  Every element of the quotient is an
``(r, s)`` pair: vbar, ybar and the squares action's translation element as
``surface.project`` returns them, the ring terms, the orbit keys, the chain
and pair candidates and the bases the search augments at; the products
u_L * g run ``surface.mul``, the one product rule.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional

from .errors import CaseMismatch, NotMixedCase
from .groupring import RingElement, alt_geom_terms, geom_terms, q_n, series_word
from .orbits import HatAbs, HatL, Tilde, TildeL, augment, odd_part, orbit_key
from .quotient import p_q
from .surface import Pair, inv, mul, project
from .tables import Branch, CaseKind
from .words import BasisTag, Word

# (delta, epsilon, beta-scale): vbar = alpha^{2m} beta^{scale*n}
_CASE_PARAMS: dict[CaseKind, tuple[int, int, int]] = {
    "eq2_nf": (1, -1, 2),
    "eq3_nf": (-1, 1, 2),
    "eq4_f": (-1, -1, 2),
    "eq4_nf": (-1, -1, 4),
}


class MixedCase(NamedTuple):
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
    def vbar(self) -> Pair:
        return 2 * self.m, self.scale * self.n

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


class ConjData(NamedTuple):
    case: MixedCase
    V: RingElement


def analyze_v(v: Word, vbar: Pair, branch: Branch) -> ConjData:
    """Decompose v = v0 * (product of relator conjugates) for a mixed case.

    Takes what ``tables.locate`` returns: ``v`` in the adapted basis, its
    projected ``(r, s)`` pair and its table branch, which must be a mixed
    one.
    """
    if branch.case is None:
        raise NotMixedCase(
            f"parameters fall in branch {branch.row} ({branch.kind}), not a mixed case",
            branch=branch.row,
        )
    r, s = vbar
    case = MixedCase(branch.case, n=s // _CASE_PARAMS[branch.case][2], m=r // 2)
    return ConjData(case, q_n(case.v0_word.inv() * v))


# ---------------------------------------------------------------------------
# First derived equation
# ---------------------------------------------------------------------------


class FirstSolution(NamedTuple):
    L: Optional[int]
    ell: int
    xtilde: RingElement
    ybar: Pair
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
    lhs = (one - RingElement.monomial(eps, sol.ybar, case.delta)) * sol.xtilde
    rhs = one - RingElement.monomial(eps, case.vbar)
    if lhs != rhs:
        raise CaseMismatch(f"first derived equation fails for {sol}")
    return sol


def _first_candidates(case: MixedCase, bound: int) -> Iterator[FirstSolution]:
    """The unchecked family entries: y = c^ell and x the representative word
    of the geometric series of vbar over cbar^ell, with xtilde = q_n(x) and
    ybar the projection of y; or for m = n = 0 the free y with xtilde = 0."""
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
    terms = geom_terms if geometric else alt_geom_terms
    for L, c in bases:
        for ell in _divisors(top, bound, odd_only):
            x_word, y_word = series_word(c, terms(2 * top, ell)), c**ell
            yield FirstSolution(L, ell, q_n(x_word), project(y_word), x_word, y_word)


def first_solutions(case: MixedCase, bound: int) -> list[FirstSolution]:
    """Enumerate the solution family of the first derived equation.

    For the beta-power cases the family is indexed by all translation
    exponents |L| <= bound and odd divisors ell of n (any odd |ell| <= bound
    when n == 0); for the two-parameter cases by divisors of gcd(m, n).  Every
    entry's ring values are read off its representative words and checked
    against the equation.
    """
    return [_check_first(case, sol) for sol in _first_candidates(case, bound)]


# ---------------------------------------------------------------------------
# Second derived equation: solvability decider
# ---------------------------------------------------------------------------


class DecideResult(NamedTuple):
    solvable: bool
    trace: dict
    ell: Optional[int] = None
    L: Optional[int] = None
    certificate: Optional[str] = None


def _window_values(value: int, modulus: int, lo: int, hi: int) -> range:
    """All w with lo < w < hi (hi exclusive) and w == value (mod modulus)."""
    return range(lo + 1 + (value - lo - 1) % modulus, hi, modulus)


def _window(bound: int) -> Iterator[int]:
    """The translation parameters in the order they are tried: 0, -1, 1, ...,
    -bound, bound."""
    yield 0
    for L in range(1, bound + 1):
        yield -L
        yield L


def _squares_decide(case: MixedCase, v_elt: RingElement) -> DecideResult:
    """Theorem for the two-parameter families with vbar != 1."""
    trace: dict = {"case": case.label(), "branch": "hat_orbit_parity"}
    v2 = v_elt.reduce_mod2()
    action = HatAbs(case.epsilon, project(case.c_word**case.d))
    # one pass: every orbit meeting the support by its key, with its first
    # element in support order and its augmentation
    reps: dict[Pair, Pair] = {}
    sums: dict[Pair, int] = {}
    for g in v2.support():
        key = orbit_key(action, g)
        reps.setdefault(key, g)
        sums[key] = sums.get(key, 0) + v2.terms[g]
    trace["orbits"] = len(reps)
    identity_key = orbit_key(action, (0, 0))
    for key, (r, s) in reps.items():
        if key != identity_key and sums[key] % 2:
            cert = f"orbit of ({r},{s}) has odd augmentation"
            return DecideResult(False, certificate=cert, trace=trace)
    return DecideResult(True, ell=case.d, trace=trace)


def _chain_candidates(n: int, ell: int, v_elt: RingElement) -> set[Pair]:
    """Restricted-window ``(r, s)`` pairs whose chain orbits can meet the support."""
    two_n = 2 * abs(n)
    steps = abs(n) // ell
    out: set[Pair] = set()
    # the modulus is even, so every value of a window has the parity of s
    for x in v_elt.support():
        for r, s in (x, inv(-1, x)):
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
    for r, s in v_elt.support():
        s_vals = rows.setdefault(abs(r), set())
        for target in (s, -s, s - ell, -s - ell):
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


def _beta_decide(case: MixedCase, v_elt: RingElement) -> DecideResult:
    """Translation-parameter search for the beta-power families, n != 0.

    Candidates are ``(r, s)`` pairs; each action, with its period and u_L,
    is built once per L and the residue sums once per element.

    The window ``|L| <= bound = 2 r_alpha + 1`` is complete: no L outside it
    is the first to hold.  Here r_alpha is the largest |r| in the support of
    ``vd``, u = (L, ell), and an augmentation reads residue keys
    ``(r, s mod period)`` in which r is never reduced, so a key with
    |r| > r_alpha adds 0.

    Odd n (``HatL``, ell = |n|, period 2 ell).  The base (m, 0) is
    defective (n divides 0), and its orbit heads have the keys (+-m, 0),
    (L - m, ell) and (L + m, ell), so its augmentation is the parity of
    ``vd`` over those four.  For m > r_alpha + |L| every key has
    |r| > r_alpha, so the augmentation is 0, and p_L <= |L| < m asks for 0:
    the bases up to r_alpha + |L| are the only ones to check.  Let
    |L| >= 2 r_alpha + 2 and m = r_alpha + 1.  Then m <= |L| - 1 <= p_L, so
    the condition at (m, 0) is checked and asks for an odd augmentation.
    But |L -+ m| >= |L| - m >= r_alpha + 1, so every key has |r| > r_alpha
    and the augmentation is 0: no such L holds.

    Even n (``TildeL``, period 2|n|).  The chain conditions do not read L.
    A pair candidate is g = (m, 2k) with 0 < 2k < ell, and j_L(g) = (m, -2k)
    for every L, so the heads of g are (+-m, +-2k) whatever L is; those of
    u_L g = (L - m, ell + 2k) are (L - m, +-(ell + 2k)) and
    (L + m, +-(ell + 2k)), with sign + at ell + 2k and - at -(ell + 2k)
    on both.  Neither base is defective: 0 < 2k < |n|, and ell + 2k is odd
    while n is even.  Let |L| > 2 r_alpha and take a support row
    r <= r_alpha.
      * m = r: |L -+ r| > r_alpha, so the u_L g side is 0 and the condition
        is "the L-free augmentation at (r, 2k) is 0".
      * m = |L - r| (or |L + r|): m > r_alpha, so the g side is 0.  Of
        L -+ m, one is r (or -r), for L > 0 and L < 0 alike, and the other
        has |.| > r_alpha.  So the condition is "the signed sum over
        (r, ell + 2k) and (r, -(ell + 2k)) (or -r) is 0", free of L.
    So ``holds(L)`` is the same for every |L| > 2 r_alpha.  L = -bound is
    one of them, and the scan, which goes from L = 0 outwards, reaches it
    first.
    """
    n = case.n
    ell = odd_part(n)
    vd = v_elt if case.kind == "eq2_nf" else v_elt.reduce_mod2()
    r_alpha = max((abs(r) for r, _ in vd.terms), default=0)
    bound = 2 * r_alpha + 1
    trace: dict = {
        "case": case.label(),
        "branch": "translation_search",
        "ell": ell,
        "window": [-bound, bound],
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
        # every |L| > 2 r_alpha acts like L = -bound (see above), so the
        # search below is exhaustive
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
                if fixed[g] != augment(action, vd, mul(-1, u_l, g)):
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
            return all(
                augment(action, vd, (m_val, 0)) % 2 == (m_val <= p_l)
                for m_val in range(1, r_alpha + abs(L) + 1)
            )

    for L in _window(bound):
        if holds(L):
            trace["L"] = L
            return DecideResult(True, ell=ell, L=L, trace=trace)
    trace["window_exhausted"] = True
    return DecideResult(
        False,
        certificate=f"no translation parameter satisfies the {conditions}",
        trace=trace,
    )


def second_decide(case: MixedCase, v_elt: RingElement) -> DecideResult:
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
        if qv.reduce_mod2().is_zero:
            return DecideResult(True, trace=trace)
        return DecideResult(False, certificate=f"p_Q(V) = {qv} is not divisible by 2", trace=trace)
    return _beta_decide(case, v_elt)
