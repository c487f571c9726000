"""Naive reference implementations of the word and quotient algebra.

These are the step-by-step forms the library used before its word layer
became linear: every product re-reduces the whole concatenation, a power is
repeated multiplication, a square root compares the halves of the core
letter by letter, a primitive root splits the core's letters into the
most equal chunks, basis change multiplies image powers one syllable
at a time, projection multiplies one group element per syllable, the Fox
derivative multiplies ``prefix * base**j`` per letter, and the parser
multiplies term by term.  They are slow on purpose and serve as oracles for
the property tests in ``test_word_oracles.py``.  The quadratic exact
division of the group ring, peeling one beta-row at a time and rebuilding
the whole remainder after each, is kept the same way, and so is ``q_n``
before it worked on integer pairs (``naive_q_n``: the projection, both Fox
derivatives and the division on group-ring elements, then the beta-column
check as a group-ring product).  The orbit layer before its closed-form keys
is kept too: orbit families built from group elements, pairwise membership
tests, the augmentation that tests every term against every orbit family,
and the squares decider that partitions the support pairwise;
``orbit_in_box`` lists orbit elements in a box for the box-oracle tests of
the orbit layer.  These take group elements and check their epsilon against
the action themselves, since the library's orbit layer takes ``(r, s)``
pairs, which carry none.  ``naive_exact_power_of`` tries every power of
the base in turn, and ``naive_beta_decide`` builds the whole set of
pair candidates for every translation parameter before checking any, from
window values and chain candidates that test each value's parity.
``naive_wicks_decompositions`` is the Wicks matcher with no pruning: at
every shift it rebuilds every composition of the part lengths and compares
each whole layout as lists of letter tuples, inverting a segment by
reversing it.  It reads the forms from its own table, written from the
module docstring of ``fgquad.wicks``, so a wrong layout in the library
cannot hide in both.
It admits empty parts unless told otherwise, as the library matcher does, so
it can stand in for it; ``nonempty`` keeps the matches with every part
nonempty.  ``naive_geom_rep_word`` and ``naive_alt_rep_word`` are the
representative words of the first derived equation as they were written
before the geometric series became one term list: each series spelled out as
a word, apart from its ring sum.  ``geom_ratio`` and ``alt_geom_ratio`` are
that ring sum, the ring-side series the library built before it read each
series' value off its word with ``q_n``: the terms summed at powers of the
base, then checked by multiplying back by the divisor (``one_minus_pow``
builds 1 - x**k).

Four functions that no verdict runs live here as well, for the tests that
check the algebra with them: ``apply_phi``, the Klein-bottle automorphism
beta -> beta*alpha^L on canonical coordinates; ``q_nf_commutator``, the image
in Q of a commutator of two products of relator conjugates;
``naive_q_classes``, the coefficients of an element's image in Q read pair
by pair, with no representative; and ``rank1_check``, which finds k with
vbar == ybar**k and the sign condition.
So do two parts of the orbit layer that only tests read: ``element_class``,
the stabilizer class of a base that ``augment`` computes inline, and
``translation_key``, the closed-form orbit key of the translation actions,
whose orbits ``augment`` sums over without keying them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from fgquad import (
    BasisTag,
    HatAbs,
    HatL,
    InconsistentSign,
    NotDivisible,
    NotInKernel,
    PiElement,
    RingElement,
    SingularBase,
    Tilde,
    TildeL,
    Word,
    WordSyntaxError,
    augment,
    odd_part,
    p_q,
    project,
)
from fgquad.derived import DecideResult, MixedCase
from fgquad.errors import DomainMismatch, EpsilonMismatch
from fgquad.groupring import alt_geom_terms, conjugate_power_product, geom_terms, relator_jacobian_alpha
from fgquad.orbits import _Translation
from fgquad.wicks import WicksMatch


def reduce_syllables(syllables: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Merge adjacent runs of the same generator, cascading cancellations."""
    out: list[tuple[int, int]] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        while out and out[-1][0] == gen:
            exp += out.pop()[1]
            if exp == 0:
                break
        if exp != 0:
            out.append((gen, exp))
    return tuple(out)


def naive_mul(u: Word, v: Word) -> Word:
    assert u.basis == v.basis
    return Word(u.basis, reduce_syllables(list(u.syls) + list(v.syls)))


def naive_inv(w: Word) -> Word:
    return Word(w.basis, tuple((g, -e) for g, e in reversed(w.syls)))


def naive_pow(w: Word, k: int) -> Word:
    base = w if k > 0 else naive_inv(w)
    out = Word.identity(w.basis)
    for _ in range(abs(k)):
        out = naive_mul(out, base)
    return out


def naive_conj(u: Word, w: Word) -> Word:
    return naive_mul(naive_mul(u, w), naive_inv(u))


def naive_comm(u: Word, w: Word) -> Word:
    return naive_mul(naive_mul(naive_mul(u, w), naive_inv(u)), naive_inv(w))


def naive_relator_in(basis: BasisTag) -> Word:
    if basis.kind == "adapted":
        syls = [(0, 1), (1, 1), (0, -basis.epsilon), (1, -1)]
    elif basis.epsilon == 1:
        syls = [(0, 1), (1, 1), (0, -1), (1, -1)]
    else:
        syls = [(0, 2), (1, 2)]
    return Word(basis, reduce_syllables(syls))


def naive_cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = t * core * t**-1``, peeling the list from both ends."""
    syls = list(w.syls)
    t_parts: list[tuple[int, int]] = []
    while len(syls) >= 2:
        g1, e1 = syls[0]
        g2, e2 = syls[-1]
        if g1 != g2 or (e1 > 0) == (e2 > 0):
            break
        c = min(abs(e1), abs(e2))
        step = 1 if e1 > 0 else -1
        t_parts.append((g1, step * c))
        syls[0] = (g1, e1 - step * c)
        syls[-1] = (g2, e2 + step * c)
        if syls[-1][1] == 0:
            syls.pop()
        if syls and syls[0][1] == 0:
            syls.pop(0)
    return Word(w.basis, reduce_syllables(syls)), Word(w.basis, reduce_syllables(t_parts))


def naive_square_root(w: Word) -> Word | None:
    """Compare the two halves of the cyclically reduced core letter by letter."""
    core, t = naive_cyclic_reduce(w)
    letters = list(core.letters())
    if len(letters) % 2:
        return None
    half = len(letters) // 2
    if letters[:half] != letters[half:]:
        return None
    root = Word(w.basis, reduce_syllables(letters[:half]))
    return naive_mul(naive_mul(t, root), naive_inv(t))


def naive_primitive_root(w: Word) -> tuple[Word, int]:
    """Largest e with w == root**e, from the letters of the cyclically
    reduced core: the fewest equal chunks that spell it."""
    core, t = naive_cyclic_reduce(w)
    letters = list(core.letters())
    m = len(letters)
    for e in range(m, 1, -1):
        if m % e:
            continue
        step = m // e
        chunk = letters[:step]
        if all(letters[i * step : (i + 1) * step] == chunk for i in range(e)):
            root = Word(w.basis, reduce_syllables(chunk))
            return naive_mul(naive_mul(t, root), naive_inv(t)), e
    return w, 1


def naive_change_basis(w: Word, target: BasisTag) -> Word:
    """Multiply the image of each syllable into the result one at a time."""
    if w.basis.kind == target.kind:
        return w
    if w.basis.epsilon == 1:
        return Word(target, w.syls)
    images = {
        0: Word(target, ((0, 1), (1, 1))),
        1: Word(target, ((1, -1),)),
    }
    out = Word.identity(target)
    for gen, exp in w.syls:
        out = naive_mul(out, naive_pow(images[gen], exp))
    return out


def _adapted(w: Word) -> Word:
    if w.basis.kind == "adapted":
        return w
    return naive_change_basis(w, BasisTag.adapted(w.basis.epsilon))


def naive_project(w: Word) -> PiElement:
    """One quotient-group product per syllable."""
    w = _adapted(w)
    eps = w.basis.epsilon
    out = PiElement.identity(eps)
    for gen, exp in w.syls:
        out = out * (PiElement(eps, exp, 0) if gen == 0 else PiElement(eps, 0, exp))
    return out


def naive_fox_derivative(w: Word, gen: str) -> RingElement:
    """One ``prefix * base**j`` term per letter of the chosen generator."""
    w = _adapted(w)
    eps = w.basis.epsilon
    idx = 0 if gen == "a" else 1
    items: list[tuple[tuple[int, int], int]] = []
    prefix = PiElement.identity(eps)
    for g, e in w.syls:
        base = PiElement(eps, 1, 0) if g == 0 else PiElement(eps, 0, 1)
        if g == idx:
            if e > 0:
                items.extend(((prefix * base**j).pair, 1) for j in range(e))
            else:
                items.extend(((prefix * base ** (-j)).pair, -1) for j in range(1, -e + 1))
        prefix = prefix * base**e
    return RingElement.make(eps, items)


class ReferenceParser:
    """The word grammar read one character at a time, multiplying term by term."""

    def __init__(self, text: str, basis: BasisTag) -> None:
        self.text = text
        self.basis = basis
        self.pos = 0

    def error(self, message: str) -> WordSyntaxError:
        return WordSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not "0" <= self.peek() <= "9":
            raise self.error("expected integer")
        while "0" <= self.peek() <= "9":
            self.pos += 1
        return int(self.text[start : self.pos])

    def parse_word(self, stop: str = "") -> Word:
        out = Word.identity(self.basis)
        while True:
            self.skip_ws()
            ch = self.peek()
            if not ch or ch in stop:
                return out
            out = naive_mul(out, self.parse_term())

    def parse_term(self) -> Word:
        atom = self.parse_atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            return naive_pow(atom, self.parse_int())
        return atom

    def parse_atom(self) -> Word:
        ch = self.peek()
        if self.text.startswith("conj(", self.pos):
            self.pos += len("conj(")
            inner = self.parse_word(stop=")")
            self.expect(")")
            return naive_conj(inner, naive_relator_in(self.basis))
        if ch == "1":
            self.pos += 1
            return Word.identity(self.basis)
        if ch in "ab":
            self.pos += 1
            return Word(self.basis, (("ab".index(ch), 1),))
        if ch in "AB":
            self.pos += 1
            return Word(self.basis, (("AB".index(ch), -1),))
        if ch == "R":
            self.pos += 1
            return naive_relator_in(self.basis)
        if ch == "(":
            self.pos += 1
            inner = self.parse_word(stop=")")
            self.expect(")")
            return inner
        if ch == "[":
            self.pos += 1
            left = self.parse_word(stop=",")
            self.expect(",")
            right = self.parse_word(stop="]")
            self.expect("]")
            return naive_comm(left, right)
        raise self.error(f"unexpected character {ch!r}" if ch else "unexpected end of input")


def reference_parse(text: str, basis: BasisTag) -> Word:
    parser = ReferenceParser(text, basis)
    word = parser.parse_word()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error(f"unexpected character {parser.peek()!r}")
    return word


def naive_exact_divide(p: RingElement, d: RingElement) -> RingElement:
    """Solve lam * d == p, subtracting each peeled row's product from the whole remainder."""
    if p.mod != 0:
        raise DomainMismatch("exact division works over integer coefficients")
    eps = p.epsilon
    if d != relator_jacobian_alpha(eps):
        raise NotDivisible("divisor must be the alpha-column Jacobian element")
    if p.is_zero:
        return RingElement.zero(eps)
    s_min = min(s for _, s in p.terms)
    lam_items: list[tuple[tuple[int, int], int]] = []
    current = p
    while not current.is_zero:
        s_top = max(s for _, s in current.terms)
        if s_top < s_min + 1:
            raise NotDivisible("nonzero remainder in exact division")
        row = [(r, c) for (r, s), c in current.terms.items() if s == s_top]
        if eps == 1:
            lam_row = [((r, s_top - 1), -c) for r, c in row]
        else:
            sigma = -1 if (s_top - 1) % 2 else 1
            lam_row = [((r - sigma, s_top - 1), c) for r, c in row]
        lam_items.extend(lam_row)
        current = current - RingElement.make(eps, lam_row) * d
    return RingElement.make(eps, lam_items)


def relator_jacobian_beta(epsilon: int) -> RingElement:
    """Projected derivative of the relator by beta: alpha - 1 for both signs."""
    return RingElement.make(epsilon, [((1, 0), 1), ((0, 0), -1)])


def naive_q_n(w: Word) -> RingElement:
    """The projection test, then the division of the alpha-derivative and the
    beta-column check, each on group-ring elements."""
    if not project(w).is_identity:
        raise NotInKernel("word does not project to the identity")
    eps = w.basis.epsilon
    try:
        lam = naive_exact_divide(naive_fox_derivative(w, "a"), relator_jacobian_alpha(eps))
    except NotDivisible as exc:
        raise NotInKernel(str(exc)) from exc
    if lam * relator_jacobian_beta(eps) != naive_fox_derivative(w, "b"):
        raise NotInKernel("beta-column consistency check failed")
    return lam


@dataclass(frozen=True)
class Family:
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


def orbit_families(action: Union[Tilde, TildeL, HatL], g: PiElement) -> list[Family]:
    """The orbit of ``g`` as signed families, built from group elements."""
    if isinstance(action, Tilde):
        period = 2 * abs(action.n)
        return [Family(g, period, 1), Family(g.inv(), period, -1)]
    ell = odd_part(action.n)
    u = PiElement(-1, action.L, ell)
    if isinstance(action, TildeL):
        period = 2 * abs(action.n)
        jg = u * (u * g).inv()
        return [
            Family(g, period, 1),
            Family(g.inv(), period, -1),
            Family(jg.inv(), period, 1),
            Family(jg, period, -1),
        ]
    gi = g.inv()
    period = 2 * ell
    return [
        Family(g, period, 1),
        Family(gi, period, -1),
        Family(u * g, period, -1),
        Family(u * gi, period, 1),
        Family(g * u, period, -1),
        Family(gi * u, period, 1),
        Family(u * g * u, period, 1),
        Family(u * gi * u, period, -1),
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


Action = Union[HatAbs, _Translation]


def _check_eps(action: Action, *elements: PiElement) -> None:
    """The oracles' own epsilon check: the library's orbit layer takes
    ``(r, s)`` pairs, which carry no epsilon."""
    eps = action.u.epsilon if isinstance(action, HatAbs) else action.epsilon
    for g in elements:
        if g.epsilon != eps:
            raise EpsilonMismatch("element epsilon does not match the action")


def _elements(v: RingElement) -> list[tuple[PiElement, int]]:
    """The terms of ``v`` as group elements, in their order."""
    return [(PiElement(v.epsilon, r, s), c) for (r, s), c in v.terms.items()]


def naive_same_orbit(action: Action, g: PiElement, h: PiElement) -> bool:
    """Orbit membership by testing ``h`` against each family through ``g``."""
    _check_eps(action, g, h)
    if isinstance(action, HatAbs):
        u = action.u
        if u.epsilon == -1 and g.w_eps() != h.w_eps():
            return False
        if u.epsilon == -1 and g.w_eps() == -1:
            return _hat_abs_odd_member(u, g, h) or _hat_abs_odd_member(u, g.inv(), h)
        return _hat_abs_even_member(u, g, h) or _hat_abs_even_member(u, g.inv(), h)
    return any(f.contains(h) for f in orbit_families(action, g))


def naive_orbit_parity(action: Action, v: RingElement, base: PiElement) -> int:
    """Plain mod-2 augmentation, one membership test per term."""
    return sum(c for g, c in _elements(v) if naive_same_orbit(action, base, g)) % 2


def naive_twisted_augment(action: Action, v: RingElement, base: PiElement) -> int:
    """Twisted augmentation over the orbit families of ``base``, term by term."""
    families = orbit_families(action, base)
    total = 0
    for g, c in _elements(v):
        signs = {f.sign for f in families if f.contains(g)}
        if len(signs) == 2:
            raise InconsistentSign(f"{g} resolves with both signs from base {base}")
        if signs:
            total += signs.pop() * c
    return total % 2 if v.mod == 2 else total


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


def translation_key(action: _Translation, g: PiElement) -> tuple[int, int]:
    """The least residue class ``(r, s mod period)`` over the family heads of
    the orbit of ``g``: two elements share an orbit exactly when their keys
    are equal."""
    _check_eps(action, g)
    period = action._period
    return min((r, s % period) for (r, s), _ in action._heads(g.pair))


def naive_augment(action: Action, v: RingElement, base: PiElement) -> int:
    """``augment`` with the plain parity and the twist computed term by term."""
    _check_eps(action, base)
    if v.epsilon != base.epsilon:
        raise EpsilonMismatch("ring element epsilon does not match the base")
    if isinstance(action, HatAbs):
        if v.mod != 2:
            raise DomainMismatch("plain augmentation expects mod-2 coefficients")
        return naive_orbit_parity(action, v, base)
    cls = element_class(action, base)
    if isinstance(action, Tilde):
        if not cls.g_tilde_regular:
            raise SingularBase(f"{base} is singular for the translation action")
    elif cls.defective:
        return naive_orbit_parity(action, v, base)
    return naive_twisted_augment(action, v, base)


def naive_squares_decide(case: MixedCase, v_elt: RingElement) -> DecideResult:
    """The squares decider partitioning the support pairwise into orbits."""
    trace: dict = {"case": case.label(), "branch": "hat_orbit_parity"}
    v2 = v_elt.reduce_mod2()
    action = HatAbs(case.c_bar**case.d)
    identity = PiElement.identity(case.epsilon)
    reps: list[PiElement] = []
    for g in (PiElement(case.epsilon, r, s) for r, s in v2.support()):
        if not any(naive_same_orbit(action, rep, g) for rep in reps):
            reps.append(g)
    trace["orbits"] = len(reps)
    for rep in reps:
        if naive_same_orbit(action, rep, identity):
            continue
        if naive_augment(action, v2, rep):
            cert = f"orbit of ({rep.r},{rep.s}) has odd augmentation"
            return DecideResult(False, certificate=cert, trace=trace)
    return DecideResult(True, ell=case.d, trace=trace)


def naive_window_values(value: int, modulus: int, lo: int, hi: int) -> list[int]:
    """All w with lo < w < hi (hi exclusive) and w == value (mod modulus),
    stepping up from below lo."""
    start = value % modulus
    out = []
    w = start - modulus * ((start - lo - 1) // modulus + 1)
    while w < hi:
        if lo < w:
            out.append(w)
        w += modulus
    return out


def naive_chain_candidates(n: int, ell: int, v_elt: RingElement) -> set[PiElement]:
    """Restricted-window elements whose chain orbits can meet the support,
    filtering every window value by its parity."""
    two_n = 2 * abs(n)
    steps = abs(n) // ell
    out: set[PiElement] = set()
    for x in (PiElement(-1, r, s) for r, s in v_elt.support()):
        for base in (x, x.inv()):
            for r2 in range(steps):
                target = base.s - 2 * ell * r2
                for s_val in naive_window_values(target, two_n, -ell, ell):
                    if s_val % 2:
                        continue
                    if base.r > 0 or (base.r == 0 and 0 < s_val):
                        out.add(PiElement(-1, base.r, s_val))
                for s_val in naive_window_values(target, two_n, 0, ell + 1):
                    if s_val % 2 == 1:
                        out.add(PiElement(-1, base.r, s_val))
    return out


def naive_pair_candidates(n: int, ell: int, L: int, v_elt: RingElement, modulus: int) -> set[PiElement]:
    """Elements (m, 2k), m >= 0, 0 < 2k < ell, whose pair orbits can meet supp."""
    out: set[PiElement] = set()
    for r, s in v_elt.support():
        ms = {abs(r), L - r, r - L, L + r, -L - r}
        s_targets = (s, -s, s - ell, -s - ell)
        for target in s_targets:
            for s_val in naive_window_values(target, modulus, 0, ell):
                if s_val % 2:
                    continue
                for m_val in ms:
                    if m_val >= 0:
                        out.add(PiElement(-1, m_val, s_val))
    return out


def augment_at(action: _Translation, v: RingElement, g: PiElement) -> int:
    """``augment`` at the ``(r, s)`` pair of the element ``g``."""
    return augment(action, v, g.pair)


def naive_pair_conditions(n: int, L: int, vd: RingElement) -> bool:
    """Whether every pair condition of even ``n`` holds at ``L``: the
    augmentations at g and at u_L * g agree for every pair candidate g."""
    ell = odd_part(n)
    action = TildeL(n, L)
    u_l = PiElement(-1, L, ell)
    return all(
        augment_at(action, vd, g) == augment_at(action, vd, u_l * g)
        for g in naive_pair_candidates(n, ell, L, vd, 2 * abs(n))
    )


def naive_beta_decide(
    case: MixedCase, v_elt: RingElement, window_override: Optional[int]
) -> DecideResult:
    """The translation search building every pair candidate for every L
    before checking any.  A ``window_override`` wider than the natural
    window widens the scan, which the library no longer can: the tests use
    it to check that the natural window is complete."""
    n = case.n
    ell = odd_part(n)
    vd = v_elt if case.kind == "eq2_nf" else v_elt.reduce_mod2()
    r_alpha = max((abs(r) for r, _ in vd.support()), default=0)
    bound = 2 * r_alpha + 1
    if window_override is not None:
        bound = max(bound, window_override)
    window = sorted(range(-bound, bound + 1), key=lambda L: (abs(L), L))
    trace: dict = {
        "case": case.label(),
        "branch": "translation_search",
        "ell": ell,
        "window": [-bound, bound],
    }
    tilde = Tilde(n)
    if n % 2 == 0:
        steps = abs(n) // ell
        for g in sorted(naive_chain_candidates(n, ell, vd), key=lambda p: (p.s, p.r)):
            base_val = augment_at(tilde, vd, g)
            for r2 in range(1, steps):
                h = PiElement(-1, g.r, g.s + 2 * ell * r2)
                if augment_at(tilde, vd, h) != base_val:
                    cert = f"chain condition fails at ({g.r},{g.s}) with shift {r2}"
                    return DecideResult(False, certificate=cert, trace=trace)
        for L in window:
            if naive_pair_conditions(n, L, vd):
                trace["L"] = L
                return DecideResult(True, ell=ell, L=L, trace=trace)
        trace["window_exhausted"] = True
        return DecideResult(
            False,
            certificate="no translation parameter satisfies the pair conditions",
            trace=trace,
        )
    for L in window:
        action = HatL(n, L)
        ok = True
        for g in naive_pair_candidates(n, ell, L, vd, 2 * ell):
            if augment_at(action, vd, g) != 0:
                ok = False
                break
        if ok:
            p_l = L - 1 if L >= 1 else -L
            m_top = max(p_l, r_alpha + abs(L)) + 2
            for m_val in range(1, m_top + 1):
                expected = 1 if 0 < m_val <= p_l else 0
                if augment(action, vd, (m_val, 0)) % 2 != expected:
                    ok = False
                    break
        if ok:
            trace["L"] = L
            return DecideResult(True, ell=ell, L=L, trace=trace)
    trace["window_exhausted"] = True
    return DecideResult(
        False,
        certificate="no translation parameter satisfies the augmentation conditions",
        trace=trace,
    )


def naive_exact_power_of(v: Word, base: Word) -> Optional[int]:
    """The k with ``base**k == v``, trying k = +-1, ..., +-(len(v) + 1) in
    turn; the search stops once the power is longer than v, since the
    powers of a word other than 1 only grow."""
    if v.is_identity:
        return 0
    power = Word.identity(v.basis)
    for k in range(1, len(v) + 2):
        power = naive_mul(power, base)
        if power == v:
            return k
        if naive_inv(power) == v:
            return -k
        if len(power) > len(v):
            break
    return None


def orbit_in_box(action: Action, g: PiElement, radius: int) -> set[PiElement]:
    """All orbit elements with |r| <= radius and |s| <= radius."""
    _check_eps(action, g)
    eps = g.epsilon
    out: set[PiElement] = set()
    if isinstance(action, (Tilde, TildeL, HatL)):
        for fam in orbit_families(action, g):
            if abs(fam.head.r) > radius:
                continue
            period = fam.period
            start = fam.head.s % period
            s = start - period * ((start + radius) // period)
            while s <= radius:
                if -radius <= s:
                    out.add(PiElement(eps, fam.head.r, s))
                s += period
        return out
    u = action.u
    heads = [g, g.inv()]
    if u.epsilon == -1 and g.w_eps() == -1:
        um, un2 = u.r, u.s
        for head in heads:
            if um == 0:
                if abs(head.r) > radius:
                    continue
                if un2 == 0:
                    out.add(head)
                    continue
                step = abs(un2)
                s = head.s - step * ((head.s + radius) // step)
                while s <= radius:
                    if -radius <= s:
                        out.add(PiElement(eps, head.r, s))
                    s += step
            else:
                kr = range(-(2 * radius // abs(um)) - 2, 2 * radius // abs(um) + 3)
                for k in kr:
                    r = head.r + k * um
                    if abs(r) > radius:
                        continue
                    if un2 == 0:
                        if abs(head.s) <= radius:
                            out.add(PiElement(eps, r, head.s))
                        continue
                    step = 2 * abs(un2)
                    s0 = head.s + k * un2
                    s = s0 - step * ((s0 + radius) // step)
                    while s <= radius:
                        if -radius <= s:
                            out.add(PiElement(eps, r, s))
                        s += step
        return out
    um, us = u.r, u.s
    for head in heads:
        if um == 0 and us == 0:
            if abs(head.r) <= radius and abs(head.s) <= radius:
                out.add(head)
            continue
        bound = max(abs(um), abs(us))
        kr = range(-(2 * radius // bound) - 2, 2 * radius // bound + 3)
        for k in kr:
            r, s = head.r + k * um, head.s + k * us
            if abs(r) <= radius and abs(s) <= radius:
                out.add(PiElement(eps, r, s))
    return out


def _inv_letters(letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(g, -e) for g, e in reversed(letters)]


def _enumerate_lengths(n_parts: int, total: int, allow_empty: bool) -> list[tuple[int, ...]]:
    lo = 0 if allow_empty else 1
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            if remaining >= lo:
                out.append(prefix + (remaining,))
            return
        for v in range(lo, remaining - lo * (slots - 1) + 1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), total, n_parts)
    return out


# the quadratic Wicks forms per kind, as the fgquad.wicks docstring writes them
_WICKS_FORMS = {
    "commutator": {"orientable_abc": "a b c a^-1 b^-1 c^-1", "orientable_de": "d e d^-1 e^-1"},
    "two_squares": {"nonorientable_abcbac": "a b c b a c^-1", "nonorientable_aabcc": "a a b c c b^-1"},
}


def _try_layout(
    basis: BasisTag,
    letters: list[tuple[int, int]],
    layout: list[tuple[str, bool]],
    lengths: dict[str, int],
) -> Optional[dict[str, Word]]:
    pos = 0
    segments: dict[str, list[tuple[int, int]]] = {}
    for name, inverted in layout:
        seg = letters[pos : pos + lengths[name]]
        pos += lengths[name]
        if inverted:
            seg = _inv_letters(seg)
        if name in segments:
            if segments[name] != seg:
                return None
        else:
            segments[name] = seg
    if pos != len(letters):
        return None
    return {name: Word.from_syllables(basis, seg) for name, seg in segments.items()}


def naive_wicks_decompositions(w: Word, kind: str, allow_empty: bool = True) -> list[WicksMatch]:
    """All positional matches, every composition rebuilt and compared per shift."""
    letters = list(w.letters())
    n = len(letters)
    out: list[WicksMatch] = []
    seen: set[tuple] = set()
    if n == 0 or n % 2:
        return out
    for shift in range(n):
        rotated = letters[shift:] + letters[:shift]
        u_prefix = Word.from_syllables(w.basis, letters[:shift])
        for form, spelled in _WICKS_FORMS[kind].items():
            layout = [(part[0], part.endswith("^-1")) for part in spelled.split()]  # (name, inverted)
            part_names = sorted({name for name, _ in layout})
            for combo in _enumerate_lengths(len(part_names), n // 2, allow_empty):
                lengths = dict(zip(part_names, combo))
                parts = _try_layout(w.basis, rotated, layout, lengths)
                if parts is None:
                    continue
                key = (shift, form, tuple(str(parts[name]) for name in part_names))
                if key in seen:
                    continue
                seen.add(key)
                out.append(WicksMatch(shift, form, parts, u_prefix))
    out.sort(key=lambda m: (m.shift, m.form, tuple(str(m.parts[k]) for k in sorted(m.parts))))
    return out


def nonempty(matches: list[WicksMatch]) -> list[WicksMatch]:
    """The matches whose parts are all nonempty (no degenerate form)."""
    return [m for m in matches if all(not p.is_identity for p in m.parts.values())]


def naive_geom_rep_word(eps: int, c: Word, n: int, ell: int) -> Word:
    """Representative with image (1 - cbar^{2n}) / (1 - cbar^ell)."""
    if n == 0:
        return Word.identity(c.basis)
    if n * ell > 0:
        exps = [2 * n - j * ell for j in range(1, 2 * n // ell)] + [0]
        return conjugate_power_product(eps, [(c**e, 1) for e in exps])
    exps = [2 * n + j * ell for j in range(0, -2 * n // ell)]
    return conjugate_power_product(eps, [(c**e, -1) for e in exps])


def naive_alt_rep_word(eps: int, c: Word, D: int, ell: int) -> Word:
    """Representative with image (1 - cbar^{2D}) / (1 + cbar^ell)."""
    if D == 0:
        return Word.identity(c.basis)
    factors: list[tuple[Word, int]] = []
    if D * ell > 0:
        factors.extend((c ** (2 * D - 2 * j * ell), 1) for j in range(1, D // ell))
        factors.append((Word.identity(c.basis), 1))
        factors.extend((c ** ((2 * j - 1) * ell), -1) for j in range(1, D // ell + 1))
    else:
        factors.extend((c ** (2 * D + 2 * j * ell), -1) for j in range(0, -D // ell))
        factors.extend((c ** (-(2 * j - 1) * ell), 1) for j in range(1, -D // ell + 1))
    return conjugate_power_product(eps, factors)


def one_minus_pow(x: PiElement, k: int) -> RingElement:
    """The element 1 - x**k."""
    return RingElement.make(x.epsilon, [((0, 0), 1), ((x**k).pair, -1)])


def _series(x: PiElement, terms: list[tuple[int, int]], divisor: RingElement, a: int) -> RingElement:
    """The sum of the terms at powers of ``x``, checked by multiplying it back
    by ``divisor`` onto 1 - x**a.

    Each term's power is the previous one times ``x`` to the step between
    their exponents; the term lists hold runs of one step, so each step's
    power is built once.
    """
    if terms and x.is_identity:
        raise NotDivisible("ratio base must not be the identity")
    items: list[tuple[tuple[int, int], int]] = []
    power, at, steps = PiElement.identity(x.epsilon), 0, {}
    for e, sign in terms:
        if e - at not in steps:
            steps[e - at] = x ** (e - at)
        power, at = power * steps[e - at], e
        items.append((power.pair, sign))
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
    one_plus = RingElement.make(x.epsilon, [((0, 0), 1), ((x**ell).pair, 1)])
    return _series(x, terms, one_plus, two_d)


def apply_phi(L: int, x: PiElement) -> PiElement:
    """The automorphism power sending alpha -> alpha, beta -> beta*alpha^L.

    In canonical coordinates: (r, s) -> (r - L*(s mod 2), s), Klein bottle only.
    """
    if x.epsilon != -1:
        raise EpsilonMismatch("phi is an automorphism of the Klein bottle group")
    return PiElement(-1, x.r - L * (x.s % 2), x.s)


def q_nf_commutator(
    left: Iterable[tuple[Word, int]], right: Iterable[tuple[Word, int]]
) -> RingElement:
    """Image in Q of the commutator of two products of relator conjugates.

    [prod_i (u_i R u_i^-1)^{n_i}, prod_j (v_j R v_j^-1)^{m_j}] maps to the
    class of sum_{i,j} n_i m_j * class(u_i)^-1 class(v_j).
    """
    lefts = [(project(u), n) for u, n in left]
    rights = [(project(v), m) for v, m in right]
    eps = (lefts or rights)[0][0].epsilon if (lefts or rights) else 1
    items = [
        ((ubar.inv() * vbar).pair, n * m)
        for ubar, n in lefts
        for vbar, m in rights
    ]
    return p_q(RingElement.make(eps, items))


def naive_q_classes(v: RingElement) -> dict[frozenset[PiElement], int]:
    """The coefficients of v's image in Q, one per unordered pair {g, g**-1}
    with g != 1 that v's support meets: c_g - c_{g**-1}.

    No representative is chosen: g is whichever of the two v lists first, so
    only whether a value is zero, or even, is fixed.
    """
    out: dict[frozenset[PiElement], int] = {}
    for g, c in _elements(v):
        pair = frozenset((g, g.inv()))
        if not g.is_identity and pair not in out:
            out[pair] = c - v.terms.get(g.inv().pair, 0)
    return out


def rank1_check(vbar: PiElement, ybar: PiElement, delta: int, theta: int) -> Optional[int]:
    """Find k with vbar == ybar**k and theta * delta**k == -1, if any."""

    def sign_ok(k: int) -> bool:
        d_pow = -1 if (delta == -1 and k % 2) else 1
        return theta * d_pow == -1

    candidates: list[int]
    if ybar.s != 0:
        if vbar.s % ybar.s:
            return None
        candidates = [vbar.s // ybar.s]
    elif ybar.r != 0:
        if vbar.s != 0 or vbar.r % ybar.r:
            return None
        candidates = [vbar.r // ybar.r]
    else:
        if not vbar.is_identity:
            return None
        candidates = [0, 1]
    for k in candidates:
        if ybar**k == vbar and sign_ok(k):
            return k
    return None
