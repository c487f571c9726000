"""The word layer, the quotient walks, exact division, the orbit
augmentation, the squares decider and the translation search agree with the
naive oracles."""

from collections import Counter
import random
import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from conftest import ADAPTED_MINUS, ADAPTED_PLUS, CLASSIC_MINUS, CLASSIC_PLUS
from fgquad import (
    BasisTag,
    EquationSpec,
    FgquadError,
    HatL,
    MixedCase,
    RingElement,
    Tilde,
    TildeL,
    Word,
    WordSyntaxError,
    analyze_v,
    augment,
    change_basis,
    cyclic_reduce,
    exact_divide,
    fox_derivative,
    odd_part,
    parse_word,
    project,
    q_n,
    square_root,
)
from fgquad.derived import _beta_decide, _chain_candidates, _squares_decide, _window_values
from fgquad.groupring import conjugate_power_product, relator_jacobian_alpha
from fgquad.tables import _exact_power_of, locate
from fgquad.words import primitive_root, relator_in
from oracles import (
    PiElement,
    element_class,
    naive_change_basis,
    naive_augment,
    naive_beta_decide,
    naive_chain_candidates,
    naive_cyclic_reduce,
    naive_exact_divide,
    naive_exact_power_of,
    naive_fox_derivative,
    naive_inv,
    naive_mul,
    naive_pair_candidates,
    naive_pair_conditions,
    naive_pow,
    naive_primitive_root,
    naive_project,
    naive_q_n,
    naive_square_root,
    naive_squares_decide,
    naive_twisted_augment,
    naive_window_values,
    reduce_syllables,
    reference_parse,
    squares_u,
)
from test_census import bench_corpus

BASES = (ADAPTED_MINUS, ADAPTED_PLUS, CLASSIC_MINUS, CLASSIC_PLUS)
bases = st.sampled_from(BASES)
oracle_settings = settings(deadline=None)


def syllables(max_size: int = 60, max_exp: int = 50):
    return st.lists(
        st.tuples(st.integers(0, 1), st.integers(-max_exp, max_exp).filter(lambda e: e != 0)),
        max_size=max_size,
    )


def word_in(basis: BasisTag, syls: list[tuple[int, int]]) -> Word:
    return Word(basis, reduce_syllables(syls))


@st.composite
def words(draw, max_size: int = 60) -> Word:
    return word_in(draw(bases), draw(syllables(max_size)))


@st.composite
def seam_pairs(draw) -> tuple[Word, Word]:
    """``u`` and ``v`` where ``v`` opens with the inverse of a suffix of ``u``.

    The innermost syllable of that inverse may be nudged, so the
    cancellation stops part way through a syllable deep inside ``u``.
    """
    basis = draw(bases)
    u = word_in(basis, draw(syllables()))
    cut = draw(st.integers(0, len(u.syls)))
    undo = list(naive_inv(Word(basis, u.syls[cut:])).syls)
    if undo:
        gen, exp = undo[-1]
        undo[-1] = (gen, exp + draw(st.integers(-3, 3)))
    rest = draw(syllables(20))
    return u, word_in(basis, undo + rest)


@st.composite
def power_bases(draw) -> Word:
    """Plain words and conjugates t * core * t**-1."""
    basis = draw(bases)
    core = word_in(basis, draw(syllables(30)))
    if draw(st.booleans()):
        return core
    t = word_in(basis, draw(syllables(30)))
    return naive_mul(naive_mul(t, core), naive_inv(t))


class TestWordAlgebra:
    @oracle_settings
    @given(seam_pairs())
    def test_product(self, pair):
        u, v = pair
        assert u * v == naive_mul(u, v)
        assert v * u == naive_mul(v, u)

    @oracle_settings
    @given(power_bases(), st.integers(-12, 12))
    def test_power(self, w, k):
        assert w**k == naive_pow(w, k)

    @oracle_settings
    @given(power_bases())
    def test_plus_and_minus_one_powers(self, w):
        # power_bases draws conjugates t * core * t**-1 too, which are not
        # cyclically reduced
        assert w**1 is w
        assert w**-1 == naive_pow(w, -1)

    @oracle_settings
    @given(words())
    def test_cyclic_reduce(self, w):
        assert cyclic_reduce(w) == naive_cyclic_reduce(w)

    @oracle_settings
    @given(power_bases(), st.integers(-2, 2), words())
    def test_square_root(self, w, nudge, other):
        square = naive_mul(w, w)
        if square.syls and nudge:  # a near-square: one exponent off
            gen, exp = square.syls[-1]
            square = Word(square.basis, reduce_syllables([*square.syls[:-1], (gen, exp + nudge)]))
        for x in (square, other):
            assert square_root(x) == naive_square_root(x)

    @oracle_settings
    @given(power_bases(), st.integers(-12, 12), words())
    def test_primitive_root(self, w, k, other):
        power = naive_pow(w, k)
        for x in (power, naive_inv(power), other):
            root, e = primitive_root(x)
            assert (root, e) == naive_primitive_root(x)
            assert naive_pow(root, e) == x

    def test_exact_power_of_a_base_that_is_not_cyclically_reduced(self):
        v, base = parse_word("b a^2 B", ADAPTED_MINUS), parse_word("b a B", ADAPTED_MINUS)
        assert _exact_power_of(primitive_root(v), primitive_root(base)) == naive_exact_power_of(v, base) == 2
        assert _exact_power_of(primitive_root(v.inv()), primitive_root(base)) == -2

    @oracle_settings
    @given(power_bases(), st.integers(-12, 12), st.integers(-2, 2), st.data())
    def test_exact_power_of(self, w, k, nudge, data):
        basis = w.basis
        two = Word(basis, ((0, 1), (1, 1))) ** 2
        base = data.draw(st.sampled_from([w, relator_in(basis), two]))
        power = base**k
        near = power
        if power.syls and nudge:  # one exponent off
            gen, exp = power.syls[-1]
            near = Word(basis, reduce_syllables([*power.syls[:-1], (gen, exp + nudge)]))
        other = word_in(basis, data.draw(syllables()))
        for x in (power, near, other):
            assert _exact_power_of(primitive_root(x), primitive_root(base)) == naive_exact_power_of(x, base)

    @oracle_settings
    @given(words())
    def test_change_basis(self, w):
        other = BasisTag("classic" if w.basis.kind == "adapted" else "adapted", w.basis.epsilon)
        assert change_basis(w, other) == naive_change_basis(w, other)


@st.composite
def kernel_words(draw) -> Word:
    """Products of relator conjugates ``(u R u^-1)^n``, |n| <= 2, in either
    basis, half of them times a perturbation that mostly leaves the kernel."""
    eps = draw(st.sampled_from((1, -1)))
    factor = st.tuples(syllables(8, 4), st.sampled_from((-2, -1, 1, 2)))
    factors = draw(st.lists(factor, min_size=1, max_size=6))
    w = conjugate_power_product(eps, [(word_in(BasisTag.adapted(eps), u), n) for u, n in factors])
    if draw(st.booleans()):
        w = naive_change_basis(w, BasisTag.classic(eps))
    if draw(st.booleans()):
        w = naive_mul(w, word_in(w.basis, draw(syllables(4, 4))))
    return w


def q_n_outcome(fn, w: Word):
    """The value and its term order, or the error's type and message."""
    try:
        value = fn(w)
    except FgquadError as exc:
        return type(exc), str(exc)
    return value, list(value.terms.items())


class TestQuotientWalks:
    @oracle_settings
    @given(words())
    def test_project(self, w):
        assert project(w) == naive_project(w).pair

    @oracle_settings
    @given(words(), st.sampled_from(["a", "b", "x", "A", ""]))
    def test_fox_derivative(self, w, gen):
        if gen not in ("a", "b"):
            with pytest.raises(ValueError, match=re.escape(repr(gen))):
                fox_derivative(w, gen)
            return
        got = fox_derivative(w, gen)
        want = naive_fox_derivative(w, gen)
        assert got == want
        # same terms in the same order, so nothing downstream sees a change
        assert list(got.terms.items()) == list(want.terms.items())

    @oracle_settings
    @given(kernel_words())
    def test_q_n(self, w):
        assert q_n_outcome(q_n, w) == q_n_outcome(naive_q_n, w)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

spaces = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
# "1" keeps a space in front so that it never extends an exponent's digits
letters = st.sampled_from(["a", "b", "A", "B", " 1", "R"])


def exponents(bound: int):
    signed = st.integers(-bound, bound).map(str)
    return st.one_of(st.just(""), st.tuples(spaces, spaces, signed).map(lambda p: f"{p[0]}^{p[1]}{p[2]}"))


def word_texts(atoms, bound: int, max_terms: int):
    term = st.tuples(spaces, atoms, exponents(bound)).map("".join)
    return st.tuples(st.lists(term, max_size=max_terms), spaces).map(lambda p: "".join(p[0]) + p[1])


def _compound(inner):
    atoms = st.one_of(
        inner.map("({})".format),
        inner.map("conj({})".format),
        st.tuples(inner, spaces, inner).map(lambda p: f"[{p[0]},{p[1]}{p[2]}]"),
    )
    return word_texts(st.one_of(letters, atoms), 4, 5)


texts = st.recursive(word_texts(letters, 100, 12), _compound, max_leaves=12)

# Characters that break the grammar in every way the parser reports.
noise = st.sampled_from(
    ["^", "-", "(", ")", "[", "]", ",", "0", "7", " ", "x", "c", "conj(", "conj", "²", "٣", " "]
)


def outcome(parse, text: str, basis: BasisTag):
    try:
        return "ok", parse(text, basis)
    except WordSyntaxError as exc:
        return "syntax", str(exc), exc.offset
    except ValueError as exc:
        return "value", str(exc)


class TestParser:
    @oracle_settings
    @given(texts, bases)
    def test_valid_texts(self, text, basis):
        assert parse_word(text, basis) == reference_parse(text, basis)

    @oracle_settings
    @given(texts, bases, st.lists(st.tuples(st.integers(0, 10**6), noise), min_size=1, max_size=3))
    def test_damaged_texts(self, text, basis, edits):
        for at, piece in edits:
            at %= len(text) + 1
            text = text[:at] + piece + text[at:]
        assert outcome(parse_word, text, basis) == outcome(reference_parse, text, basis)

    @oracle_settings
    @given(texts, bases, st.integers(0, 10**6))
    def test_truncated_texts(self, text, basis, cut):
        text = text[: cut % (len(text) + 1)]
        assert outcome(parse_word, text, basis) == outcome(reference_parse, text, basis)

    @pytest.mark.parametrize("basis", BASES, ids=str)
    def test_conjugates_relator_powers_and_seams(self, basis):
        for text in seeded_conjugate_texts():
            assert outcome(parse_word, text, basis) == outcome(reference_parse, text, basis), text


# Exponents of conj(u)^k and R^k: empty, the ±1 powers, small ones, one past
# the shared-syllable table and a long one.
CONJ_EXPONENTS = (0, 1, -1, 2, -2, 65, -65, 1000, -1000)


def seeded_conjugate_texts(seed: int = 15) -> list[str]:
    """Texts whose terms go into the enclosing syllable list as conjugates
    (``conj(u)^k`` is u, then R repeated |k| times, then u^-1), relator
    powers, nested conjugates, and conjugates whose ends cancel against
    their neighbours; then random mixes of them, and broken ones."""
    cases = [f"conj(a b^2 A)^{k}" for k in CONJ_EXPONENTS]
    cases += [f"R^{k}" for k in CONJ_EXPONENTS if abs(k) < 1000]
    cases += [
        "conj(1)", "conj(1)^-3", "conj( 1 )^ 2", "conj(conj(a)^-2)", "conj(conj(conj(b)^2) a)^-1",
        "a conj(A) b", "A conj(a) a", "b^2 conj(B^2 a)^-2 A B^-2", "conj(a)conj(A)", "conj(a)^2 conj(a)^-2",
        "R conj(1)^-1", "R^2 R^-2", "(conj(a B)^-1 R)^3", "[conj(a), R^-1]^2", "[a conj(b), B]",
    ]
    rng = random.Random(seed)
    atoms = ["a", "B", "A^3", "b^-2", "1", "R", "conj(1)", "conj(A)", "conj(b a^2)", "conj(conj(a)^-2)"]
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 5)):
            atom = rng.choice(atoms)
            k = rng.choice([None, -65, -2, -1, 0, 1, 2, 3])
            terms.append(atom if k is None or atom[-1].isdigit() else f"{atom}^{k}")
        text = " ".join(terms)
        cases.append(f"({text})^{rng.choice([-2, -1, 1, 2])}" if rng.random() < 0.3 else text)
    broken = ["conj(a", "conj(a)^", "conj(a)^x", "conj()^2 b", "R^", "R^-", "conj(1)^ -", "[a, conj(b)^2", "conj(a]"]
    for text in cases[-10:]:
        at = rng.randint(0, len(text))
        broken.append(text[:at] + rng.choice(["^", ")", "(", "conj(", "x"]) + text[at:])
    return cases + broken


# ---------------------------------------------------------------------------
# Exact division and orbit augmentation
# ---------------------------------------------------------------------------


@st.composite
def ring_elements(draw, eps: int, span: int = 8, mod: int = 0, far: int = 200) -> RingElement:
    """Sparse elements; the beta-degrees sometimes spread out to ``far``."""
    far = draw(st.sampled_from([span, far]))
    terms = draw(
        st.lists(
            st.tuples(st.integers(-span, span), st.integers(-far, far), st.integers(-3, 3)),
            max_size=12,
        )
    )
    return RingElement.make(eps, [((r, s), c) for r, s, c in terms], mod)


def result_or_error(fn, *args):
    try:
        return "ok", fn(*args)
    except FgquadError as exc:
        return type(exc).__name__, str(exc)


class TestExactDivide:
    @oracle_settings
    @given(st.sampled_from([1, -1]).flatmap(lambda eps: ring_elements(eps)))
    def test_products(self, lam):
        d = relator_jacobian_alpha(lam.epsilon)
        p = lam * d
        assert exact_divide(p, d) == naive_exact_divide(p, d) == lam

    @oracle_settings
    @given(
        st.sampled_from([1, -1]).flatmap(
            lambda eps: st.tuples(ring_elements(eps), ring_elements(eps, span=3), st.sampled_from([0, 2]))
        )
    )
    def test_perturbed_products(self, args):
        lam, noise, mod = args
        eps = lam.epsilon
        d = relator_jacobian_alpha(eps)
        p = lam * d + noise
        if mod:
            p = p.reduce_mod2()
        # the second divisor is refused by both, before any division
        for divisor in (d, d + d):
            got = result_or_error(exact_divide, p, divisor)
            assert got == result_or_error(naive_exact_divide, p, divisor)


def actions():
    n = st.integers(-6, 6).filter(bool)
    L = st.integers(-4, 4)
    return st.one_of(n.map(Tilde), st.builds(TildeL, n, L), st.builds(HatL, n, L))


class TestAugment:
    @oracle_settings
    @given(
        st.lists(actions(), min_size=2, max_size=2),
        st.sampled_from([0, 2]).flatmap(
            lambda mod: st.lists(ring_elements(-1, span=6, mod=mod, far=12), min_size=2, max_size=2)
        ),
        st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), max_size=4),
    )
    def test_twisted_bases(self, two_actions, elements, bases):
        # bases off and on the support, where the sums are mostly nonzero
        twisted = []
        for base in [PiElement(-1, r, s) for r, s in bases + list(elements[0].terms)]:
            for action in two_actions:
                cls = element_class(action, base)
                if cls.g_tilde_regular if isinstance(action, Tilde) else not cls.defective:
                    twisted.append((action, base))
        assume(twisted)
        # one element over alternating actions and bases, then the next, then
        # the first again
        for v in elements + elements[:1]:
            for action, base in twisted:
                got = result_or_error(augment, action, v, base.pair)
                assert got == result_or_error(naive_twisted_augment, action, v, base)

@st.composite
def augment_cases(draw):
    elements = st.sampled_from([0, 2]).flatmap(lambda mod: ring_elements(-1, span=6, mod=mod, far=12))
    bases = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(lambda p: PiElement(-1, *p))
    return (
        draw(st.lists(actions(), min_size=1, max_size=3)),
        draw(st.lists(elements, min_size=1, max_size=2)),
        draw(st.lists(bases, max_size=4)),
    )


def random_augment_case(rng: random.Random):
    n, L = rng.choice([1, -1, 2, 3, -3, 4, 5, 6]), rng.randint(-3, 3)
    action = rng.choice([Tilde(n), TildeL(n, L), HatL(n, L)])
    base = PiElement(-1, rng.randint(-5, 5), rng.randint(-5, 5))
    terms = [((rng.randint(-5, 5), rng.randint(-5, 5)), rng.randint(-2, 2)) for _ in range(6)]
    v = RingElement.make(-1, terms + [(base.pair, 1)], mod=rng.choice([0, 2]))
    return action, v, base


class TestEveryAugmentation:
    """``augment`` against the term-by-term oracle on every kind of base."""

    @oracle_settings
    @given(augment_cases())
    def test_against_oracle(self, case):
        kinds, elements, bases = case
        for v in elements:
            for base in bases + [PiElement(-1, r, s) for r, s in v.terms]:
                for action in kinds:
                    got = result_or_error(augment, action, v, base.pair)
                    assert got == result_or_error(naive_augment, action, v, base)

    def test_every_outcome_is_reached(self):
        # the seeded cases reach the twisted sums, the plain parity at
        # defective bases, and each typed refusal, with identical messages
        rng = random.Random(5)
        seen: Counter = Counter()
        for _ in range(3000):
            action, v, base = random_augment_case(rng)
            got = result_or_error(augment, action, v, base.pair)
            assert got == result_or_error(naive_augment, action, v, base)
            defective = element_class(action, base).defective
            seen[type(action).__name__, got[0], defective] += 1
        for outcome in [
            ("Tilde", "ok", False),
            ("Tilde", "ok", True),
            ("Tilde", "SingularBase", True),
            ("TildeL", "ok", False),
            ("TildeL", "ok", True),
            ("HatL", "ok", False),
            ("HatL", "ok", True),
            ("HatL", "InconsistentSign", False),
        ]:
            assert seen[outcome], outcome


@st.composite
def squares_cases(draw):
    """Random elements plus terms spread over a few orbits, the identity's
    among them, so that orbits meet the support more than once."""
    kind = draw(st.sampled_from(["eq3_nf", "eq4_nf"]))
    m, n = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    assume(m or n)
    case = MixedCase(kind, n=n, m=m)
    eps = case.epsilon
    u = squares_u(case)
    points = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda p: PiElement(eps, *p))
    spread = st.tuples(
        st.one_of(st.just(PiElement.identity(eps)), points),
        st.integers(-2, 2),
        st.booleans(),
        st.booleans(),
        st.integers(-3, 3),
    )
    terms = []
    for g, k, inverse, right, c in draw(st.lists(spread, max_size=10)):
        g = g.inv() if inverse else g
        terms.append(((g * u**k if right else u**k * g).pair, c))
    v = draw(ring_elements(eps, span=6, far=12)) + RingElement.make(eps, terms)
    return case, v


class TestSquaresDecide:
    @oracle_settings
    @given(squares_cases())
    def test_against_pairwise_partition(self, args):
        case, v = args
        assert _squares_decide(case, v) == naive_squares_decide(case, v)


def beta_terms(ell: int, pieces):
    """Terms from (r, s, c, partner) pieces: a partner term 2*ell higher or
    lower lets even n get past the chain condition to the pair conditions."""
    terms = []
    for r, s, c, partner in pieces:
        terms.append(((r, s), c))
        if partner:
            terms.append(((r, s + 2 * ell * partner), c))
    return terms


@st.composite
def beta_cases(draw):
    kind = draw(st.sampled_from(["eq2_nf", "eq4_f"]))
    n = draw(st.sampled_from([-6, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 9, 10, 12, 15]))
    piece = st.tuples(st.integers(-5, 5), st.integers(-12, 12), st.integers(-2, 2), st.sampled_from([0, 1, -1]))
    v = RingElement.make(-1, beta_terms(odd_part(n), draw(st.lists(piece, max_size=6))))
    return MixedCase(kind, n=n), v


def random_beta_case(rng: random.Random):
    kind = rng.choice(["eq2_nf", "eq4_f"])
    n = rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 9, 10, 12, 15])
    pieces = [
        (rng.randint(-5, 5), rng.randint(-12, 12), rng.randint(-2, 2), rng.choice([0, 1, -1]))
        for _ in range(rng.randint(0, 6))
    ]
    return MixedCase(kind, n=n), RingElement.make(-1, beta_terms(odd_part(n), pieces))


def searched_element(case: MixedCase, v: RingElement) -> tuple[RingElement, int]:
    """The element the translation search augments, and its largest |r|."""
    vd = v if case.kind == "eq2_nf" else v.reduce_mod2()
    return vd, max((abs(r) for r, _ in vd.support()), default=0)


def assert_window_complete(case: MixedCase, v: RingElement) -> None:
    """The natural window is ``|L| <= 2 r_alpha + 1``, and a scan out to
    ``|L| = 2 r_alpha + |n| + 43`` gives the same answer: the same verdict,
    ell, L and certificate."""
    result = _beta_decide(case, v)
    _, r_alpha = searched_element(case, v)
    assert result.trace["window"] == [-(2 * r_alpha + 1), 2 * r_alpha + 1]
    reach = 2 * r_alpha + abs(case.n) + 43
    wide = naive_beta_decide(case, v, reach)
    assert wide.trace["window"] == [-reach, reach]
    answer = (result.solvable, result.ell, result.L, result.certificate)
    assert (wide.solvable, wide.ell, wide.L, wide.certificate) == answer, (case, v)


class TestBetaDecide:
    """The fail-fast translation search against the search that builds every
    pair candidate for every L first: the same result, trace included.  The
    natural window is complete: the lemmas of the ``_beta_decide`` docstring
    hold, and a wider scan gives the same answer."""

    @oracle_settings
    @given(beta_cases())
    def test_against_full_candidate_sets(self, args):
        case, v = args
        got = result_or_error(_beta_decide, case, v)
        assert got == result_or_error(naive_beta_decide, case, v, None)

    @oracle_settings
    @given(beta_cases())
    def test_a_wider_window_changes_no_answer(self, args):
        assert_window_complete(*args)

    @oracle_settings
    @given(st.integers(-60, 60), st.integers(1, 30).map(lambda k: 2 * k), st.integers(-40, 40), st.integers(-40, 40))
    def test_window_values(self, value, modulus, lo, hi):
        assert list(_window_values(value, modulus, lo, hi)) == naive_window_values(value, modulus, lo, hi)

    @oracle_settings
    @given(beta_cases())
    def test_chain_candidates(self, args):
        case, v = args
        ell = odd_part(case.n)
        assert _chain_candidates(case.n, ell, v) == {g.pair for g in naive_chain_candidates(case.n, ell, v)}

    def test_every_outcome_is_reached(self):
        # the seeded cases reach exhausted windows of both parities, solvable
        # parameters and the chain condition, and a wider scan changes none
        rng = random.Random(7)
        seen: Counter = Counter()
        for _ in range(1500):
            case, v = random_beta_case(rng)
            got = result_or_error(_beta_decide, case, v)
            assert got == result_or_error(naive_beta_decide, case, v, None)
            assert_window_complete(case, v)
            result = got[1]
            outcome = "solvable" if result.solvable else (result.certificate or "").split()[0]
            seen[case.n % 2, outcome] += 1
        for parity in (0, 1):
            assert seen[parity, "no"] and seen[parity, "solvable"], parity
        assert seen[0, "chain"]

    def test_odd_lemma_no_parameter_beyond_twice_the_support_holds(self):
        # odd n, |L| >= 2 r_alpha + 2: the base (r_alpha + 1, 0) lies in
        # 0 < m <= p_L, where the HatL conditions need an odd augmentation,
        # but its four residue keys miss the support
        rng = random.Random(23)
        checked = 0
        for _ in range(600):
            case, v = random_beta_case(rng)
            if case.n % 2 == 0:
                continue
            vd, r_alpha = searched_element(case, v)
            for size in range(2 * r_alpha + 2, 2 * r_alpha + 21):
                for L in (size, -size):
                    assert augment(HatL(case.n, L), vd, (r_alpha + 1, 0)) % 2 == 0, (case, v, L)
                    checked += 1
        assert checked > 5000

    def test_odd_lemma_bases_beyond_the_support_and_l_augment_to_even(self):
        # odd n: for m > r_alpha + |L| the four residue keys of the base
        # (m, 0) miss the support, so the HatL scan of the bases stops at
        # r_alpha + |L|
        rng = random.Random(31)
        checked = 0
        for _ in range(300):
            case, v = random_beta_case(rng)
            if case.n % 2 == 0:
                continue
            vd, r_alpha = searched_element(case, v)
            bound = 2 * r_alpha + 1
            for L in range(-bound, bound + 1):
                action = HatL(case.n, L)
                for m_val in range(r_alpha + abs(L) + 1, r_alpha + abs(L) + 21):
                    assert augment(action, vd, (m_val, 0)) % 2 == 0, (case, v, L, m_val)
                    checked += 1
        assert checked > 20000

    def test_even_lemma_pair_conditions_agree_beyond_twice_the_support(self):
        # even n, |L| > 2 r_alpha: the pair conditions give the same answer
        # at every L of either sign, and both answers occur
        rng = random.Random(29)
        seen: Counter = Counter()
        for _ in range(600):
            case, v = random_beta_case(rng)
            if case.n % 2:
                continue
            vd, r_alpha = searched_element(case, v)
            answers = {
                naive_pair_conditions(case.n, L, vd)
                for size in range(2 * r_alpha + 1, 2 * r_alpha + 26)
                for L in (size, -size)
            }
            assert len(answers) == 1, (case, v)
            seen[answers.pop()] += 1
        assert seen[True] and seen[False]

    def test_a_wider_window_changes_no_answer_on_the_bench_corpora(self):
        # every beta-power input (n != 0) of the seed-1 derived_large and
        # wicks_cores corpora
        corpus = bench_corpus()
        checked = 0
        for name in ("derived_large", "wicks_cores"):
            for q in corpus.WORKLOADS[name](1):
                spec = EquationSpec(q.delta, q.epsilon, q.theta, q.solution_class, q.frame)
                v_ad, vbar, branch = locate(spec, parse_word(q.text, spec.basis))
                if branch.case in ("eq2_nf", "eq4_f"):
                    data = analyze_v(v_ad, vbar, branch)
                    if data.case.n:
                        assert_window_complete(data.case, data.V)
                        checked += 1
        assert checked == 1807

    def test_only_the_l_plus_r_candidate_fails(self):
        # eq4_f(n=3), V = (-2,-1): at L = 1 the candidates are m = r = 2,
        # |L - r| = 1 and |L + r| = 3 at s = 2, and only m = 3 fails; a search
        # without the |L + r| m-value would accept L = 1, where
        # test_box_oracle finds no box solution
        case = MixedCase("eq4_f", n=3)
        v = RingElement.make(-1, [((-2, -1), 1)])
        failing = {g.pair for g in naive_pair_candidates(3, 3, 1, v, 6) if augment(HatL(3, 1), v, g.pair)}
        assert failing == {(3, 2)}
        result = _beta_decide(case, v)
        assert result == naive_beta_decide(case, v, None)
        assert not result.solvable and result.trace["window_exhausted"]
