"""The word layer and the quotient walks agree with the naive oracles."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ADAPTED_MINUS, ADAPTED_PLUS, CLASSIC_MINUS, CLASSIC_PLUS
from fgquad import BasisTag, Word, WordSyntaxError, change_basis, cyclic_reduce, fox_derivative, parse_word, project
from oracles import (
    naive_change_basis,
    naive_cyclic_reduce,
    naive_fox_derivative,
    naive_inv,
    naive_mul,
    naive_pow,
    naive_project,
    reduce_syllables,
    reference_parse,
)

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
    @given(words())
    def test_cyclic_reduce(self, w):
        assert cyclic_reduce(w) == naive_cyclic_reduce(w)

    @oracle_settings
    @given(words())
    def test_change_basis(self, w):
        other = BasisTag("classic" if w.basis.kind == "adapted" else "adapted", w.basis.epsilon)
        assert change_basis(w, other) == naive_change_basis(w, other)


class TestQuotientWalks:
    @oracle_settings
    @given(words())
    def test_project(self, w):
        assert project(w) == naive_project(w)

    @oracle_settings
    @given(words(), st.sampled_from("ab"))
    def test_fox_derivative(self, w, gen):
        got = fox_derivative(w, gen)
        want = naive_fox_derivative(w, gen)
        assert got == want
        # same terms in the same order, so nothing downstream sees a change
        assert list(got.terms.items()) == list(want.terms.items())


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
