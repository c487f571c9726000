import os
from pathlib import Path
import random
import subprocess
import sys

import pytest
from hypothesis import given

from conftest import ADAPTED_MINUS, ADAPTED_PLUS, CLASSIC_MINUS, CLASSIC_PLUS, random_word, words_strategy
from fgquad import (
    BasisMismatch,
    BasisTag,
    EquationSpec,
    FgquadError,
    InvalidSpec,
    Word,
    WordSyntaxError,
    change_basis,
    comm,
    conj,
    cyclic_reduce,
    parse_word,
    project,
    relator_in,
    sgn,
    square_root,
    verify_solution,
)
import fgquad
from fgquad.words import solution_is_faithful, swap_frame
from oracles import letters_of, reduce_syllables


class TestParse:
    def test_letters(self):
        w = parse_word("a b A B", CLASSIC_PLUS)
        assert w.syls == ((0, 1), (1, 1), (0, -1), (1, -1))

    def test_exponents(self):
        w = parse_word("a^2 b^-3", CLASSIC_PLUS)
        assert w.syls == ((0, 2), (1, -3))

    def test_free_cancellation(self):
        assert parse_word("a A", CLASSIC_PLUS).is_identity

    def test_relator_token(self):
        assert parse_word("R", ADAPTED_MINUS) == relator_in(ADAPTED_MINUS)
        assert parse_word("R", CLASSIC_MINUS) == parse_word("a a b b", CLASSIC_MINUS)

    def test_conj_and_commutator(self):
        basis = ADAPTED_PLUS
        assert parse_word("[a, b]", basis) == parse_word("a b A B", basis)
        assert parse_word("conj(a)", basis) == conj(Word.gen(basis, "a"), relator_in(basis))

    def test_identity_token(self):
        assert parse_word("1", ADAPTED_MINUS).is_identity

    def test_syntax_error_offset(self):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("a b ?", CLASSIC_PLUS)
        assert exc.value.offset == 4

    @pytest.mark.parametrize("text", ["a^\u00b2", "a^\u0663"])
    def test_exponent_digits_are_ascii(self, text):
        # superscript two and Arabic-Indic three are str.isdigit, not exponents
        with pytest.raises(WordSyntaxError, match="expected integer") as exc:
            parse_word(text, CLASSIC_PLUS)
        assert exc.value.offset == 2

    @pytest.mark.parametrize(
        "text, syls",
        [
            ("a^0", ()),
            ("a^-0", ()),
            ("a^065", ((0, 65),)),
            ("a^ 2", ((0, 2),)),
            ("a ^2", ((0, 2),)),
            ("a^64", ((0, 64),)),
            ("a^65", ((0, 65),)),
            ("B^-65", ((1, 65),)),
            ("a\tb\nA", ((0, 1), (1, 1), (0, -1))),
            ("a^\t2\n", ((0, 2),)),
            ("\ta\n^\n-3 b", ((0, -3), (1, 1))),
        ],
    )
    def test_exponent_tokens(self, text, syls):
        # the values a faster tokenizer must keep: zero and leading zeros,
        # white space on either side of '^', and 64/65, where the parser's
        # table of shared syllables ends
        assert parse_word(text, CLASSIC_PLUS).syls == syls

    def test_group_exponent_with_leading_zero(self):
        basis = ADAPTED_MINUS
        assert parse_word("conj(a)^065", basis) == conj(Word.gen(basis, "a"), relator_in(basis) ** 65)

    @pytest.mark.parametrize("text, offset", [("a^+1", 2), ("a^", 2), ("a^-", 3)])
    def test_exponent_errors(self, text, offset):
        # no '+' sign, and a '^' or '-' needs digits after it
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(text, CLASSIC_PLUS)
        assert (str(exc.value), exc.value.offset) == (f"expected integer (at offset {offset})", offset)

    def test_unbalanced(self):
        with pytest.raises(WordSyntaxError):
            parse_word("(a b", CLASSIC_PLUS)

    def test_nesting_that_fits_the_stack_still_parses(self):
        # the parser takes one frame per level, so a fresh interpreter at the
        # default recursion limit of 1000 parses about 990 levels: 331, the
        # most that three frames per level allowed, and 900
        code = (
            "from fgquad import BasisTag, parse_word\n"
            "for depth in (331, 900):\n"
            "    print(parse_word('(' * depth + 'a' + ')' * depth, BasisTag.adapted(1)))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(fgquad.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "a\na\n")

    @given(words_strategy(ADAPTED_MINUS))
    def test_roundtrip(self, w):
        assert parse_word(str(w), ADAPTED_MINUS) == w


class TestAlgebra:
    def test_commutator(self):
        basis = CLASSIC_PLUS
        assert comm(Word.gen(basis, "a"), Word.gen(basis, "b")) == parse_word("a b A B", basis)

    def test_inverse_pair(self):
        basis = CLASSIC_PLUS
        assert (parse_word("a b", basis) * parse_word("B A", basis)).is_identity

    def test_conj(self):
        basis = CLASSIC_PLUS
        assert conj(Word.gen(basis, "a"), Word.gen(basis, "b")) == parse_word("a b A", basis)

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatch):
            Word.gen(CLASSIC_PLUS, "a") * Word.gen(ADAPTED_MINUS, "a")

    @given(words_strategy(ADAPTED_MINUS, 5), words_strategy(ADAPTED_MINUS, 5), words_strategy(ADAPTED_MINUS, 5))
    def test_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    @given(words_strategy(ADAPTED_MINUS))
    def test_inverse(self, w):
        assert (w * w.inv()).is_identity
        assert w.inv().inv() == w

    @given(words_strategy(ADAPTED_MINUS, 4))
    def test_pow(self, w):
        assert (w**0).is_identity
        assert w**3 == w * w * w
        assert w**-2 == (w.inv()) * (w.inv())


def seam_pair(rng, basis):
    """Two reduced words whose product cancels several syllables at the seam,
    then merges or stops: ``v`` starts with the inverse of a tail of ``u``
    and goes on with one syllable of the generator left next to the seam,
    or with any word."""
    u = random_word(rng, basis, 30)
    tail = u.syls[len(u.syls) - rng.randint(0, len(u.syls)) :]
    head = Word(basis, tail).inv().syls
    rest = u.syls[: len(u.syls) - len(tail)]
    if rest and rng.random() < 0.5:
        more = ((rest[-1][0], rng.choice((-70, -3, -1, 1, 2, 65))),)
    else:
        more = ()
    return u, Word.from_syllables(basis, [*head, *more, *random_word(rng, basis, 6).syls])


class TestKernels:
    """The product, inverse and orientation character against letter-level
    and all-syllable references."""

    @pytest.mark.parametrize("basis", [CLASSIC_MINUS, ADAPTED_MINUS])
    def test_product_cancels_and_merges_at_the_seam(self, basis):
        rng = random.Random(28)
        for _ in range(2000):
            u, v = seam_pair(rng, basis)
            want = reduce_syllables(letters_of(u) + letters_of(v))
            assert (u * v).syls == want, (str(u), str(v))
            assert (v * u).syls == reduce_syllables(letters_of(v) + letters_of(u))

    def test_equal_tags_that_are_distinct_objects_multiply(self):
        for kind, tag in [("adapted", BasisTag.adapted), ("classic", BasisTag.classic)]:
            for epsilon in (1, -1):
                fresh, shared = BasisTag(kind, epsilon), tag(epsilon)
                assert fresh == shared and fresh is not shared
                u, v = Word(fresh, ((0, 2), (1, -1))), Word(shared, ((1, 1), (0, 3)))
                assert (u * v).syls == ((0, 5),) and (v * u).syls == ((1, 1), (0, 5), (1, -1))
        with pytest.raises(BasisMismatch):
            Word(BasisTag("adapted", 1), ((0, 1),)) * Word(BasisTag.adapted(-1), ((0, 1),))
        with pytest.raises(BasisMismatch):
            Word(BasisTag("classic", -1), ((0, 1),)) * Word(BasisTag("adapted", -1), ((0, 1),))

    def test_inverse_beyond_the_syllable_table(self):
        w = Word(ADAPTED_MINUS, ((0, 65), (1, -64), (0, -1000), (1, 3), (0, 64), (1, -65)))
        assert w.inv().syls == ((1, 65), (0, -64), (1, -3), (0, 1000), (1, 64), (0, -65))
        assert w.inv().inv() == w and (w * w.inv()).is_identity
        table = fgquad.words._SYL
        for syl in w.inv().syls:
            assert (syl is table[syl]) if abs(syl[1]) <= 64 else syl not in table

    def test_inverse_keeps_the_shared_syllables(self, rng):
        table = fgquad.words._SYL
        for _ in range(200):
            w = random_word(rng, ADAPTED_MINUS, 10)
            assert all(syl is table[syl] for syl in w.inv().syls)
            assert w.inv().syls == tuple((g, -e) for g, e in reversed(w.syls))

    def test_sgn_is_the_all_syllable_sum(self):
        def reference(w):
            if w.basis.epsilon == 1:
                return 1
            total = sum(abs(e) if w.basis.kind == "classic" else (e if g == 1 else 0) for g, e in w.syls)
            return -1 if total % 2 else 1

        rng = random.Random(7)
        for basis in (CLASSIC_MINUS, ADAPTED_MINUS, CLASSIC_PLUS, ADAPTED_PLUS):
            words = [Word.identity(basis)]
            words += [Word(basis, ((g, e),)) for g in (0, 1) for e in (-3, -2, -1, 1, 2, 3, 65)]
            words += [random_word(rng, basis, 12) for _ in range(2000)]
            for w in words:
                assert sgn(w) == reference(w), str(w)
            if basis == ADAPTED_MINUS:  # both signs, from either first generator
                for first in (0, 1):
                    assert {sgn(w) for w in words if w.syls and w.syls[0][0] == first} == {1, -1}


class TestCyclicReduce:
    def test_one_conjugating_letter(self):
        core, t = cyclic_reduce(parse_word("a b A", CLASSIC_PLUS))
        assert str(core) == "b" and str(t) == "a"

    def test_already_reduced(self):
        w = parse_word("a b A B", CLASSIC_PLUS)
        core, t = cyclic_reduce(w)
        assert core == w and t.is_identity

    @given(words_strategy(ADAPTED_MINUS))
    def test_decomposition(self, w):
        core, t = cyclic_reduce(w)
        assert t * core * t.inv() == w
        letters = letters_of(core)
        if letters:
            g1, e1 = letters[0]
            g2, e2 = letters[-1]
            assert not (g1 == g2 and e1 == -e2)


class TestSquareRoot:
    def test_literal_double(self):
        assert square_root(parse_word("a b a b", CLASSIC_PLUS)) == parse_word("a b", CLASSIC_PLUS)

    def test_odd_core(self):
        assert square_root(parse_word("a b", CLASSIC_PLUS)) is None

    def test_conjugated_square(self):
        assert square_root(parse_word("a b b A", CLASSIC_PLUS)) == parse_word("a b A", CLASSIC_PLUS)

    def test_many_random(self, rng):
        for _ in range(1000):
            s = random_word(rng, ADAPTED_MINUS, 5)
            root = square_root(s * s)
            assert root is not None
            assert root * root == s * s


class TestSgn:
    def test_classic_examples(self):
        assert sgn(parse_word("a b", CLASSIC_MINUS)) == 1
        assert sgn(parse_word("a", CLASSIC_MINUS)) == -1

    def test_adapted_values(self):
        assert sgn(parse_word("b", ADAPTED_MINUS)) == -1
        assert sgn(parse_word("a", ADAPTED_MINUS)) == 1

    def test_homomorphism(self, rng):
        for basis in (CLASSIC_MINUS, ADAPTED_MINUS, CLASSIC_PLUS):
            for _ in range(1000):
                u, v = random_word(rng, basis, 5), random_word(rng, basis, 5)
                assert sgn(u * v) == sgn(u) * sgn(v)


class TestChangeBasis:
    def test_squares_to_adapted(self):
        w = parse_word("a a b b", CLASSIC_MINUS)
        assert change_basis(w, ADAPTED_MINUS) == parse_word("a b a B", ADAPTED_MINUS)

    def test_plus_identity(self):
        w = parse_word("a b A", CLASSIC_PLUS)
        assert change_basis(w, ADAPTED_PLUS).syls == w.syls

    def test_single_generator(self):
        w = parse_word("a", CLASSIC_MINUS)
        assert change_basis(w, ADAPTED_MINUS) == parse_word("a b", ADAPTED_MINUS)

    def test_round_trip(self, rng):
        for _ in range(1000):
            w = random_word(rng, CLASSIC_MINUS)
            assert change_basis(change_basis(w, ADAPTED_MINUS), CLASSIC_MINUS) == w


class TestBasisTag:
    def test_tags_are_shared(self):
        assert BasisTag.adapted(-1) is BasisTag.adapted(-1)
        assert BasisTag.classic(1) is BasisTag.classic(1)
        assert BasisTag.adapted(1) is not BasisTag.classic(1)
        for frame, kind in [("original_z", "classic"), ("adapted_xy", "adapted")]:
            spec = EquationSpec(1, -1, -1, "faithful", frame)
            assert spec.basis is getattr(BasisTag, kind)(-1)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            BasisTag.adapted(0)

    def test_no_instance_dict(self):
        # both classes keep their fields in slots
        assert not hasattr(BasisTag.adapted(1), "__dict__")
        assert not hasattr(Word.identity(ADAPTED_PLUS), "__dict__")


class TestEquationSpec:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, -1, -1), "delta must be +1 or -1"),
            ((1, 2, -1), "epsilon must be +1 or -1"),
            ((1, -1, -1, "Faithful"), "solution_class must be one of faithful, nonfaithful, not 'Faithful'"),
            ((1, -1, -1, "faithful", "original"), "frame must be one of original_z, adapted_xy, not 'original'"),
        ],
    )
    def test_bad_parameter_is_refused(self, args, message):
        # a misspelt class or frame used to stand silently for another one:
        # "Faithful" was decided as the non-faithful class, "original" as the
        # adapted frame
        with pytest.raises(InvalidSpec) as exc:
            EquationSpec(*args)
        assert str(exc.value) == message
        assert isinstance(exc.value, FgquadError) and isinstance(exc.value, ValueError)


class TestRelator:
    def test_plus(self):
        assert relator_in(ADAPTED_PLUS) == parse_word("a b A B", ADAPTED_PLUS)

    def test_minus(self):
        assert relator_in(ADAPTED_MINUS) == parse_word("a b a B", ADAPTED_MINUS)

    def test_orientation(self):
        assert sgn(relator_in(ADAPTED_PLUS)) == 1
        assert sgn(relator_in(ADAPTED_MINUS)) == 1


class TestVerifySolution:
    def test_table0_row(self):
        spec = EquationSpec(1, 1, 1, "faithful", "original_z")
        basis = CLASSIC_PLUS
        res = verify_solution(spec, parse_word("a", basis), parse_word("a a", basis), parse_word("b", basis))
        assert res.holds and res.faithful

    def test_adapted_row(self):
        spec = EquationSpec(1, 1, -1, "faithful", "adapted_xy")
        basis = ADAPTED_PLUS
        v = parse_word("a", basis)
        x = parse_word("(a) R^-1 (a)^-1", basis)
        y = parse_word("A", basis)
        res = verify_solution(spec, v, x, y)
        assert res.holds and res.faithful and project(x) == (0, 0)

    def test_failing_pair(self):
        spec = EquationSpec(1, 1, -1, "faithful", "adapted_xy")
        basis = ADAPTED_PLUS
        res = verify_solution(
            spec, parse_word("a", basis), parse_word("a", basis), parse_word("b", basis)
        )
        assert not res.holds

    def test_faithful_needs_orientation_preserving_x(self):
        # (x, y) = (b, 1) solves x y x^-1 y^-1 = R^-1 R, but w(x) = -1: the
        # z-unknowns are not both orientation-preserving
        spec = EquationSpec(1, -1, -1, "faithful", "adapted_xy")
        one = Word.identity(ADAPTED_MINUS)
        b = Word.gen(ADAPTED_MINUS, "b")
        res = verify_solution(spec, one, b, one)
        assert res.holds and not res.faithful
        assert not solution_is_faithful(spec, b, one)


class TestSwapFrame:
    @given(words_strategy(ADAPTED_MINUS, 4), words_strategy(ADAPTED_MINUS, 4))
    def test_involution(self, x, y):
        for delta in (1, -1):
            assert swap_frame(delta, *swap_frame(delta, x, y)) == (x, y)

    def test_delta_minus_one(self):
        x, y = parse_word("a b", ADAPTED_MINUS), parse_word("b", ADAPTED_MINUS)
        assert swap_frame(-1, x, y) == (parse_word("a b^2", ADAPTED_MINUS), parse_word("B", ADAPTED_MINUS))
