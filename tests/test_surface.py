import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ADAPTED_MINUS, ADAPTED_PLUS, CLASSIC_MINUS, CLASSIC_PLUS, random_pi, random_word, words_strategy
from fgquad import (
    BasisTag,
    EpsilonMismatch,
    PiElement,
    Word,
    change_basis,
    parse_word,
    project,
    relator_in,
    sgn,
)
from oracles import apply_phi


def pi_elements(epsilon: int):
    return st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(
        lambda rs: PiElement(epsilon, rs[0], rs[1])
    )


class TestProject:
    def test_relator_dies(self):
        assert project(parse_word("a b a B", ADAPTED_MINUS)).is_identity
        assert project(relator_in(BasisTag.adapted(1))).is_identity

    def test_klein_relation(self):
        assert project(parse_word("b a", ADAPTED_MINUS)) == PiElement(-1, -1, 1)

    def test_torus_collection(self):
        assert project(parse_word("a b a", BasisTag.adapted(1))) == PiElement(1, 2, 1)

    @given(words_strategy(ADAPTED_MINUS, 5), words_strategy(ADAPTED_MINUS, 5))
    def test_homomorphism(self, u, v):
        assert project(u * v) == project(u) * project(v)

    def test_classic_words_convert_first(self, rng):
        for _ in range(300):
            w = random_word(rng, CLASSIC_MINUS, 5)
            assert project(w) == project(change_basis(w, ADAPTED_MINUS))

    @given(st.sampled_from([ADAPTED_MINUS, ADAPTED_PLUS, CLASSIC_MINUS, CLASSIC_PLUS]).flatmap(words_strategy))
    def test_orientation_is_read_from_the_projection(self, w):
        # table_branch is given the orientation of v as project(v).w_eps()
        assert project(w).w_eps() == sgn(w)


class TestPiAlgebra:
    def test_even_square(self):
        assert PiElement(-1, 1, 2) ** 2 == PiElement(-1, 2, 4)

    def test_odd_square(self):
        assert PiElement(-1, 1, 1) ** 2 == PiElement(-1, 0, 2)

    def test_inverse(self):
        assert PiElement(-1, 1, 1).inv() == PiElement(-1, 1, -1)

    def test_epsilon_mismatch(self):
        with pytest.raises(EpsilonMismatch):
            PiElement(-1, 1, 0) * PiElement(1, 1, 0)

    @given(pi_elements(-1), pi_elements(-1), pi_elements(-1))
    def test_group_laws(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert (x * x.inv()).is_identity
        assert (x.inv() * x).is_identity

    @given(pi_elements(-1), pi_elements(-1))
    def test_w_eps_multiplicative(self, x, y):
        assert (x * y).w_eps() == x.w_eps() * y.w_eps()

    @given(pi_elements(-1), st.integers(-6, 6))
    def test_pow_matches_iteration(self, x, k):
        expected = PiElement.identity(-1)
        step = x if k >= 0 else x.inv()
        for _ in range(abs(k)):
            expected = expected * step
        assert x**k == expected

    def test_accessors(self):
        g = PiElement(1, 3, -2)
        assert g.r == 3 and g.s == -2


def _phi_word_oracle(L: int, x: PiElement) -> PiElement:
    """Apply the substitution alpha -> alpha, beta -> beta*alpha^L letter-wise."""
    basis = ADAPTED_MINUS
    alpha = Word.gen(basis, "a")
    beta_img = Word.gen(basis, "b") * alpha**L
    word = alpha**x.r * (Word.gen(basis, "b")) ** x.s
    out = Word.identity(basis)
    for g, e in word.syls:
        out = out * (alpha if g == 0 else beta_img) ** e
    return project(out)


class TestPhi:
    def test_single_beta(self):
        assert apply_phi(1, PiElement(-1, 0, 1)) == PiElement(-1, -1, 1)

    def test_even_fixed(self):
        assert apply_phi(2, PiElement(-1, 3, 4)) == PiElement(-1, 3, 4)

    def test_relator_fixed(self):
        assert apply_phi(5, project(relator_in(ADAPTED_MINUS))).is_identity

    def test_epsilon_guard(self):
        with pytest.raises(EpsilonMismatch):
            apply_phi(1, PiElement(1, 0, 1))

    @given(pi_elements(-1), pi_elements(-1), st.integers(-5, 5))
    def test_automorphism(self, x, y, L):
        assert apply_phi(L, x * y) == apply_phi(L, x) * apply_phi(L, y)
        assert apply_phi(-L, apply_phi(L, x)) == x

    def test_word_level_oracle(self, rng):
        for _ in range(500):
            x = random_pi(rng, -1, 6)
            L = rng.randint(-5, 5)
            assert apply_phi(L, x) == _phi_word_oracle(L, x)
