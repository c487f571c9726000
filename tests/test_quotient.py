import pytest

from conftest import ADAPTED_MINUS, random_pi
from fgquad import (
    DomainMismatch,
    EpsilonMismatch,
    PiElement,
    QElement,
    RingElement,
    Word,
    alt_geom_ratio,
    geom_ratio,
    p_q,
    parse_word,
    q_divisible_by_two,
)
from fgquad.groupring import one_minus_pow
from oracles import q_nf_commutator
from test_groupring import random_ring


def mono(eps, r, s, c=1):
    return RingElement.monomial(PiElement(eps, r, s), c)


def one_plus_ratio(x: PiElement, c: int) -> RingElement:
    """(1 + x**c) / (1 + x) for odd c, verified by multiplying back."""
    assert c % 2
    eps = x.epsilon
    if c > 0:
        out = RingElement.make(eps, [(x**j, (-1) ** j) for j in range(c)])
    else:
        out = RingElement.make(eps, [(x ** (c + j), (-1) ** j) for j in range(-c)])
    check = RingElement.one(eps) + RingElement.monomial(x)
    target = RingElement.one(eps) + RingElement.monomial(x**c)
    assert out * check == target
    return out


class TestPq:
    def test_identity_killed(self):
        assert p_q(mono(-1, 0, 0, 5)).is_zero

    def test_inverse_pairs_fold(self, rng):
        for _ in range(200):
            g = random_pi(rng, -1, 6)
            if g.is_identity:
                continue
            p = RingElement.monomial(g) + RingElement.monomial(g.inv())
            assert p_q(p).is_zero

    def test_folding_coefficients(self):
        p = mono(1, 1, 0, 2) + mono(1, -1, 0, 1)
        assert p_q(p) == QElement.make(1, [(PiElement(1, 1, 0), 1)])

    def test_kernel_invariance(self, rng):
        for _ in range(100):
            p = random_ring(rng, -1)
            noise = RingElement.monomial(PiElement.identity(-1), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4)):
                g = random_pi(rng, -1, 6)
                if g.is_identity:
                    continue
                c = rng.randint(-2, 2)
                noise = noise + RingElement.monomial(g, c) + RingElement.monomial(g.inv(), c)
            assert p_q(p + noise) == p_q(p)

    def test_mod2_domain(self, rng):
        for _ in range(100):
            p = random_ring(rng, -1)
            assert p_q(p.reduce_mod2()) == QElement.make(
                -1, p.reduce_mod2().terms.items(), mod=2
            )


class TestSparseSum:
    def test_identity_term_epsilon_checked_before_it_is_dropped(self):
        with pytest.raises(EpsilonMismatch):
            QElement.make(1, [(PiElement.identity(-1), 1)])

    @pytest.mark.parametrize("cls", [RingElement, QElement])
    def test_mixed_operands(self, cls):
        g = PiElement(-1, 1, 1)
        x = cls.make(-1, [(g, 1)])
        with pytest.raises(EpsilonMismatch):
            x + cls.make(1, [(PiElement(1, 1, 1), 1)])
        with pytest.raises(DomainMismatch):
            x - cls.make(-1, [(g, 1)], mod=2)

    def test_equality_within_one_class(self):
        g = PiElement(-1, 1, 1)
        assert RingElement.make(-1, [(g, 1)]) != QElement.make(-1, [(g, 1)])
        assert QElement.make(-1, [(g, 1)]) == QElement.make(-1, [(g.inv(), -1)])
        assert len({QElement.make(-1, [(g, 1)]), QElement.make(-1, [(g.inv(), -1)])}) == 1

    def test_str_and_negation(self):
        x = QElement.make(-1, [(PiElement(-1, 0, -2), 1), (PiElement(-1, 1, 0), 3)])
        assert str(x) == "{(1,0): 3, (0,2): -1}"
        assert str(-x) == "{(1,0): -3, (0,2): 1}"
        assert (x - x).is_zero and str(x - x) == "0"


class TestCommutatorImage:
    def test_basic(self):
        basis = ADAPTED_MINUS
        one = Word.identity(basis)
        alpha = Word.gen(basis, "a")
        got = q_nf_commutator([(one, 1)], [(alpha, 1)])
        assert got == QElement.make(-1, [(PiElement(-1, 1, 0), 1)])

    def test_equal_sides_cancel(self):
        basis = ADAPTED_MINUS
        pairs = [(parse_word("a b", basis), 2), (parse_word("b", basis), -1)]
        assert q_nf_commutator(pairs, pairs).is_zero

    def test_antisymmetry(self, rng):
        basis = ADAPTED_MINUS
        from conftest import random_word

        for _ in range(100):
            left = [(random_word(rng, basis, 3), rng.randint(-2, 2)) for _ in range(2)]
            right = [(random_word(rng, basis, 3), rng.randint(-2, 2)) for _ in range(2)]
            assert q_nf_commutator(left, right) == -q_nf_commutator(right, left)


class TestDivisibility:
    def test_examples(self):
        g, h = PiElement(-1, 1, 1), PiElement(-1, 0, 2)
        assert q_divisible_by_two(QElement.make(-1, [(g, 2), (h, -4)]))
        assert not q_divisible_by_two(QElement.make(-1, [(g, 1)]))
        assert q_divisible_by_two(QElement.zero(-1))

    def test_domain_guard(self):
        with pytest.raises(DomainMismatch):
            q_divisible_by_two(QElement.make(-1, [(PiElement(-1, 1, 1), 1)], mod=2))

    def test_matches_mod2_projection(self, rng):
        for _ in range(200):
            p = random_ring(rng, -1)
            x = p_q(p)
            assert q_divisible_by_two(x) == p_q(p.reduce_mod2()).is_zero


def congruent(a: RingElement, b: RingElement) -> bool:
    return p_q(a - b).is_zero


class TestRatioCongruences:
    """The three congruences used to reduce the second derived equations."""

    def test_shifted_full_ratio(self, rng):
        for eps in (1, -1):
            for _ in range(150):
                x = random_pi(rng, eps, 5)
                if x.is_identity:
                    continue
                k = rng.randint(-6, 6)
                lhs = geom_ratio(x, 2 * k, 1) * RingElement.monomial(x ** (1 - k))
                assert congruent(lhs, RingElement.monomial(x**k))

    def test_shifted_even_ratio_vanishes(self, rng):
        for eps in (1, -1):
            for _ in range(150):
                x = random_pi(rng, eps, 5)
                if x.is_identity:
                    continue
                k = rng.randint(-6, 6)
                lhs = geom_ratio(x, 2 * k, 2) * RingElement.monomial(x ** (1 - k))
                assert p_q(lhs).is_zero

    def test_centered_even_ratio(self, rng):
        for eps in (1, -1):
            for _ in range(150):
                x = random_pi(rng, eps, 5)
                if x.is_identity:
                    continue
                k = rng.randint(-6, 6)
                lhs = geom_ratio(x, 2 * k, 2) * RingElement.monomial(x**-k)
                assert congruent(lhs, RingElement.monomial(x**-k))


class TestCorollaryCongruences:
    def test_beta_power_representation(self):
        # beta^n ~ (1-beta^{2n})/(1-c) * alpha^L beta^{ell-n}, c = alpha^L beta^ell
        for n in (-4, -2, 2, 4):
            for ell in (e for e in (-3, -1, 1, 3) if n % e == 0):
                for L in range(-3, 4):
                    c = PiElement(-1, L, ell)
                    lhs = RingElement.monomial(PiElement.beta(-1, n))
                    rhs = geom_ratio(c, 2 * n // ell, 1) * RingElement.monomial(
                        PiElement(-1, L, ell - n)
                    )
                    assert congruent(lhs, rhs)

    def test_two_split_forms(self, rng):
        for _ in range(150):
            x = random_pi(rng, -1, 4)
            if x.is_identity:
                continue
            k = rng.randint(-5, 5)
            m = rng.randint(-3, 3)
            base = geom_ratio(x, 2 * k, 2) * RingElement.monomial(x ** (2 * m))
            # (x^{2m} - x^{1-k}) / (1 - x)
            diff = RingElement.monomial(x ** (1 - k), -1) * geom_ratio(x, 2 * m - 1 + k, 1)
            first = alt_geom_ratio(x, 2 * k, 1) * diff
            assert congruent(base, first)
            # (x^{2m} + (-1)^k x^{1-k}) / (1 + x)
            c_exp = 2 * m - 1 + k
            if k % 2 == 0:
                summ = RingElement.monomial(x ** (1 - k)) * one_plus_ratio(x, c_exp)
            else:
                summ = RingElement.monomial(x ** (1 - k), -1) * alt_geom_ratio(x, c_exp, 1)
            second = geom_ratio(x, 2 * k, 1) * summ
            assert congruent(base, second)

    def test_mixed_translate_form(self):
        # (1-b^{2n})/(1-b^{2l}) b^{2kl} a^m ~ (1-b^{2n})/(1-c) (b^{2kl}+c b^{-n})/(1+c) a^m
        beta = PiElement.beta(-1)
        for n in (-4, -2, 2, 4):
            for ell in (e for e in (-3, -1, 1, 3) if n % e == 0):
                for L in (-2, 0, 1, 3):
                    for k in (-2, -1, 0, 1, 2):
                        for m in (-2, 0, 3):
                            c = PiElement(-1, L, ell)
                            lhs = geom_ratio(beta, 2 * n, 2 * ell) * RingElement.monomial(
                                PiElement(-1, m, 2 * k * ell)
                            )
                            a_exp, b_exp = 2 * k, 1 - n // ell
                            inner = RingElement.monomial(c**b_exp) * one_plus_ratio(
                                c, a_exp - b_exp
                            )
                            rhs = (
                                geom_ratio(c, 2 * n // ell, 1)
                                * inner
                                * RingElement.monomial(PiElement.alpha(-1, m))
                            )
                            assert congruent(lhs, rhs)


class TestCorrectionTerm:
    def test_construction(self):
        # (1-b^{-2n})/(1-b^2) b a^m ~ (1-b^{2n}) Z1 a^m (+ b^n a^m for odd n)
        beta = PiElement.beta(-1)
        for n in [k for k in range(-4, 5) if k]:
            if n % 2 == 0:
                z1 = -geom_ratio(beta, n, 2) * RingElement.monomial(
                    beta ** (1 - 2 * n)
                )
            else:
                z1 = -geom_ratio(beta, n - 1, 2) * RingElement.monomial(
                    beta ** (1 - 2 * n)
                )
            for m in range(-3, 4):
                a_m = RingElement.monomial(PiElement.alpha(-1, m))
                lhs = geom_ratio(beta, -2 * n, 2) * RingElement.monomial(beta) * a_m
                rhs = one_minus_pow(beta, 2 * n) * z1 * a_m
                if n % 2:
                    rhs = rhs + RingElement.monomial(PiElement.beta(-1, n)) * a_m
                assert congruent(lhs, rhs)
