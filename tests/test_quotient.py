import random

import pytest

from conftest import ADAPTED_MINUS, mono, random_pi
from fgquad import (
    CaseMismatch,
    DomainMismatch,
    EpsilonMismatch,
    MixedCase,
    PiElement,
    RingElement,
    Word,
    p_q,
    parse_word,
    second_decide,
)
from oracles import alt_geom_ratio, geom_ratio, naive_q_classes, one_minus_pow, q_nf_commutator
from test_groupring import random_ring


def term(eps, r, s, c=1):
    return RingElement.monomial(eps, (r, s), c)


def one_plus_ratio(x: PiElement, c: int) -> RingElement:
    """(1 + x**c) / (1 + x) for odd c, verified by multiplying back."""
    assert c % 2
    eps = x.epsilon
    if c > 0:
        out = RingElement.make(eps, [((x**j).pair, (-1) ** j) for j in range(c)])
    else:
        out = RingElement.make(eps, [((x ** (c + j)).pair, (-1) ** j) for j in range(-c)])
    check = RingElement.one(eps) + mono(x)
    target = RingElement.one(eps) + mono(x**c)
    assert out * check == target
    return out


def on_representative(g: tuple[int, int]) -> bool:
    r, s = g
    return s > 0 or (s == 0 and r > 0)


class TestPq:
    def test_identity_killed(self):
        assert p_q(term(-1, 0, 0, 5)).is_zero

    def test_inverse_pairs_fold(self, rng):
        for _ in range(200):
            g = random_pi(rng, -1, 6)
            if g.is_identity:
                continue
            p = mono(g) + mono(g.inv())
            assert p_q(p).is_zero

    def test_folding_coefficients(self):
        p = term(1, 1, 0, 2) + term(1, -1, 0, 1)
        assert p_q(p) == term(1, 1, 0)

    def test_kernel_invariance(self, rng):
        for _ in range(100):
            p = random_ring(rng, -1)
            noise = mono(PiElement.identity(-1), rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4)):
                g = random_pi(rng, -1, 6)
                if g.is_identity:
                    continue
                c = rng.randint(-2, 2)
                noise = noise + mono(g, c) + mono(g.inv(), c)
            assert p_q(p + noise) == p_q(p)

    def test_mod2_domain(self, rng):
        for _ in range(100):
            p = random_ring(rng, -1)
            assert p_q(p.reduce_mod2()) == p_q(p).reduce_mod2()

    @pytest.mark.parametrize("eps", [1, -1])
    @pytest.mark.parametrize("mod", [0, 2])
    def test_matches_the_pairwise_oracle(self, eps, mod):
        # V is a sum of pairs c*(g + g^-1), which vanish in Q, and of the
        # identity, plus now and then a few monomials with odd or even
        # coefficients, so that both answers of each test come up
        rng = random.Random(21 + 10 * eps + mod)
        seen = set()
        for _ in range(400):
            items = [((0, 0), rng.randint(-3, 3))]
            for _ in range(rng.randint(0, 4)):
                g, c = random_pi(rng, eps, 4), rng.randint(-3, 3)
                items += [(g.pair, c), (g.inv().pair, c)]
            if rng.random() < 0.5:
                scale = rng.choice((1, 2))
                items += [(random_pi(rng, eps, 4).pair, scale * rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
            v = RingElement.make(eps, items, mod)
            values = naive_q_classes(v).values()
            kept = [c for c in values if (c % 2 if mod else c)]
            q = p_q(v)
            assert (q.epsilon, q.mod) == (eps, mod)
            assert all(on_representative(g) for g in q.terms)
            assert len(q.terms) == len(kept)
            assert q.is_zero == (not kept)
            assert q.reduce_mod2().is_zero == all(c % 2 == 0 for c in values)
            seen.add((q.is_zero, q.reduce_mod2().is_zero))
        both = {(True, True), (False, False)}
        assert seen == (both | {(False, True)} if mod == 0 else both)


class TestSparseSum:
    @pytest.mark.parametrize(
        "make",
        [RingElement.make, lambda eps, items, mod=0: p_q(RingElement.make(eps, items, mod))],
        ids=["RingElement", "p_q"],
    )
    def test_mixed_operands(self, make):
        g = (1, 1)
        x = make(-1, [(g, 1)])
        with pytest.raises(EpsilonMismatch):
            x + make(1, [(g, 1)])
        with pytest.raises(DomainMismatch):
            x - make(-1, [(g, 1)], mod=2)

    def test_str_and_negation(self):
        g = PiElement(-1, 1, 1)
        assert p_q(mono(g)) == p_q(mono(g.inv(), -1))
        x = p_q(RingElement.make(-1, [((0, -2), -1), ((1, 0), 3)]))
        assert str(x) == "{(1,0): 3, (0,2): 1}"
        assert str(-x) == "{(1,0): -3, (0,2): -1}"
        assert (x - x).is_zero and str(x - x) == "0"


class TestCommutatorImage:
    def test_basic(self):
        basis = ADAPTED_MINUS
        one = Word.identity(basis)
        alpha = Word.gen(basis, "a")
        got = q_nf_commutator([(one, 1)], [(alpha, 1)])
        assert got == term(-1, 1, 0)

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
    """An element of Q is divisible by 2 when its reduction mod 2 is zero."""

    def test_examples(self):
        g, h = (1, 1), (0, 2)
        assert p_q(RingElement.make(-1, [(g, 2), (h, -4)])).reduce_mod2().is_zero
        assert p_q(RingElement.make(-1, [(g, 1), ((1, -1), 1)])).reduce_mod2().is_zero
        assert not p_q(RingElement.make(-1, [(g, 1)])).reduce_mod2().is_zero
        assert p_q(RingElement.zero(-1)).reduce_mod2().is_zero

    def test_domain_guard(self):
        # the divisibility test of eq4_f at n == 0 reads integer coefficients:
        # a mod-2 V is refused before it
        v = RingElement.make(-1, [((1, 1), 1)], mod=2)
        with pytest.raises(CaseMismatch):
            second_decide(MixedCase("eq4_f", n=0), v)

    def test_matches_mod2_projection(self, rng):
        for _ in range(200):
            p = random_ring(rng, -1)
            assert p_q(p).reduce_mod2().is_zero == p_q(p.reduce_mod2()).is_zero


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
                lhs = geom_ratio(x, 2 * k, 1) * mono(x ** (1 - k))
                assert congruent(lhs, mono(x**k))

    def test_shifted_even_ratio_vanishes(self, rng):
        for eps in (1, -1):
            for _ in range(150):
                x = random_pi(rng, eps, 5)
                if x.is_identity:
                    continue
                k = rng.randint(-6, 6)
                lhs = geom_ratio(x, 2 * k, 2) * mono(x ** (1 - k))
                assert p_q(lhs).is_zero

    def test_centered_even_ratio(self, rng):
        for eps in (1, -1):
            for _ in range(150):
                x = random_pi(rng, eps, 5)
                if x.is_identity:
                    continue
                k = rng.randint(-6, 6)
                lhs = geom_ratio(x, 2 * k, 2) * mono(x**-k)
                assert congruent(lhs, mono(x**-k))


class TestCorollaryCongruences:
    def test_beta_power_representation(self):
        # beta^n ~ (1-beta^{2n})/(1-c) * alpha^L beta^{ell-n}, c = alpha^L beta^ell
        for n in (-4, -2, 2, 4):
            for ell in (e for e in (-3, -1, 1, 3) if n % e == 0):
                for L in range(-3, 4):
                    c = PiElement(-1, L, ell)
                    lhs = mono(PiElement(-1, 0, n))
                    rhs = geom_ratio(c, 2 * n // ell, 1) * mono(
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
            base = geom_ratio(x, 2 * k, 2) * mono(x ** (2 * m))
            # (x^{2m} - x^{1-k}) / (1 - x)
            diff = mono(x ** (1 - k), -1) * geom_ratio(x, 2 * m - 1 + k, 1)
            first = alt_geom_ratio(x, 2 * k, 1) * diff
            assert congruent(base, first)
            # (x^{2m} + (-1)^k x^{1-k}) / (1 + x)
            c_exp = 2 * m - 1 + k
            if k % 2 == 0:
                summ = mono(x ** (1 - k)) * one_plus_ratio(x, c_exp)
            else:
                summ = mono(x ** (1 - k), -1) * alt_geom_ratio(x, c_exp, 1)
            second = geom_ratio(x, 2 * k, 1) * summ
            assert congruent(base, second)

    def test_mixed_translate_form(self):
        # (1-b^{2n})/(1-b^{2l}) b^{2kl} a^m ~ (1-b^{2n})/(1-c) (b^{2kl}+c b^{-n})/(1+c) a^m
        beta = PiElement(-1, 0, 1)
        for n in (-4, -2, 2, 4):
            for ell in (e for e in (-3, -1, 1, 3) if n % e == 0):
                for L in (-2, 0, 1, 3):
                    for k in (-2, -1, 0, 1, 2):
                        for m in (-2, 0, 3):
                            c = PiElement(-1, L, ell)
                            lhs = geom_ratio(beta, 2 * n, 2 * ell) * mono(
                                PiElement(-1, m, 2 * k * ell)
                            )
                            a_exp, b_exp = 2 * k, 1 - n // ell
                            inner = mono(c**b_exp) * one_plus_ratio(
                                c, a_exp - b_exp
                            )
                            rhs = (
                                geom_ratio(c, 2 * n // ell, 1)
                                * inner
                                * mono(PiElement(-1, m, 0))
                            )
                            assert congruent(lhs, rhs)


class TestCorrectionTerm:
    def test_construction(self):
        # (1-b^{-2n})/(1-b^2) b a^m ~ (1-b^{2n}) Z1 a^m (+ b^n a^m for odd n)
        beta = PiElement(-1, 0, 1)
        for n in [k for k in range(-4, 5) if k]:
            if n % 2 == 0:
                z1 = -geom_ratio(beta, n, 2) * mono(
                    beta ** (1 - 2 * n)
                )
            else:
                z1 = -geom_ratio(beta, n - 1, 2) * mono(
                    beta ** (1 - 2 * n)
                )
            for m in range(-3, 4):
                a_m = mono(PiElement(-1, m, 0))
                lhs = geom_ratio(beta, -2 * n, 2) * mono(beta) * a_m
                rhs = one_minus_pow(beta, 2 * n) * z1 * a_m
                if n % 2:
                    rhs = rhs + mono(PiElement(-1, 0, n)) * a_m
                assert congruent(lhs, rhs)
