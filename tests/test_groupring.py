import random

import pytest

from conftest import ADAPTED_MINUS, random_pi, random_word
from fgquad import (
    BasisTag,
    NotDivisible,
    NotInKernel,
    RingElement,
    Word,
    exact_divide,
    fox_derivative,
    parse_word,
    project,
    q_n,
    relator_in,
)
from fgquad.groupring import alt_geom_terms, conjugate_power_product, geom_terms, relator_jacobian_alpha
from oracles import PiElement, alt_geom_ratio, geom_ratio, naive_project, one_minus_pow, relator_jacobian_beta


def elt(eps, *terms):
    return RingElement.make(eps, terms)


def random_ring(rng: random.Random, eps: int, size: int = 4, span: int = 5) -> RingElement:
    return RingElement.make(
        eps,
        [(random_pi(rng, eps, span).pair, rng.randint(-3, 3)) for _ in range(rng.randint(0, size))],
    )


class TestRingAlgebra:
    def test_twisted_product(self):
        beta = elt(-1, ((0, 1), 1))
        alpha = elt(-1, ((1, 0), 1))
        assert beta * alpha == elt(-1, ((-1, 1), 1))

    def test_reduce_mod2(self):
        p = elt(-1, ((1, 0), 3), ((0, 1), 2))
        assert p.reduce_mod2() == RingElement.make(-1, [((1, 0), 1)], mod=2)

    def test_product_is_the_convolution_of_word_products(self, rng):
        # sum c_i u_i times sum d_j w_j is sum c_i d_j (u_i w_j), each product
        # projected one syllable at a time
        for eps in (1, -1):
            basis = BasisTag.adapted(eps)
            for _ in range(200):
                left = [(random_word(rng, basis, 4), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
                right = [(random_word(rng, basis, 4), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))]
                p = RingElement.make(eps, [(project(u), c) for u, c in left])
                q = RingElement.make(eps, [(project(w), d) for w, d in right])
                expected = [(naive_project(u * w).pair, c * d) for u, c in left for w, d in right]
                assert p * q == RingElement.make(eps, expected)

    def test_distributive(self, rng):
        for _ in range(200):
            p, q, r = (random_ring(rng, -1) for _ in range(3))
            assert p * (q + r) == p * q + p * r
            assert (p + q) * r == p * r + q * r


class TestGeomRatio:
    def test_even_sum(self):
        beta = PiElement(-1, 0, 1)
        assert geom_ratio(beta, 4, 2) == elt(-1, ((0, 0), 1), ((0, 2), 1))

    def test_negative(self):
        beta = PiElement(-1, 0, 1)
        assert geom_ratio(beta, -2, 2) == elt(-1, ((0, -2), -1))

    def test_zero(self):
        assert geom_ratio(PiElement(-1, 0, 1), 0, 2).is_zero

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            geom_terms(3, 2)
        with pytest.raises(NotDivisible):
            alt_geom_terms(6, 2)

    def test_defining_identity(self, rng):
        for _ in range(300):
            x = random_pi(rng, -1, 3)
            if x.is_identity:
                continue
            b = rng.choice([-3, -2, -1, 1, 2, 3])
            a = b * rng.randint(-4, 4)
            assert geom_ratio(x, a, b) * one_minus_pow(x, b) == one_minus_pow(x, a)


class TestAltGeomRatio:
    def test_positive_branch(self):
        c = PiElement(-1, 2, 1)
        assert alt_geom_ratio(c, 2, 1) == elt(-1, ((0, 0), 1), ((2, 1), -1))

    def test_negative_branch(self):
        c = PiElement(-1, 2, 1)
        assert alt_geom_ratio(c, 2, -1) == elt(-1, (c.pair, 1), ((c * c).pair, -1))

    def test_defining_identity(self, rng):
        one = RingElement.one(-1)
        for _ in range(300):
            x = random_pi(rng, -1, 3)
            if x.is_identity:
                continue
            ell = rng.choice([-3, -2, -1, 1, 2, 3])
            two_d = 2 * ell * rng.randint(-4, 4)
            got = alt_geom_ratio(x, two_d, ell)
            check = one + RingElement.monomial(-1, (x**ell).pair)
            assert got * check == one_minus_pow(x, two_d)


class TestFoxDerivative:
    def test_commutator_plus(self):
        w = parse_word("a b A B", BasisTag.adapted(1))
        assert fox_derivative(w, "a") == elt(1, ((0, 0), 1), ((0, 1), -1))

    def test_relator_minus(self):
        w = parse_word("a b a B", ADAPTED_MINUS)
        assert fox_derivative(w, "a") == elt(-1, ((0, 0), 1), ((1, 1), 1))

    def test_inverse_rule(self):
        w = parse_word("A", ADAPTED_MINUS)
        assert fox_derivative(w, "a") == elt(-1, ((-1, 0), -1))

    def test_unknown_generator(self):
        # any generator other than 'a' or 'b' is refused, not read as 'b'
        w = parse_word("a b", BasisTag.adapted(1))
        with pytest.raises(ValueError, match="'x'"):
            fox_derivative(w, "x")

    def test_product_rule(self, rng):
        for _ in range(200):
            u = random_word(rng, ADAPTED_MINUS, 4)
            v = random_word(rng, ADAPTED_MINUS, 4)
            for gen in "ab":
                got = fox_derivative(u * v, gen)
                expected = fox_derivative(u, gen) + RingElement.monomial(-1, project(u)) * fox_derivative(v, gen)
                assert got == expected


class TestExactDivide:
    def test_round_trip(self, rng):
        for eps in (1, -1):
            d = relator_jacobian_alpha(eps)
            for _ in range(500):
                lam = random_ring(rng, eps)
                assert exact_divide(lam * d, d) == lam

    def test_single_step(self):
        p = elt(-1, ((0, 1), 1), ((-1, 2), 1))
        d = relator_jacobian_alpha(-1)
        assert exact_divide(p, d) == elt(-1, ((0, 1), 1))

    def test_augmentation_obstruction(self):
        with pytest.raises(NotDivisible):
            exact_divide(RingElement.one(1), relator_jacobian_alpha(1))


class TestQn:
    def test_relator(self):
        for eps in (1, -1):
            assert q_n(relator_in(BasisTag.adapted(eps))) == RingElement.one(eps)

    def test_conjugate_product(self):
        w = parse_word("conj(a) R", ADAPTED_MINUS)
        assert q_n(w) == elt(-1, ((0, 0), 1), ((1, 0), 1))

    def test_power_word(self):
        w = parse_word("a^2 b a^2 B", ADAPTED_MINUS)
        assert q_n(w) == elt(-1, ((0, 0), 1), ((1, 0), 1))

    def test_not_in_kernel(self):
        with pytest.raises(NotInKernel):
            q_n(parse_word("a", ADAPTED_MINUS))

    def test_oracle_equivalence(self, rng):
        for case in range(1000):
            eps = -1 if case % 2 else 1
            factors = [
                (random_word(rng, BasisTag.adapted(eps), 3), rng.choice([-3, -2, -1, 1, 2, 3]))
                for _ in range(rng.randint(1, 4))
            ]
            w = conjugate_power_product(eps, factors)
            expected = RingElement.make(eps, [(project(u), n) for u, n in factors])
            assert q_n(w) == expected

    def test_additivity_equivariance(self, rng):
        for _ in range(500):
            eps = rng.choice([1, -1])
            basis = BasisTag.adapted(eps)
            w1 = conjugate_power_product(
                eps, [(random_word(rng, basis, 3), rng.randint(-2, 2))]
            )
            w2 = conjugate_power_product(
                eps, [(random_word(rng, basis, 3), rng.randint(-2, 2))]
            )
            assert q_n(w1 * w2) == q_n(w1) + q_n(w2)
            g = random_word(rng, basis, 3)
            assert q_n(g * w1 * g.inv()) == RingElement.monomial(eps, project(g)) * q_n(w1)

    def test_beta_column_consistency(self, rng):
        for eps in (1, -1):
            d_beta = relator_jacobian_beta(eps)
            for _ in range(100):
                factors = [
                    (random_word(rng, BasisTag.adapted(eps), 3), rng.randint(-2, 2))
                    for _ in range(2)
                ]
                w = conjugate_power_product(eps, factors)
                assert q_n(w) * d_beta == fox_derivative(w, "b")


class TestLemmaFixtures:
    def test_alpha_power_commutators(self):
        # q of alpha^L beta alpha^L beta^-1 is the geometric sum in alpha
        basis = ADAPTED_MINUS
        alpha, beta = Word.gen(basis, "a"), Word.gen(basis, "b")
        for L in range(-5, 6):
            w = alpha**L * beta * alpha**L * beta.inv()
            if L == 0:
                assert q_n(w).is_zero
            else:
                assert q_n(w) == geom_ratio(PiElement(-1, 1, 0), L, 1)

    def test_beta_conjugate_words(self):
        # beta^{-2n} (beta alpha^-L)^{2n} lies in the kernel and maps to
        # -beta * (1-beta^{-2n})/(1-beta^2) * (1-alpha^-L)/(1-alpha)
        basis = ADAPTED_MINUS
        alpha, beta = Word.gen(basis, "a"), Word.gen(basis, "b")
        beta_bar, alpha_bar = PiElement(-1, 0, 1), PiElement(-1, 1, 0)
        for n in [k for k in range(-4, 5) if k]:
            for L in range(-4, 5):
                c_l = beta * alpha**-L
                w = beta ** (-2 * n) * c_l ** (2 * n)
                assert project(w) == (0, 0)
                expected = RingElement.monomial(-1, beta_bar.pair, -1)
                expected = expected * geom_ratio(beta_bar, -2 * n, 2)
                if L:
                    expected = expected * geom_ratio(alpha_bar, -L, 1)
                else:
                    expected = RingElement.zero(-1)
                assert q_n(w) == expected

    def test_mixed_power_membership(self):
        # alpha^L beta^ell alpha^L beta^-ell lies in the kernel for odd ell
        basis = ADAPTED_MINUS
        alpha, beta = Word.gen(basis, "a"), Word.gen(basis, "b")
        for L in range(-3, 4):
            for ell in (-3, -1, 1, 3):
                w = alpha**L * beta**ell * alpha**L * beta**-ell
                assert project(w) == (0, 0)
                q_n(w)  # raises if the membership fails
