import random

import pytest

from conftest import ADAPTED_MINUS, ADAPTED_PLUS, mono, random_pi, random_word
from fgquad import (
    BasisTag,
    CaseMismatch,
    EquationSpec,
    HatAbs,
    MixedCase,
    NotMixedCase,
    PiElement,
    RingElement,
    Word,
    analyze_v,
    first_solutions,
    parse_word,
    project,
    q_n,
    same_orbit,
    second_decide,
)
from fgquad import derived
from fgquad.tables import locate
from fgquad.groupring import alt_geom_terms, geom_terms, series_word
from oracles import alt_geom_ratio, geom_ratio, naive_alt_rep_word, naive_geom_rep_word, one_minus_pow, rank1_check


def ring(eps, *terms):
    return RingElement.make(eps, terms)


SPEC_2NF = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
SPEC_3NF = EquationSpec(-1, 1, -1, "nonfaithful", "adapted_xy")
SPEC_4F = EquationSpec(-1, -1, -1, "faithful", "adapted_xy")
SPEC_4NF = EquationSpec(-1, -1, -1, "nonfaithful", "adapted_xy")


class TestAnalyzeV:
    def test_beta_square(self):
        data = analyze_v(*locate(SPEC_2NF, parse_word("b b", ADAPTED_MINUS)))
        assert data.case == MixedCase("eq2_nf", n=1)
        assert data.case.v0_word == parse_word("b b", ADAPTED_MINUS)
        assert data.V.is_zero

    def test_beta_square_with_conjugate(self):
        data = analyze_v(*locate(SPEC_2NF, parse_word("b b conj(a)", ADAPTED_MINUS)))
        assert data.case.n == 1
        assert data.V == ring(-1, ((1, 0), 1))

    def test_trivial_projection(self):
        data = analyze_v(*locate(SPEC_3NF, parse_word("conj(a) conj(A)", ADAPTED_PLUS)))
        assert data.case == MixedCase("eq3_nf", n=0, m=0)
        assert data.case.v0_word.is_identity
        assert data.V == ring(1, ((1, 0), 1), ((-1, 0), 1))

    def test_two_parameter_shape(self):
        data = analyze_v(*locate(SPEC_4NF, parse_word("(a b b)^2 conj(b)^-1", ADAPTED_MINUS)))
        assert data.case == MixedCase("eq4_nf", n=1, m=1)
        assert data.case.d == 1
        assert data.case.v0_word == parse_word("(a b b)^2", ADAPTED_MINUS)
        assert data.V == ring(-1, ((0, 1), -1))

    def test_not_mixed_names_branch(self):
        with pytest.raises(NotMixedCase) as exc:
            analyze_v(*locate(SPEC_2NF, parse_word("a b b", ADAPTED_MINUS)))
        assert exc.value.branch == "Table 2 (2c)"
        with pytest.raises(NotMixedCase) as exc:
            analyze_v(*locate(EquationSpec(1, 1, -1, "faithful", "adapted_xy"), parse_word("a", ADAPTED_PLUS)))
        assert exc.value.branch == "Table 1 (1)"


class TestFirstSolutions:
    def test_beta_family_entry(self):
        case = MixedCase("eq2_nf", n=1)
        sols = first_solutions(case, 2)
        entry = next(s for s in sols if s.L == 0 and s.ell == 1)
        assert entry.ybar == PiElement(-1, 0, 1)
        assert entry.xtilde == ring(-1, ((0, 0), 1), ((0, 1), 1))
        assert entry.x_word == parse_word("conj(b) R", ADAPTED_MINUS)
        assert entry.y_word == parse_word("b", ADAPTED_MINUS)

    def test_torus_alpha_entry(self):
        case = MixedCase("eq3_nf", n=0, m=1)
        sols = first_solutions(case, 2)
        entry = next(s for s in sols if s.ell == 1)
        assert entry.ybar == PiElement(1, 1, 0)
        assert entry.xtilde == ring(1, ((0, 0), 1), ((1, 0), -1))

    def test_trivial_projection_entries(self):
        case = MixedCase("eq3_nf", n=0, m=0)
        sols = first_solutions(case, 2)
        assert all(s.xtilde.is_zero and s.x_word.is_identity for s in sols)
        assert any(s.y_word == parse_word("a^2 b", ADAPTED_PLUS) for s in sols)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("eq2_nf", [(n, 0) for n in range(-4, 5)]),
            ("eq4_f", [(n, 0) for n in range(-4, 5)]),
            ("eq3_nf", [(n, m) for n in range(-3, 4) for m in range(-3, 4)]),
            ("eq4_nf", [(n, m) for n in range(-3, 4) for m in range(-3, 4)]),
        ],
    )
    def test_entries_selfcheck(self, kind, params):
        # every enumerated entry passes the internal equation and word checks
        for n, m in params:
            case = MixedCase(kind, n=n, m=m)
            sols = first_solutions(case, 2)
            assert sols

    @pytest.mark.parametrize("eps", [1, -1])
    def test_term_list_words_match_the_old_builders(self, eps):
        basis = BasisTag.adapted(eps)

        for c in (parse_word(text, basis) for text in ("b", "b A^2", "a B a")):
            for n in range(-12, 13):
                for ell in (k for k in range(-24, 25) if k and (2 * n) % k == 0):
                    assert series_word(c, geom_terms(2 * n, ell)) == naive_geom_rep_word(eps, c, n, ell)
                for ell in (k for k in range(-12, 13) if k and n % k == 0):
                    assert series_word(c, alt_geom_terms(2 * n, ell)) == naive_alt_rep_word(eps, c, n, ell)

    @pytest.mark.parametrize("kind", ["eq2_nf", "eq4_f", "eq3_nf", "eq4_nf"])
    def test_entry_words_match_the_old_builders(self, kind):
        for n in range(-12, 13):
            for m in (0, 1, -2, 6) if kind in ("eq3_nf", "eq4_nf") else (0,):
                case = MixedCase(kind, n=n, m=m)
                if m == n == 0 and case.has_two_params:
                    continue
                for sol in first_solutions(case, 2):
                    if case.has_two_params:
                        expected = naive_alt_rep_word(case.epsilon, case.c_word, case.d, sol.ell)
                    else:
                        c_l = Word.from_syllables(ADAPTED_MINUS, [(1, 1), (0, -sol.L)])
                        old = naive_geom_rep_word if kind == "eq2_nf" else naive_alt_rep_word
                        expected = old(-1, c_l, n, sol.ell)
                    assert sol.x_word == expected

    @pytest.mark.parametrize("eps", [1, -1])
    def test_series_words_read_off_the_ring_series(self, eps):
        # q_n of each representative word is the naive ring-side series,
        # over seeded bases and the MixedCase bases of both epsilon
        rng = random.Random(20 + eps)
        basis = BasisTag.adapted(eps)
        bases = [random_word(rng, basis, 4) for _ in range(12)]
        bases += [Word.from_syllables(basis, [(1, 1), (0, -L)]) for L in range(-2, 3)]
        kind = "eq3_nf" if eps == 1 else "eq4_nf"
        bases += [MixedCase(kind, n=n, m=m).c_word for n, m in ((1, 0), (2, 1), (-3, 6), (0, 2))]
        checked = 0
        for c in bases:
            c_bar = project(c)
            if c_bar.is_identity:
                continue
            for a in range(-8, 9):
                for b in (k for k in range(-8, 9) if k and a % k == 0):
                    assert q_n(series_word(c, geom_terms(a, b))) == geom_ratio(c_bar, a, b)
                    checked += 1
            for two_d in range(-12, 13, 2):
                for ell in (k for k in range(-6, 7) if k and (two_d // 2) % k == 0):
                    assert q_n(series_word(c, alt_geom_terms(two_d, ell))) == alt_geom_ratio(c_bar, two_d, ell)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("kind,n,m", [("eq2_nf", 3, 0), ("eq4_f", -3, 0), ("eq3_nf", 2, 4), ("eq4_nf", 1, 2)])
    def test_a_series_word_missing_a_term_fails_the_equation(self, monkeypatch, kind, n, m):
        # the first derived equation is the only check of a ring series: a
        # representative word that drops one term of its series is caught
        def dropped(c, terms):
            return series_word(c, terms[1:])

        monkeypatch.setattr(derived, "series_word", dropped)
        case = MixedCase(kind, n=n, m=m)
        with pytest.raises(CaseMismatch, match="first derived equation fails"):
            first_solutions(case, 1)

    def test_rank1_holds_on_entries(self):
        for kind, n, m in [("eq2_nf", 2, 0), ("eq4_f", 3, 0), ("eq3_nf", 2, 4), ("eq4_nf", 1, 2)]:
            case = MixedCase(kind, n=n, m=m)
            for sol in first_solutions(case, 2):
                assert rank1_check(case.vbar, sol.ybar, case.delta, -1) is not None


class TestNecessity:
    def test_oracle_solutions_satisfy_first_derived(self):
        # solutions found by the search with x in the relator subgroup project
        # onto solutions of the first derived equation, and rank-1 holds
        from fgquad import equation_rhs, wicks_search
        from fgquad.words import cyclic_reduce

        rng = random.Random(51)
        specs = [SPEC_2NF, SPEC_3NF, SPEC_4F, SPEC_4NF]
        checked = 0
        while checked < 40:
            spec = rng.choice(specs)
            basis = spec.basis
            u = random_word(rng, basis, 2)
            head = Word.gen(basis, "b") ** (2 * rng.randint(0, 1))
            v = head * (u * parse_word("R", basis) * u.inv()) ** rng.choice([-1, 0, 1])
            core, _ = cyclic_reduce(equation_rhs(spec, v))
            if len(core) > 24:
                continue
            vbar = project(v)
            report = wicks_search(spec, v)
            found = False
            for (x, y), _ in report.solutions:
                if not project(x).is_identity:
                    continue
                found = True
                xtilde, ybar = q_n(x), project(y)
                one = RingElement.one(spec.epsilon)
                lhs = (one - mono(ybar, spec.delta)) * xtilde
                rhs = one + mono(vbar, spec.theta)
                assert lhs == rhs
                assert rank1_check(vbar, ybar, spec.delta, spec.theta) is not None
            if found:
                checked += 1


class TestRank1:
    def test_examples(self):
        assert rank1_check(PiElement(-1, 0, 2), PiElement(-1, 0, 1), 1, -1) == 2
        assert rank1_check(PiElement(-1, 0, 3), PiElement(-1, 0, 2), 1, -1) is None
        assert rank1_check(PiElement(-1, 0, 0), PiElement(-1, 2, 1), -1, -1) == 0

    def test_sign_condition(self):
        # k exists as an exponent but the character condition fails
        assert rank1_check(PiElement(-1, 0, 2), PiElement(-1, 0, 2), 1, 1) is None
        assert rank1_check(PiElement(-1, 0, 1), PiElement(-1, 0, 1), -1, 1) == 1


class TestSecondDecideDegenerate:
    def test_folding_solvable(self):
        case = MixedCase("eq3_nf", 0, 0)
        v = ring(1, ((1, 0), 1), ((-1, 0), 1))
        assert second_decide(case, v).solvable

    def test_single_term_unsolvable(self):
        case = MixedCase("eq3_nf", 0, 0)
        result = second_decide(case, ring(1, ((1, 0), 1)))
        assert not result.solvable and "(1,0)" in result.certificate

    def test_eq2_zero_case(self):
        case = MixedCase("eq2_nf", 0)
        assert second_decide(case, ring(-1, ((2, 0), 1), ((-2, 0), 1))).solvable
        assert not second_decide(case, ring(-1, ((2, 0), 1), ((-2, 0), 2))).solvable

    def test_eq4f_zero_case(self):
        case = MixedCase("eq4_f", 0)
        assert second_decide(case, ring(-1, ((2, 0), 2))).solvable
        assert not second_decide(case, ring(-1, ((2, 0), 1))).solvable


class TestSecondDecideSquares:
    def test_orbit_parity_obstruction(self):
        case = MixedCase("eq4_nf", n=0, m=1)
        result = second_decide(case, ring(-1, ((0, 2), 1)))
        assert not result.solvable
        assert "odd augmentation" in result.certificate

    def test_soundness_fuzz(self, rng):
        hits = 0
        while hits < 500:
            kind = rng.choice(["eq3_nf", "eq4_nf"])
            m, n = rng.randint(-3, 3), rng.randint(-3, 3)
            if m == 0 and n == 0:
                continue
            case = MixedCase(kind, n=n, m=m)
            eps = case.epsilon
            u = case.c_bar**case.d
            z = RingElement.make(
                eps, [(random_pi(rng, eps, 4).pair, rng.randint(-2, 2)) for _ in range(3)]
            )
            v = (RingElement.one(eps) - mono(u)) * z
            for _ in range(rng.randint(0, 3)):
                g = random_pi(rng, eps, 4)
                if g.is_identity:
                    continue
                v = v + mono(g) + mono(g.inv())
            result = second_decide(case, v)
            assert result.solvable and result.ell == case.d
            hits += 1

    def test_completeness_fuzz(self, rng):
        hits = 0
        while hits < 500:
            kind = rng.choice(["eq3_nf", "eq4_nf"])
            m, n = rng.randint(-3, 3), rng.randint(-3, 3)
            if m == 0 and n == 0:
                continue
            case = MixedCase(kind, n=n, m=m)
            g = random_pi(rng, case.epsilon, 5)
            if same_orbit(HatAbs(case.c_bar**case.d), g.pair, (0, 0)):
                continue
            result = second_decide(case, mono(g))
            assert not result.solvable and result.certificate is not None
            hits += 1

    @pytest.mark.parametrize("kind, m, n", [("eq3_nf", 2, 3), ("eq4_nf", 1, -2), ("eq4_nf", 3, 0)])
    def test_one_orbit_key_per_term(self, monkeypatch, kind, m, n):
        # the orbit partition is linear: one key per support element plus
        # the identity's, however many orbits the support meets
        calls = 0
        real = derived.orbit_key

        def counting(action, g):
            nonlocal calls
            calls += 1
            return real(action, g)

        monkeypatch.setattr(derived, "orbit_key", counting)
        case = MixedCase(kind, n=n, m=m)
        eps = case.epsilon
        v = RingElement.make(eps, [((r, s), 1) for r in range(-12, 13) for s in range(-12, 13)])
        result = derived._squares_decide(case, v)
        assert result.trace["orbits"] > 20
        assert calls <= 2 * len(v.terms) + 1

    def test_kernel_invariance(self, rng):
        for _ in range(100):
            kind = rng.choice(["eq3_nf", "eq4_nf"])
            m, n = rng.randint(-2, 2), rng.randint(-2, 2)
            if m == 0 and n == 0:
                continue
            case = MixedCase(kind, n=n, m=m)
            eps = case.epsilon
            v = RingElement.make(
                eps, [(random_pi(rng, eps, 4).pair, rng.randint(-2, 2)) for _ in range(3)]
            )
            base = second_decide(case, v).solvable
            u = case.c_bar**case.d
            z = RingElement.make(
                eps, [(random_pi(rng, eps, 4).pair, rng.randint(-2, 2)) for _ in range(2)]
            )
            perturbed = v + (RingElement.one(eps) - mono(u)) * z
            g = random_pi(rng, eps, 4)
            if not g.is_identity:
                perturbed = perturbed + mono(g) + mono(g.inv())
            assert second_decide(case, perturbed).solvable == base


class TestSecondDecideBetaPowers:
    def test_zero_v_solvable_small_window(self):
        result = second_decide(MixedCase("eq2_nf", n=1), RingElement.zero(-1))
        assert result.solvable and result.ell == 1 and result.L == 0

    def test_construction_soundness(self, rng):
        # V of the solvable normal form must be accepted, for both families
        hits = 0
        while hits < 60:
            kind = rng.choice(["eq2_nf", "eq4_f"])
            n = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            case = MixedCase(kind, n=n)
            from fgquad.orbits import odd_part

            ell = odd_part(n)
            l0 = rng.randint(-3, 3)
            c_star = PiElement(-1, l0, ell)
            alpha = PiElement(-1, 1, 0)
            ratio = geom_ratio(c_star, 2 * n // ell, 1)
            z = RingElement.make(
                -1, [(random_pi(rng, -1, 3).pair, rng.randint(-2, 2)) for _ in range(3)]
            )
            if n % 2 == 0:
                c1 = RingElement.zero(-1)
                d_term = RingElement.zero(-1)
            else:
                base = geom_ratio(alpha, l0, 1) if l0 else RingElement.zero(-1)
                if n > 0:
                    c1 = base
                else:
                    c1 = mono(PiElement(-1, l0, -n), -1) * base
                d_term = -base
            v = ratio * (z + c1) + d_term
            for _ in range(rng.randint(0, 2)):
                g = random_pi(rng, -1, 3)
                if g.is_identity:
                    continue
                v = v + mono(g) + mono(g.inv())
            result = second_decide(case, v)
            assert result.solvable, f"{case.label()} L0={l0} V={v}"
            hits += 1

    def test_single_term_obstructions(self, rng):
        # a lone support element far from any solvable normal form is refused
        case = MixedCase("eq2_nf", n=2)
        result = second_decide(case, ring(-1, ((1, 1), 1)))
        assert not result.solvable
        case = MixedCase("eq4_f", n=1)
        result = second_decide(case, ring(-1, ((2, 1), 1)))
        assert not result.solvable

    def test_kernel_and_ratio_invariance(self, rng):
        # verdicts are stable under adding kernel elements and full
        # (1 - vbar)-multiples, which are ratio multiples for every L
        for _ in range(120):
            kind = rng.choice(["eq2_nf", "eq4_f"])
            n = rng.choice([-3, -2, -1, 1, 2, 3, 4])
            case = MixedCase(kind, n=n)
            v = RingElement.make(
                -1, [(random_pi(rng, -1, 3).pair, rng.randint(-2, 2)) for _ in range(3)]
            )
            base = second_decide(case, v).solvable
            w = RingElement.make(
                -1, [(random_pi(rng, -1, 3).pair, rng.randint(-2, 2)) for _ in range(2)]
            )
            beta = PiElement(-1, 0, 1)
            perturbed = v + one_minus_pow(beta, 2 * n) * w
            perturbed = perturbed + mono(PiElement.identity(-1), rng.randint(-2, 2))
            g = random_pi(rng, -1, 3)
            if not g.is_identity:
                perturbed = perturbed + mono(g) + mono(g.inv())
            assert second_decide(case, perturbed).solvable == base, (
                f"{case.label()} V={v} perturbed={perturbed}"
            )

    def test_unsolvable_even_fails_beyond_window(self):
        # when the pair conditions exhaust the window for even n, parameters
        # beyond it fail too: every |L| > 2 r_alpha acts like the window's -bound
        from fgquad.orbits import TildeL, odd_part
        from oracles import augment_at, naive_pair_candidates

        pair_unsolvable = []
        terms = [
            [((1, 2), 1), ((1, 8), 1)],
            [((0, 2), 1), ((0, 8), 1)],
            [((2, 2), 1), ((2, 8), 1)],
            [((1, 2), 1), ((1, 8), 1), ((2, 4), 1), ((2, 10), 1)],
            [((2, 1), 1), ((2, 7), 1)],
        ]
        for n in (6, -6):
            for spec_terms in terms:
                case = MixedCase("eq2_nf", n=n)
                v = ring(-1, *spec_terms)
                result = second_decide(case, v)
                if not result.solvable and "pair" in (result.certificate or ""):
                    pair_unsolvable.append((n, v, result))
        assert len(pair_unsolvable) >= 5
        for n, v, result in pair_unsolvable[:12]:
            ell = odd_part(n)
            bound = result.trace["window"][1]
            for L in (bound + 4, bound + 9, -bound - 5):
                action = TildeL(n, L)
                u_l = PiElement(-1, L, ell)
                ok = all(
                    augment_at(action, v, g) == augment_at(action, v, u_l * g)
                    for g in naive_pair_candidates(n, ell, L, v, 2 * abs(n))
                )
                assert not ok, f"n={n} V={v}: conditions pass at L={L} beyond window"

    @pytest.mark.parametrize("n", [3, -5, 6, 10])
    def test_exhausted_window_augments_grow_with_the_window(self, monkeypatch, n):
        # each parameter stops at its first failing candidate, so an exhausted
        # window costs a few augmentations per L whatever the support size,
        # where the candidate sets alone hold about |window| * |support|
        calls = 0
        real = derived.augment

        def counting(action, v, base):
            nonlocal calls
            calls += 1
            return real(action, v, base)

        monkeypatch.setattr(derived, "augment", counting)
        ell = derived.odd_part(n)
        case = MixedCase("eq2_nf", n=n)
        for size in (50, 400):
            # terms come with a chain partner 2*ell higher, so even n gets
            # past the chain condition to the pair conditions; |r| up to 400
            # gives a window of about 800 values of L on each side
            for spread in (100, 400):
                rng = random.Random(size)
                terms = [((spread, 2), 1), ((spread, 2 + 2 * ell), 1)]
                for _ in range(size // 2):
                    r, s = rng.randint(-spread, spread), rng.randint(-40, 40)
                    terms += [((r, s), 1), ((r, s + 2 * ell), 1)]
                v = ring(-1, *terms)
                calls = 0
                result = second_decide(case, v)
                assert result.trace.get("window_exhausted"), (size, spread)
                lo, hi = result.trace["window"]
                assert hi > 2 * spread
                assert calls <= 6 * (hi - lo + 2), (size, spread, calls)
