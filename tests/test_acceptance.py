"""Acceptance criteria, one test per criterion, with stated budgets.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per criterion.
"""

import random
import time

import fgquad.wicks
from conftest import ADAPTED_MINUS, mono, random_pi, random_word
from fgquad import (
    BasisTag,
    EquationSpec,
    HatAbs,
    MixedCase,
    RingElement,
    Word,
    classify,
    cyclic_reduce,
    equation_rhs,
    first_solutions,
    parse_word,
    project,
    q_n,
    same_orbit,
    second_decide,
    verify_tables,
    wicks_decompositions,
    wicks_search,
)
from fgquad.groupring import conjugate_power_product
from oracles import PiElement, geom_ratio, naive_wicks_decompositions, nonempty, one_minus_pow, squares_u
from test_cli import GOLDEN_DIR, GOLDEN_INVOCATIONS, run_cli
from test_orbits import HAT_ABS_MINUS, HAT_ABS_PLUS, HAT_L, TILDE, TILDE_L, assert_box_agreement
from test_quotient import congruent


def report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"acceptance {number} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_table_fixtures():
    started = time.perf_counter()
    table_report = verify_tables()
    assert table_report.failures == []
    assert table_report.checked >= 60
    report(1, "table fixtures", started, 1.0)


def test_criterion_2_wicks_example():
    started = time.perf_counter()
    spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
    v = parse_word("conj(a) conj(A)", ADAPTED_MINUS)
    core, _ = cyclic_reduce(equation_rhs(spec, v))
    assert len(core) == 26
    matches = nonempty(wicks_decompositions(core, "commutator"))
    shifts = sorted(m.shift for m in matches)
    assert shifts == [0, 1, 6, 7, 8, 9, 10, 13, 14, 19, 20, 21, 22, 23]
    kinds = {m.shift: m.form for m in matches}
    for i in (0, 1, 10, 13, 14, 23):
        assert kinds[i] == "orientable_abc"
    for i in (6, 7, 8, 9, 19, 20, 21, 22):
        assert kinds[i] == "orientable_de"
    wicks = wicks_search(spec, v)
    assert wicks.solutions
    assert all(faithful for _, faithful in wicks.solutions)
    verdict = classify(spec, v)
    assert verdict.outcome == "not_exists" and verdict.reason == "wicks_exhaustive"
    report(2, "commutator-form example", started, 1.0)


def test_criterion_3_first_derived():
    started = time.perf_counter()
    entries = 0

    def recheck(case, sols):
        # external re-verification of the ring identity per entry (the word
        # checks run inside the enumerator)
        one = RingElement.one(case.epsilon)
        rhs = one + RingElement.monomial(case.epsilon, case.vbar, -1)
        for sol in sols:
            lhs = (one - RingElement.monomial(case.epsilon, sol.ybar, case.delta)) * sol.xtilde
            assert lhs == rhs
        return len(sols)

    for n in range(-6, 7):
        for kind in ("eq2_nf", "eq4_f"):
            case = MixedCase(kind, n=n)
            entries += recheck(case, first_solutions(case, 2))
    for n in range(-6, 7):
        for m in range(-6, 7):
            for kind in ("eq3_nf", "eq4_nf"):
                case = MixedCase(kind, n=n, m=m)
                entries += recheck(case, first_solutions(case, 2))
    assert entries == 1486  # deterministic enumeration size at bound 2
    report(3, "first derived equation", started, 5.0)


def test_criterion_4_qn_oracle():
    started = time.perf_counter()
    rng = random.Random(4)
    for case in range(1000):
        eps = -1 if case % 2 else 1
        basis = BasisTag.adapted(eps)
        factors = [
            (random_word(rng, basis, 3), rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(1, 3))
        ]
        w = conjugate_power_product(eps, factors)
        assert q_n(w) == RingElement.make(eps, [(project(u), k) for u, k in factors])
    for _ in range(200):
        eps = rng.choice([1, -1])
        basis = BasisTag.adapted(eps)
        w1 = conjugate_power_product(eps, [(random_word(rng, basis, 3), rng.randint(-2, 2))])
        w2 = conjugate_power_product(eps, [(random_word(rng, basis, 3), rng.randint(-2, 2))])
        assert q_n(w1 * w2) == q_n(w1) + q_n(w2)
        g = random_word(rng, basis, 3)
        assert q_n(g * w1 * g.inv()) == RingElement.monomial(eps, project(g)) * q_n(w1)
    report(4, "group-ring projection oracle", started, 5.0)


def test_criterion_5_lemma_suite():
    started = time.perf_counter()
    rng = random.Random(5)
    basis = ADAPTED_MINUS
    alpha_w, beta_w = Word.gen(basis, "a"), Word.gen(basis, "b")
    alpha, beta = PiElement(-1, 1, 0), PiElement(-1, 0, 1)
    # alpha-power commutator words
    for L in range(-5, 6):
        w = alpha_w**L * beta_w * alpha_w**L * beta_w.inv()
        expected = geom_ratio(alpha, L, 1) if L else RingElement.zero(-1)
        assert q_n(w) == expected
    # beta-conjugate words
    for n in [k for k in range(-4, 5) if k]:
        for L in range(-4, 5):
            w = beta_w ** (-2 * n) * (beta_w * alpha_w**-L) ** (2 * n)
            assert project(w) == (0, 0)
            expected = mono(beta, -1) * geom_ratio(beta, -2 * n, 2)
            expected = expected * geom_ratio(alpha, -L, 1) if L else RingElement.zero(-1)
            assert q_n(w) == expected
    # shifted-ratio congruences
    for eps in (1, -1):
        for _ in range(100):
            x = random_pi(rng, eps, 5)
            if x.is_identity:
                continue
            k = rng.randint(-6, 6)
            assert congruent(
                geom_ratio(x, 2 * k, 1) * mono(x ** (1 - k)),
                mono(x**k),
            )
            assert congruent(
                geom_ratio(x, 2 * k, 2) * mono(x ** (1 - k)),
                RingElement.zero(eps),
            )
            assert congruent(
                geom_ratio(x, 2 * k, 2) * mono(x**-k),
                mono(x**-k),
            )
    # beta-power representation and split forms
    for n in (-4, -2, 2, 4):
        for ell in (e for e in (-3, -1, 1, 3) if n % e == 0):
            for L in range(-3, 4):
                c = PiElement(-1, L, ell)
                assert congruent(
                    mono(PiElement(-1, 0, n)),
                    geom_ratio(c, 2 * n // ell, 1)
                    * mono(PiElement(-1, L, ell - n)),
                )
    # correction-term identity
    for n in [k for k in range(-4, 5) if k]:
        exp = n if n % 2 == 0 else n - 1
        z1 = -geom_ratio(beta, exp, 2) * mono(beta ** (1 - 2 * n))
        for m in range(-3, 4):
            a_m = mono(PiElement(-1, m, 0))
            lhs = geom_ratio(beta, -2 * n, 2) * mono(beta) * a_m
            rhs = one_minus_pow(beta, 2 * n) * z1 * a_m
            if n % 2:
                rhs = rhs + mono(PiElement(-1, 0, n)) * a_m
            assert congruent(lhs, rhs)
    report(5, "lemma suite", started, 10.0)


def test_criterion_6_orbit_closed_forms():
    started = time.perf_counter()
    for family in (HAT_ABS_PLUS, HAT_ABS_MINUS, TILDE, TILDE_L, HAT_L):
        assert len(family) >= 10
        for action in family:
            assert_box_agreement(action, radius=12, explore=48)
    report(6, "orbit closed forms vs closure", started, 30.0)


def test_criterion_7_decider_fuzz():
    started = time.perf_counter()
    rng = random.Random(7)
    accepted = rejected = 0
    while accepted < 500:
        kind = rng.choice(["eq3_nf", "eq4_nf"])
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        if m == 0 and n == 0:
            continue
        case = MixedCase(kind, n=n, m=m)
        eps = case.epsilon
        u = squares_u(case)
        z = RingElement.make(eps, [(random_pi(rng, eps, 4).pair, rng.randint(-2, 2)) for _ in range(3)])
        v = (RingElement.one(eps) - mono(u)) * z
        for _ in range(rng.randint(0, 3)):
            g = random_pi(rng, eps, 4)
            if not g.is_identity:
                v = v + mono(g) + mono(g.inv())
        result = second_decide(case, v)
        assert result.solvable and result.ell == case.d
        accepted += 1
    while rejected < 500:
        kind = rng.choice(["eq3_nf", "eq4_nf"])
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        if m == 0 and n == 0:
            continue
        case = MixedCase(kind, n=n, m=m)
        g = random_pi(rng, case.epsilon, 5)
        if same_orbit(HatAbs(case.epsilon, squares_u(case).pair), g.pair, (0, 0)):
            continue
        result = second_decide(case, mono(g))
        assert not result.solvable and result.certificate is not None
        rejected += 1
    for _ in range(100):
        kind = rng.choice(["eq3_nf", "eq4_nf"])
        m, n = rng.randint(-2, 2), rng.randint(-2, 2)
        if m == 0 and n == 0:
            continue
        case = MixedCase(kind, n=n, m=m)
        eps = case.epsilon
        v = RingElement.make(eps, [(random_pi(rng, eps, 4).pair, rng.randint(-2, 2)) for _ in range(3)])
        base = second_decide(case, v).solvable
        u = squares_u(case)
        z = RingElement.make(eps, [(random_pi(rng, eps, 4).pair, rng.randint(-2, 2)) for _ in range(2)])
        perturbed = v + (RingElement.one(eps) - mono(u)) * z
        g = random_pi(rng, eps, 4)
        if not g.is_identity:
            perturbed = perturbed + mono(g) + mono(g.inv())
        assert second_decide(case, perturbed).solvable == base
    report(7, "decider soundness/completeness", started, 30.0)


def test_criterion_8_oracle_consistency(monkeypatch):
    # the classifier runs the library matcher; the cross-check runs the naive one
    started = time.perf_counter()
    rng = random.Random(8)
    checked = 0
    while checked < 300:
        spec = EquationSpec(
            rng.choice([1, -1]),
            rng.choice([1, -1]),
            rng.choice([1, -1]),
            rng.choice(["faithful", "nonfaithful"]),
            "adapted_xy",
        )
        v = random_word(rng, spec.basis, 3)
        core, _ = cyclic_reduce(equation_rhs(spec, v))
        if len(core) > 40:
            continue
        checked += 1
        verdict = classify(spec, v)
        if verdict.outcome != "not_exists":
            continue
        wanted = spec.solution_class == "faithful"
        with monkeypatch.context() as patch:
            patch.setattr(fgquad.wicks, "wicks_decompositions", naive_wicks_decompositions)
            solutions = wicks_search(spec, v).solutions
        hits = [pair for pair, faithful in solutions if faithful == wanted]
        assert not hits, f"{spec} v={v}: classifier said not_exists, oracle found {hits[0]}"
    report(8, "classifier/oracle consistency", started, 60.0)


def test_criterion_9_cli_golden():
    started = time.perf_counter()
    for name, argv in GOLDEN_INVOCATIONS.items():
        code, out = run_cli(argv)
        assert code == 0
        assert out == (GOLDEN_DIR / f"{name}.jsonl").read_text(), name
    report(9, "CLI golden outputs", started, 10.0)
