import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fgquad
from conftest import ADAPTED_MINUS, ADAPTED_PLUS, CLASSIC_PLUS, random_word
from fgquad import (
    BudgetExceeded,
    EquationSpec,
    Word,
    analyze_v,
    classify,
    comm,
    cyclic_reduce,
    equation_rhs,
    parse_word,
    project,
    relator_in,
    second_decide,
    square_root,
    wicks_decompositions,
    wicks_search,
)
from fgquad.tables import all_fixtures, locate
from fgquad.words import solution_is_faithful, swap_frame
from oracles import naive_wicks_decompositions, nonempty


class TestRhs:
    def test_double_commutator(self):
        spec = EquationSpec(1, 1, 1, "faithful", "adapted_xy")
        rhs = equation_rhs(spec, Word.identity(ADAPTED_PLUS))
        assert rhs == parse_word("[a,b] [a,b]", ADAPTED_PLUS)
        assert len(rhs) == 8

    def test_example_length(self):
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        rhs = equation_rhs(spec, parse_word("conj(a) conj(A)", ADAPTED_MINUS))
        core, _ = cyclic_reduce(rhs)
        assert len(core) == 26

    def test_relator_power_collapses(self):
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        assert equation_rhs(spec, parse_word("R^3", ADAPTED_MINUS)).is_identity



class TestExtractionIdentities:
    """The hand-derived extraction pairs, on a rank-3 free subgroup of F2."""

    a = parse_word("a a", CLASSIC_PLUS)
    b = parse_word("a b", CLASSIC_PLUS)
    c = parse_word("b A", CLASSIC_PLUS)

    def test_nonorientable_abcbac(self):
        a, b, c = self.a, self.b, self.c
        x, y = a * b * c * a.inv(), a * c.inv()
        assert x * x * y * y == a * b * c * b * a * c.inv()

    def test_nonorientable_aabcc(self):
        a, b, c = self.a, self.b, self.c
        y = b * c * b.inv()
        assert a * a * y * y == a * a * b * c * c * b.inv()

    def test_orientable_abc(self):
        a, b, c = self.a, self.b, self.c
        assert comm(a * b, c * b) == a * b * c * a.inv() * b.inv() * c.inv()


class TestDecompositions:
    def test_plain_commutator(self):
        w = parse_word("a b A B", ADAPTED_PLUS)
        matches = nonempty(wicks_decompositions(w, "commutator"))
        at_zero = [m for m in matches if m.shift == 0]
        assert len(at_zero) == 1
        m = at_zero[0]
        assert m.form == "orientable_de"
        assert str(m.parts["d"]) == "a" and str(m.parts["e"]) == "b"

    def test_example_shifts(self):
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        rhs = equation_rhs(spec, parse_word("conj(a) conj(A)", ADAPTED_MINUS))
        core, _ = cyclic_reduce(rhs)
        matches = nonempty(wicks_decompositions(core, "commutator"))
        shifts = sorted(m.shift for m in matches)
        assert shifts == [0, 1, 6, 7, 8, 9, 10, 13, 14, 19, 20, 21, 22, 23]
        kinds = {m.shift: m.form for m in matches}
        for i in (0, 1, 10):
            assert kinds[i] == "orientable_abc" and kinds[i + 13] == "orientable_abc"
        for i in (6, 7, 8, 9):
            assert kinds[i] == "orientable_de" and kinds[i + 13] == "orientable_de"
        # shift 0 splits exactly as printed: lengths 1, 9, 3
        m0 = next(m for m in matches if m.shift == 0)
        assert (len(m0.parts["a"]), len(m0.parts["b"]), len(m0.parts["c"])) == (1, 9, 3)
        assert str(m0.parts["a"]) == "a"
        assert str(m0.parts["c"]) == "b A B"

    def test_two_squares_pattern(self):
        w = parse_word("a a b a a B", ADAPTED_MINUS)
        matches = wicks_decompositions(w, "two_squares")
        aabcc = [
            m
            for m in matches
            if m.shift == 0
            and m.form == "nonorientable_aabcc"
            and (str(m.parts["a"]), str(m.parts["b"]), str(m.parts["c"])) == ("a", "b", "a")
        ]
        assert aabcc


# the four coded forms over parts a, b, c (d, e for the degenerate one)
TEMPLATES = {
    "orientable_abc": lambda a, b, c: a * b * c * a.inv() * b.inv() * c.inv(),
    "orientable_de": lambda a, b, c: a * b * a.inv() * b.inv(),
    "nonorientable_abcbac": lambda a, b, c: a * b * c * b * a * c.inv(),
    "nonorientable_aabcc": lambda a, b, c: a * a * b * c * c * b.inv(),
}
BASES = (ADAPTED_PLUS, ADAPTED_MINUS)


def short_syllables(max_size: int):
    # at most 2 * max_size letters, possibly none
    return st.lists(st.tuples(st.integers(0, 1), st.sampled_from((-2, -1, 1, 2))), max_size=max_size)


@st.composite
def matcher_cores(draw):
    basis = draw(st.sampled_from(BASES))
    if draw(st.booleans()):
        template = TEMPLATES[draw(st.sampled_from(sorted(TEMPLATES)))]
        a, b, c = (Word.from_syllables(basis, draw(short_syllables(2))) for _ in range(3))
        w = template(a, b, c)
    else:
        w = Word.from_syllables(basis, draw(short_syllables(12)))
    return cyclic_reduce(w)[0]


def letter_word(rng, basis, length):
    """A reduced word of exactly ``length`` letters."""
    letters = []
    while len(letters) < length:
        letter = (rng.randrange(2), rng.choice((-1, 1)))
        if not letters or letter != (letters[-1][0], -letters[-1][1]):
            letters.append(letter)
    return Word.from_syllables(basis, letters)


def match_rows(matches):
    return [
        (m.shift, m.form, [(k, str(p)) for k, p in sorted(m.parts.items())], str(m.u_prefix), str(m.core))
        for m in matches
    ]


class TestMatcherOracle:
    """The library matcher lists what the naive matcher lists, in order."""

    @given(matcher_cores(), st.sampled_from(("commutator", "two_squares")), st.booleans())
    def test_same_ordered_matches(self, core, kind, allow_empty):
        matches = wicks_decompositions(core, kind)
        assert match_rows(matches if allow_empty else nonempty(matches)) == match_rows(
            naive_wicks_decompositions(core, kind, allow_empty)
        )

    def test_every_form_matched_with_and_without_empty_parts(self):
        rng = random.Random(8)
        seen = set()
        for _ in range(300):
            basis = rng.choice(BASES)
            form = rng.choice(sorted(TEMPLATES))
            parts = [random_word(rng, basis, rng.choice((0, 1, 2))) for _ in range(3)]
            core, _ = cyclic_reduce(TEMPLATES[form](*parts))
            kind = "commutator" if form.startswith("orientable") else "two_squares"
            every = wicks_decompositions(core, kind)
            for allow_empty in (False, True):
                matches = every if allow_empty else nonempty(every)
                assert match_rows(matches) == match_rows(naive_wicks_decompositions(core, kind, allow_empty))
                seen.update((m.form, any(p.is_identity for p in m.parts.values())) for m in matches)
        # an empty part of d e d^-1 e^-1 leaves e e^-1, which no reduced core is
        assert seen == {(form, empty) for form in TEMPLATES for empty in (False, True)} - {("orientable_de", True)}

    def test_same_ordered_matches_on_long_cores(self):
        # 200 cores of 16-64 letters, where each part-length loop runs well
        # past its first values: in each run of five, a template core of each
        # form with parts of 0-16 letters, matched for the form's kind, then
        # a random core; every basis meets every kind
        rng = random.Random(64)
        seen = set()
        for index in range(200):
            basis = BASES[index // 5 % 2]
            form = (*sorted(TEMPLATES), None)[index % 5]
            core = Word.identity(basis)
            while not 16 <= len(core) <= 64 or len(core) % 2:
                if form is None:
                    core = letter_word(rng, basis, rng.randint(16, 64))
                else:
                    core = TEMPLATES[form](*(letter_word(rng, basis, rng.randint(0, 16)) for _ in range(3)))
                core = cyclic_reduce(core)[0]
            if form is None:
                kind = ("commutator", "two_squares")[index // 10 % 2]
            else:
                kind = "commutator" if form.startswith("orientable") else "two_squares"
            matches = wicks_decompositions(core, kind)
            assert match_rows(matches) == match_rows(naive_wicks_decompositions(core, kind))
            seen.update(m.form for m in matches)
        assert seen == set(TEMPLATES)


class TestExtraction:
    def test_rank3_commutator_form(self):
        # scratch alphabet embedded as a free basis of an index-2 subgroup
        basis = ADAPTED_PLUS
        a, b, c = (parse_word(t, basis) for t in ("a a", "a b", "b A"))
        w = a * b * c * a.inv() * b.inv() * c.inv()
        matches = [m for m in wicks_decompositions(w, "commutator") if m.shift == 0]
        assert matches
        from fgquad import extract_solution

        for m in matches:
            x, y = extract_solution(m, Word.identity(basis))
            assert x * y * x.inv() * y.inv() == w

    def test_two_squares_bounded_search_agrees(self):
        # independent brute-force check of the abcbac^-1 extraction
        basis = ADAPTED_MINUS
        w = parse_word("a a b a a B", basis)
        found = []
        gens = [Word.gen(basis, "a"), Word.gen(basis, "a").inv(), Word.gen(basis, "b"), Word.gen(basis, "b").inv()]

        def search(prefix, depth):
            z2sq_target = prefix.inv() * prefix.inv() * w
            root = square_root(z2sq_target)
            if root is not None:
                found.append((prefix, root))
            if depth == 0:
                return
            for g in gens:
                nxt = prefix * g
                if len(nxt) > len(prefix):
                    search(nxt, depth - 1)

        search(Word.identity(basis), 4)
        assert any(
            (z1 * z1 * z2 * z2) == w and not z1.is_identity and not z2.is_identity
            for z1, z2 in found
        )
        matches = wicks_decompositions(w, "two_squares")
        from fgquad import extract_solution

        pairs = [extract_solution(m, Word.identity(basis)) for m in matches]
        assert any(x * x * y * y == w for x, y in pairs)


class TestSquareRoots:
    """A square right-hand side t h h t^-1 is solved by the two degenerate
    layouts of a a b c c b^-1 at shift 0, with no square-root shortcut."""

    @pytest.mark.parametrize("frame", ["adapted_xy", "original_z"])
    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_square_cores_match_both_degenerate_layouts(self, epsilon, frame):
        basis = EquationSpec(-1, epsilon, 1, "faithful", frame).basis
        rng = random.Random(epsilon * 2 + (frame == "original_z"))
        one = Word.identity(basis)
        checked = 0
        while checked < 60:
            h, _ = cyclic_reduce(random_word(rng, basis, 5))
            if h.is_identity:
                continue
            layouts = {
                (str(m.parts["a"]), str(m.parts["b"]), str(m.parts["c"]))
                for m in wicks_decompositions(h * h, "two_squares")
                if m.shift == 0 and m.form == "nonorientable_aabcc"
            }
            assert {(str(h), str(one), str(one)), (str(one), str(one), str(h))} <= layouts, h
            checked += 1

    @pytest.mark.parametrize("frame", ["adapted_xy", "original_z"])
    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_square_right_hand_sides_give_both_root_pairs(self, epsilon, frame):
        rng = random.Random(10 + epsilon * 2 + (frame == "original_z"))
        checked = 0
        while checked < 30:
            spec = EquationSpec(-1, epsilon, rng.choice((1, -1)), rng.choice(("faithful", "nonfaithful")), frame)
            v = random_word(rng, spec.basis, 3)
            rhs = equation_rhs(spec, v)
            root = square_root(rhs)
            if root is None or rhs.is_identity:
                continue
            one = Word.identity(spec.basis)
            pairs = {pair for pair, _ in wicks_search(spec, v).solutions}
            for z1, z2 in ((root, one), (one, root)):
                assert (swap_frame(-1, z1, z2) if frame == "adapted_xy" else (z1, z2)) in pairs, v
            checked += 1


class TestSearch:
    def test_example_only_faithful(self):
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        report = wicks_search(spec, parse_word("conj(a) conj(A)", ADAPTED_MINUS))
        assert report.solutions
        assert all(faithful for _, faithful in report.solutions)

    def test_finds_table_style_solution(self):
        spec = EquationSpec(1, 1, -1, "faithful", "adapted_xy")
        report = wicks_search(spec, parse_word("a", ADAPTED_PLUS))
        assert any(faithful for _, faithful in report.solutions)

    def test_budget_guard(self):
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        with pytest.raises(BudgetExceeded):
            wicks_search(spec, parse_word("conj(a) conj(A)", ADAPTED_MINUS), wicks_len=10)

    def test_fixture_rows_covered(self):
        for fx in all_fixtures():
            if fx.spec.frame != "adapted_xy":
                continue
            rhs = equation_rhs(fx.spec, fx.v)
            core, _ = cyclic_reduce(rhs)
            if len(core) > 40:
                continue
            report = wicks_search(fx.spec, fx.v)
            wanted = fx.spec.solution_class == "faithful"
            assert any(
                faithful == wanted for _, faithful in report.solutions
            ), f"{fx.row}: no {fx.spec.solution_class} solution found"

    def test_decider_consistency(self):
        rng = random.Random(0xFEED)
        specs = {
            "eq2_nf": EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy"),
            "eq3_nf": EquationSpec(-1, 1, -1, "nonfaithful", "adapted_xy"),
            "eq4_f": EquationSpec(-1, -1, -1, "faithful", "adapted_xy"),
            "eq4_nf": EquationSpec(-1, -1, -1, "nonfaithful", "adapted_xy"),
        }
        checked = 0
        while checked < 200:
            kind = rng.choice(list(specs))
            spec = specs[kind]
            basis = spec.basis
            if kind in ("eq2_nf", "eq4_f"):
                head = Word.gen(basis, "b") ** (2 * rng.randint(-1, 1))
            elif kind == "eq3_nf":
                head = Word.gen(basis, "a") ** (2 * rng.randint(-1, 1)) * Word.gen(basis, "b") ** (
                    2 * rng.randint(-1, 1)
                )
            else:
                head = Word.gen(basis, "a") ** (2 * rng.randint(-1, 1)) * Word.gen(basis, "b") ** (
                    4 * rng.randint(-1, 1)
                )
            tail = Word.identity(basis)
            for _ in range(rng.randint(0, 2)):
                u = random_word(rng, basis, 2)
                tail = tail * parse_word("conj(1)", basis) ** 0 * (u * parse_word("R", basis) ** rng.choice([-1, 1]) * u.inv())
            v = head * tail
            rhs = equation_rhs(spec, v)
            core, _ = cyclic_reduce(rhs)
            if len(core) > 30:
                continue
            report = wicks_search(spec, v)
            wanted = spec.solution_class == "faithful"
            in_class_with_kernel = [
                (x, y)
                for (x, y), faithful in report.solutions
                if faithful == wanted and project(x).is_identity
            ]
            checked += 1
            if not in_class_with_kernel:
                continue
            data = analyze_v(*locate(spec, v))
            assert second_decide(data.case, data.V).solvable, f"{kind}: v={v}"


def solution_rows(solutions):
    return [(str(x), str(y), faithful) for (x, y), faithful in solutions]


class TestEarlyStop:
    """A search for one class stops at the exhaustive search's first pair of
    that class, and a search that finds none walks everything."""

    def test_stopping_search_is_a_prefix_of_the_exhaustive_one(self):
        rng = random.Random(17)
        outcomes = set()
        for delta, solution_class, frame in product(
            (1, -1), ("faithful", "nonfaithful"), ("adapted_xy", "original_z")
        ):
            checked = 0
            while checked < 16:
                spec = EquationSpec(delta, rng.choice((1, -1)), rng.choice((1, -1)), solution_class, frame)
                v = random_word(rng, spec.basis, 6)
                core, _ = cyclic_reduce(equation_rhs(spec, v))
                if not 16 <= len(core) <= 40:
                    continue
                every = wicks_search(spec, v)
                stopped = wicks_search(spec, v, wanted=solution_class)
                wanted = solution_class == "faithful"
                first = next((i for i, (_, faithful) in enumerate(every.solutions) if faithful == wanted), None)
                if first is None:
                    assert solution_rows(stopped.solutions) == solution_rows(every.solutions), v
                else:
                    assert solution_rows(stopped.solutions) == solution_rows(every.solutions[: first + 1]), v
                assert match_rows(stopped.matches) == match_rows(every.matches[: len(stopped.matches)]), v
                outcomes.add((first is not None, len(stopped.solutions) < len(every.solutions)))
                checked += 1
        # some searches stop early, and some find no pair of the class
        assert {(True, True), (False, False)} <= outcomes

    def test_trivial_core_stops_at_its_first_candidate(self):
        # v = R makes the right-hand side R R^-1 R^-1 R trivial: the search
        # tries the trivial candidates (1, 1), (1, a), (1, b) in turn, and the
        # first of them is already faithful
        spec = EquationSpec(1, -1, -1, "faithful", "adapted_xy")
        v = relator_in(spec.basis)
        assert equation_rhs(spec, v).is_identity
        every = wicks_search(spec, v)
        stopped = wicks_search(spec, v, wanted="faithful")
        assert solution_rows(every.solutions) == [("1", "1", True), ("1", "a", True), ("1", "b", False)]
        assert solution_rows(stopped.solutions) == solution_rows(every.solutions[:1])
        assert every.matches == stopped.matches == []

    def test_classify_extracts_only_up_to_its_witness(self, monkeypatch):
        # wicks_cores (seed 1) input 912: an 18-letter commutator core with
        # 22 matches; the first nonfaithful pair comes from the second match,
        # at shift 4, which classify returns as its witness
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        v = parse_word("B^2 conj(b)", spec.basis)
        extracted = []
        extract = fgquad.wicks.extract_solution

        def counted(match, t):
            extracted.append(match)
            return extract(match, t)

        monkeypatch.setattr(fgquad.wicks, "extract_solution", counted)
        verdict = classify(spec, v)
        stopped = extracted[:]
        extracted.clear()
        every = wicks_search(spec, v)
        assert len(extracted) == 22
        assert match_rows(stopped) == match_rows(extracted[:2]) and stopped[-1].shift == 4
        first = next(pair for pair, faithful in every.solutions if not faithful)
        assert verdict.outcome == "exists" and verdict.witness == first
