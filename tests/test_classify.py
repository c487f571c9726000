import importlib
import random

import pytest

import fgquad.wicks
from conftest import ADAPTED_MINUS, ADAPTED_PLUS, random_word
from fgquad import (
    Budgets,
    EquationSpec,
    FgquadError,
    InvalidBudget,
    VerifyResult,
    WitnessUnverified,
    Word,
    classify,
    comm,
    parse_word,
    pattern_witness,
    relator_in,
    verify_solution,
    verify_tables,
)
from fgquad.tables import all_fixtures
from oracles import naive_project, naive_wicks_decompositions, rank1_check


class TestClassifyExamples:
    def test_table1_row1(self):
        spec = EquationSpec(1, 1, -1, "faithful", "adapted_xy")
        verdict = classify(spec, parse_word("a b a", ADAPTED_PLUS))
        assert verdict.outcome == "exists" and verdict.verified
        assert verdict.branch == "Table 1 (1)"

    def test_table1_row3_automatic(self):
        spec = EquationSpec(-1, 1, 1, "faithful", "adapted_xy")
        for text in ("a", "b b", "a b A"):
            verdict = classify(spec, parse_word(text, ADAPTED_PLUS))
            assert verdict.outcome == "not_exists"
            assert verdict.branch == "Table 1 (3)"

    def test_wicks_exhaustive_case(self):
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        verdict = classify(spec, parse_word("conj(a) conj(A)", ADAPTED_MINUS))
        assert verdict.outcome == "not_exists"
        assert verdict.reason == "wicks_exhaustive"

    def test_abelian_obstruction(self):
        spec = EquationSpec(1, -1, 1, "nonfaithful", "adapted_xy")
        verdict = classify(spec, parse_word("a b", ADAPTED_MINUS))
        assert verdict.outcome == "not_exists"
        assert verdict.reason == "abelian_obstruction"

    def test_second_derived_certificate(self):
        spec = EquationSpec(-1, -1, -1, "nonfaithful", "adapted_xy")
        verdict = classify(spec, parse_word("conj(b)", ADAPTED_MINUS))
        assert verdict.outcome == "not_exists"
        assert verdict.reason == "second_derived_unsolvable"
        assert verdict.certificate

    def test_budget_exhaustion_is_undetermined(self):
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        v = parse_word("conj(a) conj(A)", ADAPTED_MINUS)
        verdict = classify(spec, v, Budgets(wicks_len=4))
        assert verdict.outcome == "undetermined"
        assert "second_derived" in verdict.trace and "budgets" in verdict.trace

    def test_budget_record_lists_every_budget(self):
        # the same record as the CLI's; the translation window is no budget,
        # since its natural size is complete
        assert Budgets._fields == ("wicks_len", "enum_bound")
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        v = parse_word("conj(a) conj(A)", ADAPTED_MINUS)
        verdict = classify(spec, v, Budgets(wicks_len=4, enum_bound=3))
        assert verdict.trace["budgets"] == {"wicks_len": 4, "enum_bound": 3}

    @pytest.mark.parametrize("budgets", [{"wicks_len": 0}, {"enum_bound": -1}])
    def test_invalid_budget_is_typed(self, budgets):
        with pytest.raises(InvalidBudget, match="budgets must be positive"):
            Budgets(**budgets)

    def test_degree_two_unmatched_is_undetermined(self):
        spec = EquationSpec(1, 1, 1, "faithful", "adapted_xy")
        verdict = classify(spec, parse_word("a^2", ADAPTED_PLUS))
        assert verdict.outcome == "undetermined"

    def test_original_frame_round_trip(self):
        spec = EquationSpec(-1, -1, 1, "faithful", "original_z")
        from conftest import CLASSIC_MINUS

        verdict = classify(spec, parse_word("a b", CLASSIC_MINUS))
        assert verdict.outcome == "exists"
        z1, z2 = verdict.witness
        assert verify_solution(spec, parse_word("a b", CLASSIC_MINUS), z1, z2).holds


class TestPatternWitness:
    def test_square_family(self):
        spec = EquationSpec(-1, -1, -1, "faithful", "adapted_xy")
        v = parse_word("b b", ADAPTED_MINUS)
        pair = pattern_witness(spec, v)
        assert pair is not None
        beta = Word.gen(ADAPTED_MINUS, "b")
        rel = relator_in(ADAPTED_MINUS)
        assert pair == (comm(beta * beta * rel.inv(), beta.inv()), beta.inv())

    def test_relator_beta_family(self):
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        v = parse_word("R b b", ADAPTED_MINUS)
        pair = pattern_witness(spec, v)
        assert pair is not None
        res = verify_solution(spec, v, *pair)
        assert res.holds and not res.faithful

    def test_no_pattern(self):
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        assert pattern_witness(spec, parse_word("a", ADAPTED_MINUS)) is None

    def test_even_power_family(self):
        spec = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
        v = parse_word("b^4", ADAPTED_MINUS)
        pair = pattern_witness(spec, v)
        assert pair is not None
        assert verify_solution(spec, v, *pair).holds

    def test_alpha_beta_power_family(self):
        spec = EquationSpec(-1, -1, -1, "faithful", "adapted_xy")
        v = parse_word("(a b)^4", ADAPTED_MINUS)
        pair = pattern_witness(spec, v)
        assert pair is not None
        assert verify_solution(spec, v, *pair).holds


class TestTables:
    def test_zero_failures(self):
        report = verify_tables()
        assert report.failures == []
        assert report.checked >= 60

    def test_classify_agrees_with_fixture_rows(self):
        for fx in all_fixtures():
            verdict = classify(fx.spec, fx.v)
            assert verdict.outcome == "exists", f"{fx.row}: {verdict.outcome}"
            assert verdict.verified

    def test_mixed_witnesses_satisfy_rank1(self):
        for fx in all_fixtures():
            if not fx.row.startswith(("Table 3", "Table 4")):
                continue
            verdict = classify(fx.spec, fx.v)
            assert verdict.outcome == "exists"
            x, y = verdict.witness
            k = rank1_check(naive_project(fx.v), naive_project(y), fx.spec.delta, fx.spec.theta)
            assert k is not None, fx.row


class TestConsistencyCorpus:
    def test_never_contradicts_oracle(self, monkeypatch):
        # smaller companion of the acceptance corpus; the cross-check runs
        # the naive matcher, the classifier the library one
        from fgquad import cyclic_reduce, equation_rhs, wicks_search

        rng = random.Random(11)
        checked = 0
        while checked < 80:
            delta = rng.choice([1, -1])
            eps = rng.choice([1, -1])
            theta = rng.choice([1, -1])
            cls = rng.choice(["faithful", "nonfaithful"])
            spec = EquationSpec(delta, eps, theta, cls, "adapted_xy")
            v = random_word(rng, spec.basis, 3)
            core, _ = cyclic_reduce(equation_rhs(spec, v))
            if len(core) > 30:
                continue
            checked += 1
            verdict = classify(spec, v)
            if verdict.outcome != "not_exists":
                continue
            with monkeypatch.context() as patch:
                patch.setattr(fgquad.wicks, "wicks_decompositions", naive_wicks_decompositions)
                report = wicks_search(spec, v)
            wanted = cls == "faithful"
            hits = [pair for pair, f in report.solutions if f == wanted]
            assert not hits, f"{spec} v={v}: oracle found {hits[0]}"


class TestWitnessCheck:
    def test_failed_substitution_is_typed(self, monkeypatch):
        # the package exports the function classify under the module's name
        classify_module = importlib.import_module("fgquad.classify")

        def refuse(spec, v, first, second):
            return VerifyResult(False, False)

        monkeypatch.setattr(classify_module, "verify_solution", refuse)
        spec = EquationSpec(1, 1, -1, "faithful", "adapted_xy")
        with pytest.raises(WitnessUnverified, match=r"Table 1 \(1\)") as exc:
            classify(spec, parse_word("a b a", ADAPTED_PLUS))
        assert isinstance(exc.value, FgquadError)
        assert isinstance(exc.value, ArithmeticError)

    @pytest.mark.parametrize("frame", ["adapted_xy", "original_z"])
    def test_failed_degree_two_witness_is_typed(self, monkeypatch, frame):
        classify_module = importlib.import_module("fgquad.classify")

        def wrong_pair(spec, v_classic):
            return v_classic, v_classic

        monkeypatch.setattr(classify_module, "degree_two_witness", wrong_pair)
        spec = EquationSpec(1, 1, 1, "faithful", frame)
        with pytest.raises(WitnessUnverified, match=r"Table 0 \(1\)"):
            classify(spec, parse_word("a", spec.basis))
