"""Tests of the benchmark itself: generators, answer checks and the tracer.

Run from the repository root with ``python -m pytest -q bench``.
"""

from __future__ import annotations

import math

import pytest

import checks
import corpus
import run
from tracer import TRACED


@pytest.fixture(scope="module")
def fgquad():
    return run.load_fgquad()


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    make = corpus.WORKLOADS[name]
    first = corpus.corpus_bytes(make(3))
    assert first == corpus.corpus_bytes(make(3))
    assert first != corpus.corpus_bytes(make(4))
    assert len(make(3)) == corpus.CORPUS_SIZE[name] >= run.MIN_SAMPLES


def _parsed(fgquad, name, seed, size):
    work = run.Workload(fgquad, name, seed, size)
    return [(spec, fgquad.parse_word(q.text, spec.basis)) for q, spec in zip(work.queries, work.specs)]


def test_closed_long_never_lands_in_a_mixed_branch(fgquad):
    from fgquad.tables import table_branch
    from fgquad.words import BasisTag, EquationSpec

    for seed in (1, 2):
        for spec, v in _parsed(fgquad, "closed_long", seed, 64):
            adapted = BasisTag.adapted(spec.epsilon)
            v_ad = fgquad.change_basis(v, adapted)
            spec_ad = EquationSpec(spec.delta, spec.epsilon, spec.theta, spec.solution_class, "adapted_xy")
            branch = table_branch(spec_ad, fgquad.project(v_ad), fgquad.sgn(v_ad))
            assert branch.kind != "mixed", (spec, str(v))


def test_derived_large_cores_exceed_default_wicks_len(fgquad):
    wicks_len = fgquad.Budgets().wicks_len
    assert corpus.WICKS_LEN == wicks_len
    for spec, v in _parsed(fgquad, "derived_large", 2, 64):
        assert fgquad.words.equation_rhs(spec, v).basis == spec.basis
        assert checks.core_len(fgquad, spec, v) > wicks_len


def test_wicks_cores_fit_the_oracle_budget(fgquad):
    assert corpus.WICKS_CORE_MAX == checks.ORACLE_CORE_MAX <= corpus.WICKS_LEN
    for spec, v in _parsed(fgquad, "wicks_cores", 2, 64):
        assert corpus.WICKS_CORE_MIN <= checks.core_len(fgquad, spec, v) <= corpus.WICKS_CORE_MAX


def test_checks_reject_a_forged_witness_and_an_untyped_reason(fgquad):
    from fgquad.classify import Verdict

    spec = fgquad.EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
    v = fgquad.parse_word("conj(a) conj(A)", spec.basis)
    one = fgquad.Word.identity(spec.basis)
    forged = Verdict("exists", "Table 2 (2d)", (one, one), True)
    assert checks.check_verdict(fgquad, spec, v, forged, oracle=False) == "witness fails substitution"
    untyped = Verdict("not_exists", "Table 2 (2d)", reason=None)
    assert "untyped" in checks.check_verdict(fgquad, spec, v, untyped, oracle=False)
    bare = Verdict("not_exists", "Table 2 (2d)", reason="wicks_exhaustive")
    assert "certificate" in checks.check_verdict(fgquad, spec, v, bare, oracle=False)


@pytest.fixture(scope="module")
def traced(fgquad):
    work = run.Workload(fgquad, "wicks_cores", 2, 48)
    return work, run.traced_run(work, write_spans=False)


def test_traced_answers_equal_untraced_answers(traced):
    _, result = traced
    plain, with_tracing = result["digests"]
    assert plain == with_tracing
    assert result["failed_inputs"] == {}


def test_tracer_restores_every_function(fgquad, traced):
    import importlib

    for qualified in TRACED:
        module_name, func_name = qualified.split(".")
        fn = getattr(importlib.import_module(f"fgquad.{module_name}"), func_name)
        assert not hasattr(fn, "__wrapped__"), qualified
    assert not hasattr(importlib.import_module("fgquad.classify").analyze_v, "__wrapped__")


def test_self_times_sum_to_the_classify_root_span(traced):
    _, result = traced
    tracer = result["tracer"]
    own = tracer.self_times()
    subtree = list(own)
    for idx in range(len(own) - 1, -1, -1):  # children come after their parent
        parent = tracer.parents[idx]
        if parent >= 0:
            subtree[parent] += subtree[idx]
    root = TRACED.index("classify.classify")
    roots = [i for i, code in enumerate(tracer.names) if code == root]
    assert len(roots) == 48
    for idx in roots:
        assert tracer.parents[idx] == -1
        duration = tracer.ends[idx] - tracer.starts[idx]
        assert math.isclose(subtree[idx], duration, rel_tol=1e-9, abs_tol=1e-12)
    calls, self_s = tracer.summary()
    total = sum(tracer.ends[i] - tracer.starts[i] for i, p in enumerate(tracer.parents) if p == -1)
    assert math.isclose(sum(self_s.values()), total, rel_tol=1e-9)
    assert calls["classify.classify"] == 48


def test_traced_run_reports_every_per_layer_metric(traced):
    _, result = traced
    metrics = result["metrics"]
    for name in TRACED:
        assert f"{name}.calls" in metrics and f"{name}.self_s" in metrics
    for name in (
        "derived.second_decide.unsolvable",
        "classify.pattern_witness.hit_ratio",
        "wicks.wicks_search.refused",
        "wicks.wicks_decompositions.matches",
        "trace.overhead_ratio",
    ):
        assert name in metrics


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_default_seed_reproduces_the_reference_answers(fgquad, name):
    work = run.Workload(fgquad, name, run.DEFAULT_SEED)
    assert work.reference is not None and len(work.reference) == len(work.queries)
    _, results = work.one_pass(24)
    assert run.answers(results) == work.reference[:24]


def test_timed_run_scales_times_and_checks_every_answer(fgquad):
    import speed

    assert speed.probe() > 0
    work = run.Workload(fgquad, "wicks_cores", 2, 48)
    result = run.timed_run(work, 0.5)
    assert result["attempted"] >= 48 and result["failed_inputs"] == {}
    metrics = result["metrics"]
    assert 0 < metrics["latency_p50_ms"][0] <= metrics["latency_p99_ms"][0]
    assert metrics["verdicts_per_s"][0] > 0 and metrics["ok_frac"][0] == 1.0
    assert all(factor > 0 for factor in result["speed"][:3])
