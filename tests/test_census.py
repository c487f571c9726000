"""The answer census: every verdict on the short conjugation parameters.

Every freely reduced ``v`` of length at most 5 (485 words) is classified
under all 32 sign, class and frame combinations, 15520 verdicts.  The golden
``golden/census.jsonl`` holds one line per ``(spec, branch, outcome, reason)``
with its count, and a last line with the number of verdicts and one sha256
over the full answers: outcome, branch, reason, certificate, witness strings,
``verified`` and trace, as sorted JSON, one line per verdict in enumeration
order.  A change to any answer, witness or trace changes the file.

A second golden, ``golden/census_bench.jsonl``, pins the same full answers
over the three seed-1 benchmark corpora (5120 inputs, built by importing
``bench/corpus.py``): one line per workload with its number of verdicts and
one sha256.  It is the only golden that holds the Wicks witnesses of cores
with 16 to 40 letters (``wicks_cores``); the benchmark references carry no
witnesses.

The Wicks search referees every census verdict: run exhaustively in the
verdict's own frame, it finds a solution of the class for every ``exists``
and for none of the ``not_exists``.  The ``wicks_exhaustive`` answers were
decided by the library matcher, so they are refereed by the naive matcher of
``tests/oracles.py``.

Re-record both goldens only in a change that declares its answer diff:

    PYTHONPATH=src python tests/test_census.py --write
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import fgquad.wicks
from fgquad import EquationSpec, change_basis, classify, parse_word, wicks_search
from oracles import naive_wicks_decompositions

GOLDEN = Path(__file__).parent / "golden" / "census.jsonl"
BENCH_GOLDEN = Path(__file__).parent / "golden" / "census_bench.jsonl"
BENCH_CORPUS = Path(__file__).parents[1] / "bench" / "corpus.py"
BENCH_SEED = 1
MAX_LEN = 5
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


def reduced_words(max_len: int) -> list[str]:
    """Every freely reduced word of length at most ``max_len``, shortest
    first, as word-grammar text (``1`` for the identity)."""
    out, layer = ["1"], [""]
    for _ in range(max_len):
        layer = [w + x for w in layer for x in "abAB" if not w or _INVERSE[w[-1]] != x]
        out += [" ".join(w) for w in layer]
    return out


def specs() -> list[EquationSpec]:
    return [
        EquationSpec(delta, epsilon, theta, solution_class, frame)
        for delta, epsilon, theta in product((1, -1), repeat=3)
        for solution_class in ("faithful", "nonfaithful")
        for frame in ("adapted_xy", "original_z")
    ]


def answer_line(verdict) -> bytes:
    """One verdict's full answer as a sorted JSON line."""
    answer = {
        "outcome": verdict.outcome,
        "branch": verdict.branch,
        "reason": verdict.reason,
        "certificate": verdict.certificate,
        "witness": verdict.witness and [str(w) for w in verdict.witness],
        "verified": verdict.verified,
        "trace": verdict.trace,
    }
    return (json.dumps(answer, sort_keys=True) + "\n").encode()


def census() -> str:
    """The golden file's text."""
    counts: Counter = Counter()
    digest = hashlib.sha256()
    total = 0
    for spec in specs():
        label = f"delta={spec.delta} epsilon={spec.epsilon} theta={spec.theta} {spec.solution_class} {spec.frame}"
        for text in reduced_words(MAX_LEN):
            verdict = classify(spec, parse_word(text, spec.basis))
            counts[label, verdict.branch, verdict.outcome, verdict.reason] += 1
            digest.update(answer_line(verdict))
            total += 1
    lines = [
        json.dumps({"spec": spec, "branch": branch, "outcome": outcome, "reason": reason, "count": count})
        for (spec, branch, outcome, reason), count in sorted(counts.items(), key=lambda kv: str(kv[0]))
    ]
    lines.append(json.dumps({"verdicts": total, "sha256": digest.hexdigest()}))
    return "\n".join(lines) + "\n"


def bench_corpus():
    """``bench/corpus.py``, imported read-only as the module ``bench_corpus``."""
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclass looks its module up
    spec.loader.exec_module(corpus)
    return corpus


def bench_census() -> str:
    """The benchmark golden's text: one line per seed-1 workload, in corpus order."""
    corpus = bench_corpus()
    lines = []
    for name, generate in corpus.WORKLOADS.items():
        digest = hashlib.sha256()
        queries = generate(BENCH_SEED)
        for q in queries:
            eq = EquationSpec(q.delta, q.epsilon, q.theta, q.solution_class, q.frame)
            digest.update(answer_line(classify(eq, parse_word(q.text, eq.basis))))
        lines.append(json.dumps({"workload": name, "verdicts": len(queries), "sha256": digest.hexdigest()}))
    return "\n".join(lines) + "\n"


def test_reduced_words():
    words = reduced_words(MAX_LEN)
    assert len(words) == len(set(words)) == 485


def test_census_matches_golden():
    assert census() == GOLDEN.read_text()


def test_bench_census_matches_golden():
    assert bench_census() == BENCH_GOLDEN.read_text()


def test_frames_agree_on_every_census_word():
    # adapted_xy and original_z state one equation in two bases of F2, so
    # v in the adapted frame and its image in the classic basis in the
    # original frame get the same outcome; locate projects the one directly
    # and the other after a basis change
    outcomes: Counter = Counter()
    for delta, epsilon, theta in product((1, -1), repeat=3):
        for solution_class in ("faithful", "nonfaithful"):
            adapted = EquationSpec(delta, epsilon, theta, solution_class, "adapted_xy")
            original = EquationSpec(delta, epsilon, theta, solution_class, "original_z")
            for text in reduced_words(MAX_LEN):
                v = parse_word(text, adapted.basis)
                outcome = classify(adapted, v).outcome
                assert classify(original, change_basis(v, original.basis)).outcome == outcome, (adapted, text)
                outcomes[outcome] += 1
    assert outcomes == {"exists": 2046, "not_exists": 4516, "undetermined": 1198}


def has_wicks_solution(spec: EquationSpec, v) -> bool:
    """Whether the exhaustive Wicks search finds a solution of the class."""
    faithful = spec.solution_class == "faithful"
    return any(found == faithful for _, found in wicks_search(spec, v).solutions)


def test_every_verdict_agrees_with_the_wicks_oracle(monkeypatch):
    undetermined: Counter = Counter()
    refereed = []
    for spec, text in product(specs(), reduced_words(MAX_LEN)):
        v = parse_word(text, spec.basis)
        verdict = classify(spec, v)
        if verdict.reason == "wicks_exhaustive":
            refereed.append((spec, v))
            continue
        solvable = has_wicks_solution(spec, v)
        if verdict.outcome == "undetermined":
            undetermined[solvable] += 1
        else:
            assert solvable == (verdict.outcome == "exists"), (spec, text, verdict.outcome, verdict.reason)
    monkeypatch.setattr(fgquad.wicks, "wicks_decompositions", naive_wicks_decompositions)
    for spec, v in refereed:
        assert not has_wicks_solution(spec, v), (spec, str(v))
    assert len(refereed) == 4
    # the target of deciding the degree-two branch with the Wicks search
    assert undetermined == {True: 515, False: 1998}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_census.py --write")
    for path, text in ((GOLDEN, census()), (BENCH_GOLDEN, bench_census())):
        path.write_text(text)
        print(f"wrote {path}")
