"""The answer census: every verdict on the short conjugation parameters.

Every freely reduced ``v`` of length at most 5 (485 words) is classified
under all 32 sign, class and frame combinations, 15520 verdicts.  The golden
``golden/census.jsonl`` holds one line per ``(spec, branch, outcome, reason)``
with its count, and a last line with the number of verdicts and one sha256
over the full answers: outcome, branch, reason, certificate, witness strings,
``verified`` and trace, as sorted JSON, one line per verdict in enumeration
order.  A change to any answer, witness or trace changes the file.

Re-record it only in a change that declares its answer diff:

    PYTHONPATH=src python tests/test_census.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from itertools import product
from pathlib import Path

from fgquad import EquationSpec, classify, parse_word

GOLDEN = Path(__file__).parent / "golden" / "census.jsonl"
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
            answer = {
                "outcome": verdict.outcome,
                "branch": verdict.branch,
                "reason": verdict.reason,
                "certificate": verdict.certificate,
                "witness": verdict.witness and [str(w) for w in verdict.witness],
                "verified": verdict.verified,
                "trace": verdict.trace,
            }
            digest.update((json.dumps(answer, sort_keys=True) + "\n").encode())
            total += 1
    lines = [
        json.dumps({"spec": spec, "branch": branch, "outcome": outcome, "reason": reason, "count": count})
        for (spec, branch, outcome, reason), count in sorted(counts.items(), key=lambda kv: str(kv[0]))
    ]
    lines.append(json.dumps({"verdicts": total, "sha256": digest.hexdigest()}))
    return "\n".join(lines) + "\n"


def test_reduced_words():
    words = reduced_words(MAX_LEN)
    assert len(words) == len(set(words)) == 485


def test_census_matches_golden():
    assert census() == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_census.py --write")
    GOLDEN.write_text(census())
    print(f"wrote {GOLDEN}")
