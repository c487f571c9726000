"""Digests of two answer paths that no other golden covers in full.

``golden/digests.jsonl`` holds one line per digest, with its number of
inputs and one sha256:

* ``first_derived_grid``: the CLI ``first-derived`` command over the four
  mixed families, the words of ``GRID_WORDS`` and ``--enum-bound`` 1 to 3,
  hashing each invocation's argv, exit code, stdout and stderr.  Every
  solution's ``xtilde``, ``x_word`` and ``y_word`` is in it, and so is each
  refusal (a word outside the family, a budget error).
* ``wicks_exhaustive``: the exhaustive ``wicks_search(spec, v)`` report on
  the first 512 seed-1 ``wicks_cores`` benchmark inputs (built by importing
  ``bench/corpus.py``, as ``test_census.py`` does): each solution pair's
  strings and class, and the number of reported matches.  The census goldens
  pin only what ``classify`` answers, which stops at the first witness of
  the requested class.

Re-record only in a change that declares its answer diff:

    PYTHONPATH=src python tests/test_digests.py --write
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fgquad import EquationSpec, FgquadError, parse_word, wicks_search
from fgquad.cli import main

from test_census import BENCH_SEED, bench_corpus

GOLDEN = Path(__file__).parent / "golden" / "digests.jsonl"

# (delta, epsilon, class) of eq2_nf, eq3_nf, eq4_f and eq4_nf; theta is -1
FAMILIES = [("1", "-1", "nonfaithful"), ("-1", "1", "nonfaithful"), ("-1", "-1", "faithful"), ("-1", "-1", "nonfaithful")]
GRID_WORDS = [
    "1", "b b", "B^2", "b^4", "b^-6", "b^12", "b^40", "b^2 conj(a)", "R b b", "B^2 conj(a^3)",
    "b^2 conj(a) conj(b)", "conj(b) conj(A) b^4", "a^2", "a^4 b^8", "a^2 b^4", "a^-6 b^4", "a^6 b^12",
    "a^2 b^-2 conj(b)", "b^8 a^4",
]
ENUM_BOUNDS = (1, 2, 3)
WICKS_INPUTS = 512


def grid_argvs() -> list[list[str]]:
    return [
        ["first-derived", "--delta", delta, "--epsilon", epsilon, "--theta", "-1", "--class", cls,
         "--word", word, "--enum-bound", str(bound)]
        for delta, epsilon, cls in FAMILIES
        for word in GRID_WORDS
        for bound in ENUM_BOUNDS
    ]


def first_derived_grid() -> dict:
    digest = hashlib.sha256()
    argvs = grid_argvs()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        record = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
    return {"digest": "first_derived_grid", "inputs": len(argvs), "sha256": digest.hexdigest()}


def wicks_report_line(spec: EquationSpec, text: str) -> bytes:
    """One input's exhaustive Wicks report, or its error, as a sorted JSON line."""
    try:
        report = wicks_search(spec, parse_word(text, spec.basis))
    except FgquadError as exc:
        answer: dict = {"error": f"{type(exc).__name__}: {exc}"}
    else:
        answer = {
            "solutions": [[str(x), str(y), faithful] for (x, y), faithful in report.solutions],
            "matches": len(report.matches),
        }
    return (json.dumps({"input": text, **answer}, sort_keys=True) + "\n").encode()


def wicks_exhaustive() -> dict:
    digest = hashlib.sha256()
    queries = bench_corpus().WORKLOADS["wicks_cores"](BENCH_SEED)[:WICKS_INPUTS]
    for q in queries:
        digest.update(wicks_report_line(EquationSpec(q.delta, q.epsilon, q.theta, q.solution_class, q.frame), q.text))
    return {"digest": "wicks_exhaustive", "inputs": len(queries), "sha256": digest.hexdigest()}


def _golden(name: str) -> dict:
    lines = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    return next(line for line in lines if line["digest"] == name)


def test_grid_covers_every_family_and_bound():
    argvs = grid_argvs()
    assert len(argvs) == len(FAMILIES) * len(GRID_WORDS) * len(ENUM_BOUNDS) == 228


def test_first_derived_grid_matches_golden():
    assert first_derived_grid() == _golden("first_derived_grid")


def test_wicks_exhaustive_matches_golden():
    assert wicks_exhaustive() == _golden("wicks_exhaustive")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_digests.py --write")
    GOLDEN.write_text("".join(json.dumps(line) + "\n" for line in (first_derived_grid(), wicks_exhaustive())))
    print(f"wrote {GOLDEN}")
