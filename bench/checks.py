"""Answer checks, run untimed after the verdicts are collected.

An input fails when classifying it raised, when its ``exists`` witness does
not survive substitution in the requested frame and class, when a
``not_exists`` lacks a typed reason or a required certificate, when the Wicks
oracle finds a solution of the requested class for a ``not_exists`` on the
``wicks_cores`` workload (among its first 512 inputs), or when its answer
differs from the committed reference for the workload's default seed.
Witnesses are checked by substitution, never by their bytes, so another
matcher may return another valid pair.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REASONS = {"abelian_obstruction", "table_branch", "second_derived_unsolvable", "wicks_exhaustive"}
NEEDS_CERTIFICATE = {"second_derived_unsolvable", "wicks_exhaustive"}
# Cores up to this length get the oracle cross-check, as in acceptance
# criterion 8 (every wicks_cores core is this short).
ORACLE_CORE_MAX = 40
# Only the answers of this corpus prefix get the oracle cross-check: each one
# costs an exhaustive search of about 30 ms, and all 2048 would take 40 s.
# The corpus is in seeded random order, so the prefix is a fair sample; it is
# also the prefix the traced run classifies.
ORACLE_INPUTS = 512


def core_len(fgquad, spec, v) -> int:
    """Length of the cyclically reduced right-hand side, in the query's frame."""
    core, _ = fgquad.words.cyclic_reduce(fgquad.words.equation_rhs(spec, v))
    return len(core)


def answer(verdict) -> list:
    """The part of a verdict that must stay the same: outcome, reason, branch, certificate."""
    return [verdict.outcome, verdict.reason, verdict.branch, verdict.certificate]


def digest(answers: list[list]) -> str:
    return hashlib.sha256(json.dumps(answers).encode()).hexdigest()


def check_verdict(fgquad, spec, v, verdict, oracle: bool) -> Optional[str]:
    """Return why the verdict is wrong, or None when it passes."""
    words = fgquad.words
    if verdict.outcome == "exists":
        if verdict.witness is None or not verdict.verified:
            return "exists without a verified witness"
        first, second = verdict.witness
        if not words.verify_solution(spec, v, first, second).holds:
            return "witness fails substitution"
        if words.solution_is_faithful(spec, first, second) != (spec.solution_class == "faithful"):
            return "witness is not in the requested class"
        return None
    if verdict.outcome == "not_exists":
        if verdict.reason not in REASONS:
            return f"not_exists with untyped reason {verdict.reason!r}"
        if verdict.reason in NEEDS_CERTIFICATE and not verdict.certificate:
            return f"{verdict.reason} without a certificate"
        if oracle and core_len(fgquad, spec, v) <= ORACLE_CORE_MAX:
            wanted = spec.solution_class == "faithful"
            report = fgquad.wicks.wicks_search(spec, v)
            if any(faithful == wanted for _, faithful in report.solutions):
                return "Wicks oracle found a solution of the requested class"
        return None
    if verdict.outcome != "undetermined":
        return f"unknown outcome {verdict.outcome!r}"
    return None


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> Optional[list[list]]:
    path = reference_path(workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["answers"]


def write_reference(workload: str, seed: int, answers: list[list]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    rows = ",\n".join(json.dumps(a) for a in answers)
    head = f'{{"workload": {json.dumps(workload)}, "seed": {seed}, "answers": [\n'
    path.write_text(head + rows + "\n]}\n", encoding="utf-8")
    return path
