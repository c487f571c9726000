"""Top-level existence classifier with certified verdicts.

Verdict precedence: abelianization obstruction, explicit table branch,
second-derived-equation decider, pattern witness, Wicks search, undetermined.
Non-existence certificates name the closed branch or the violated
augmentation condition; existence certificates are substitution-verified
witness pairs; undetermined verdicts carry the trace of what was tried.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Literal, Optional

from .derived import analyze_v, second_decide
from .errors import BudgetExceeded, InvalidBudget, WitnessUnverified
from .surface import project
from .tables import MIXED, degree_two_witness, instantiate_witness, table_branch
from .words import (
    BasisTag,
    EquationSpec,
    Word,
    change_basis,
    sgn,
    swap_frame,
    verify_solution,
)

Outcome = Literal["exists", "not_exists", "undetermined"]
Reason = Literal[
    "abelian_obstruction",
    "table_branch",
    "second_derived_unsolvable",
    "wicks_exhaustive",
]


@dataclass(frozen=True)
class Budgets:
    wicks_len: int = 64
    enum_bound: int = 8
    l_window_override: Optional[int] = None

    def __post_init__(self) -> None:
        if self.wicks_len <= 0 or self.enum_bound <= 0:
            raise InvalidBudget("budgets must be positive")


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    branch: str
    witness: Optional[tuple[Word, Word]] = None
    verified: bool = False
    reason: Optional[Reason] = None
    certificate: Optional[str] = None
    trace: dict = field(default_factory=dict)


def _from_other_frame(spec: EquationSpec, first: Word, second: Word) -> tuple[Word, Word]:
    """Carry a pair of unknowns from the other frame to the spec's frame and basis."""
    first, second = swap_frame(spec.delta, first, second)
    return change_basis(first, spec.basis), change_basis(second, spec.basis)


def _exists(spec: EquationSpec, v: Word, x_ad: Word, y_ad: Word, branch: str, trace: dict | None = None) -> Verdict:
    first, second = (x_ad, y_ad) if spec.frame == "adapted_xy" else _from_other_frame(spec, x_ad, y_ad)
    result = verify_solution(spec, v, first, second)
    if not (result.holds and result.faithful == (spec.solution_class == "faithful")):
        raise WitnessUnverified(f"unverified witness for branch {branch}")
    return Verdict("exists", branch, (first, second), True, trace=trace or {})


def pattern_witness(spec: EquationSpec, v: Word) -> Optional[tuple[Word, Word]]:
    """Syntactic witness families for the mixed cases (adapted frame).

    Walks the mixed-case families of ``tables.MIXED`` in order: relator
    powers, perfect squares and even powers, (alpha*beta)-powers, relator
    times a beta-power, and the single explicit beta^2-conjugate row.  The
    first pair that passes substitution, lies in the requested class and has
    its first unknown in the relator subgroup is returned.
    """
    faithful = spec.solution_class == "faithful"
    for family in MIXED:
        for pair in family.pairs(v):
            res = verify_solution(spec, v, *pair)
            if res.holds and res.x_in_n and res.faithful == faithful:
                return pair
    return None


def classify(spec: EquationSpec, v: Word, budgets: Budgets = Budgets()) -> Verdict:
    """Decide whether the family member has a solution of the requested class."""
    adapted = BasisTag.adapted(spec.epsilon)
    v_ad = v if v.basis == adapted else change_basis(v, adapted)
    spec_ad = replace(spec, frame="adapted_xy")
    vbar = project(v_ad)
    branch = table_branch(spec_ad, vbar, sgn(v_ad))
    if branch.kind == "abelian":
        return Verdict(
            "not_exists",
            branch.row,
            reason="abelian_obstruction",
            certificate="right-hand side has nonzero exponent sums",
        )
    if branch.kind == "not_exists":
        return Verdict("not_exists", branch.row, reason="table_branch")
    if branch.kind == "exists":
        assert branch.family is not None
        x_ad, y_ad = instantiate_witness(branch.family, v_ad)
        return _exists(spec, v, x_ad, y_ad, branch.row)
    if branch.kind == "degree_two":
        spec_z = replace(spec, frame="original_z")
        v_classic = change_basis(v_ad, spec_z.basis)
        pair = degree_two_witness(spec_z, v_classic)
        if pair is not None:
            res = verify_solution(spec_z, v_classic, *pair)
            if res.holds and res.faithful:
                if spec.frame == "original_z":
                    return Verdict("exists", branch.row, pair, True)
                return _exists(spec, v, *_from_other_frame(spec, *pair), branch.row)
        return Verdict(
            "undetermined",
            branch.row,
            trace={"note": "faithful query outside the degree-zero classification"},
        )
    # mixed case
    data = analyze_v(spec_ad, v_ad)
    decision = second_decide(data.case, data.V, budgets.l_window_override)
    trace = {"case": data.case.label(), "second_derived": decision.trace}
    if not decision.solvable:
        return Verdict(
            "not_exists",
            branch.row,
            reason="second_derived_unsolvable",
            certificate=decision.certificate,
            trace=trace,
        )
    trace["second_derived_solvable"] = {"ell": decision.ell, "L": decision.L}
    pair = pattern_witness(spec_ad, v_ad)
    if pair is not None:
        return _exists(spec, v, pair[0], pair[1], branch.row, trace)
    from .wicks import wicks_search

    try:
        report = wicks_search(spec_ad, v_ad, budgets.wicks_len)
    except BudgetExceeded as exc:
        trace["wicks"] = str(exc)
        trace["budgets"] = asdict(budgets)
        return Verdict("undetermined", branch.row, trace=trace)
    wanted = spec.solution_class == "faithful"
    for (x_ad, y_ad), faithful in report.solutions:
        if faithful == wanted:
            return _exists(spec, v, x_ad, y_ad, branch.row, trace)
    trace["wicks"] = {"solutions": len(report.solutions), "exhaustive": report.exhaustive}
    return Verdict(
        "not_exists",
        branch.row,
        reason="wicks_exhaustive",
        certificate="exhaustive canonical-solution analysis found no solution of the class",
        trace=trace,
    )
