"""Top-level existence classifier with certified verdicts.

Verdict precedence: abelianization obstruction, explicit table branch,
second-derived-equation decider, pattern witness, Wicks search, undetermined.
Non-existence certificates name the closed branch or the violated
augmentation condition; existence certificates are substitution-verified
witness pairs; undetermined verdicts carry the trace of what was tried.
"""

from __future__ import annotations

from typing import Literal, Optional

from .derived import analyze_v, second_decide
from .errors import BudgetExceeded, InvalidBudget, WitnessUnverified
from .record import Record
from .surface import project
from .tables import MIXED, degree_two_witness, instantiate_witness, locate
from .wicks import DEFAULT_WICKS_LEN, wicks_search
from .words import EquationSpec, Frame, Word, change_basis, primitive_root, swap_frame, verify_solution

Outcome = Literal["exists", "not_exists", "undetermined"]
Reason = Literal[
    "abelian_obstruction",
    "table_branch",
    "second_derived_unsolvable",
    "wicks_exhaustive",
]


DEFAULT_ENUM_BOUND = 8  # cap on the infinite enumeration families


class Budgets(Record):
    __slots__ = ("wicks_len", "enum_bound", "l_window_override")
    wicks_len: int
    enum_bound: int
    l_window_override: Optional[int]

    def __init__(
        self,
        wicks_len: int = DEFAULT_WICKS_LEN,
        enum_bound: int = DEFAULT_ENUM_BOUND,
        l_window_override: Optional[int] = None,
    ) -> None:
        if wicks_len <= 0 or enum_bound <= 0:
            raise InvalidBudget("budgets must be positive")
        object.__setattr__(self, "wicks_len", wicks_len)
        object.__setattr__(self, "enum_bound", enum_bound)
        object.__setattr__(self, "l_window_override", l_window_override)


class Verdict(Record):
    __slots__ = ("outcome", "branch", "witness", "verified", "reason", "certificate", "trace")
    outcome: Outcome
    branch: str
    witness: Optional[tuple[Word, Word]]
    verified: bool
    reason: Optional[Reason]
    certificate: Optional[str]
    trace: dict

    def __init__(
        self,
        outcome: Outcome,
        branch: str,
        witness: Optional[tuple[Word, Word]] = None,
        verified: bool = False,
        reason: Optional[Reason] = None,
        certificate: Optional[str] = None,
        trace: Optional[dict] = None,
    ) -> None:
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "verified", verified)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "trace", {} if trace is None else trace)


def _exists(
    spec: EquationSpec, v: Word, pair: tuple[Word, Word], frame: Frame, row: str, trace: dict | None = None
) -> Verdict:
    """The verdict for a witness ``pair`` written in ``frame``: carried to the
    spec's frame and basis, then substitution-checked there."""
    first, second = pair
    if frame != spec.frame:
        first, second = swap_frame(spec.delta, first, second)
        first, second = change_basis(first, spec.basis), change_basis(second, spec.basis)
    result = verify_solution(spec, v, first, second)
    if not (result.holds and result.faithful == (spec.solution_class == "faithful")):
        raise WitnessUnverified(f"unverified witness for branch {row}")
    return Verdict("exists", row, (first, second), True, trace=trace)


def pattern_witness(spec: EquationSpec, v: Word) -> Optional[tuple[Word, Word]]:
    """Syntactic witness families for the mixed cases (adapted frame).

    Walks the mixed-case families of ``tables.MIXED`` in order: relator
    powers, perfect squares and even powers, (alpha*beta)-powers, relator
    times a beta-power, and the single explicit beta^2-conjugate row.  The
    first pair that passes substitution, lies in the requested class and has
    its first unknown in the relator subgroup is returned.  The primitive
    root of ``v`` is computed once, for all the families.
    """
    faithful = spec.solution_class == "faithful"
    shape = primitive_root(v)
    for family in MIXED:
        for pair in family.pairs(v, *shape):
            res = verify_solution(spec, v, *pair)
            if res.holds and res.faithful == faithful and project(pair[0]).is_identity:
                return pair
    return None


def classify(spec: EquationSpec, v: Word, budgets: Budgets = Budgets()) -> Verdict:
    """Decide whether the family member has a solution of the requested class."""
    v_ad, vbar, branch = locate(spec, v)
    spec_ad = EquationSpec(spec.delta, spec.epsilon, spec.theta, spec.solution_class, "adapted_xy")
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
        return _exists(spec, v, instantiate_witness(branch.family, v_ad), "adapted_xy", branch.row)
    if branch.kind == "degree_two":
        spec_z = EquationSpec(spec.delta, spec.epsilon, spec.theta, spec.solution_class, "original_z")
        pair = degree_two_witness(spec_z, change_basis(v, spec_z.basis))
        if pair is None:
            return Verdict(
                "undetermined",
                branch.row,
                trace={"note": "faithful query outside the degree-zero classification"},
            )
        return _exists(spec, v, pair, "original_z", branch.row)
    # mixed case
    data = analyze_v(v_ad, vbar, branch)
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
        return _exists(spec, v, pair, "adapted_xy", branch.row, trace)

    try:
        report = wicks_search(spec_ad, v_ad, budgets.wicks_len, spec.solution_class)
    except BudgetExceeded as exc:
        trace["wicks"] = str(exc)
        trace["budgets"] = budgets._asdict()
        return Verdict("undetermined", branch.row, trace=trace)
    wanted = spec.solution_class == "faithful"
    for pair, faithful in report.solutions:
        if faithful == wanted:
            return _exists(spec, v, pair, "adapted_xy", branch.row, trace)
    trace["wicks"] = {"solutions": len(report.solutions), "exhaustive": True}
    return Verdict(
        "not_exists",
        branch.row,
        reason="wicks_exhaustive",
        certificate="exhaustive canonical-solution analysis found no solution of the class",
        trace=trace,
    )
