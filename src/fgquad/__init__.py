"""Exact decision engine for quadratic equation families in the rank-2 free group."""

from .classify import Budgets, Verdict, classify, pattern_witness
from .derived import (
    ConjData,
    DecideResult,
    FirstSolution,
    MixedCase,
    analyze_v,
    first_solutions,
    second_decide,
)
from .errors import (
    BasisMismatch,
    BudgetExceeded,
    CaseMismatch,
    DomainMismatch,
    EpsilonMismatch,
    ExtractionFailed,
    FgquadError,
    InconsistentSign,
    InvalidBudget,
    NotDivisible,
    NotInKernel,
    NotMixedCase,
    SingularBase,
    WitnessUnverified,
    WordSyntaxError,
)
from .groupring import (
    RingElement,
    alt_geom_ratio,
    exact_divide,
    fox_derivative,
    geom_ratio,
    q_n,
)
from .orbits import (
    ElementClass,
    HatAbs,
    HatL,
    Tilde,
    TildeL,
    augment,
    element_class,
    odd_part,
    orbit_key,
    same_orbit,
)
from .quotient import QElement, p_q, q_divisible_by_two
from .surface import PiElement, project
from .tables import verify_tables
from .wicks import WicksMatch, WicksReport, extract_solution, wicks_decompositions, wicks_search
from .words import (
    BasisTag,
    EquationSpec,
    VerifyResult,
    Word,
    change_basis,
    comm,
    conj,
    cyclic_reduce,
    equation_rhs,
    parse_word,
    relator,
    relator_in,
    sgn,
    square_root,
    verify_solution,
)

# one line group per import above; the submodules stay attributes of the
# package but are not exported
__all__ = [
    "Budgets", "Verdict", "classify", "pattern_witness",
    "ConjData", "DecideResult", "FirstSolution", "MixedCase", "analyze_v", "first_solutions",
    "second_decide",
    "BasisMismatch", "BudgetExceeded", "CaseMismatch", "DomainMismatch", "EpsilonMismatch",
    "ExtractionFailed", "FgquadError", "InconsistentSign", "InvalidBudget", "NotDivisible",
    "NotInKernel", "NotMixedCase", "SingularBase", "WitnessUnverified", "WordSyntaxError",
    "RingElement", "alt_geom_ratio", "exact_divide", "fox_derivative", "geom_ratio", "q_n",
    "ElementClass", "HatAbs", "HatL", "Tilde", "TildeL", "augment", "element_class", "odd_part",
    "orbit_key", "same_orbit",
    "QElement", "p_q", "q_divisible_by_two",
    "PiElement", "project",
    "verify_tables",
    "WicksMatch", "WicksReport", "extract_solution", "wicks_decompositions", "wicks_search",
    "BasisTag", "EquationSpec", "VerifyResult", "Word", "change_basis", "comm", "conj",
    "cyclic_reduce", "equation_rhs", "parse_word", "relator", "relator_in", "sgn", "square_root",
    "verify_solution",
]

__version__ = "0.1.0"
