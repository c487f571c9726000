"""The public names of the package.

A name that is added or removed shows up as a diff of this list.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path
import types

import fgquad

PUBLIC = [
    "BasisMismatch",
    "BasisTag",
    "BudgetExceeded",
    "Budgets",
    "CaseMismatch",
    "ConjData",
    "DecideResult",
    "DomainMismatch",
    "ElementClass",
    "EpsilonMismatch",
    "EquationSpec",
    "ExtractionFailed",
    "FgquadError",
    "FirstSolution",
    "HatAbs",
    "HatL",
    "InconsistentSign",
    "InvalidBudget",
    "MixedCase",
    "NotDivisible",
    "NotInKernel",
    "NotMixedCase",
    "PiElement",
    "QElement",
    "RingElement",
    "SingularBase",
    "Tilde",
    "TildeL",
    "Verdict",
    "VerifyResult",
    "WicksMatch",
    "WicksReport",
    "WitnessUnverified",
    "Word",
    "WordSyntaxError",
    "alt_geom_ratio",
    "analyze_v",
    "apply_phi",
    "augment",
    "change_basis",
    "classify",
    "comm",
    "conj",
    "cyclic_reduce",
    "element_class",
    "equation_rhs",
    "exact_divide",
    "extract_solution",
    "first_solutions",
    "fox_derivative",
    "geom_ratio",
    "odd_part",
    "orbit_key",
    "p_q",
    "parse_word",
    "pattern_witness",
    "project",
    "q_divisible_by_two",
    "q_n",
    "q_nf_commutator",
    "rank1_check",
    "relator",
    "relator_in",
    "same_orbit",
    "second_decide",
    "sgn",
    "square_root",
    "verify_solution",
    "verify_tables",
    "wicks_decompositions",
    "wicks_search",
]


def test_public_names():
    assert sorted(fgquad.__all__) == PUBLIC


def test_submodules_are_attributes_but_not_exported():
    # the benchmark reads fgquad.words and fgquad.wicks as attributes
    namespace: dict = {}
    exec("from fgquad import *", namespace)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
    assert isinstance(fgquad.words, types.ModuleType) and isinstance(fgquad.wicks, types.ModuleType)


def test_traced_names_resolve():
    # the benchmark tracer wraps these functions by name; a missing one would
    # break every traced run
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in tracer.TRACED:
        module, function = name.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"fgquad.{module}"), function, None)), name
