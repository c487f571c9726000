"""The public names of the package.

A name that is added or removed shows up as a diff of this list.
"""

import ast
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


# bench/tracer.py wraps these by name, and no src path calls them since the
# orbit keys and q_n's integer-pair walk; they leave with the tracer retarget
TRACER_ONLY = {"fox_derivative", "exact_divide", "same_orbit"}


def _references(tree: ast.AST) -> set[str]:
    """Names loaded or attributes read in ``tree``, outside the body of a
    function of the same name (so a recursive call is not a use)."""
    found: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_public_function_runs_in_src():
    # a public function that no src module uses exists only for the tests
    src = Path(fgquad.__file__).parent
    used: set[str] = set()
    for path in sorted(src.glob("*.py")):
        if path.name != "__init__.py":
            used |= _references(ast.parse(path.read_text(), str(path)))
    functions = {name for name in fgquad.__all__ if inspect.isfunction(getattr(fgquad, name))}
    assert TRACER_ONLY <= functions
    assert sorted(functions - used) == sorted(TRACER_ONLY)
