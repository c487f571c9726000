"""The public names of the package.

A name that is added or removed shows up as a diff of this list.
"""

import ast
import dataclasses
import functools
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


# bench/checks.py reads it, and no src path does
BENCH_ONLY = {"Verdict.verified"}


@functools.cache
def _src_references() -> tuple[set[str], set[str]]:
    """Over the src modules but ``__init__.py``: the names and attributes
    that occur, and the attributes that are read, each outside the body of a
    function of the same name (so a recursive call, or a property that reads
    its own name, is not a use)."""
    used: set[str] = set()
    read: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in sorted(Path(fgquad.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(), str(path)), frozenset())
    return used, read


def test_every_public_function_runs_in_src():
    # a public function that no src module uses exists only for the tests
    used, _ = _src_references()
    functions = {name for name in fgquad.__all__ if inspect.isfunction(getattr(fgquad, name))}
    assert TRACER_ONLY <= functions
    assert sorted(functions - used) == sorted(TRACER_ONLY)


_MEMBER_KINDS = (types.FunctionType, staticmethod, classmethod, property, functools.cached_property)


def _public_members(cls: type) -> set[str]:
    """The dataclass fields, methods and properties of ``cls`` and of its
    bases in the package, less the names that start with an underscore."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    for klass in cls.__mro__:
        if klass.__module__.startswith("fgquad."):
            names |= {name for name, value in vars(klass).items() if isinstance(value, _MEMBER_KINDS)}
    return {name for name in names if not name.startswith("_")}


def test_every_public_member_runs_in_src():
    # a field, method or property that no src module reads as an attribute
    # exists only for the tests.  The scan goes by name, so it cannot see a
    # member whose name another attribute shares: MixedCase.theta, always -1,
    # read nowhere, passed it because src reads spec.theta.
    _, read = _src_references()
    classes = [getattr(fgquad, name) for name in fgquad.__all__ if inspect.isclass(getattr(fgquad, name))]
    unread = {
        f"{cls.__name__}.{member}"
        for cls in classes
        if not issubclass(cls, BaseException)
        for member in _public_members(cls)
        if member not in read
    }
    assert unread == BENCH_ONLY


def test_classify_calls_analyze_v_by_its_module_global():
    # bench/tracer.py times analyze_v by wrapping fgquad.classify.analyze_v,
    # and bench/test_bench.py reads that name
    assert importlib.import_module("fgquad.classify").analyze_v is importlib.import_module("fgquad.derived").analyze_v
