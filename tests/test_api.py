"""The public names of the package.

A name that is added or removed shows up as a diff of this list.
"""

import ast
import builtins
import functools
import importlib
import importlib.util
import inspect
import os
from pathlib import Path
import subprocess
import sys
import types

import pytest

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
    "InvalidSpec",
    "MixedCase",
    "NotDivisible",
    "NotInKernel",
    "NotMixedCase",
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
    "odd_part",
    "orbit_key",
    "p_q",
    "parse_word",
    "pattern_witness",
    "project",
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


def test_import_loads_no_code_generating_modules():
    # the records build no code at import: importing the package, in a fresh
    # interpreter with no site hooks, loads neither dataclasses nor inspect
    root = str(Path(fgquad.__file__).parents[1])
    code = "import sys, fgquad; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=root), capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "build",
    [
        lambda: fgquad.HatAbs(0, (0, 0)),
        lambda: fgquad.BasisTag("adapted", 0),
        lambda: fgquad.BasisTag("canonical", 1),
        lambda: fgquad.odd_part(0),
        lambda: fgquad.HatAbs(-1, (0, 1)),
        lambda: fgquad.Tilde(0),
        lambda: fgquad.fox_derivative(fgquad.Word.identity(fgquad.BasisTag.adapted(1)), "c"),
    ],
    ids=["HatAbs-epsilon", "BasisTag-epsilon", "BasisTag-kind", "odd_part", "HatAbs", "Tilde", "fox_derivative"],
)
def test_parameter_out_of_domain_is_a_typed_error(build):
    # every failure is an FgquadError; a bad parameter is still a ValueError
    with pytest.raises(fgquad.InvalidSpec) as exc:
        build()
    assert isinstance(exc.value, fgquad.FgquadError) and isinstance(exc.value, ValueError)


def test_records_refuse_assignment_and_deletion():
    records = [
        (fgquad.Word.identity(fgquad.BasisTag.adapted(1)), "syls"),
        (fgquad.HatAbs(-1, (1, 2)), "u"),
        (fgquad.EquationSpec(1, -1, -1, "faithful", "adapted_xy"), "frame"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) is not None


# every module of src/fgquad but __init__.py, each importing only modules
# listed before it
LAYERS = [
    "errors", "record", "words", "surface", "groupring", "quotient", "orbits",
    "tables", "derived", "wicks", "classify", "cli",
]


def _imported_modules(node: ast.AST) -> list[str]:
    """The package modules that an import statement names, by file stem;
    ``"fgquad"`` for the package itself."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 1:
        names = [f"fgquad.{node.module}"] if node.module else [f"fgquad.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module == "fgquad":
        names = [f"fgquad.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return []
    return [name.split(".")[1] if "." in name else name for name in names if name.split(".")[0] == "fgquad"]


def test_modules_import_only_earlier_layers():
    # every import inside the package, at module level or in a function body,
    # points at an earlier layer, so the package has no import cycle
    src = Path(fgquad.__file__).parent
    modules = sorted(path.stem for path in src.glob("*.py") if path.name != "__init__.py")
    assert modules == sorted(LAYERS)
    rank = {name: i for i, name in enumerate(LAYERS)}
    backward = [
        (module, target)
        for module in LAYERS
        for node in ast.walk(ast.parse((src / f"{module}.py").read_text()))
        for target in _imported_modules(node)
        if rank.get(target, len(LAYERS)) >= rank[module]
    ]
    assert backward == []


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


# defaulted parameters that no src call passes: main's argv is for callers
# outside the package
UNPASSED_DEFAULTS = {"main(argv)"}


@functools.cache
def _src_references() -> tuple[set[str], set[str], dict[str, list[ast.Call]]]:
    """Over the src modules but ``__init__.py``: the names and attributes
    that occur, the attributes that are read, and the calls by the name or
    attribute called, each outside the body of a function of the same name
    (so a recursive call, or a property that reads its own name, is not a
    use)."""
    used: set[str] = set()
    read: set[str] = set()
    calls: dict[str, list[ast.Call]] = {}

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        elif isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            if callee is not None and callee not in inside:
                calls.setdefault(callee, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in _src_trees():
        visit(tree, frozenset())
    return used, read, calls


@functools.cache
def _src_trees() -> list[ast.Module]:
    return [
        ast.parse(path.read_text(), str(path))
        for path in sorted(Path(fgquad.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
    ]


def test_every_public_function_runs_in_src():
    # a public function that no src module uses exists only for the tests
    used, _, _ = _src_references()
    functions = {name for name in fgquad.__all__ if inspect.isfunction(getattr(fgquad, name))}
    assert TRACER_ONLY <= functions
    assert sorted(functions - used) == sorted(TRACER_ONLY)


_MEMBER_KINDS = (types.FunctionType, staticmethod, classmethod, property, functools.cached_property)


def _public_members(cls: type) -> set[str]:
    """The fields, methods and properties of ``cls`` and of its bases in the
    package, less the names that start with an underscore.  A NamedTuple
    lists its fields in ``_fields``; a slotted class has them in the
    ``__slots__`` of its classes."""
    names = set(cls._fields) if issubclass(cls, tuple) else set()
    for klass in cls.__mro__:
        if klass.__module__.startswith("fgquad."):
            names |= set(vars(klass).get("__slots__", ()))
            names |= {name for name, value in vars(klass).items() if isinstance(value, _MEMBER_KINDS)}
    return {name for name in names if not name.startswith("_")}


def test_public_members_list_record_fields():
    # the member guard below sees the fields of slotted classes and NamedTuples
    assert {"outcome", "verified", "trace"} <= _public_members(fgquad.Verdict)
    assert {"basis", "syls"} <= _public_members(fgquad.Word)
    assert _public_members(fgquad.Budgets) == {"wicks_len", "enum_bound"}
    assert {"epsilon", "mod", "terms"} <= _public_members(fgquad.RingElement)
    assert {"n", "L"} <= _public_members(fgquad.TildeL)
    assert {"kind", "n", "m", "label"} <= _public_members(fgquad.MixedCase)


def test_every_public_member_runs_in_src():
    # a field, method or property that no src module reads as an attribute
    # exists only for the tests.  The scan goes by name, so it cannot see a
    # member whose name another attribute shares: MixedCase.theta, always -1,
    # read nowhere, passed it because src reads spec.theta.
    _, read, _ = _src_references()
    classes = [getattr(fgquad, name) for name in fgquad.__all__ if inspect.isclass(getattr(fgquad, name))]
    unread = {
        f"{cls.__name__}.{member}"
        for cls in classes
        if not issubclass(cls, BaseException)
        for member in _public_members(cls)
        if member not in read
    }
    assert unread == BENCH_ONLY


def _passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name``, at positional
    ``index`` if it has one; a starred argument may pass any parameter."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return index is not None and (starred or len(call.args) > index)


def test_every_defaulted_parameter_is_passed_in_src():
    # a default that every src call keeps is a setting no caller makes
    _, _, calls = _src_references()
    unpassed = set()
    for tree in _src_trees():
        for owner in [tree, *(node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))]:
            for fn in owner.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                bound = isinstance(owner, ast.ClassDef) and not static  # self or cls
                positional = fn.args.posonlyargs + fn.args.args
                first_default = len(positional) - len(fn.args.defaults)
                params = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first_default]
                params += [(arg.arg, None) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
                qualname = f"{owner.name}.{fn.name}" if isinstance(owner, ast.ClassDef) else fn.name
                callee = owner.name if fn.name == "__init__" else fn.name  # a constructor runs by its class
                unpassed |= {
                    f"{qualname}({name})"
                    for name, index in params
                    if not any(_passes(call, name, index) for call in calls.get(callee, []))
                }
    assert unpassed == UNPASSED_DEFAULTS


def test_classify_calls_analyze_v_by_its_module_global():
    # bench/tracer.py times analyze_v by wrapping fgquad.classify.analyze_v,
    # and bench/test_bench.py reads that name
    assert importlib.import_module("fgquad.classify").analyze_v is importlib.import_module("fgquad.derived").analyze_v


def _modules() -> list[Path]:
    """The Python files of the package and of the tests."""
    root = Path(fgquad.__file__).parents[2]
    return sorted([*(root / "src" / "fgquad").glob("*.py"), *(root / "tests").glob("*.py")])


def test_no_unused_imports():
    # an imported name that the module never reads, nor lists in __all__;
    # the scan is per file, not per scope
    unused = []
    for path in _modules():
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
                used |= {item.value for item in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.parent.name}/{path.name}:{node.lineno}: {name}" for name in names if name not in used]
    assert unused == []


# raises in src of a class outside FgquadError, each for a protocol outside
# the package: a Record refuses assignment as a frozen object does, argparse
# reads ArgumentTypeError from a type converter, and an unreadable --batch
# file is an OSError like those of open itself
FOREIGN_RAISES = {"record: AttributeError", "cli: ArgumentTypeError", "cli: OSError"}


def _resolve(node: ast.expr, namespace: dict) -> object:
    """The object a dotted name stands for in a module's namespace or the
    builtins."""
    if isinstance(node, ast.Name):
        return namespace[node.id] if node.id in namespace else getattr(builtins, node.id)
    assert isinstance(node, ast.Attribute), ast.unparse(node)
    return getattr(_resolve(node.value, namespace), node.attr)


def test_src_raises_only_package_errors():
    # every raise in src names its class, or calls a function whose return
    # annotation does (words' parser builds its errors with ``self.error``)
    foreign = set()
    for path in _modules():
        if path.parent.name != "fgquad":
            continue
        tree = ast.parse(path.read_text(), str(path))
        module = fgquad if path.stem == "__init__" else importlib.import_module(f"fgquad.{path.stem}")
        returns = {node.name: node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Attribute) and returns.get(target.attr) is not None:
                target = returns[target.attr]
            raised = _resolve(target, vars(module))
            assert isinstance(raised, type) and issubclass(raised, BaseException), ast.unparse(node)
            if not issubclass(raised, fgquad.FgquadError):
                foreign.add(f"{path.stem}: {raised.__name__}")
    assert foreign == FOREIGN_RAISES
