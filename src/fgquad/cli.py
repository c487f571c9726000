"""Command-line front end: classification, fixtures, oracle runs, projections.

Output is one JSON object per input (JSON lines), deterministic across runs;
``--output text`` switches to a human-readable one-liner per input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterator, NamedTuple, Optional

from .classify import DEFAULT_ENUM_BOUND, Budgets, classify
from .derived import ConjData, analyze_v, first_solutions, second_decide
from .errors import FgquadError
from .groupring import q_n
from .surface import Pair, project
from .tables import locate, verify_tables
from .wicks import DEFAULT_WICKS_LEN, wicks_search
from .words import BasisTag, EquationSpec, Word, parse_word


def _sign(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value not in (1, -1):
        raise argparse.ArgumentTypeError("expected +1 or -1")
    return value


# add_argument keywords per flag; a budget flag's dest is its Budgets field
_FLAGS: dict[str, dict] = {
    "--epsilon": dict(type=_sign, required=True, help="relator sign (+1 or -1)"),
    "--delta": dict(type=_sign, required=True, help="equation sign (+1 or -1)"),
    "--theta": dict(type=_sign, required=True, help="conjugate exponent (+1 or -1)"),
    "--class": dict(
        dest="solution_class", choices=("faithful", "nonfaithful"), required=True, help="which solution class to decide"
    ),
    "--frame": dict(choices=("original", "adapted"), default="adapted", help="unknowns/basis frame (default: adapted)"),
    "--word": dict(help="conjugation parameter (word grammar)"),
    "--batch": dict(help="file with one word per line"),
    "--wicks-len": dict(
        dest="wicks_len", type=int, default=DEFAULT_WICKS_LEN, help="cyclic length budget (default %(default)s)"
    ),
    "--enum-bound": dict(
        dest="enum_bound", type=int, default=DEFAULT_ENUM_BOUND, help="enumeration bound (default %(default)s)"
    ),
    "--output": dict(choices=("jsonl", "text"), default="jsonl", help="output format (default jsonl)"),
}


def _spec(args: argparse.Namespace) -> EquationSpec:
    frame = "original_z" if args.frame == "original" else "adapted_xy"
    return EquationSpec(args.delta, args.epsilon, args.theta, args.solution_class, frame)


def _basis(args: argparse.Namespace) -> BasisTag:
    # qn and canon read their words in the adapted basis
    return _spec(args).basis if "frame" in args else BasisTag.adapted(args.epsilon)


def _budgets(args: argparse.Namespace) -> Budgets:
    """The command's budget flags; the budgets it does not read keep their defaults."""
    return Budgets(**{name: getattr(args, name) for name in Budgets._fields if name in args})


# ---------------------------------------------------------------------------
# Record shapes shared by several commands
# ---------------------------------------------------------------------------


def _vbar(g: Pair) -> dict:
    return {"r": g[0], "s": g[1]}


def _pair(first: Word, second: Word) -> dict:
    return {"first": str(first), "second": str(second)}


def _present(**fields) -> dict:
    """The fields whose value is not None, in order."""
    return {key: value for key, value in fields.items() if value is not None}


def _derived_head(text: str, data: ConjData) -> dict:
    return {"input": text, "case": data.case.label(), "vbar": _vbar(data.case.vbar), "V": str(data.V)}


# ---------------------------------------------------------------------------
# Commands: (args, input text, parsed word) -> output record
# ---------------------------------------------------------------------------


def _classify(args: argparse.Namespace, text: str, word: Word) -> dict:
    budgets = _budgets(args)
    verdict = classify(_spec(args), word, budgets)
    return {
        "input": text,
        "case": verdict.branch,
        "vbar": _vbar(project(word)),
        "verdict": verdict.outcome,
        **_present(
            reason=verdict.reason,
            witness=verdict.witness and _pair(*verdict.witness),
            certificate=verdict.certificate,
        ),
        "budgets": budgets._asdict(),
    }


def _verify_tables(args: argparse.Namespace, text: None, word: None) -> dict:
    report = verify_tables()
    failures = [{"row": f.row, "reason": f.reason} for f in report.failures]
    return {"checked": report.checked, "failures": failures}


def _wicks(args: argparse.Namespace, text: str, word: Word) -> dict:
    budgets = _budgets(args)
    report = wicks_search(_spec(args), word, budgets.wicks_len)
    return {
        "input": text,
        "solutions": [{**_pair(*pair), "faithful": faithful} for pair, faithful in report.solutions],
        "matches": len(report.matches),
        "exhaustive": True,
        "budgets": budgets._asdict(),
    }


def _first_derived(args: argparse.Namespace, text: str, word: Word) -> dict:
    budgets = _budgets(args)
    data = analyze_v(*locate(_spec(args), word))
    sols = first_solutions(data.case, budgets.enum_bound)
    solutions = [
        {
            "L": sol.L,
            "ell": sol.ell,
            "ybar": _vbar(sol.ybar),
            "xtilde": str(sol.xtilde),
            "x_word": str(sol.x_word),
            "y_word": str(sol.y_word),
        }
        for sol in sols
    ]
    return {**_derived_head(text, data), "solutions": solutions, "bound": budgets.enum_bound}


def _second_derived(args: argparse.Namespace, text: str, word: Word) -> dict:
    data = analyze_v(*locate(_spec(args), word))
    result = second_decide(data.case, data.V)
    return {
        **_derived_head(text, data),
        "verdict": "solvable" if result.solvable else "unsolvable",
        **_present(ell=result.ell, L=result.L, certificate=result.certificate),
        "trace": result.trace,
    }


def _qn(args: argparse.Namespace, text: str, word: Word) -> dict:
    return {"input": text, "qn": str(q_n(word))}


def _canon(args: argparse.Namespace, text: str, word: Word) -> dict:
    return {"input": text, "vbar": _vbar(project(word))}


class _Command(NamedTuple):
    """A subcommand: its help text, its record builder and its flags.  A
    command with spec flags reads ``--word``, or ``--batch`` if ``batch``."""

    help: str
    record: Callable[[argparse.Namespace, Optional[str], Optional[Word]], dict]
    spec: tuple[str, ...] = ()
    budgets: tuple[str, ...] = ()  # the budget flags the record reads
    batch: bool = False


_FULL = ("--epsilon", "--delta", "--theta", "--class", "--frame")

_COMMANDS: dict[str, _Command] = {
    "classify": _Command("classify one word or a batch file", _classify, _FULL, ("--wicks-len",), True),
    "verify-tables": _Command("substitution-check all fixture rows", _verify_tables),
    "wicks": _Command("run the Wicks-form oracle", _wicks, _FULL, ("--wicks-len",)),
    "first-derived": _Command("enumerate first-derived-equation solutions", _first_derived, _FULL, ("--enum-bound",)),
    "second-derived": _Command("decide the second derived equation", _second_derived, _FULL),
    "qn": _Command("project a relator-subgroup word to the group ring", _qn, ("--epsilon",)),
    "canon": _Command("canonical form of a word in the quotient group", _canon, ("--epsilon",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgquad",
        description="Existence engine for the quadratic equation families in the rank-2 free group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.spec:
            p.add_argument(flag, **_FLAGS[flag])
        if command.spec:
            words = p.add_mutually_exclusive_group(required=True)
            for flag in ("--word", "--batch") if command.batch else ("--word",):
                words.add_argument(flag, **_FLAGS[flag])
        for flag in command.budgets + ("--output",):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _emit(output: str, record: dict, stream) -> None:
    if output == "jsonl":
        stream.write(json.dumps(record) + "\n")
    else:
        parts = [f"{key}={json.dumps(value)}" for key, value in record.items()]
        stream.write("  ".join(parts) + "\n")


def _inputs(args: argparse.Namespace) -> Iterator[tuple[Optional[int], Optional[str]]]:
    """(line number, text) per input: the nonblank lines of ``--batch``,
    numbered from 1 with blank lines counted, or ``--word`` unnumbered."""
    if getattr(args, "batch", None):
        try:
            with open(args.batch, encoding="utf-8") as handle:
                content = handle.read()
        except UnicodeDecodeError:
            raise OSError(f"cannot read {args.batch}: not UTF-8 text") from None
        for number, line in enumerate(content.split("\n"), 1):
            if line.strip():
                yield number, line.strip()
    else:
        yield None, getattr(args, "word", None)


def _message(exc: Exception) -> str:
    """The text of a failed input's error; a MemoryError usually carries none."""
    return str(exc) or "out of memory"


def _run(args: argparse.Namespace, stream) -> int:
    command = _COMMANDS[args.command]
    _budgets(args)  # a bad budget fails the whole command, not each line
    status = 0
    for number, text in _inputs(args):
        try:
            word = parse_word(text, _basis(args)) if command.spec else None
            record = command.record(args, text, word)
        except (FgquadError, MemoryError) as exc:
            if number is None:
                raise
            record = {"input": text, "line": number, "error": _message(exc)}
        if "error" in record or record.get("failures"):  # a bad line, or failing fixture rows
            status = 1
        _emit(args.output, record, stream)
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, sys.stdout)
    except (FgquadError, MemoryError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
