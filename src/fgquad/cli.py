"""Command-line front end: classification, fixtures, oracle runs, projections.

Output is one JSON object per input (JSON lines), deterministic across runs;
``--output text`` switches to a human-readable one-liner per input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Callable, Optional

from .classify import Budgets, classify
from .derived import ConjData, analyze_v, first_solutions, second_decide
from .errors import FgquadError
from .groupring import q_n
from .surface import PiElement, project
from .tables import locate, verify_tables
from .wicks import wicks_search
from .words import BasisTag, EquationSpec, Word, parse_word


def _sign(text: str) -> int:
    value = int(text)
    if value not in (1, -1):
        raise argparse.ArgumentTypeError("expected +1 or -1")
    return value


def _add_spec_flags(parser: argparse.ArgumentParser, need_full: bool) -> None:
    parser.add_argument("--epsilon", type=_sign, required=True, help="relator sign (+1 or -1)")
    if need_full:
        parser.add_argument("--delta", type=_sign, required=True, help="equation sign (+1 or -1)")
        parser.add_argument("--theta", type=_sign, required=True, help="conjugate exponent (+1 or -1)")
        parser.add_argument(
            "--class",
            dest="solution_class",
            choices=("faithful", "nonfaithful"),
            required=True,
            help="which solution class to decide",
        )
        parser.add_argument(
            "--frame",
            choices=("original", "adapted"),
            default="adapted",
            help="unknowns/basis frame (default: adapted)",
        )


def _add_word_flags(parser: argparse.ArgumentParser, batch: bool = False) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="conjugation parameter (word grammar)")
    if batch:
        group.add_argument("--batch", help="file with one word per line")


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    default = Budgets()
    parser.add_argument(
        "--wicks-len", type=int, default=default.wicks_len, help="cyclic length budget (default %(default)s)"
    )
    parser.add_argument(
        "--enum-bound", type=int, default=default.enum_bound, help="enumeration bound (default %(default)s)"
    )
    parser.add_argument("--l-window", type=int, default=None, help="widen the translation window")
    parser.add_argument(
        "--output", choices=("jsonl", "text"), default="jsonl", help="output format (default jsonl)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgquad",
        description="Existence engine for the quadratic equation families in the rank-2 free group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one word or a batch file")
    _add_spec_flags(p, need_full=True)
    _add_word_flags(p, batch=True)
    _add_budget_flags(p)

    p = sub.add_parser("verify-tables", help="substitution-check all fixture rows")
    p.add_argument("--output", choices=("jsonl", "text"), default="jsonl")

    for name, help_text in (
        ("wicks", "run the Wicks-form oracle"),
        ("first-derived", "enumerate first-derived-equation solutions"),
        ("second-derived", "decide the second derived equation"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_spec_flags(p, need_full=True)
        _add_word_flags(p)
        _add_budget_flags(p)

    for name, help_text in (
        ("qn", "project a relator-subgroup word to the group ring"),
        ("canon", "canonical form of a word in the quotient group"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_spec_flags(p, need_full=False)
        _add_word_flags(p)
        p.add_argument("--output", choices=("jsonl", "text"), default="jsonl")

    return parser


def _spec(args: argparse.Namespace) -> EquationSpec:
    frame = "original_z" if args.frame == "original" else "adapted_xy"
    return EquationSpec(args.delta, args.epsilon, args.theta, args.solution_class, frame)


def _budgets(args: argparse.Namespace) -> Budgets:
    return Budgets(args.wicks_len, args.enum_bound, args.l_window)


# ---------------------------------------------------------------------------
# Record shapes shared by several commands
# ---------------------------------------------------------------------------


def _vbar(g: PiElement) -> dict:
    return {"r": g.r, "s": g.s}


def _pair(first: Word, second: Word) -> dict:
    return {"first": str(first), "second": str(second)}


def _present(**fields) -> dict:
    """The fields whose value is not None, in order."""
    return {key: value for key, value in fields.items() if value is not None}


def _derived_head(text: str, data: ConjData) -> dict:
    return {"input": text, "case": data.case.label(), "vbar": _vbar(data.vbar), "V": str(data.V)}


# ---------------------------------------------------------------------------
# Per-word commands: (args, input text, parsed word) -> output record
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
        "budgets": asdict(budgets),
    }


def _wicks(args: argparse.Namespace, text: str, word: Word) -> dict:
    budgets = _budgets(args)
    report = wicks_search(_spec(args), word, budgets.wicks_len)
    return {
        "input": text,
        "solutions": [{**_pair(*pair), "faithful": faithful} for pair, faithful in report.solutions],
        "matches": len(report.matches),
        "exhaustive": report.exhaustive,
        "budgets": asdict(budgets),
    }


def _first_derived(args: argparse.Namespace, text: str, word: Word) -> dict:
    budgets = _budgets(args)
    data = analyze_v(*locate(_spec(args), word))
    sols = first_solutions(data.case, data.vbar, budgets.enum_bound)
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
    budgets = _budgets(args)
    data = analyze_v(*locate(_spec(args), word))
    result = second_decide(data.case, data.V, budgets.l_window_override)
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


_PER_WORD: dict[str, Callable[[argparse.Namespace, str, Word], dict]] = {
    "classify": _classify,
    "wicks": _wicks,
    "first-derived": _first_derived,
    "second-derived": _second_derived,
    "qn": _qn,
    "canon": _canon,
}


def _emit(output: str, record: dict, stream) -> None:
    if output == "jsonl":
        stream.write(json.dumps(record) + "\n")
    else:
        parts = [f"{key}={json.dumps(value)}" for key, value in record.items()]
        stream.write("  ".join(parts) + "\n")


def _words_from_args(args: argparse.Namespace, basis: BasisTag) -> list[tuple[str, Word]]:
    if getattr(args, "batch", None):
        try:
            with open(args.batch, encoding="utf-8") as handle:
                texts = [line.strip() for line in handle if line.strip()]
        except UnicodeDecodeError:
            raise OSError(f"cannot read {args.batch}: not UTF-8 text") from None
    else:
        texts = [args.word]
    return [(text, parse_word(text, basis)) for text in texts]


def _run(args: argparse.Namespace, stream) -> int:
    if args.command == "verify-tables":
        report = verify_tables()
        failures = [{"row": f.row, "reason": f.reason} for f in report.failures]
        _emit(args.output, {"checked": report.checked, "failures": failures}, stream)
        return 1 if failures else 0
    # qn and canon read their words in the adapted basis
    basis = _spec(args).basis if "frame" in args else BasisTag.adapted(args.epsilon)
    command = _PER_WORD[args.command]
    for text, word in _words_from_args(args, basis):
        _emit(args.output, command(args, text, word), stream)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, sys.stdout)
    except FgquadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
