"""Command-line front end: classification, fixtures, oracle runs, projections.

Output is one JSON object per input (JSON lines), deterministic across runs;
``--output text`` switches to a human-readable one-liner per input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from .classify import Budgets, Verdict, classify
from .derived import analyze_v, first_solutions, second_decide
from .errors import FgquadError
from .groupring import q_n
from .surface import project
from .tables import verify_tables
from .words import BasisTag, EquationSpec, Word, parse_word


@dataclass(frozen=True)
class SessionConfig:
    epsilon: int
    delta: int = 1
    theta: int = -1
    solution_class: str = "nonfaithful"
    frame: str = "adapted_xy"
    budgets: Budgets = Budgets()
    output: str = "jsonl"

    @property
    def basis(self) -> BasisTag:
        if self.frame == "original_z":
            return BasisTag.classic(self.epsilon)
        return BasisTag.adapted(self.epsilon)

    @property
    def spec(self) -> EquationSpec:
        return EquationSpec(
            self.delta, self.epsilon, self.theta, self.solution_class, self.frame  # type: ignore[arg-type]
        )


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
    parser.add_argument("--wicks-len", type=int, default=64, help="cyclic length budget (default 64)")
    parser.add_argument("--enum-bound", type=int, default=8, help="enumeration bound (default 8)")
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

    p = sub.add_parser("wicks", help="run the Wicks-form oracle")
    _add_spec_flags(p, need_full=True)
    _add_word_flags(p)
    _add_budget_flags(p)

    p = sub.add_parser("first-derived", help="enumerate first-derived-equation solutions")
    _add_spec_flags(p, need_full=True)
    _add_word_flags(p)
    _add_budget_flags(p)

    p = sub.add_parser("second-derived", help="decide the second derived equation")
    _add_spec_flags(p, need_full=True)
    _add_word_flags(p)
    _add_budget_flags(p)

    p = sub.add_parser("qn", help="project a relator-subgroup word to the group ring")
    _add_spec_flags(p, need_full=False)
    _add_word_flags(p)
    p.add_argument("--output", choices=("jsonl", "text"), default="jsonl")

    p = sub.add_parser("canon", help="canonical form of a word in the quotient group")
    _add_spec_flags(p, need_full=False)
    _add_word_flags(p)
    p.add_argument("--output", choices=("jsonl", "text"), default="jsonl")

    return parser


def _config(args: argparse.Namespace) -> SessionConfig:
    budgets = Budgets(
        wicks_len=getattr(args, "wicks_len", 64),
        enum_bound=getattr(args, "enum_bound", 8),
        l_window_override=getattr(args, "l_window", None),
    )
    frame = "original_z" if getattr(args, "frame", "adapted") == "original" else "adapted_xy"
    return SessionConfig(
        epsilon=args.epsilon,
        delta=getattr(args, "delta", 1),
        theta=getattr(args, "theta", -1),
        solution_class=getattr(args, "solution_class", "nonfaithful"),
        frame=frame,
        budgets=budgets,
        output=args.output,
    )


def _budget_json(budgets: Budgets) -> dict:
    return {
        "wicks_len": budgets.wicks_len,
        "enum_bound": budgets.enum_bound,
        "l_window_override": budgets.l_window_override,
    }


def _verdict_json(cfg: SessionConfig, text: str, v: Word, verdict: Verdict) -> dict:
    vbar = project(v)
    out: dict = {
        "input": text,
        "case": verdict.branch,
        "vbar": {"r": vbar.r, "s": vbar.s},
        "verdict": verdict.outcome,
    }
    if verdict.reason is not None:
        out["reason"] = verdict.reason
    if verdict.witness is not None:
        out["witness"] = {"first": str(verdict.witness[0]), "second": str(verdict.witness[1])}
    if verdict.certificate is not None:
        out["certificate"] = verdict.certificate
    out["budgets"] = _budget_json(cfg.budgets)
    return out


def _emit(cfg_output: str, record: dict, stream) -> None:
    if cfg_output == "jsonl":
        stream.write(json.dumps(record) + "\n")
    else:
        parts = [f"{key}={json.dumps(value)}" for key, value in record.items()]
        stream.write("  ".join(parts) + "\n")


def _words_from_args(args: argparse.Namespace, basis: BasisTag) -> list[tuple[str, Word]]:
    if getattr(args, "batch", None):
        with open(args.batch, encoding="utf-8") as handle:
            texts = [line.strip() for line in handle if line.strip()]
    else:
        texts = [args.word]
    return [(text, parse_word(text, basis)) for text in texts]


def _cmd_classify(args: argparse.Namespace, stream) -> int:
    cfg = _config(args)
    for text, word in _words_from_args(args, cfg.basis):
        verdict = classify(cfg.spec, word, cfg.budgets)
        _emit(cfg.output, _verdict_json(cfg, text, word, verdict), stream)
    return 0


def _cmd_verify_tables(args: argparse.Namespace, stream) -> int:
    report = verify_tables()
    record = {
        "checked": report.checked,
        "failures": [{"row": f.row, "reason": f.reason} for f in report.failures],
    }
    _emit(args.output, record, stream)
    return 0 if not report.failures else 1


def _cmd_wicks(args: argparse.Namespace, stream) -> int:
    from .wicks import wicks_search

    cfg = _config(args)
    for text, word in _words_from_args(args, cfg.basis):
        report = wicks_search(cfg.spec, word, cfg.budgets.wicks_len)
        record = {
            "input": text,
            "solutions": [
                {"first": str(x), "second": str(y), "faithful": faithful}
                for (x, y), faithful in report.solutions
            ],
            "matches": len(report.matches),
            "exhaustive": report.exhaustive,
            "budgets": _budget_json(cfg.budgets),
        }
        _emit(cfg.output, record, stream)
    return 0


def _cmd_first_derived(args: argparse.Namespace, stream) -> int:
    cfg = _config(args)
    for text, word in _words_from_args(args, cfg.basis):
        data = analyze_v(cfg.spec, word)
        sols = first_solutions(data.case, data.vbar, cfg.budgets.enum_bound)
        record = {
            "input": text,
            "case": data.case.label(),
            "vbar": {"r": data.vbar.r, "s": data.vbar.s},
            "V": str(data.V),
            "solutions": [
                {
                    "L": sol.L,
                    "ell": sol.ell,
                    "ybar": {"r": sol.ybar.r, "s": sol.ybar.s},
                    "xtilde": str(sol.xtilde),
                    "x_word": str(sol.x_word),
                    "y_word": str(sol.y_word),
                }
                for sol in sols
            ],
            "bound": cfg.budgets.enum_bound,
        }
        _emit(cfg.output, record, stream)
    return 0


def _cmd_second_derived(args: argparse.Namespace, stream) -> int:
    cfg = _config(args)
    for text, word in _words_from_args(args, cfg.basis):
        data = analyze_v(cfg.spec, word)
        result = second_decide(data.case, data.V, cfg.budgets.l_window_override)
        record = {
            "input": text,
            "case": data.case.label(),
            "vbar": {"r": data.vbar.r, "s": data.vbar.s},
            "V": str(data.V),
            "verdict": "solvable" if result.solvable else "unsolvable",
        }
        if result.ell is not None:
            record["ell"] = result.ell
        if result.L is not None:
            record["L"] = result.L
        if result.certificate is not None:
            record["certificate"] = result.certificate
        record["trace"] = result.trace
        _emit(cfg.output, record, stream)
    return 0


def _cmd_qn(args: argparse.Namespace, stream) -> int:
    basis = BasisTag.adapted(args.epsilon)
    for text, word in _words_from_args(args, basis):
        record = {"input": text, "qn": str(q_n(word))}
        _emit(args.output, record, stream)
    return 0


def _cmd_canon(args: argparse.Namespace, stream) -> int:
    basis = BasisTag.adapted(args.epsilon)
    for text, word in _words_from_args(args, basis):
        g = project(word)
        record = {"input": text, "vbar": {"r": g.r, "s": g.s}}
        _emit(args.output, record, stream)
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "verify-tables": _cmd_verify_tables,
    "wicks": _cmd_wicks,
    "first-derived": _cmd_first_derived,
    "second-derived": _cmd_second_derived,
    "qn": _cmd_qn,
    "canon": _cmd_canon,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except FgquadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
