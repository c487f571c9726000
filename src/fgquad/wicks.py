"""Brute-force existence oracle based on quadratic Wicks forms.

A cyclically reduced word is a commutator iff some cyclic shift matches
``a b c a^-1 b^-1 c^-1`` (or the degenerate ``d e d^-1 e^-1``), and a product
of two squares iff some shift matches ``a b c b a c^-1`` or ``a a b c c b^-1``.
Every positional match yields a canonical solution pair which is conjugated
back to the original equation and substitution-verified.

The search is exhaustive: every layout (form and part lengths) is tried at
every shift, O(n) shifts times O(n^2) layouts for a core of n letters.  The
layout table, with each repeated part as (first start, second start, length,
inverted), is built once per call, and each repeated part costs one slice
compare of signed letter codes; part words are built only for a match.
"""

from __future__ import annotations

from typing import Literal, NamedTuple, Optional

from .errors import BudgetExceeded, ExtractionFailed
from .words import (
    BasisTag,
    EquationSpec,
    Word,
    comm,
    cyclic_reduce,
    equation_rhs,
    swap_frame,
    verify_solution,
)

FormName = Literal[
    "orientable_abc",
    "orientable_de",
    "nonorientable_abcbac",
    "nonorientable_aabcc",
]

Kind = Literal["commutator", "two_squares"]

DEFAULT_WICKS_LEN = 64  # cap on the cyclic right-hand-side length

# segment layout per form: (part name, inverted?)
_FORM_LAYOUT: dict[FormName, tuple[tuple[str, bool], ...]] = {
    "orientable_abc": (("a", False), ("b", False), ("c", False), ("a", True), ("b", True), ("c", True)),
    "orientable_de": (("d", False), ("e", False), ("d", True), ("e", True)),
    "nonorientable_abcbac": (("a", False), ("b", False), ("c", False), ("b", False), ("a", False), ("c", True)),
    "nonorientable_aabcc": (("a", False), ("a", False), ("b", False), ("c", False), ("c", False), ("b", True)),
}

_KIND_FORMS: dict[Kind, tuple[FormName, ...]] = {
    "commutator": ("orientable_abc", "orientable_de"),
    "two_squares": ("nonorientable_abcbac", "nonorientable_aabcc"),
}


class WicksMatch(NamedTuple):
    shift: int
    form: FormName
    parts: dict[str, Word]
    u_prefix: Word  # cyclic-shift prefix U_i with W = U_i V_i, W_i = V_i U_i
    core: Word


def _enumerate_lengths(n_parts: int, total: int) -> list[tuple[int, ...]]:
    """Every composition of ``total`` into ``n_parts`` parts, empty ones too."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), total, n_parts)
    return out


# one layout: its form, each part's (name, start, length) in the shifted
# core, and the repeated-part checks (first start, second start, length,
# inverted); a first occurrence is never inverted
_Layout = tuple[FormName, tuple[tuple[str, int, int], ...], tuple[tuple[int, int, int, bool], ...]]


def _layout_table(kind: Kind, half: int) -> list[_Layout]:
    """Every layout of the kind's forms, in form order, then composition order."""
    table: list[_Layout] = []
    for form in _KIND_FORMS[kind]:
        layout = _FORM_LAYOUT[form]
        part_names = sorted({name for name, _ in layout})
        for combo in _enumerate_lengths(len(part_names), half):
            lengths = dict(zip(part_names, combo))
            starts: dict[str, int] = {}
            checks: list[tuple[int, int, int, bool]] = []
            pos = 0
            for name, inverted in layout:
                k = lengths[name]
                if name not in starts:
                    starts[name] = pos
                elif k:
                    checks.append((starts[name], pos, k, inverted))
                pos += k
            spans = tuple((name, starts[name], lengths[name]) for name in part_names)
            table.append((form, spans, tuple(checks)))
    return table


def wicks_decompositions(w: Word, kind: Kind) -> list[WicksMatch]:
    """All positional matches of the quadratic forms over all cyclic shifts.

    ``w`` must be cyclically reduced; parts may be empty, which covers the
    degenerate forms.
    """
    letters = list(w.letters())
    n = len(letters)
    out: list[WicksMatch] = []
    if n == 0 or n % 2:
        return out
    table = _layout_table(kind, n // 2)
    doubled = letters + letters
    code = [(g + 1) * e for g, e in doubled]
    # inverse[2n - x - k : 2n - x] is the inverse of code[x : x + k]
    inverse = [-c for c in reversed(code)]
    for shift in range(n):
        top = 2 * n - shift
        u_prefix: Optional[Word] = None
        for form, spans, checks in table:
            for first, second, k, inverted in checks:
                seg = code[shift + second : shift + second + k]
                if inverted:
                    if seg != inverse[top - first - k : top - first]:
                        break
                elif seg != code[shift + first : shift + first + k]:
                    break
            else:
                # no dedupe: two compositions differ in some part's length
                if u_prefix is None:
                    u_prefix = Word.from_syllables(w.basis, letters[:shift])
                parts = {
                    name: Word.from_syllables(w.basis, doubled[shift + start : shift + start + k])
                    for name, start, k in spans
                }
                out.append(WicksMatch(shift, form, parts, u_prefix, w))
    out.sort(key=lambda m: (m.shift, m.form, tuple(str(m.parts[k]) for k in sorted(m.parts))))
    return out


def _canonical_pair(match: WicksMatch) -> tuple[Word, Word]:
    p = match.parts
    if match.form == "orientable_abc":
        return p["a"] * p["b"], p["c"] * p["b"]
    if match.form == "orientable_de":
        return p["d"], p["e"]
    if match.form == "nonorientable_aabcc":
        return p["a"], p["b"] * p["c"] * p["b"].inv()
    return p["a"] * p["b"] * p["c"] * p["a"].inv(), p["a"] * p["c"].inv()


def extract_solution(match: WicksMatch, t: Word) -> tuple[Word, Word]:
    """Canonical solution of the matched form, conjugated back to the source.

    ``t`` is the cyclic-reduction conjugator of the source right-hand side.
    The returned pair satisfies Q(x, y) == t * core * t^-1 for the quadratic
    word of the form's kind; failure to verify signals a matcher bug.
    """
    x0, y0 = _canonical_pair(match)
    g = t * match.u_prefix
    x, y = g * x0 * g.inv(), g * y0 * g.inv()
    target = t * match.core * t.inv()
    if match.form.startswith("orientable"):
        ok = comm(x, y) == target
    else:
        ok = x * x * y * y == target
    if not ok:
        raise ExtractionFailed(f"form {match.form} at shift {match.shift}")
    return x, y


class WicksReport(NamedTuple):
    solutions: list[tuple[tuple[Word, Word], bool]]
    matches: list[WicksMatch]


def _trivial_candidates(spec: EquationSpec, basis: BasisTag) -> list[tuple[Word, Word]]:
    one = Word.identity(basis)
    g_a = Word.gen(basis, "a")
    g_b = Word.gen(basis, "b")
    if spec.delta == 1:
        return [(one, one), (one, g_a), (one, g_b)]
    return [(one, one), (g_a, g_a.inv()), (g_b, g_b.inv())]


def wicks_search(spec: EquationSpec, v: Word, wicks_len: int = DEFAULT_WICKS_LEN) -> WicksReport:
    """Enumerate solutions of the equation via Wicks decompositions.

    Solutions are labelled faithful per the orientation characters of the
    z-unknowns.  The search is exhaustive, so a run that finds no solution of
    a class is evidence of non-existence for that class, in the sense of the
    canonical-solution analysis.
    """
    core, t = cyclic_reduce(equation_rhs(spec, v))
    if len(core) > wicks_len:
        raise BudgetExceeded(f"cyclic right-hand side length {len(core)} > {wicks_len}")
    kind: Kind = "commutator" if spec.delta == 1 else "two_squares"
    solutions: list[tuple[tuple[Word, Word], bool]] = []
    seen: set[tuple[str, str]] = set()

    def consider(z1: Word, z2: Word) -> None:
        x, y = (z1, z2) if spec.frame == "original_z" else swap_frame(spec.delta, z1, z2)
        key = (str(x), str(y))
        if key in seen:
            return
        result = verify_solution(spec, v, x, y)
        if not result.holds:
            raise ExtractionFailed(f"candidate pair failed re-verification: {x}, {y}")
        seen.add(key)
        solutions.append(((x, y), result.faithful))

    if core.is_identity:
        for z1, z2 in _trivial_candidates(spec, spec.basis):
            consider(z1, z2)
        return WicksReport(solutions, [])
    # solutions are gathered from every match, degenerate forms included; the
    # reported match list keeps the nonempty convention
    all_matches = wicks_decompositions(core, kind)
    for match in all_matches:
        consider(*extract_solution(match, t))
    matches = [m for m in all_matches if all(not p.is_identity for p in m.parts.values())]
    return WicksReport(solutions, matches)
