"""Brute-force existence oracle based on quadratic Wicks forms.

A cyclically reduced word is a commutator iff some cyclic shift matches
``a b c a^-1 b^-1 c^-1`` (or the degenerate ``d e d^-1 e^-1``), and a product
of two squares iff some shift matches ``a b c b a c^-1`` or ``a a b c c b^-1``.
Every positional match yields a canonical solution pair which is conjugated
back to the original equation and substitution-verified.

The matcher walks the n shifts of an n-letter core and yields its matches
one shift at a time, each shift's sorted by form and then part words.  At a
shift each form has its own loop over the part lengths (h = n/2 letters per
half), and each repeated part is one slice compare of signed letter codes,
made as soon as the lengths it depends on are fixed, so a failed compare
skips every layout that shares that part.  In ``a b c a^-1 b^-1 c^-1`` and
``a a b c c b^-1`` the second ``a`` (``a^-1`` in the first) depends on |a|
alone, so a failed one drops all h - |a| + 1 layouts of that length;
``d e d^-1 e^-1`` has h + 1 layouts; in ``a b c b a c^-1`` the second ``b``
and ``a`` both need (|a|, |b|), so that form costs O(h^2) compares per
shift.  Part words are built only for a match.

``wicks_search`` given a wanted class stops at the first verified solution
of that class (``classify`` does this); a run that finds none has walked
every shift, so it is exhaustive, and so is every run without a class (the
CLI ``wicks`` command and the benchmark's oracle cross-check).  There is no
bound on |b| from longest common extensions and no segment hashing yet:
they would speed the matcher up further, but the benchmark keeps one
record per timed attempt, so its peak RSS grows with throughput past the
metric's bound.
"""

from __future__ import annotations

from typing import Iterator, Literal, NamedTuple, Optional

from .errors import BudgetExceeded, ExtractionFailed
from .words import (
    BasisTag,
    EquationSpec,
    SolutionClass,
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


class WicksMatch(NamedTuple):
    shift: int
    form: FormName
    parts: dict[str, Word]
    u_prefix: Word  # cyclic-shift prefix U_i with W = U_i V_i, W_i = V_i U_i
    core: Word


_Span = tuple[str, int, int]  # a part's name, start in the doubled core and length


def _layouts(
    code: list[int], inverse: list[int], s: int, n: int, kind: Kind
) -> Iterator[tuple[FormName, tuple[_Span, ...]]]:
    """The matching layouts at shift ``s``: each one's form and its parts'
    spans, sorted by name.

    ``code[s : s + n]`` is the shifted core and ``inverse[t - x - k : t - x]``
    inverts ``code[s + x : s + x + k]``.
    """
    h, t, m, end = n // 2, 2 * n - s, s + n // 2, s + n
    if kind == "commutator":
        for i in range(h + 1):
            # a b c a^-1 b^-1 c^-1: a^-1 at h depends on |a| alone
            if code[m : m + i] != inverse[t - i : t]:
                continue
            for j in range(h - i + 1):
                if (
                    code[m + i : m + i + j] == inverse[t - i - j : t - i]
                    and code[m + i + j : end] == inverse[t - h : t - i - j]
                ):
                    yield "orientable_abc", (("a", s, i), ("b", s + i, j), ("c", s + i + j, h - i - j))
        for i in range(h + 1):
            # d e d^-1 e^-1
            if code[m : m + i] == inverse[t - i : t] and code[m + i : end] == inverse[t - h : t - i]:
                yield "orientable_de", (("d", s, i), ("e", s + i, h - i))
        return
    for i in range(h + 1):
        # a b c b a c^-1: the second b at h and the second a after it need both lengths
        for j in range(h - i + 1):
            if (
                code[m : m + j] == code[s + i : s + i + j]
                and code[m + j : m + j + i] == code[s : s + i]
                and code[m + i + j : end] == inverse[t - h : t - i - j]
            ):
                yield "nonorientable_abcbac", (("a", s, i), ("b", s + i, j), ("c", s + i + j, h - i - j))
    for i in range(h + 1):
        # a a b c c b^-1: the second a depends on |a| alone
        if code[s + i : s + 2 * i] != code[s : s + i]:
            continue
        for j in range(h - i + 1):
            c, k = s + 2 * i + j, h - i - j  # the first c and its length
            if code[end - j : end] == inverse[t - 2 * i - j : t - 2 * i] and code[c + k : end - j] == code[c : c + k]:
                yield "nonorientable_aabcc", (("a", s, i), ("b", s + 2 * i, j), ("c", c, k))


def _matches(w: Word, kind: Kind) -> Iterator[WicksMatch]:
    """The positional matches, one cyclic shift at a time: each shift's
    matches sorted by form and then part words."""
    letters = list(w.letters())
    n = len(letters)
    if n == 0 or n % 2:
        return
    doubled = letters + letters
    code = [(g + 1) * e for g, e in doubled]
    inverse = [-c for c in reversed(code)]
    for shift in range(n):
        u_prefix: Optional[Word] = None
        found: list[WicksMatch] = []
        # no dedupe: two layouts of a form differ in some part's length
        for form, spans in _layouts(code, inverse, shift, n, kind):
            if u_prefix is None:
                u_prefix = Word.from_syllables(w.basis, letters[:shift])
            parts = {name: Word.from_syllables(w.basis, doubled[start : start + k]) for name, start, k in spans}
            found.append(WicksMatch(shift, form, parts, u_prefix, w))
        # the key's tuple is built from a list, see words._inverse
        found.sort(key=lambda m: (m.form, tuple([str(m.parts[k]) for k in sorted(m.parts)])))
        yield from found


def wicks_decompositions(w: Word, kind: Kind) -> list[WicksMatch]:
    """All positional matches of the quadratic forms over all cyclic shifts,
    sorted by shift, form and then part words.

    ``w`` must be cyclically reduced; parts may be empty, which covers the
    degenerate forms.
    """
    return list(_matches(w, kind))


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


def wicks_search(
    spec: EquationSpec, v: Word, wicks_len: int = DEFAULT_WICKS_LEN, wanted: Optional[SolutionClass] = None
) -> WicksReport:
    """Enumerate solutions of the equation via Wicks decompositions.

    Solutions are labelled faithful per the orientation characters of the
    z-unknowns.  Without ``wanted`` the search is exhaustive, so a run that
    finds no solution of a class is evidence of non-existence for that class,
    in the sense of the canonical-solution analysis.  With ``wanted`` it
    returns once it has verified a solution of that class, and the report
    holds the prefix of the exhaustive lists up to that solution; a run that
    finds none is exhaustive.
    """
    core, t = cyclic_reduce(equation_rhs(spec, v))
    if len(core) > wicks_len:
        raise BudgetExceeded(f"cyclic right-hand side length {len(core)} > {wicks_len}")
    kind: Kind = "commutator" if spec.delta == 1 else "two_squares"
    # None never equals a pair's faithfulness, so no pair stops that search
    stop_at = None if wanted is None else wanted == "faithful"
    solutions: list[tuple[tuple[Word, Word], bool]] = []
    seen: set[tuple[str, str]] = set()

    def consider(z1: Word, z2: Word) -> bool:
        """Verify and record a new pair; whether the search stops at it."""
        x, y = (z1, z2) if spec.frame == "original_z" else swap_frame(spec.delta, z1, z2)
        key = (str(x), str(y))
        if key in seen:
            return False
        result = verify_solution(spec, v, x, y)
        if not result.holds:
            raise ExtractionFailed(f"candidate pair failed re-verification: {x}, {y}")
        seen.add(key)
        solutions.append(((x, y), result.faithful))
        return result.faithful == stop_at

    if core.is_identity:
        for z1, z2 in _trivial_candidates(spec, spec.basis):
            if consider(z1, z2):
                break
        return WicksReport(solutions, [])
    # solutions are gathered from every match, degenerate forms included; the
    # reported match list keeps the nonempty convention.  An exhaustive search
    # walks the full list; a stopping one matches shift by shift
    matches: list[WicksMatch] = []
    for match in wicks_decompositions(core, kind) if wanted is None else _matches(core, kind):
        if all(not p.is_identity for p in match.parts.values()):
            matches.append(match)
        if consider(*extract_solution(match, t)):
            break
    return WicksReport(solutions, matches)
