"""Brute-force existence oracle based on quadratic Wicks forms.

A cyclically reduced word is a commutator iff some cyclic shift matches
``a b c a^-1 b^-1 c^-1`` (or the degenerate ``d e d^-1 e^-1``), and a product
of two squares iff some shift matches ``a b c b a c^-1`` or ``a a b c c b^-1``.
Every positional match yields a canonical solution pair which is conjugated
back to the original equation and substitution-verified once, when the
search records it.

The matcher walks the n shifts of an n-letter core and yields its matches
one shift at a time, each shift's sorted by form and then part words.  Each
form splits the two halves of the shifted core (h = n/2 letters each) into
its parts; part words are built only for a match.

In the commutator kind every part is followed, h letters on, by its
inverse, which makes it a valid piece.  ``_pieces`` finds the valid pieces
of a core once, in O(n + pieces) letter compares, where trying every |a|
and |b| at every shift compared O(n h^2) slices.  At a shift,
``a b c a^-1 b^-1 c^-1`` visits only the valid a-pieces at the shift and the
valid b-pieces after them, and tests c with one lookup; ``d e d^-1 e^-1``
tests e the same way after each valid d-piece.

In the two-squares kind each form has its own loop over the part lengths,
and each repeated part is one compare of signed letter codes, made as soon
as the lengths it depends on are fixed and led by a compare of its first
letter, so most failed compares build no slice and a failed one skips every
layout that shares that part.  The second ``a`` of ``a a b c c b^-1``
depends on |a| alone, so a failed one drops all h - |a| + 1 layouts of that
length.  For a fixed |a| two compares are monotone in |b|: the second ``b``
of ``a b c b a c^-1`` starts at h and the first at |a|, a prefix compare,
and the ``b^-1`` that ends ``a a b c c b^-1`` inverts ``b`` from its first
letter, a suffix compare, so a failure at one |b| is a failure at every
longer one.  Each is extended by one letter per |b| and its first failure
ends the loop, so the loop runs 1 + lce times, lce being the longest common
extension of the two positions, instead of h - |a| + 1: a two-squares shift
costs O(h) part-length steps on a core whose extensions are short, and up to
O(h^2) on a periodic one.

``wicks_search`` given a wanted class stops at the first verified solution
of that class (``classify`` does this); a run that finds none has walked
every shift, so it is exhaustive, and so is every run without a class (the
CLI ``wicks`` command and the benchmark's oracle cross-check).

A class-wise ``wicks_exhaustive`` answer rests on two claims from the
Wicks-form analysis (Wicks 1962; Culler 1981), which this module does not
prove:

1. every solution is equivalent to the canonical pair of some match, that
   is, carried to it by conjugation and an automorphism of F(z1, z2) that
   fixes ``[z1, z2]`` or ``z1^2 z2^2``;
2. the class does not change under that equivalence: conjugation keeps
   ``sgn``, and such an automorphism acts as a homeomorphism of the
   punctured torus or Klein bottle, so it keeps the orientation character.

``tests/test_census.py`` referees every census verdict with this search.
"""

from __future__ import annotations

from typing import Iterator, Literal, NamedTuple, Optional

from .errors import BudgetExceeded, ExtractionFailed
from .words import (
    BasisTag,
    EquationSpec,
    SolutionClass,
    Word,
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


_Span = tuple[str, int, int]  # a part's name, start in the doubled core and length
_Pieces = tuple[list[int], list[list[int]]]  # each centre's reach, each position's valid lengths


def _pieces(code: list[int], n: int) -> _Pieces:
    """The valid pieces of an ``n``-letter core, for the commutator kind:
    each centre's reach and each position's valid lengths, ascending.

    ``(p, k)`` is a valid piece when ``code[p + h : p + h + k]`` inverts
    ``code[p : p + k]``, positions taken mod n.  ``(p - 1, k + 2)`` is valid
    exactly when ``(p, k)`` is valid, ``code[p - 1 + h] == -code[p + k]`` and
    ``code[p + h + k] == -code[p - 1]``, so the valid pieces of the centre
    ``c = 2p + k (mod 2n)`` are those of its parity up to its reach
    ``reach[c]``.  Each centre is seeded with the empty piece (c even) or the
    one-letter one (c odd; reach -1 when that fails) and grown until its first
    failing pair.  No chain gets to h letters, so none needs a bound: a piece
    of h letters makes the core u u^-1 up to rotation, with two cancelling
    pairs of adjacent letters where a freely reduced word has at most one
    (across its ends), and growing a piece of h - 1 letters to h + 1 would
    need a letter to invert itself.
    """
    h = n // 2
    reach: list[int] = []
    lengths: list[list[int]] = [[] for _ in range(n)]
    for c in range(2 * n):
        p, k = divmod(c, 2)
        if k and code[p + h] != -code[p]:
            reach.append(-1)
            continue
        lengths[p].append(k)
        # p goes below 0 as the piece wraps: negative indices read the
        # doubled code and the positions mod n
        while code[p - 1 + h] == -code[p + k] and code[p + h + k] == -code[p - 1]:
            p, k = p - 1, k + 2
            lengths[p].append(k)
        reach.append(k)
    for row in lengths:
        row.sort()
    return reach, lengths


def _layouts(
    code: list[int], inverse: list[int], pieces: Optional[_Pieces], s: int, n: int
) -> Iterator[tuple[FormName, tuple[_Span, ...]]]:
    """The matching layouts at shift ``s``: each one's form and its parts'
    spans, sorted by name.

    ``code[s : s + n]`` is the shifted core and ``inverse[t - x - k : t - x]``
    inverts ``code[s + x : s + x + k]``.  ``pieces`` is the core's ``_pieces``
    for the commutator kind and None for the two-squares kind.
    """
    h, t, m, end = n // 2, 2 * n - s, s + n // 2, s + n
    if pieces is not None:
        # a part and its inverse h letters on form a valid piece, found by
        # its length or by one lookup of its centre's reach
        reach, lengths = pieces
        for i in lengths[s]:
            # a b c a^-1 b^-1 c^-1: pieces (s, |a|), (s + |a|, |b|), then c
            for j in lengths[(s + i) % n]:
                k = h - i - j
                if k < 0:
                    break
                if reach[(2 * s + i + j + h) % (2 * n)] >= k:
                    yield "orientable_abc", (("a", s, i), ("b", s + i, j), ("c", s + i + j, k))
        for i in lengths[s]:
            # d e d^-1 e^-1: pieces (s, |d|), then e
            if reach[(2 * s + i + h) % (2 * n)] >= h - i:
                yield "orientable_de", (("d", s, i), ("e", s + i, h - i))
        return
    # each repeated part's first letter is compared before its slice
    a0, c0 = code[s], -code[m - 1]  # the first letters of a and of the c^-1 in a b c b a c^-1
    for i in range(h + 1):
        # a b c b a c^-1: the second b at h is a prefix compare, grown by
        # one letter per |b|; the first |b| it fails at ends the loop
        for j in range(h - i + 1):
            if j and code[m + j - 1] != code[s + i + j - 1]:
                break
            if i and code[m + j] != a0 or i + j < h and code[m + i + j] != c0:
                continue
            if code[m + j : m + j + i] == code[s : s + i] and code[m + i + j : end] == inverse[t - h : t - i - j]:
                yield "nonorientable_abcbac", (("a", s, i), ("b", s + i, j), ("c", s + i + j, h - i - j))
    for i in range(h + 1):
        # a a b c c b^-1: the second a depends on |a| alone
        if i and code[s + i] != a0 or code[s + i : s + 2 * i] != code[s : s + i]:
            continue
        # b^-1 at the end is a suffix compare, grown by one letter per |b|;
        # the first |b| it fails at ends the loop
        for j in range(h - i + 1):
            if j and code[end - j] != inverse[t - 2 * i - j]:
                break
            c, k = s + 2 * i + j, h - i - j  # the first c and its length
            if k and code[c + k] != code[c]:
                continue
            if code[c + k : end - j] == code[c : c + k]:
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
    pieces = _pieces(code, n) if kind == "commutator" else None
    for shift in range(n):
        u_prefix: Optional[Word] = None
        found: list[WicksMatch] = []
        # no dedupe: two layouts of a form differ in some part's length
        for form, spans in _layouts(code, inverse, pieces, shift, n):
            if u_prefix is None:
                u_prefix = Word.from_syllables(w.basis, letters[:shift])
            parts = {name: Word.from_syllables(w.basis, doubled[start : start + k]) for name, start, k in spans}
            found.append(WicksMatch(shift, form, parts, u_prefix))
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
    """Canonical solution (z1, z2) of the matched form, conjugated back to the
    source by ``t``, the cyclic-reduction conjugator of its right-hand side.

    It is not checked here: the search substitutes it into the equation once,
    which compares [z1, z2] or z1^2 z2^2 with t * core * t^-1, the reduced
    right-hand side, and raises ``ExtractionFailed`` on a matcher bug.
    """
    x0, y0 = _canonical_pair(match)
    g = t * match.u_prefix
    return g * x0 * g.inv(), g * y0 * g.inv()


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
        try:
            stop = consider(*extract_solution(match, t))
        except ExtractionFailed as exc:
            raise ExtractionFailed(f"form {match.form} at shift {match.shift}: {exc}") from None
        if stop:
            break
    return WicksReport(solutions, matches)
