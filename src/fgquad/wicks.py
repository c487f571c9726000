"""Brute-force existence oracle based on quadratic Wicks forms.

A cyclically reduced word is a commutator iff some cyclic shift matches
``a b c a^-1 b^-1 c^-1`` (or the degenerate ``d e d^-1 e^-1``), and a product
of two squares iff some shift matches ``a b c b a c^-1`` or ``a a b c c b^-1``.
Every positional match yields a canonical solution pair which is conjugated
back to the original equation and substitution-verified once, when the
search records it.

The matcher builds its tables once per core, then walks the n shifts of an
n-letter core and yields its matches one shift at a time, each shift's
sorted by form and then part words.  Each form splits the two halves of the
shifted core (h = n/2 letters each) into its parts.  Each part word and
each shift prefix U_s is built once per core, when a match first uses it,
as a slice of the doubled core's syllable runs (``_doubled``), in
O(syllables) where reducing its letters took O(letters); its text is built
only when a shift has two or more matches to sort.

In the commutator kind every part is followed, h letters on, by its
inverse, which makes it a valid piece.  ``_pieces`` finds the valid pieces
of a core once, in O(n + pieces) letter compares, where trying every |a|
and |b| at every shift compared O(n h^2) slices.  At a shift,
``a b c a^-1 b^-1 c^-1`` visits only the valid a-pieces at the shift and the
valid b-pieces after them, and tests c with one lookup; ``d e d^-1 e^-1``
tests e the same way after each valid d-piece.

The two-squares kind reads its layouts off the valid pieces, filed by the
position where they end, and off ``_squares``, the squares of the core by
position and half length.  In ``a b c b a c^-1`` the part c is followed h
letters on by its inverse, so it is a valid piece that ends where the
second half starts, and the rest of the two halves, a b and b a, are
rotations of each other by |a| letters: one search for b a in (a b)(a b)
lists every |a| for that c.  ``a a b c c b^-1`` is a square a a at the
shift, b grown outward from it one letter pair at a time against the b^-1
that ends the shift, and after each |b| a square c c of the length left,
one set lookup.  An empty a or c would put b^-1 next to b, which a
cyclically reduced core never has, so either forces |b| = 0.  A core
costs O(n + pieces + squares + layouts) steps, plus the letter pairs that
each square's b grows by; each step is a lookup, or one byte search made
in C over at most n letters.  Trying every |a| at every shift, as the
matcher before did, took O(n h) steps on a random core and O(n h^2) on a
periodic one.

The search forms the conjugator ``g = t U_s`` of a shift and its inverse
once per shift and the right-hand side once, and compares the syllables of
each pair with the pairs it has recorded before it substitutes it, so each
distinct pair is checked once.  What is left per match is ``Word``
algebra: about six products to extract a pair, and three products and two
inverses to check a distinct one, each linear in the syllables of its
result (see ``words``).

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

from typing import Callable, Iterator, Literal, NamedTuple, Optional

from .errors import BudgetExceeded, ExtractionFailed
from .words import (
    BasisTag,
    EquationSpec,
    SolutionClass,
    Word,
    _reduce,
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
    """The valid pieces of an ``n``-letter core: each centre's reach and each
    position's valid lengths, ascending.

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


def _squares(text: bytes, n: int) -> list[set[int]]:
    """The squares of an ``n``-letter core, for the two-squares kind: the
    halves ``d`` of the squares ``text[p : p + 2d]`` at each position ``p``,
    ``1 <= d <= n/2``, positions taken mod n.

    ``text`` is the doubled core, one nonzero byte per letter.  For each
    ``d`` one XOR of the core with itself ``d`` letters on marks with a zero
    byte each letter equal to the one ``d`` before it, and a square of half
    ``d`` at ``p`` is a run of ``d`` zero bytes at ``p + d``: n/2 XORs and
    one search per square.
    """
    halves: list[set[int]] = [set() for _ in range(n)]
    whole = int.from_bytes(text, "big")
    for d in range(1, n // 2 + 1):
        marks = (whole ^ whole >> 8 * d).to_bytes(2 * n, "big")
        run, stop = bytes(d), n + 2 * d - 1  # a square starts before n
        q = marks.find(run, d, stop)
        while q != -1:
            halves[q - d].add(d)
            q = marks.find(run, q + 1, stop)
    return halves


_Layout = tuple[FormName, tuple[_Span, ...]]


def _layouts(code: list[int], n: int, kind: Kind) -> Iterator[list[_Layout]]:
    """The matching layouts of an ``n``-letter core, shift by shift: at each
    shift ``s`` the list of the layouts of ``code[s : s + n]``, each one's
    form and its parts' spans, sorted by name.

    The tables are built once per core and each shift reads its layouts off
    them: the valid pieces for both kinds, and the squares for the
    two-squares kind.
    """
    h = n // 2
    reach, lengths = _pieces(code, n)
    if kind == "commutator":
        # a part and its inverse h letters on form a valid piece, found by
        # its length or by one lookup of its centre's reach
        for s in range(n):
            found: list[_Layout] = []
            for i in lengths[s]:
                # a b c a^-1 b^-1 c^-1: pieces (s, |a|), (s + |a|, |b|), then c
                for j in lengths[(s + i) % n]:
                    k = h - i - j
                    if k < 0:
                        break
                    if reach[(2 * s + i + j + h) % (2 * n)] >= k:
                        found.append(("orientable_abc", (("a", s, i), ("b", s + i, j), ("c", s + i + j, k))))
            for i in lengths[s]:
                # d e d^-1 e^-1: pieces (s, |d|), then e
                if reach[(2 * s + i + h) % (2 * n)] >= h - i:
                    found.append(("orientable_de", (("d", s, i), ("e", s + i, h - i))))
            yield found
        return
    text = bytes([c + 3 for c in code])
    ends: list[list[int]] = [[] for _ in range(n)]  # the valid lengths of the pieces ending at each position
    for p, row in enumerate(lengths):
        for k in row:
            ends[(p + k) % n].append(k)
    squares = _squares(text, n)
    for s in range(n):
        found = []
        m = s + h
        for k in ends[m % n]:
            # a b c b a c^-1: c is a valid piece ending at the second half,
            # and b a is a rotation of a b, by |a| letters: one layout per
            # occurrence of b a in (a b)(a b)
            ab, ba = text[s : m - k], text[m : s + n - k]
            abab = ab + ab
            i = abab.find(ba)
            while i != -1:
                found.append(("nonorientable_abcbac", (("a", s, i), ("b", s + i, h - k - i), ("c", m - k, k))))
                i = abab.find(ba, i + 1)
        # a a b c c b^-1: a square a a at s, b grown outward from it against
        # the b^-1 that ends the shift, one letter pair at a time, and a
        # square c c of the length left.  An empty a or c would put b^-1 next
        # to b, which no cyclically reduced core has, so either forces
        # |b| = 0 and a core that is a square at s: |a| = 0 is read here,
        # |c| = 0 is |a| = h in the loop
        here = squares[s]
        if h in here:
            found.append(("nonorientable_aabcc", (("a", s, 0), ("b", s, 0), ("c", s, h))))
        for i in here:
            b, j = s + 2 * i, 0
            while True:
                k = h - i - j
                if not k or k in squares[(b + j) % n]:
                    found.append(("nonorientable_aabcc", (("a", s, i), ("b", b, j), ("c", b + j, k))))
                # b stops growing by |b| = h - |a| - 1, where the pair would
                # be two adjacent letters, so k is 0 only at |a| = h
                if code[s - 1 - j] != -code[b + j]:
                    break
                j += 1
        yield found


def _doubled(w: Word) -> tuple[list[int], Callable[[int, int], Word]]:
    """The doubled core of an ``n``-letter word ``w``: the code of each
    letter, and ``part(start, k)``, the word of the ``k <= n`` letters from
    ``start``.

    A part word is built once per start mod n and length, as a slice of the
    doubled core's syllable runs with its two end syllables trimmed, in
    O(syllables); only a slice across the seam of a core whose first and
    last syllables share a generator is reduced, since those two merge.
    """
    n = len(w)
    basis, syls = w.basis, w.syls
    doubled = syls + syls
    # each letter's code and syllable, and where each syllable starts
    code: list[int] = []
    owner: list[int] = []
    starts: list[int] = []
    for i, (g, e) in enumerate(doubled):
        starts.append(len(code))
        code += [g + 1 if e > 0 else -g - 1] * abs(e)
        owner += [i] * abs(e)
    # the second copy's first syllable, when it merges with the one before
    seam = len(syls) if syls[0][0] == syls[-1][0] else len(doubled)
    words: dict[tuple[int, int], Word] = {}

    def part(start: int, k: int) -> Word:
        start %= n
        word = words.get((start, k))
        if word is None:
            runs: tuple[tuple[int, int], ...] = ()
            if k:
                stop = start + k
                i, j = owner[start], owner[stop - 1]
                g, e = doubled[i]
                if i == j:
                    runs = ((g, k if e > 0 else -k),)
                else:
                    head, tail = starts[i + 1] - start, stop - starts[j]
                    g2, e2 = doubled[j]
                    runs = ((g, head if e > 0 else -head), *doubled[i + 1 : j], (g2, tail if e2 > 0 else -tail))
                    if i < seam <= j:
                        runs = _reduce(runs)
            word = words[start, k] = Word(basis, runs)
        return word

    return code, part


def _matches(w: Word, kind: Kind) -> Iterator[WicksMatch]:
    """The positional matches, one cyclic shift at a time: each shift's
    matches sorted by form and then part words."""
    n = len(w)
    if n == 0 or n % 2:
        return
    code, part = _doubled(w)
    texts: dict[tuple[int, int], str] = {}  # each part's text once per core

    def text(start: int, k: int) -> str:
        label = texts.get((start % n, k))
        if label is None:
            label = texts[start % n, k] = str(part(start, k))
        return label

    for shift, layouts in enumerate(_layouts(code, n, kind)):
        if not layouts:
            continue
        if len(layouts) > 1:
            # no ties: two layouts of a form differ in some part's length.
            # The key's tuple is built from a list, see words._inverse
            layouts.sort(key=lambda layout: (layout[0], tuple([text(start, k) for _, start, k in layout[1]])))
        u_prefix = part(0, shift)
        for form, spans in layouts:
            yield WicksMatch(shift, form, {name: part(start, k) for name, start, k in spans}, u_prefix)


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


def extract_solution(match: WicksMatch, g: Word, g_inv: Word) -> tuple[Word, Word]:
    """Canonical solution (z1, z2) of the matched form, conjugated back to the
    source by ``g = t * match.u_prefix``, ``t`` being the cyclic-reduction
    conjugator of its right-hand side; ``g_inv`` is ``g``'s inverse.  The
    search forms both once per shift.

    It is not checked here: the search substitutes it into the equation once,
    which compares [z1, z2] or z1^2 z2^2 with t * core * t^-1, the reduced
    right-hand side, and raises ``ExtractionFailed`` on a matcher bug.
    """
    x0, y0 = _canonical_pair(match)
    return g * x0 * g_inv, g * y0 * g_inv


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
    rhs = equation_rhs(spec, v)
    core, t = cyclic_reduce(rhs)
    if len(core) > wicks_len:
        raise BudgetExceeded(f"cyclic right-hand side length {len(core)} > {wicks_len}")
    kind: Kind = "commutator" if spec.delta == 1 else "two_squares"
    # None never equals a pair's faithfulness, so no pair stops that search
    stop_at = None if wanted is None else wanted == "faithful"
    solutions: list[tuple[tuple[Word, Word], bool]] = []
    seen: set[tuple[tuple, tuple]] = set()  # the syllables of each recorded pair

    def consider(z1: Word, z2: Word) -> bool:
        """Verify and record a new pair; whether the search stops at it."""
        x, y = (z1, z2) if spec.frame == "original_z" else swap_frame(spec.delta, z1, z2)
        key = (x.syls, y.syls)
        if key in seen:
            return False
        result = verify_solution(spec, v, x, y, rhs)
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
    shift = -1
    for match in wicks_decompositions(core, kind) if wanted is None else _matches(core, kind):
        if match.shift != shift:
            shift = match.shift
            g = t * match.u_prefix
            g_inv = g.inv()
        if all(not p.is_identity for p in match.parts.values()):
            matches.append(match)
        try:
            stop = consider(*extract_solution(match, g, g_inv))
        except ExtractionFailed as exc:
            raise ExtractionFailed(f"form {match.form} at shift {match.shift}: {exc}") from None
        if stop:
            break
    return WicksReport(solutions, matches)
