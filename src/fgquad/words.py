"""Free group F2: reduced words, parsing, and the quadratic-equation frames.

Words are stored as runs of syllables ``(generator, exponent)`` so that the
large powers appearing in table fixtures stay cheap.  Generator 0 prints as
``a``/``A`` and generator 1 as ``b``/``B``; in the adapted basis they stand
for the generators usually written alpha and beta.

Cost model, in syllables: a product tests its two tags for identity
before it compares them, since the words of a basis share one tag, and
cancels only at the seam of its two reduced factors, so it costs the length
of the result; an inverse maps the shared table of inverse syllables over
the reversed syllables in C; ``sgn`` sums the exponents of every other
syllable, since a reduced word alternates its generators; basis change and
powers gather syllables first and reduce once, so they are linear in the
syllables of their result; a one-syllable power is O(1), and the powers 1
and -1 are the word itself and its inverse, with no cyclic reduction.  The
parser is one recursive function, one frame per level of brackets: a C
regex reads each run of plain letters and one token regex the term after
it.  Every letter, ``R^k`` and ``conj(u)^k`` (u, then the relator's
syllables |k| times, then u^-1) goes straight into the syllable list of the
enclosing level, which is reduced once, so the parser builds no word for a
term and is linear in the syllables it appends: the first 1024 seed-1
``derived_large`` benchmark inputs parse in 55-59 ms (best of 15 passes) on
a 2-vCPU x86 container with Python 3.11.
``primitive_root`` compares the syllables of the cyclically reduced core
with their shifts by the divisors of the syllable count, shortest first,
one pass each; squares and exact powers read it and expand no letters.
``surface.project`` and ``groupring._fox_pairs`` walk integer
coordinates ``(r, s)`` of the quotient instead of multiplying group elements.
"""

from __future__ import annotations

import re
from functools import cache
from operator import itemgetter
from typing import Iterable, Literal, NamedTuple, Optional, get_args

from .errors import BasisMismatch, InvalidSpec, WordSyntaxError
from .record import Record

Kind = Literal["classic", "adapted"]

_GEN_CHARS = "ab"
_INV_CHARS = "AB"


class BasisTag(Record):
    """Which pair of free generators a word is written in, plus the sign.

    For ``epsilon == +1`` the classic and adapted bases coincide; for
    ``epsilon == -1`` they are related by a = alpha*beta, b = beta**-1.
    ``classic`` and ``adapted`` hand out one shared tag per basis.
    """

    __slots__ = ("kind", "epsilon")
    kind: Kind
    epsilon: int

    def __init__(self, kind: Kind, epsilon: int) -> None:
        if epsilon not in (1, -1):
            raise InvalidSpec("epsilon must be +1 or -1")
        if kind not in ("classic", "adapted"):
            raise InvalidSpec("kind must be 'classic' or 'adapted'")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "epsilon", epsilon)

    def __eq__(self, other: object) -> bool:
        if type(other) is not BasisTag:
            return NotImplemented
        return (self.kind, self.epsilon) == (other.kind, other.epsilon)

    def __hash__(self) -> int:
        return hash((self.kind, self.epsilon))

    @staticmethod
    @cache  # one tag per epsilon
    def classic(epsilon: int) -> "BasisTag":
        return BasisTag("classic", epsilon)

    @staticmethod
    @cache  # one tag per epsilon
    def adapted(epsilon: int) -> "BasisTag":
        return BasisTag("adapted", epsilon)


# One shared tuple per syllable with an exponent in -64..64, handed out by the
# parser, _reduce and Word.inv: a stored word then costs 8 bytes per such
# syllable, not 64.
_SYL = {(gen, exp): (gen, exp) for gen in (0, 1) for exp in range(-64, 65)}


class _InverseTable(dict):
    """The inverse of each shared syllable; one outside the table, with an
    exponent beyond -64..64, is inverted on the miss."""

    def __missing__(self, syl: tuple[int, int]) -> tuple[int, int]:
        return syl[0], -syl[1]


_INV_SYL = _InverseTable({syl: _SYL[syl[0], -syl[1]] for syl in _SYL.values()})


def _reduce(syllables: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Merge adjacent runs of the same generator, cascading cancellations.

    A syllable that merges with nothing is kept as the same tuple object and
    a merged one is the shared tuple when there is one, so words built from
    shared syllables share them.
    """
    out: list[tuple[int, int]] = []
    for syl in syllables:
        gen, exp = syl
        if not exp:
            continue
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
            if exp:
                out.append(_SYL.get((gen, exp)) or (gen, exp))
        else:
            out.append(syl)
    return tuple(out)


def _inverse(syls: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The syllables of the inverse word, shared ones where there are any."""
    # from a list: CPython builds a tuple from an iterator of unknown length
    # at 10 slots and resizes it, and a resized tuple of under 20 items that
    # dies stays on the free list of its length until a full collection, so
    # built from an iterator these lists, and the pools they pin, would grow
    # with every call
    return tuple(list(map(_INV_SYL.__getitem__, syls[::-1])))


class Word(Record):
    """A freely reduced word in the rank-2 free group."""

    __slots__ = ("basis", "syls")
    basis: BasisTag
    syls: tuple[tuple[int, int], ...]

    def __init__(self, basis: BasisTag, syls: tuple[tuple[int, int], ...]) -> None:
        _set_basis(self, basis)
        _set_syls(self, syls)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Word:
            return NotImplemented
        return (self.basis, self.syls) == (other.basis, other.syls)

    def __hash__(self) -> int:
        return hash((self.basis, self.syls))

    @staticmethod
    def identity(basis: BasisTag) -> "Word":
        return Word(basis, ())

    @staticmethod
    def gen(basis: BasisTag, name: str, exp: int = 1) -> "Word":
        idx = _GEN_CHARS.index(name)
        return Word(basis, ((idx, exp),) if exp else ())

    @staticmethod
    def from_syllables(basis: BasisTag, syllables: list[tuple[int, int]]) -> "Word":
        return Word(basis, _reduce(syllables))

    def __mul__(self, other: "Word") -> "Word":
        # the words of a basis share its tag, so the compare rarely runs
        if other.basis is not self.basis and other.basis != self.basis:
            raise BasisMismatch(f"{self.basis} vs {other.basis}")
        left, right = self.syls, other.syls
        i, j = len(left), 0
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            gen = right[j][0]
            exp = left[i - 1][1] + right[j][1]
            if exp:
                return Word(self.basis, left[: i - 1] + ((gen, exp),) + right[j + 1 :])
            i -= 1
            j += 1
        return Word(self.basis, left[:i] + right[j:])

    def inv(self) -> "Word":
        return Word(self.basis, _inverse(self.syls))

    def __pow__(self, k: int) -> "Word":
        if k == 1:
            return self
        if k == 0 or not self.syls:
            return Word.identity(self.basis)
        if len(self.syls) == 1:
            gen, exp = self.syls[0]
            return Word(self.basis, ((gen, exp * k),))
        if k < 0:
            return self.inv() ** -k
        # w = t core t^-1 with core cyclically reduced, so core^k cancels nowhere
        core, t = cyclic_reduce(self)
        if len(core.syls) == 1:
            return t * core**k * t.inv()
        return Word(self.basis, _reduce([*t.syls, *core.syls * k, *t.inv().syls]))

    @property
    def is_identity(self) -> bool:
        return not self.syls

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.syls)

    def __str__(self) -> str:
        if not self.syls:
            return "1"
        parts = []
        for gen, exp in self.syls:
            ch = _GEN_CHARS[gen]
            if exp == 1:
                parts.append(ch)
            elif exp == -1:
                parts.append(_INV_CHARS[gen])
            else:
                parts.append(f"{ch}^{exp}")
        return " ".join(parts)


# the slots' setters, bound once: a word is built on every product, power and
# inverse, and a setter call costs less than object.__setattr__
_set_basis, _set_syls = Word.basis.__set__, Word.syls.__set__


def conj(u: Word, w: Word) -> Word:
    """u * w * u**-1."""
    return u * w * u.inv()


def comm(u: Word, w: Word) -> Word:
    """The commutator u * w * u**-1 * w**-1."""
    return u * w * u.inv() * w.inv()


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = t * core * t**-1`` with ``core`` cyclically reduced."""
    syls = list(w.syls)
    t_parts: list[tuple[int, int]] = []
    i, j = 0, len(syls) - 1  # the untouched middle is syls[i : j + 1]
    while j > i:
        g1, e1 = syls[i]
        g2, e2 = syls[j]
        if g1 != g2 or (e1 > 0) == (e2 > 0):
            break
        c = min(abs(e1), abs(e2))
        step = 1 if e1 > 0 else -1
        t_parts.append((g1, step * c))
        syls[i] = (g1, e1 - step * c)
        syls[j] = (g2, e2 + step * c)
        if syls[j][1] == 0:
            j -= 1
        if syls[i][1] == 0:
            i += 1
    # only the two end syllables changed, to nonzero exponents: still reduced
    core = Word(w.basis, tuple(syls[i : j + 1]))
    t = Word.from_syllables(w.basis, t_parts)
    return core, t


def primitive_root(w: Word) -> tuple[Word, int]:
    """The ``(r, e)`` with ``w == r**e``, ``e >= 1`` and ``r`` not a proper
    power; every element of a free group has exactly one (``(w, 1)`` for 1).

    A core whose first and last syllables share a generator is rotated so
    that its powers cannot merge at a seam; the shortest syllable period of
    the core that divides its syllable count is then the root.
    """
    core, t = cyclic_reduce(w)
    syls = core.syls
    if len(syls) == 1:
        gen, exp = syls[0]
        return conj(t, Word(w.basis, ((gen, 1 if exp > 0 else -1),))), abs(exp)
    if syls and syls[0][0] == syls[-1][0]:  # core = s u s' = s'^-1 (s' s u) s'
        (gen, first), (_, last) = syls[0], syls[-1]
        t = t * Word(w.basis, syls[-1:]).inv()
        syls = ((gen, first + last),) + syls[1:-1]
    n = len(syls)
    period = next((p for p in range(1, n) if n % p == 0 and syls[p:] == syls[: n - p]), n)
    if period == n:  # no proper power, or w = 1
        return w, 1
    return conj(t, Word(w.basis, syls[:period])), n // period


def square_root(w: Word, shape: Optional[tuple[Word, int]] = None) -> Optional[Word]:
    """Return ``s`` with ``s*s == w`` if one exists: the root to half its
    exponent when that is even.  ``shape`` is ``primitive_root(w)`` when the
    caller has it already."""
    root, e = shape or primitive_root(w)
    if e % 2 and w.syls:
        return None
    return root ** (e // 2)


_exponent = itemgetter(1)


def sgn(w: Word) -> int:
    """Orientation character: every classic generator maps to epsilon."""
    eps = w.basis.epsilon
    if eps == 1:
        return 1
    if w.basis.kind == "classic":
        return -1 if len(w) % 2 else 1
    syls = w.syls
    if not syls:
        return 1
    # a reduced word alternates its generators, so its b syllables are every
    # other one, from the first when that is a b
    exp_b = sum(map(_exponent, syls[syls[0][0] ^ 1 :: 2]))
    return -1 if exp_b % 2 else 1


def change_basis(w: Word, target: BasisTag) -> Word:
    """Rewrite ``w`` in the other basis (a = alpha*beta, b = beta**-1)."""
    if w.basis.epsilon != target.epsilon:
        raise BasisMismatch("cannot change basis across epsilon")
    if w.basis.kind == target.kind:
        return w
    if w.basis.epsilon == 1:
        return Word(target, w.syls)
    # epsilon == -1: the substitution is an involution up to inverses:
    # classic->adapted: a -> alpha*beta, b -> beta**-1
    # adapted->classic: alpha -> a*b,   beta -> b**-1
    out: list[tuple[int, int]] = []
    for gen, exp in w.syls:
        if gen == 1:
            out.append((1, -exp))
        elif exp > 0:
            out.extend(((0, 1), (1, 1)) * exp)
        else:
            out.extend(((1, -1), (0, -1)) * -exp)
    return Word(target, _reduce(out))


@cache  # four bases; words are immutable
def relator_in(basis: BasisTag) -> Word:
    """The relator written in ``basis``: alpha*beta*alpha**-epsilon*beta**-1
    in the adapted basis, [a,b] or a^2 b^2 classically."""
    if basis.kind == "adapted":
        return Word.from_syllables(basis, [(0, 1), (1, 1), (0, -basis.epsilon), (1, -1)])
    if basis.epsilon == 1:
        return Word.from_syllables(basis, [(0, 1), (1, 1), (0, -1), (1, -1)])
    return Word.from_syllables(basis, [(0, 2), (1, 2)])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# A run of plain letters, each with an optional exponent (ASCII digits only),
# is read by one C match; the lookahead leaves to _TOKEN every letter with a
# '^' not followed by an integer, so that errors and their offsets come from
# one place.  _TOKEN reads the next token after the white space: an opener
# (group 1), a comma (group 2), or an atom or closing bracket (group 3) with
# its exponent (group 4), where a '^' with no integer after it is matched up
# to where the digits should start.  At the end of the text, or at a
# character that starts no token, no group matches.
_LETTER_TERM = r"\s*([abAB])(?:\s*\^\s*(-?[0-9]+)|(?!\s*\^))"
_LETTER_RUN = re.compile(f"(?:{_LETTER_TERM})*")
_LETTER_TERMS = re.compile(_LETTER_TERM)
_LETTER_SYL = {"a": (0, 1), "b": (1, 1), "A": (0, -1), "B": (1, -1)}
_TERM_SYL = {
    (letter, text): _SYL[gen, sign * int(text or "1")]
    for letter, (gen, sign) in _LETTER_SYL.items()
    for text in ["", *map(str, range(-64, 65))]
}
_TOKEN = re.compile(r"\s*(?:(conj\(|[(\[])|(,)|([abAB1R)\]])(?:\s*\^\s*(-?[0-9]*))?)?")


def _relator_power(basis: BasisTag, k: int) -> tuple[tuple[int, int], ...]:
    """The syllables of R^k: the first and last syllables of the relator
    have different generators in every basis, so its repeats never merge."""
    rel = relator_in(basis).syls
    return (rel if k > 0 else _inverse(rel)) * abs(k)


def _parse(text: str, pos: int, stop: str, basis: BasisTag) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """Read one bracket level from ``pos`` up to its closing ``stop``, one of
    ``)``, ``,`` and ``]``, or up to the end of the text when ``stop`` is
    empty: the reduced syllables of the level, the exponent after its
    closing bracket and the offset after that exponent.

    Every term goes straight into the syllable list of its level, which is
    reduced once; ``conj(u)^k`` goes in as u, then the relator's syllables
    |k| times, then u^-1.  Only a bracketed group with an exponent other
    than 1 builds a ``Word`` to raise.  Each level of nesting is one frame,
    and a level that the stack cannot hold is the syntax error ``nesting too
    deep`` at its opening bracket.
    """
    out: list[tuple[int, int]] = []
    while True:
        end = _LETTER_RUN.match(text, pos).end()
        for term in _LETTER_TERMS.findall(text, pos, end):
            syl = _TERM_SYL.get(term)
            if syl is None:
                gen, sign = _LETTER_SYL[term[0]]
                syl = (gen, sign * int(term[1]))
            out.append(syl)
        token = _TOKEN.match(text, end)
        opener, comma, atom, exp = token.groups()
        pos = token.end()
        if opener:
            try:
                syls, k, pos = _parse(text, pos, "," if opener == "[" else ")", basis)
                if opener == "[":
                    right, k, pos = _parse(text, pos, "]", basis)
            except RecursionError:
                raise WordSyntaxError("nesting too deep", token.start(1)) from None
            if opener == "conj(":
                out += syls
                out += _relator_power(basis, k)
                out += _inverse(syls)
                continue
            if opener == "[":
                syls = syls + right + _inverse(syls) + _inverse(right)
            out += syls if k == 1 else (Word(basis, _reduce(syls)) ** k).syls
            continue
        char = comma or atom
        if char is None:
            if pos < len(text):
                raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
            if stop:
                raise WordSyntaxError(f"expected {stop!r}", pos)
            return _reduce(out), 1, pos
        if char in ",)]" and char != stop:
            raise WordSyntaxError(f"unexpected character {char!r}", token.start(2 if comma else 3))
        if exp in ("", "-"):  # a '^' with no integer, as after every letter _LETTER_RUN left
            raise WordSyntaxError("expected integer", pos)
        k = int(exp) if exp else 1
        if char in ",)]":  # the stop of this level
            return _reduce(out), k, pos
        if char == "R":
            out += _relator_power(basis, k)
        # else "1", the identity, which appends nothing


def parse_word(text: str, basis: BasisTag) -> Word:
    """Parse the word grammar; ``R`` is the relator and ``conj(w)`` is w R w**-1."""
    return Word(basis, _parse(text, 0, "", basis)[0])


# ---------------------------------------------------------------------------
# Equation frames
# ---------------------------------------------------------------------------

SolutionClass = Literal["faithful", "nonfaithful"]
Frame = Literal["original_z", "adapted_xy"]
_CLASSES, _FRAMES = get_args(SolutionClass), get_args(Frame)


class EquationSpec(Record):
    """Parameters of the quadratic equation family.

    ``original_z`` means the equation Q_delta(z1, z2) = v R^theta v^-1 R in the
    classic basis; ``adapted_xy`` means x y x^-delta y^-1 = v B^theta v^-1 B in
    the adapted basis.
    """

    __slots__ = ("delta", "epsilon", "theta", "solution_class", "frame")
    delta: int
    epsilon: int
    theta: int
    solution_class: SolutionClass
    frame: Frame

    def __init__(
        self,
        delta: int,
        epsilon: int,
        theta: int,
        solution_class: SolutionClass = "nonfaithful",
        frame: Frame = "adapted_xy",
    ) -> None:
        for name, sign in (("delta", delta), ("epsilon", epsilon), ("theta", theta)):
            if sign not in (1, -1):
                raise InvalidSpec(f"{name} must be +1 or -1")
        if solution_class not in _CLASSES:
            raise InvalidSpec(f"solution_class must be one of {', '.join(_CLASSES)}, not {solution_class!r}")
        if frame not in _FRAMES:
            raise InvalidSpec(f"frame must be one of {', '.join(_FRAMES)}, not {frame!r}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "solution_class", solution_class)
        object.__setattr__(self, "frame", frame)

    @property
    def basis(self) -> BasisTag:
        if self.frame == "original_z":
            return BasisTag.classic(self.epsilon)
        return BasisTag.adapted(self.epsilon)


def equation_lhs(spec: EquationSpec, first: Word, second: Word) -> Word:
    if spec.frame == "original_z":
        if spec.delta == 1:
            return comm(first, second)
        return first * first * second * second
    return first * second * first ** (-spec.delta) * second.inv()


def equation_rhs(spec: EquationSpec, v: Word) -> Word:
    rel = relator_in(spec.basis)
    return v * rel**spec.theta * v.inv() * rel


def swap_frame(delta: int, first: Word, second: Word) -> tuple[Word, Word]:
    """The change of unknowns between the z-frame and the xy-frame.

    For delta = -1 it is (z1, z2) -> (z1 z2, z2^-1), an involution, so the
    same map converts either way; for delta = 1 the unknowns agree.
    """
    if delta == 1:
        return first, second
    return first * second, second.inv()


def solution_is_faithful(spec: EquationSpec, first: Word, second: Word) -> bool:
    """True when every z-unknown has orientation character delta."""
    if spec.frame == "original_z":
        return sgn(first) == spec.delta and sgn(second) == spec.delta
    # equivalent in the adapted frame: w(x) = +1 and w(y) = delta
    return sgn(first) == 1 and sgn(second) == spec.delta


class VerifyResult(NamedTuple):
    holds: bool
    faithful: bool


def verify_solution(
    spec: EquationSpec, v: Word, first: Word, second: Word, rhs: Optional[Word] = None
) -> VerifyResult:
    """Substitute a candidate pair: whether it solves the equation in the
    spec's frame, and whether it is faithful.  ``rhs`` is
    ``equation_rhs(spec, v)`` when the caller has it already, as a search
    that checks many pairs against one ``v`` does.  Whether the first unknown
    lies in the relator subgroup is left to the callers that read it."""
    basis = spec.basis
    for w in (v, first, second):
        if w.basis is not basis and w.basis != basis:
            raise BasisMismatch(f"expected words in {basis}")
    holds = equation_lhs(spec, first, second) == (equation_rhs(spec, v) if rhs is None else rhs)
    return VerifyResult(holds, solution_is_faithful(spec, first, second))
