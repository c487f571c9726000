"""Naive reference implementations of the word and quotient algebra.

These are the step-by-step forms the library used before its word layer
became linear: every product re-reduces the whole concatenation, a power is
repeated multiplication, basis change multiplies image powers one syllable
at a time, projection multiplies one group element per syllable, the Fox
derivative multiplies ``prefix * base**j`` per letter, and the parser
multiplies term by term.  They are slow on purpose and serve as oracles for
the property tests in ``test_word_oracles.py``.
"""

from __future__ import annotations

from fgquad import BasisTag, PiElement, RingElement, Word, WordSyntaxError


def reduce_syllables(syllables: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Merge adjacent runs of the same generator, cascading cancellations."""
    out: list[tuple[int, int]] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        while out and out[-1][0] == gen:
            exp += out.pop()[1]
            if exp == 0:
                break
        if exp != 0:
            out.append((gen, exp))
    return tuple(out)


def naive_mul(u: Word, v: Word) -> Word:
    assert u.basis == v.basis
    return Word(u.basis, reduce_syllables(list(u.syls) + list(v.syls)))


def naive_inv(w: Word) -> Word:
    return Word(w.basis, tuple((g, -e) for g, e in reversed(w.syls)))


def naive_pow(w: Word, k: int) -> Word:
    base = w if k > 0 else naive_inv(w)
    out = Word.identity(w.basis)
    for _ in range(abs(k)):
        out = naive_mul(out, base)
    return out


def naive_conj(u: Word, w: Word) -> Word:
    return naive_mul(naive_mul(u, w), naive_inv(u))


def naive_comm(u: Word, w: Word) -> Word:
    return naive_mul(naive_mul(naive_mul(u, w), naive_inv(u)), naive_inv(w))


def naive_relator_in(basis: BasisTag) -> Word:
    if basis.kind == "adapted":
        syls = [(0, 1), (1, 1), (0, -basis.epsilon), (1, -1)]
    elif basis.epsilon == 1:
        syls = [(0, 1), (1, 1), (0, -1), (1, -1)]
    else:
        syls = [(0, 2), (1, 2)]
    return Word(basis, reduce_syllables(syls))


def naive_cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = t * core * t**-1``, peeling the list from both ends."""
    syls = list(w.syls)
    t_parts: list[tuple[int, int]] = []
    while len(syls) >= 2:
        g1, e1 = syls[0]
        g2, e2 = syls[-1]
        if g1 != g2 or (e1 > 0) == (e2 > 0):
            break
        c = min(abs(e1), abs(e2))
        step = 1 if e1 > 0 else -1
        t_parts.append((g1, step * c))
        syls[0] = (g1, e1 - step * c)
        syls[-1] = (g2, e2 + step * c)
        if syls[-1][1] == 0:
            syls.pop()
        if syls and syls[0][1] == 0:
            syls.pop(0)
    return Word(w.basis, reduce_syllables(syls)), Word(w.basis, reduce_syllables(t_parts))


def naive_change_basis(w: Word, target: BasisTag) -> Word:
    """Multiply the image of each syllable into the result one at a time."""
    if w.basis.kind == target.kind:
        return w
    if w.basis.epsilon == 1:
        return Word(target, w.syls)
    images = {
        0: Word(target, ((0, 1), (1, 1))),
        1: Word(target, ((1, -1),)),
    }
    out = Word.identity(target)
    for gen, exp in w.syls:
        out = naive_mul(out, naive_pow(images[gen], exp))
    return out


def _adapted(w: Word) -> Word:
    if w.basis.kind == "adapted":
        return w
    return naive_change_basis(w, BasisTag.adapted(w.basis.epsilon))


def naive_project(w: Word) -> PiElement:
    """One quotient-group product per syllable."""
    w = _adapted(w)
    eps = w.basis.epsilon
    out = PiElement.identity(eps)
    for gen, exp in w.syls:
        out = out * (PiElement(eps, exp, 0) if gen == 0 else PiElement(eps, 0, exp))
    return out


def naive_fox_derivative(w: Word, gen: str) -> RingElement:
    """One ``prefix * base**j`` term per letter of the chosen generator."""
    w = _adapted(w)
    eps = w.basis.epsilon
    idx = 0 if gen == "a" else 1
    items: list[tuple[PiElement, int]] = []
    prefix = PiElement.identity(eps)
    for g, e in w.syls:
        base = PiElement(eps, 1, 0) if g == 0 else PiElement(eps, 0, 1)
        if g == idx:
            if e > 0:
                items.extend((prefix * base**j, 1) for j in range(e))
            else:
                items.extend((prefix * base ** (-j), -1) for j in range(1, -e + 1))
        prefix = prefix * base**e
    return RingElement.make(eps, items)


class ReferenceParser:
    """The word grammar read one character at a time, multiplying term by term."""

    def __init__(self, text: str, basis: BasisTag) -> None:
        self.text = text
        self.basis = basis
        self.pos = 0

    def error(self, message: str) -> WordSyntaxError:
        return WordSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not self.peek().isdigit():
            raise self.error("expected integer")
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])

    def parse_word(self, stop: str = "") -> Word:
        out = Word.identity(self.basis)
        while True:
            self.skip_ws()
            ch = self.peek()
            if not ch or ch in stop:
                return out
            out = naive_mul(out, self.parse_term())

    def parse_term(self) -> Word:
        atom = self.parse_atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            return naive_pow(atom, self.parse_int())
        return atom

    def parse_atom(self) -> Word:
        ch = self.peek()
        if self.text.startswith("conj(", self.pos):
            self.pos += len("conj(")
            inner = self.parse_word(stop=")")
            self.expect(")")
            return naive_conj(inner, naive_relator_in(self.basis))
        if ch == "1":
            self.pos += 1
            return Word.identity(self.basis)
        if ch in "ab":
            self.pos += 1
            return Word(self.basis, (("ab".index(ch), 1),))
        if ch in "AB":
            self.pos += 1
            return Word(self.basis, (("AB".index(ch), -1),))
        if ch == "R":
            self.pos += 1
            return naive_relator_in(self.basis)
        if ch == "(":
            self.pos += 1
            inner = self.parse_word(stop=")")
            self.expect(")")
            return inner
        if ch == "[":
            self.pos += 1
            left = self.parse_word(stop=",")
            self.expect(",")
            right = self.parse_word(stop="]")
            self.expect("]")
            return naive_comm(left, right)
        raise self.error(f"unexpected character {ch!r}" if ch else "unexpected end of input")


def reference_parse(text: str, basis: BasisTag) -> Word:
    parser = ReferenceParser(text, basis)
    word = parser.parse_word()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error(f"unexpected character {parser.peek()!r}")
    return word
