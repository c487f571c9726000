"""Inputs that were quadratic or worse in the word layer or the translation
search now finish at once, the Wicks matcher drops every layout that
shares a part which fails its compare and ends each two-squares loop over
|b| at the first length whose prefix or suffix compare fails (a 400-letter
core), q_n does its arithmetic on integer
pairs and refuses a word outside the kernel before it walks the letters,
and the mixed-case path takes one primitive root per pattern scan and no
cyclic reduction per substitution check, and a representative word of the
first derived equation is built from one syllable list."""

import importlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from conftest import ADAPTED_MINUS, random_word
import fgquad.words
from fgquad import tables
from fgquad import (
    EquationSpec,
    MixedCase,
    PiElement,
    RingElement,
    Word,
    cyclic_reduce,
    parse_word,
    pattern_witness,
    project,
    q_n,
    relator_in,
    second_decide,
    verify_solution,
    wicks_decompositions,
)
from fgquad.cli import main
from fgquad.groupring import conjugate_power_product
from fgquad.tables import _even_power, _exact_power_of
from fgquad.words import primitive_root
from oracles import naive_wicks_decompositions, reduce_syllables

classify_module = importlib.import_module("fgquad.classify")  # fgquad.classify is the function


def test_canon_of_a_huge_power():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["canon", "--epsilon", "-1", "--word", "a^100000000"])
    assert code == 0
    assert '"vbar": {"r": 100000000, "s": 0}' in buf.getvalue()


def test_power_of_a_two_syllable_word():
    ab = Word.gen(ADAPTED_MINUS, "a") * Word.gen(ADAPTED_MINUS, "b")
    start = perf_counter()
    w = ab**20000
    assert perf_counter() - start < 1.0
    assert len(w) == 40000
    assert w.syls == ((0, 1), (1, 1)) * 20000


def test_one_syllable_is_no_power_of_the_relator():
    # b^1000000 has the letter count of R^250000 but one syllable
    v = Word.gen(ADAPTED_MINUS, "b", 1000000)
    start = perf_counter()
    assert _exact_power_of(primitive_root(v), primitive_root(relator_in(ADAPTED_MINUS))) is None
    assert perf_counter() - start < 0.1


def test_even_power_of_a_long_syllable():
    # the root comes from the four syllables of the core, not its 2000002 letters
    u = Word(ADAPTED_MINUS, ((0, 1000000), (1, 1)))
    start = perf_counter()
    assert _even_power(u * u, *primitive_root(u * u)) == [(u, 1)]
    assert perf_counter() - start < 0.1


def test_parse_a_long_random_text():
    rng = random.Random(20260418)
    chars = [rng.choice("abAB") for _ in range(50000)]
    text = " ".join(chars)
    start = perf_counter()
    w = parse_word(text, ADAPTED_MINUS)
    assert perf_counter() - start < 1.0
    syl = {"a": (0, 1), "b": (1, 1), "A": (0, -1), "B": (1, -1)}
    assert w.syls == reduce_syllables([syl[ch] for ch in chars])


def test_classify_a_long_alpha_power_in_the_original_frame():
    # a^n is (alpha beta)^n in the adapted basis: q_n divides out n beta-rows
    # and the translation search augments one element over many bases
    argv = ["classify", "--delta", "1", "--epsilon", "-1", "--theta", "-1", "--class", "nonfaithful",
            "--frame", "original", "--word", "a^4000"]
    buf = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buf):
        code = main(argv)
    assert perf_counter() - start < 2.0
    assert code == 0 and '"verdict": "exists"' in buf.getvalue()


def test_first_derived_of_a_long_beta_power():
    # each representative word is read as c^e1 R c^(e2-e1) ... R c^-ek, so no
    # power c^e is built for a term only to cancel again
    argv = ["first-derived", "--delta", "1", "--epsilon", "-1", "--theta", "-1", "--class", "nonfaithful",
            "--word", "b^2000", "--enum-bound", "1"]
    buf = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buf):
        code = main(argv)
    assert perf_counter() - start < 4.0
    assert code == 0
    out = json.loads(buf.getvalue())
    assert out["case"] == "eq2_nf(n=1000)" and len(out["solutions"]) == 24


def test_exhausted_translation_window():
    # 400 terms with |r| <= 200: the window [-401, 401] holds 803 parameters,
    # none of which satisfies the conditions
    rng = random.Random(3)
    terms = [((rng.randint(-200, 200), rng.randint(-40, 40)), 1) for _ in range(399)]
    v = RingElement.make(-1, terms + [((200, 1), 1)])
    start = perf_counter()
    result = second_decide(MixedCase("eq2_nf", n=3), v)
    assert perf_counter() - start < 0.3
    assert result.trace["window"] == [-401, 401] and result.trace["window_exhausted"]


def test_wicks_matcher_on_a_core_at_the_default_budget():
    # 64 letters is the default wicks_len: 64 shifts of 561 + 33 (commutator)
    # or 561 + 561 (two squares) layouts each, most pruned by a part that
    # fails its compare
    rng = random.Random(64)
    letters = [(0, 1)]
    while len(letters) < 64:
        g, e = rng.randrange(2), rng.choice((-1, 1))
        if (g, -e) != letters[-1] and (len(letters) < 63 or (g, -e) != letters[0]):
            letters.append((g, e))
    core = Word.from_syllables(ADAPTED_MINUS, letters)
    assert len(core) == 64 and cyclic_reduce(core)[0] == core
    kinds = ("commutator", "two_squares")
    start = perf_counter()
    found = [wicks_decompositions(core, kind) for kind in kinds]
    assert perf_counter() - start < 0.25
    assert found == [naive_wicks_decompositions(core, kind) for kind in kinds]


def test_two_squares_matcher_on_a_core_of_400_letters():
    # a b c b a c^-1 planted in 400 random letters: the second b of that form
    # and the b^-1 that ends a a b c c b^-1 grow by one letter per |b|, so
    # each |b| loop stops at the first length they fail at (about 0.3 s; a
    # loop over every |b| takes 6-8 s)
    rng = random.Random(400)
    core = Word.identity(ADAPTED_MINUS)
    while len(core) != 400 or cyclic_reduce(core)[0] != core:
        letters = [(0, 1)]
        while len(letters) < 200:
            g, e = rng.randrange(2), rng.choice((-1, 1))
            if (g, -e) != letters[-1]:
                letters.append((g, e))
        i, j = sorted(rng.sample(range(1, 200), 2))
        a, b, c = (Word.from_syllables(ADAPTED_MINUS, letters[x:y]) for x, y in ((0, i), (i, j), (j, 200)))
        core = a * b * c * b * a * c.inv()
    start = perf_counter()
    found = wicks_decompositions(core, "two_squares")
    assert perf_counter() - start < 2.0
    assert (0, "nonorientable_abcbac", {"a": a, "b": b, "c": c}) in [m[:3] for m in found]


def test_q_n_of_a_long_conjugate_product(monkeypatch):
    # 2000 factors (u R u^-1)^n, about 23k letters: one walk, then the division
    # and the beta-column check on integer pairs, with no group-ring product
    # or sum built on the way.  The result holds the division's pair dict as
    # it is: no make pass over its terms, and no group element but the one
    # projection of w
    rng = random.Random(2000)
    factors = [(random_word(rng, ADAPTED_MINUS, 5), rng.choice((-2, -1, 1, 2))) for _ in range(2000)]
    w = conjugate_power_product(-1, factors)
    assert len(w) > 20000
    expected = RingElement.make(-1, [(project(u).pair, n) for u, n in factors])
    elements = 0
    build = PiElement.__init__

    def counting(self, *args):
        nonlocal elements
        elements += 1
        build(self, *args)

    def refuse(*args):
        raise AssertionError("group-ring arithmetic inside q_n")

    monkeypatch.setattr(RingElement, "__mul__", refuse)
    monkeypatch.setattr(RingElement, "make", staticmethod(refuse))
    monkeypatch.setattr(PiElement, "__init__", counting)
    start = perf_counter()
    got = q_n(w)
    assert perf_counter() - start < 1.0
    assert elements == 1
    assert got == expected


def test_q_n_refuses_a_huge_power_outside_the_kernel():
    # the projection walks one syllable, so the refusal comes before the Fox
    # walk would expand 10^8 letters into a dict
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["qn", "--epsilon", "-1", "--word", "a^100000000"])
    assert perf_counter() - start < 0.1
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue() == "error: word does not project to the identity\n"


def counted(monkeypatch, modules, name: str) -> list:
    """Replace ``name`` in each module by a wrapper that records its first
    argument; returns the record."""
    calls: list = []
    real = getattr(modules[0], name)

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_pattern_witness_takes_one_primitive_root(monkeypatch):
    # every MIXED matcher reads the one root of v, and the roots of R and
    # (ab)^2 are kept per basis; this v matches no family, so all of them run
    spec = EquationSpec(-1, -1, -1, "nonfaithful", "adapted_xy")
    v = parse_word("a^2 b^4 conj(a b) conj(B)^-1", spec.basis)
    tables._relator_root.cache_clear()
    tables._ab_squared_root.cache_clear()
    calls = counted(monkeypatch, [fgquad.words, tables, classify_module], "primitive_root")
    assert pattern_witness(spec, v) is None
    assert calls == [v, relator_in(spec.basis), (Word.gen(spec.basis, "a") * Word.gen(spec.basis, "b")) ** 2]
    calls.clear()
    assert pattern_witness(spec, v) is None
    assert calls == [v]


def test_substitution_check_makes_no_cyclic_reduction(monkeypatch):
    # x y x^-delta y^-1 at delta = -1 and R^theta raise only to +-1
    rng = random.Random(15)
    v, first, second = (random_word(rng, ADAPTED_MINUS, 400) for _ in range(3))
    calls = counted(monkeypatch, [fgquad.words], "cyclic_reduce")
    for theta in (1, -1):
        verify_solution(EquationSpec(-1, -1, theta, "nonfaithful", "adapted_xy"), v, first, second)
    assert calls == []
