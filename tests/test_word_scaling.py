"""Inputs that were quadratic or worse in the word layer or the translation
search now finish at once, the Wicks matcher builds its layouts once per
call, and q_n does its arithmetic on integer pairs and refuses a word outside
the kernel before it walks the letters."""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from conftest import ADAPTED_MINUS, random_word
import fgquad.wicks
from fgquad import (
    MixedCase,
    PiElement,
    RingElement,
    Word,
    cyclic_reduce,
    parse_word,
    project,
    q_n,
    relator_in,
    second_decide,
)
from fgquad.cli import main
from fgquad.groupring import SparseSum, conjugate_power_product
from fgquad.tables import _even_power, _exact_power_of
from oracles import reduce_syllables


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
    assert _exact_power_of(v, relator_in(ADAPTED_MINUS)) is None
    assert perf_counter() - start < 0.1


def test_even_power_of_a_long_syllable():
    # the root comes from the four syllables of the core, not its 2000002 letters
    u = Word(ADAPTED_MINUS, ((0, 1000000), (1, 1)))
    start = perf_counter()
    assert _even_power(u * u) == [(u, 1)]
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


def test_exhausted_translation_window():
    # 400 terms with |r| <= 200: the window [-405, 406] holds 812 parameters,
    # none of which satisfies the conditions
    rng = random.Random(3)
    terms = [(PiElement(-1, rng.randint(-200, 200), rng.randint(-40, 40)), 1) for _ in range(399)]
    v = RingElement.make(-1, terms + [(PiElement(-1, 200, 1), 1)])
    start = perf_counter()
    result = second_decide(MixedCase("eq2_nf", n=3), v)
    assert perf_counter() - start < 0.3
    assert result.trace["window"] == [-405, 406] and result.trace["window_exhausted"]


def test_wide_translation_window_answered_early():
    # the window is tried from L = 0 outwards, so a million-wide override
    # costs nothing when L = 1 already holds
    argv = [
        "second-derived", "--delta", "1", "--epsilon", "-1", "--theta", "-1", "--class", "nonfaithful",
        "--word", "b^2 conj(a) conj(b)", "--l-window", "1000000",
    ]
    buf = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buf):
        code = main(argv)
    assert perf_counter() - start < 0.1
    assert code == 0 and '"L": 1,' in buf.getvalue() and '"window": [-1000000, 1000001]' in buf.getvalue()


def test_wicks_matcher_on_a_core_at_the_default_budget(monkeypatch):
    # 64 letters is the default wicks_len: 64 shifts of 561 + 33 (commutator)
    # or 561 + 561 (two squares) layouts each
    rng = random.Random(64)
    letters = [(0, 1)]
    while len(letters) < 64:
        g, e = rng.randrange(2), rng.choice((-1, 1))
        if (g, -e) != letters[-1] and (len(letters) < 63 or (g, -e) != letters[0]):
            letters.append((g, e))
    core = Word.from_syllables(ADAPTED_MINUS, letters)
    assert len(core) == 64 and cyclic_reduce(core)[0] == core
    builds = []
    enumerate_lengths = fgquad.wicks._enumerate_lengths

    def counted(n_parts, total):
        builds.append(n_parts)
        return enumerate_lengths(n_parts, total)

    monkeypatch.setattr(fgquad.wicks, "_enumerate_lengths", counted)
    start = perf_counter()
    for kind in ("commutator", "two_squares"):
        fgquad.wicks.wicks_decompositions(core, kind)
    assert perf_counter() - start < 0.25
    # once per call and form: (a, b, c) then (d, e); then the two three-part forms
    assert builds == [3, 2, 3, 3]


def test_q_n_of_a_long_conjugate_product(monkeypatch):
    # 2000 factors (u R u^-1)^n, about 23k letters: one walk, then the division
    # and the beta-column check on integer pairs, with no group-ring product
    # or sum built on the way
    rng = random.Random(2000)
    factors = [(random_word(rng, ADAPTED_MINUS, 5), rng.choice((-2, -1, 1, 2))) for _ in range(2000)]
    w = conjugate_power_product(-1, factors)
    assert len(w) > 20000
    expected = RingElement.make(-1, [(project(u), n) for u, n in factors])

    def refuse(*args):
        raise AssertionError("group-ring arithmetic inside q_n")

    monkeypatch.setattr(RingElement, "__mul__", refuse)
    monkeypatch.setattr(SparseSum, "make", classmethod(refuse))
    start = perf_counter()
    got = q_n(w)
    assert perf_counter() - start < 1.0
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
