"""Inputs that were quadratic or worse in the word layer or the translation
search now finish at once."""

import io
import random
from contextlib import redirect_stdout
from time import perf_counter

from conftest import ADAPTED_MINUS
from fgquad import MixedCase, PiElement, RingElement, Word, parse_word, relator_in, second_decide
from fgquad.cli import main
from fgquad.tables import _exact_power_of
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
