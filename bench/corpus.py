"""Seeded input generators for the three benchmark workloads.

Each generator returns a list of ``Query`` records: equation signs, solution
class, frame and the text of the conjugation parameter ``v``.  The program
under test only ever sees that text.  Generation uses ``random.Random(seed)``
and the small free-group helpers below, never ``fgquad`` itself, so a corpus
is fixed by the benchmark code and the seed alone and does not move when the
engine changes.

Draws are stratified (fixed quotas per sign combination, evenly spread
sizes, parameters paired by fixed strides) so that two seeds differ in the
letters of their words, not in the share of heavy inputs; this keeps the
timing figures of different seeds comparable.  No verdict or reason is used
to select inputs.  Each corpus comes in seeded random order.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, replace
from itertools import product

# Inputs per corpus: at least 1000, so that ten lie beyond p99.  One pass
# takes 10 to 13 s on one core of a 2-core x86 container (Python 3.11) when
# nothing else loads the machine, so a 30-second run times every input twice
# or more.
CORPUS_SIZE = {"closed_long": 1024, "derived_large": 2048, "wicks_cores": 2048}

# Default wicks_len of fgquad.Budgets; derived_large cores must exceed it and
# wicks_cores cores must not.
WICKS_LEN = 64
# Range of wicks_cores core lengths.  The longest is the length up to which
# acceptance criterion 8 cross-checks the classifier against the Wicks
# oracle; the shortest keeps the cheap second-derived rejections about two
# thirds of the corpus (see wicks_cores).
WICKS_CORE_MIN = 16
WICKS_CORE_MAX = 40


@dataclass(frozen=True)
class Query:
    qid: int
    delta: int
    epsilon: int
    theta: int
    solution_class: str
    frame: str  # "adapted_xy" or "original_z"
    text: str


def corpus_bytes(queries: list[Query]) -> bytes:
    """Canonical serialization, one JSON object per line."""
    return "".join(json.dumps(asdict(q), sort_keys=True) + "\n" for q in queries).encode()


# ---------------------------------------------------------------------------
# Free-group helpers, letters as (generator, +1/-1); independent of fgquad.
# ---------------------------------------------------------------------------


def _expand(syls: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(g, 1 if e > 0 else -1) for g, e in syls for _ in range(abs(e))]


def _inv(letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(g, -e) for g, e in reversed(letters)]


def _reduce(letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for g, e in letters:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return out


def _cyclic_core_len(letters: list[tuple[int, int]]) -> int:
    w = _reduce(letters)
    i, j = 0, len(w) - 1
    while i < j and w[i] == (w[j][0], -w[j][1]):
        i += 1
        j -= 1
    return max(j - i + 1, 0)


def _relator(epsilon: int) -> list[tuple[int, int]]:
    """Adapted-basis relator alpha beta alpha^-eps beta^-1."""
    return [(0, 1), (1, 1), (0, -epsilon), (1, -1)]


def _rhs_core_len(v: list[tuple[int, int]], epsilon: int, theta: int) -> int:
    """Cyclic length of v R^theta v^-1 R in the adapted basis."""
    rel = _relator(epsilon)
    rel_theta = rel if theta == 1 else _inv(rel)
    return _cyclic_core_len(v + rel_theta + _inv(v) + rel)


def _project(letters: list[tuple[int, int]], epsilon: int, classic: bool) -> tuple[int, int]:
    """Canonical coordinates (r, s) of the image in the torus/Klein group.

    The product is (r1, s1)(r2, s2) = (r1 + eps^s1 r2, s1 + s2); classic
    letters are rewritten first (a = alpha beta, b = beta^-1 for eps = -1).
    """
    r = s = 0
    for g, e in letters:
        if classic and epsilon == -1:
            steps = [(0, 1), (1, 1)] if g == 0 else [(1, -1)]
            if e < 0:
                steps = [(h, -f) for h, f in reversed(steps)]
        else:
            steps = [(g, e)]
        for h, f in steps:
            if h == 0:
                sigma = -1 if (epsilon == -1 and s % 2) else 1
                r += sigma * f
            else:
                s += f
    return r, s


def _v_sign(letters: list[tuple[int, int]], epsilon: int, classic: bool) -> int:
    if epsilon == 1:
        return 1
    odd = len(letters) % 2 if classic else sum(1 for g, _ in letters if g == 1) % 2
    return -1 if odd else 1


def _lands_mixed(delta: int, epsilon: int, theta: int, cls: str, r: int, s: int, sign: int) -> bool:
    """Whether the branch tables send the query to a mixed family."""
    if theta != -1:
        return False
    if cls == "faithful":
        return delta == -1 and epsilon == -1 and sign == 1 and r == 0
    if delta == 1 and epsilon == -1:
        return sign == 1 and r == 0
    if delta == -1 and epsilon == 1:
        return r % 2 == 0 and s % 2 == 0
    if delta == -1 and epsilon == -1:
        return sign == 1 and s % 4 == 0 and r % 2 == 0
    return False


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _syllable_text(rng: random.Random, g: int, e: int) -> str:
    """Render one syllable, choosing between the equivalent spellings."""
    low, up = "ab"[g], "AB"[g]
    if e == 1:
        return low
    if e == -1:
        return up
    if e < 0 and rng.random() < 0.5:
        return f"{up}^{-e}"
    return f"{low}^{e}"


def _syllables_text(rng: random.Random, syls: list[tuple[int, int]]) -> str:
    return " ".join(_syllable_text(rng, g, e) for g, e in syls) or "1"


def _alternating(rng: random.Random, count: int, max_exp: int = 3) -> list[tuple[int, int]]:
    g = rng.randrange(2)
    out = []
    for _ in range(count):
        out.append((g, rng.choice([-1, 1]) * rng.randint(1, max_exp)))
        g ^= 1
    return out


def _shuffled(rng: random.Random, queries: list[Query]) -> list[Query]:
    """Seeded random order, so any prefix of a pass is a fair sample of the corpus."""
    rng.shuffle(queries)
    return [replace(q, qid=i) for i, q in enumerate(queries)]


def _stratified(rng: random.Random, k: int, quota: int, lo: int, hi: int, stride: int = 1) -> int:
    """A draw from stratum ``k * stride mod quota`` of ``quota`` equal strata of [lo, hi].

    A stride coprime to ``quota`` visits every stratum once; different strides
    pair the strata of two parameters the same way for every seed.
    """
    while math.gcd(stride, quota) != 1:
        stride += 1
    j = (k * stride) % quota
    return lo + int((hi - lo + 1) * (j + rng.random()) / quota)


# ---------------------------------------------------------------------------
# closed_long
# ---------------------------------------------------------------------------

_SIGN_COMBOS = [
    (delta, eps, theta, cls)
    for delta, eps, theta, cls in product((1, -1), (1, -1), (1, -1), ("faithful", "nonfaithful"))
]


def closed_long(seed: int, size: int | None = None) -> list[Query]:
    """All 16 sign/class combinations with long random ``v``, closed branches only.

    Why: every verdict is settled by abelianization or a table branch
    (``exists``, ``not_exists`` or ``degree_two``), so the time goes to word
    algebra at large sizes -- parsing 50-400 alternating syllables with
    exponents +-1..3, basis change for the quarter posed in the ``original_z``
    frame, projection and witness instantiation -- while the derived-equation
    decider and the Wicks oracle stay idle.  A change to the mixed-case layers should not move this
    workload; a change to ``words``, ``surface`` or ``tables`` should.
    """
    size = size or CORPUS_SIZE["closed_long"]
    rng = random.Random(f"closed_long:{seed}")
    quota = size // len(_SIGN_COMBOS)
    out: list[Query] = []
    for k in range(quota):
        for c, (delta, eps, theta, cls) in enumerate(_SIGN_COMBOS):
            frame = "original_z" if (k + c) % 4 == 0 else "adapted_xy"
            classic = frame == "original_z"
            # 50-400 syllables, denser at the short end since parsing is
            # quadratic; at most 200 in the original frame, whose basis changes
            # and witness conversion grow far more steeply with length
            u = (k + rng.random()) / quota
            count = 50 + int(150 * u) if classic else 50 + int(350 * u * u)
            # the orientation character of v picks the branch; alternate it
            want = 1 if eps == 1 or (k // 4) % 2 == 0 else -1
            while True:
                syls = _alternating(rng, count)
                letters = _expand(syls)
                r, s = _project(letters, eps, classic)
                sign = _v_sign(letters, eps, classic)
                if sign == want and not _lands_mixed(delta, eps, theta, cls, r, s, sign):
                    break
            out.append(Query(len(out), delta, eps, theta, cls, frame, _syllables_text(rng, syls)))
    return _shuffled(rng, out)


# ---------------------------------------------------------------------------
# Mixed families (derived_large, wicks_cores)
# ---------------------------------------------------------------------------

# (kind, delta, epsilon, class); theta is -1 throughout.
_MIXED = [
    ("eq2_nf", 1, -1, "nonfaithful"),
    ("eq3_nf", -1, 1, "nonfaithful"),
    ("eq4_f", -1, -1, "faithful"),
    ("eq4_nf", -1, -1, "nonfaithful"),
]


def _c_syls(kind: str, m: int, n: int) -> tuple[list[tuple[int, int]], int]:
    """The word c and exponent d of a two-parameter family (vbar = c^(2d))."""
    d = math.gcd(m, n)
    beta = n // d if kind == "eq3_nf" else 2 * n // d
    return [(g, e) for g, e in ((0, m // d), (1, beta)) if e], d


def _v0(kind: str, m: int, n: int) -> list[tuple[int, int]]:
    """The family's base word v0 (adapted basis), as the decider normalizes it."""
    if kind in ("eq2_nf", "eq4_f") or m == n == 0:
        return [(1, 2 * n)] if n else []
    c, d = _c_syls(kind, m, n)
    return c * (2 * d)


def _pair_base(kind: str, m: int, n: int) -> list[tuple[int, int]]:
    """The element u of the pairs conj(g)^k conj(u g)^-k, which add (1 - u) k g to V.

    For the two-parameter families u is the orbit generator c^d of the
    squares decider; for the beta-power families it is beta^(2n), whose
    multiples (1 - beta^(2n)) w leave the verdict of the translation search
    unchanged.  Either way the paired part never turns a solvable V into an
    unsolvable one.
    """
    if kind in ("eq2_nf", "eq4_f") or m == n == 0:
        return [(1, 2 * n)] if n else []
    c, d = _c_syls(kind, m, n)
    return c * d


@dataclass(frozen=True)
class _Factor:
    u: list[tuple[int, int]]
    k: int


def _factors_text(rng: random.Random, factors: list[_Factor]) -> str:
    parts = []
    for f in factors:
        inner = _syllables_text(rng, f.u)
        parts.append(f"conj({inner})" + ("" if f.k == 1 else f"^{f.k}"))
    return " ".join(parts)


def _v_letters(epsilon: int, v0: list[tuple[int, int]], factors: list[_Factor]) -> list[tuple[int, int]]:
    rel = _relator(epsilon)
    letters = _expand(v0)
    for f in factors:
        u = _expand(f.u)
        block = u + rel + _inv(u) if f.k > 0 else u + _inv(rel) + _inv(u)
        letters += block * abs(f.k)
    return _reduce(letters)


def _mixed_query(
    qid: int, kind: str, delta: int, eps: int, cls: str, rng: random.Random,
    m: int, n: int, factors: list[_Factor],
) -> Query:
    """v = v0 * prod conj(u_i)^k_i, with v0 written as the power the decider uses."""
    if kind in ("eq2_nf", "eq4_f") or m == n == 0:
        head = _syllables_text(rng, _v0(kind, m, n)) if n else ""
    else:
        c, d = _c_syls(kind, m, n)
        head = f"({_syllables_text(rng, c)})^{2 * d}"
    text = " ".join(p for p in (head, _factors_text(rng, factors)) if p) or "1"
    return Query(qid, delta, eps, -1, cls, "adapted_xy", text)


def _random_u(rng: random.Random, max_syls: int, max_exp: int) -> list[tuple[int, int]]:
    return _alternating(rng, rng.randint(0, max_syls), max_exp)


def _random_factors(rng: random.Random, count: int, max_syls: int, exps: list[int]) -> list[_Factor]:
    return [_Factor(_random_u(rng, max_syls, 3), rng.choice(exps)) for _ in range(count)]


def _paired_factors(
    rng: random.Random, base: list[tuple[int, int]], pairs: int, symmetric: int, max_syls: int, exps: list[int]
) -> list[_Factor]:
    """``pairs`` pairs conj(g)^k conj(base g)^-k and ``symmetric`` pairs conj(g) conj(g^-1)."""
    factors: list[_Factor] = []
    for _ in range(pairs):
        g = _random_u(rng, max_syls, max_syls)
        k = rng.choice(exps)
        factors += [_Factor(g, k), _Factor(base + g, -k)]
    for _ in range(symmetric):
        g = _random_u(rng, max_syls, max_syls)
        factors += [_Factor(g, 1), _Factor([(h, -e) for h, e in reversed(g)], 1)]
    rng.shuffle(factors)
    return factors


def _square_root_head(kind: str, m: int, n: int) -> list[tuple[int, int]]:
    """A word r with r^2 mapping onto the family's vbar (beta exponent even)."""
    beta = {"eq2_nf": n, "eq4_f": n, "eq3_nf": n, "eq4_nf": 2 * n}[kind]
    return [(g, e) for g, e in ((0, m), (1, beta)) if e]


_DERIVED_SHAPES = ("random", "random", "paired", "square")


def derived_large(seed: int, size: int | None = None) -> list[Query]:
    """The four mixed families at large parameters with many conjugate factors.

    Why: the time goes to the group-ring projection (Fox derivatives and exact
    division in ``q_n``), the orbit and translation scans of the second
    derived decider and the pattern witnesses, at sizes where those costs
    show (|n| and |m| up to 20, 4 to 12 factors).  Inputs come in three
    shapes:

    * half take random factors, mostly rejected by an augmentation condition
      (early rejection, or a full translation scan that finds nothing);
    * a quarter take pairs conj(g)^k conj(u g)^-k and symmetric pairs
      conj(g) conj(g^-1), which put V in the image the decider accepts, so
      the pattern witnesses are tried and miss;
    * a quarter are squares (r * prod conj(u_i)^k_i)^2 with |n|, |m| up to
      10, accepted by the decider and settled by the ``v = u^2`` pattern
      witness.

    Every cyclic core exceeds ``wicks_len`` (draws at or below it are
    redrawn), so the Wicks oracle only refuses on budget.
    """
    size = size or CORPUS_SIZE["derived_large"]
    rng = random.Random(f"derived_large:{seed}")
    quota = size // (len(_DERIVED_SHAPES) * len(_MIXED))
    exps = [-2, -1, 1, 2]
    out: list[Query] = []
    for k in range(quota):
        for kind, delta, eps, cls in _MIXED:
            for shape in _DERIVED_SHAPES:
                # |n|, |m| and the factor count each cover their range evenly,
                # paired by fixed strides so the heavy (large |m| |n|) inputs
                # are the same share of every corpus
                # squares put an |m| x |n| patch into the support of V, whose
                # orbit scan grows with its square: keep them to 10
                top = 10 if shape == "square" else 20
                n = _stratified(rng, k, quota, 1, top) * rng.choice([-1, 1])
                m = _stratified(rng, k, quota, 0, top, stride=7) * rng.choice([-1, 1])
                m = m if kind in ("eq3_nf", "eq4_nf") else 0
                while True:
                    if shape == "square":
                        head = _square_root_head(kind, m, n)
                        count = _stratified(rng, k, quota, 2, 6, stride=11)
                        factors = _random_factors(rng, count, 4, exps)
                        letters = _v_letters(eps, head, factors) * 2
                    else:
                        if shape == "random":
                            count = _stratified(rng, k, quota, 4, 12, stride=11)
                            factors = _random_factors(rng, count, 4, exps)
                        else:
                            pairs = _stratified(rng, k, quota, 2, 4, stride=11)
                            base = _pair_base(kind, m, n)
                            factors = _paired_factors(rng, base, pairs, 1 + k % 2, 3, exps)
                        letters = _v_letters(eps, _v0(kind, m, n), factors)
                    if _rhs_core_len(_reduce(letters), eps, -1) > WICKS_LEN:
                        break
                if shape == "square":
                    inner = " ".join((_syllables_text(rng, head), _factors_text(rng, factors)))
                    out.append(Query(len(out), delta, eps, -1, cls, "adapted_xy", f"({inner})^2"))
                else:
                    out.append(_mixed_query(len(out), kind, delta, eps, cls, rng, m, n, factors))
    return _shuffled(rng, out)


def wicks_cores(seed: int, size: int | None = None) -> list[Query]:
    """The four mixed families at small parameters with short cyclic cores.

    Why: with |n|, |m| <= 2 and one or two conjugate factors over words of at
    most two syllables, the right-hand side's cyclic core stays within
    ``wicks_len``, so every input that passes the second derived decider
    without a pattern witness is settled by the Wicks oracle, which then takes
    most of the time.  This is the workload on which a Wicks matcher change
    must show.  Whether an input passes the decider is left to its letters,
    and an exhaustive search costs about the cube of the core length, so the
    core lengths are fixed in advance: each input draws a target length
    evenly spread over [WICKS_CORE_MIN, WICKS_CORE_MAX] and is redrawn until
    its core lies within 3 letters of it.  Up to 64 letters the few longest
    searches that happened to reach the oracle made up half the run time and
    two seeds' throughput differed by a quarter.  Below 16 letters the inputs
    are mostly settled by a table witness in 2-5 ms; with them in, the
    sub-millisecond decider rejections were half the corpus, so the median
    fell in the gap between the two groups and moved by 10% when one seed
    drew a few more of either.
    """
    size = size or CORPUS_SIZE["wicks_cores"]
    rng = random.Random(f"wicks_cores:{seed}")
    quota = size // len(_MIXED)
    out: list[Query] = []
    for k in range(quota):
        for kind, delta, eps, cls in _MIXED:
            target = WICKS_CORE_MIN + (WICKS_CORE_MAX - WICKS_CORE_MIN) * (k + rng.random()) / quota
            while True:
                n = rng.randint(-2, 2)
                m = rng.randint(-2, 2) if kind in ("eq3_nf", "eq4_nf") else 0
                factors = _random_factors(rng, rng.randint(1, 2), 2, [-1, 1])
                core = _rhs_core_len(_v_letters(eps, _v0(kind, m, n), factors), eps, -1)
                if WICKS_CORE_MIN <= core <= WICKS_CORE_MAX and abs(core - target) <= 3:
                    break
            out.append(_mixed_query(len(out), kind, delta, eps, cls, rng, m, n, factors))
    return _shuffled(rng, out)


WORKLOADS = {"closed_long": closed_long, "derived_large": derived_large, "wicks_cores": wicks_cores}
