"""Branch tables of the classification and the registry of explicit solutions.

``table_branch`` realizes the complete decision tree over the equation
parameters and the projection of the conjugation parameter, and ``locate``
gives it that projection, once per input.  Each explicit solution family of
Tables 0-4 is one ``Family``, written once: a matcher from ``v`` to
parameters, a builder of the witness pair from word operations, and fixture
rows with sample values of ``v``.  Closed branches point at their
family, mixed branches name their derived-equation family (``Branch.case``),
``degree_two_witness`` and ``classify.pattern_witness`` walk ``DEGREE_TWO``
and ``MIXED``, and ``verify_tables`` checks every sample row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator, Literal, Optional

from .groupring import conjugate_power_product
from .surface import PiElement, project
from .words import (
    BasisTag,
    EquationSpec,
    Word,
    change_basis,
    comm,
    conj,
    parse_word,
    primitive_root,
    relator_in,
    sgn,
    square_root,
    verify_solution,
)

Pair = tuple[Word, Word]


@dataclass(frozen=True)
class Family:
    """One explicitly solved shape of the conjugation parameter ``v``.

    ``match(v)`` lists the parameter tuples under which ``v`` has the shape
    (none: no match); a ``MIXED`` matcher also takes the primitive root of
    ``v``, ``match(v, root, e)`` with ``v == root**e``, computed once for
    all of them.  ``build(v, *params)`` writes the pair in the basis of
    ``v``.  Each row is a table cell, the equation it solves and sample
    values of ``v`` in that equation's basis.
    """

    match: Callable[..., list[tuple]]
    build: Callable[..., Pair]
    rows: tuple[tuple[str, EquationSpec, tuple[str, ...]], ...]

    def pairs(self, v: Word, *shape: object) -> Iterator[Pair]:
        """The pairs of every match; ``shape`` is ``(root, e)`` for a ``MIXED`` family."""
        for params in self.match(v, *shape):
            yield self.build(v, *params)


def _a(v: Word, k: int = 1) -> Word:
    return Word.gen(v.basis, "a", k)


def _b(v: Word, k: int = 1) -> Word:
    return Word.gen(v.basis, "b", k)


def _R(v: Word) -> Word:
    return relator_in(v.basis)


def _when(hit: bool) -> list[tuple]:
    return [()] if hit else []


def _one(param: Optional[object]) -> list[tuple]:
    return [] if param is None else [(param,)]


def _klein(match: Callable[..., list[tuple]]) -> Callable[..., list[tuple]]:
    return lambda v, *shape: match(v, *shape) if v.basis.epsilon == -1 else []


def _exact_power_of(v: tuple[Word, int], base: tuple[Word, int]) -> Optional[int]:
    """The k with base**k == v, given both as ``(root, e)``: v and base share
    their primitive root up to inversion and the exponent of base divides
    that of v."""
    (root_v, e_v), (root_b, e_b) = v, base
    if root_v.is_identity:
        return 0
    if e_v % e_b:
        return None
    if root_v == root_b:
        return e_v // e_b
    return -(e_v // e_b) if root_v == root_b.inv() else None


@cache  # four bases, like relator_in
def _relator_root(basis: BasisTag) -> tuple[Word, int]:
    return primitive_root(relator_in(basis))


@cache  # four bases
def _ab_squared_root(basis: BasisTag) -> tuple[Word, int]:
    return primitive_root((Word.gen(basis, "a") * Word.gen(basis, "b")) ** 2)


def _xy(delta: int, eps: int, theta: int, cls: str) -> EquationSpec:
    return EquationSpec(delta, eps, theta, cls, "adapted_xy")  # type: ignore[arg-type]


def _z(delta: int, eps: int, theta: int) -> EquationSpec:
    return EquationSpec(delta, eps, theta, "faithful", "original_z")


_ANY = ("a", "b", "a b")
_PLUS = ("a", "b^2", "a b^2", "a^2")  # adapted, eps = -1, orientation +1
_MINUS = ("b", "a b", "a^2 b")  # adapted, eps = -1, orientation -1
_EVEN_POWERS = ("b^2", "b^4", "b^6", "(a b)^2", "(a b)^4", "(a b)^6")

# Closed table branches (Tables 1 and 2): one pair for every v of the branch.
CONJUGATE = Family(
    lambda v: [()],
    lambda v: (conj(v, _R(v).inv()), v.inv()),
    (
        ("Table 1 (1)", _xy(1, 1, -1, "faithful"), _ANY),
        ("Table 1 (2a)", _xy(1, -1, -1, "faithful"), _PLUS),
        ("Table 2 (2b)", _xy(1, -1, -1, "nonfaithful"), _MINUS),
    ),
)
RELATOR = Family(
    lambda v: [()],
    lambda v: (_R(v), _R(v).inv() * v),
    (
        ("Table 1 (4a)", _xy(-1, -1, 1, "faithful"), _MINUS),
        ("Table 2 (4b)", _xy(-1, -1, 1, "nonfaithful"), _PLUS),
    ),
)
COMMUTATOR = Family(
    lambda v: [()],
    lambda v: (comm(_a(v), _b(v)), comm(_b(v), _a(v)) * v),
    (("Table 2 (3a)", _xy(-1, 1, 1, "nonfaithful"), _ANY),),
)


# Degree-two families (Table 0): faithful solutions with v_sign == theta, for
# literal classic-basis shapes of v.
def _odd_alpha_power(v: Word) -> list[tuple]:
    """v = a^n with n odd."""
    hit = len(v.syls) == 1 and v.syls[0][0] == 0 and v.syls[0][1] % 2
    return _one(v.syls[0][1] if hit else None)


def _odd_alpha_power_beta(v: Word) -> list[tuple]:
    """v = a^n b with n odd."""
    hit = len(v.syls) == 2 and v.syls[0][0] == 0 and v.syls[1] == (1, 1) and v.syls[0][1] % 2
    return _one(v.syls[0][1] if hit else None)


DEGREE_TWO = (
    Family(
        lambda v: _when(v == _a(v)),
        lambda v: (_a(v, 2), _b(v)),
        (("Table 0 (1)a", _z(1, 1, 1), ("a",)),),
    ),
    Family(
        lambda v: _when(v == _a(v, -1)),
        lambda v: (
            _b(v) * _a(v, -1) * _b(v, -1) * _a(v, -1) * _b(v, -1),
            _b(v) * _a(v, 2) * _b(v, -1),
        ),
        (("Table 0 (1)b", _z(1, 1, 1), ("A",)),),
    ),
    Family(
        _odd_alpha_power,
        lambda v, n: (v * _b(v), _b(v, -2)),
        (("Table 0 (2)a", _z(1, -1, -1), ("a", "a^3")),),
    ),
    Family(
        lambda v: _when(v == _b(v, -1) * _a(v, -1)),
        lambda v: (_b(v, -1) * _a(v) * _b(v, 3), _b(v, -2) * _a(v) * _b(v, 2)),
        (("Table 0 (4)b", _z(-1, -1, 1), ("B A",)),),
    ),
    Family(
        _odd_alpha_power_beta,
        lambda v, n: (_a(v, n) * _b(v) * _a(v, 2 - n), _b(v)),
        # row (4)a, v = a b, is the n = 1 member of row (4)e
        (
            ("Table 0 (4)a", _z(-1, -1, 1), ("a b",)),
            ("Table 0 (4)e", _z(-1, -1, 1), ("a b", "a^3 b")),
        ),
    ),
    Family(
        _odd_alpha_power,
        lambda v, n: (_a(v, n) * _b(v, -1) * _a(v, -n), _b(v)),
        (("Table 0 (4)f", _z(-1, -1, -1), ("a", "a^3")),),
    ),
)


# Mixed-case families (Tables 3 and 4), in the order pattern_witness tries
# them; each matcher takes v = root**e.
def _even_power(v: Word, root: Word, e: int) -> list[tuple]:
    """v = u^{2k} with orientation-reversing u, one entry per such split."""
    splits = [(root**j, e // (2 * j)) for j in range(1, e + 1) if e % (2 * j) == 0]
    return [(u, k) for u, k in splits if sgn(u) == -1]


def _relator_beta_power(v: Word, *_: object) -> list[tuple]:
    """v = B beta^{2n}."""
    w = _R(v).inv() * v
    hit = len(w.syls) <= 1 and all(g == 1 and e % 2 == 0 for g, e in w.syls)
    return _one(w.syls[0][1] // 2 if w.syls else 0) if hit else []


def _relator_beta_power_pair(v: Word, n: int) -> Pair:
    aba = _a(v) * _b(v) * _a(v)
    return aba ** (2 * n) * _b(v, -2 * n), _b(v, 2 * n) * aba ** (1 - 2 * n)


def _beta2_b_alpha_pair(v: Word) -> Pair:
    """The explicit pair of Table 4 (2e), from conjugates of the relator."""
    a, b, bba = _a(v), _b(v), _b(v, 2) * _a(v)
    first = conjugate_power_product(-1, [(bba, 1), (b * b, -1), (bba, -1), (bba * a * b.inv(), -1)])
    second = conjugate_power_product(-1, [(Word.identity(v.basis), -2), (a, -1)]) * a * a * b.inv()
    return first, second


def _squares(build: Callable[[Word, Word], Pair]) -> Family:
    """v = u^2, solved in the three square cells of Tables 3 and 4."""
    return Family(
        lambda v, root, e: _one(square_root(v, (root, e))),
        build,
        (
            ("Table 3 (4c)", _xy(-1, -1, -1, "faithful"), ("b^2", "(a b)^2")),
            ("Table 4 (3c)", _xy(-1, 1, -1, "nonfaithful"), ("a^2", "b^2", "(a b)^2")),
            ("Table 4 (4d)", _xy(-1, -1, -1, "nonfaithful"), ("a^2", "b^4", "(a b^2)^2")),
        ),
    )


def _relator_power(u: Callable[[Word], Word], row: str, cls: str) -> Family:
    """v = R^m collapses the right-hand side, so (1, u) solves for any u."""
    return Family(
        lambda v, root, e: _one(_exact_power_of((root, e), _relator_root(v.basis))),
        lambda v, m: (Word.identity(v.basis), u(v)),
        ((row, _xy(-1, -1, -1, cls), ("R", "R^2", "R^3")),),
    )


MIXED = (
    _relator_power(_b, "Table 3 (4e)", "faithful"),
    _relator_power(_a, "Table 4 (4c)", "nonfaithful"),
    _squares(lambda v, u: (comm(u * u * _R(v).inv(), u.inv()), u.inv())),
    _squares(lambda v, u: (comm(u, _R(v).inv()), _R(v).inv() * u * _R(v))),
    Family(
        _even_power,
        lambda v, u, k: (u ** (2 * k) * (u * _R(v)) ** (-2 * k), _R(v).inv() * u.inv()),
        (("Table 4 (2c)", _xy(1, -1, -1, "nonfaithful"), _EVEN_POWERS),),
    ),
    Family(
        _klein(lambda v, root, e: _one(_exact_power_of((root, e), _ab_squared_root(v.basis)))),
        lambda v, n: (comm(v, _b(v)), _b(v)),
        (("Table 3 (4d)", _xy(-1, -1, -1, "faithful"), ("(a b)^2", "(a b)^4", "(a b)^6")),),
    ),
    Family(
        _klein(_relator_beta_power),
        _relator_beta_power_pair,
        (("Table 4 (2d)", _xy(1, -1, -1, "nonfaithful"), ("R b^2", "R b^4", "R b^6")),),
    ),
    Family(
        _klein(lambda v, *_: _when(v == _b(v, 2) * conj(_a(v), _R(v)))),
        _beta2_b_alpha_pair,
        (("Table 4 (2e)", _xy(1, -1, -1, "nonfaithful"), ("b^2 conj(a)",)),),
    ),
)

FAMILIES = (CONJUGATE, RELATOR, COMMUTATOR, *DEGREE_TWO, *MIXED)

# ---------------------------------------------------------------------------
# The decision tree
# ---------------------------------------------------------------------------

BranchKind = Literal["exists", "not_exists", "mixed", "degree_two", "abelian"]
CaseKind = Literal["eq2_nf", "eq3_nf", "eq4_f", "eq4_nf"]


@dataclass(frozen=True)
class Branch:
    row: str
    kind: BranchKind
    family: Optional[Family] = None  # the witness family of an "exists" branch
    case: Optional[CaseKind] = None  # the derived-equation family of a "mixed" branch


def _abelian_obstructed(spec: EquationSpec) -> bool:
    # LHS of the delta=+1 equation lies in the commutator subgroup while the
    # right-hand side abelianizes to (1+theta) times the relator exponents.
    return spec.delta == 1 and spec.epsilon == -1 and spec.theta == 1


def table_branch(spec: EquationSpec, vbar: PiElement, v_sign: int) -> Branch:
    """Name the Table 1/2 branch for the given parameters.

    ``v_sign`` is the orientation character of the conjugation parameter,
    ``vbar.w_eps()``.
    Faithful queries with v_sign == theta fall outside the degree-zero
    classification and are labelled ``degree_two``.
    """
    delta, eps, theta = spec.delta, spec.epsilon, spec.theta
    if _abelian_obstructed(spec):
        row = "Table 1 (2b)" if spec.solution_class == "faithful" else "Table 2 (2a)"
        return Branch(row, "abelian")
    if spec.solution_class == "faithful":
        if eps == 1 and delta == -1:
            return Branch("Table 1 (3)", "not_exists")
        if eps == 1:  # delta == +1, v_sign always +1
            if theta == -1:
                return Branch("Table 1 (1)", "exists", CONJUGATE)
            return Branch("Table 0 (1)", "degree_two")
        if delta == 1:
            if theta == -1 and v_sign == 1:
                return Branch("Table 1 (2a)", "exists", CONJUGATE)
            return Branch("Table 0 (2)", "degree_two")
        # delta == eps == -1
        if theta == 1 and v_sign == -1:
            return Branch("Table 1 (4a)", "exists", RELATOR)
        if theta == -1 and v_sign == 1:
            if vbar.r != 0:
                return Branch("Table 1 (4b)", "not_exists")
            return Branch("Table 1 (4c)", "mixed", case="eq4_f")
        return Branch("Table 0 (4)", "degree_two")
    # non-faithful
    if eps == 1 and delta == 1:
        return Branch("Table 2 (1)", "not_exists")
    if eps == -1 and delta == 1:
        # theta == +1 was caught by the abelian check
        if v_sign == -1:
            return Branch("Table 2 (2b)", "exists", CONJUGATE)
        if vbar.r != 0:
            return Branch("Table 2 (2c)", "not_exists")
        return Branch("Table 2 (2d)", "mixed", case="eq2_nf")
    if eps == 1 and delta == -1:
        if theta == 1:
            return Branch("Table 2 (3a)", "exists", COMMUTATOR)
        if vbar.r % 2 or vbar.s % 2:
            return Branch("Table 2 (3b)", "not_exists")
        return Branch("Table 2 (3c)", "mixed", case="eq3_nf")
    # delta == eps == -1
    if theta == 1:
        if v_sign == -1:
            return Branch("Table 2 (4a)", "not_exists")
        return Branch("Table 2 (4b)", "exists", RELATOR)
    if v_sign == -1:
        return Branch("Table 2 (4c)", "not_exists")
    if vbar.s % 4 or vbar.r % 2:
        return Branch("Table 2 (4d)", "not_exists")
    return Branch("Table 2 (4e)", "mixed", case="eq4_nf")


def locate(spec: EquationSpec, v: Word) -> tuple[Word, PiElement, Branch]:
    """``v`` in the adapted basis, its projection and its table branch.

    A word already in the adapted basis is used as it is, with no basis change.
    """
    adapted = BasisTag.adapted(spec.epsilon)
    v_ad = v if v.basis == adapted else change_basis(v, adapted)
    vbar = project(v_ad)
    return v_ad, vbar, table_branch(spec, vbar, vbar.w_eps())


def instantiate_witness(family: Family, v: Word, *shape: object) -> Pair:
    """The pair of ``family`` at ``v`` under its first match (a closed
    branch's family matches every ``v`` of the branch); ``shape`` as in
    ``Family.pairs``."""
    return next(family.pairs(v, *shape))


def degree_two_witness(spec: EquationSpec, v_classic: Word) -> Optional[Pair]:
    """Match v against the explicitly solved degree-two families.

    All matches are literal classic-basis power words; the returned pair is in
    the classic frame and must be substitution-verified by the caller.
    """
    signs = (spec.delta, spec.epsilon, spec.theta)
    for family in DEGREE_TWO:
        if any((s.delta, s.epsilon, s.theta) == signs for _, s, _ in family.rows):
            for pair in family.pairs(v_classic):
                return pair
    return None


# ---------------------------------------------------------------------------
# Fixture rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    row: str
    spec: EquationSpec
    v: Word
    first: Word
    second: Word


def all_fixtures() -> list[Fixture]:
    """One row per sample of every family, with the family's first pair."""
    out: list[Fixture] = []
    for family in FAMILIES:
        for row, spec, samples in family.rows:
            for text in samples:
                v = parse_word(text, spec.basis)
                shape = primitive_root(v) if family in MIXED else ()
                out.append(Fixture(row, spec, v, *instantiate_witness(family, v, *shape)))
    return out


@dataclass(frozen=True)
class FixtureFailure:
    row: str
    reason: str


@dataclass(frozen=True)
class TableReport:
    checked: int
    failures: list[FixtureFailure]


def verify_tables() -> TableReport:
    """Substitution-check every explicit-solution fixture row."""
    failures: list[FixtureFailure] = []
    fixtures = all_fixtures()
    for fx in fixtures:
        result = verify_solution(fx.spec, fx.v, fx.first, fx.second)
        if not result.holds:
            failures.append(FixtureFailure(fx.row, "substitution failed"))
        elif result.faithful != (fx.spec.solution_class == "faithful"):
            failures.append(FixtureFailure(fx.row, "wrong solution class"))
        elif fx.spec.frame == "adapted_xy" and not result.x_in_n:
            failures.append(FixtureFailure(fx.row, "first unknown not in the relator subgroup"))
    return TableReport(len(fixtures), failures)
