"""The witness registry: fixture rows, table branches and parse-free witnesses."""

import sys
from collections import Counter

from fgquad import BasisTag, EquationSpec, Word, classify, project, sgn, tables, verify_tables
from fgquad.tables import Fixture, FixtureFailure, TableReport, all_fixtures, instantiate_witness, table_branch

# Every fixture row the explicit-solution tables checked before the registry
# replaced the per-table fixture builders: row, delta, epsilon, theta, class,
# frame, v, first, second, and whether the first unknown must lie in the
# relator subgroup (checked wherever the frame allows it, the adapted one).
FIXTURE_ROWS = [
    ('Table 0 (1)a', 1, 1, 1, 'faithful', 'original_z', 'a', 'a^2', 'b', False),
    ('Table 0 (1)b', 1, 1, 1, 'faithful', 'original_z', 'A', 'b A B A B', 'b a^2 B', False),
    ('Table 0 (2)a', 1, -1, -1, 'faithful', 'original_z', 'a', 'a b', 'b^-2', False),
    ('Table 0 (2)a', 1, -1, -1, 'faithful', 'original_z', 'a^3', 'a^3 b', 'b^-2', False),
    ('Table 0 (4)a', -1, -1, 1, 'faithful', 'original_z', 'a b', 'a b a', 'b', False),
    ('Table 0 (4)b', -1, -1, 1, 'faithful', 'original_z', 'B A', 'B a b^3', 'b^-2 a b^2', False),
    ('Table 0 (4)e', -1, -1, 1, 'faithful', 'original_z', 'a b', 'a b a', 'b', False),
    ('Table 0 (4)e', -1, -1, 1, 'faithful', 'original_z', 'a^3 b', 'a^3 b A', 'b', False),
    ('Table 0 (4)f', -1, -1, -1, 'faithful', 'original_z', 'a', 'a B A', 'b', False),
    ('Table 0 (4)f', -1, -1, -1, 'faithful', 'original_z', 'a^3', 'a^3 B a^-3', 'b', False),
    ('Table 1 (1)', 1, 1, -1, 'faithful', 'adapted_xy', 'a', 'a b a B a^-2', 'A', True),
    ('Table 1 (1)', 1, 1, -1, 'faithful', 'adapted_xy', 'b', 'b^2 a B A B', 'B', True),
    ('Table 1 (1)', 1, 1, -1, 'faithful', 'adapted_xy', 'a b', 'a b^2 a B A B A', 'B A', True),
    ('Table 1 (2a)', 1, -1, -1, 'faithful', 'adapted_xy', 'a', 'a b A B a^-2', 'A', True),
    ('Table 1 (2a)', 1, -1, -1, 'faithful', 'adapted_xy', 'b^2', 'b^3 A B A b^-2', 'b^-2', True),
    ('Table 1 (2a)', 1, -1, -1, 'faithful', 'adapted_xy', 'a b^2', 'a b^3 A B A b^-2 A', 'b^-2 A', True),
    ('Table 1 (2a)', 1, -1, -1, 'faithful', 'adapted_xy', 'a^2', 'a^2 b A B a^-3', 'a^-2', True),
    ('Table 1 (4a)', -1, -1, 1, 'faithful', 'adapted_xy', 'b', 'a b a B', 'b A B A b', True),
    ('Table 1 (4a)', -1, -1, 1, 'faithful', 'adapted_xy', 'a b', 'a b a B', 'b A', True),
    ('Table 1 (4a)', -1, -1, 1, 'faithful', 'adapted_xy', 'a^2 b', 'a b a B', 'b A B a b', True),
    ('Table 2 (2b)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'b', 'b^2 A B A B', 'B', True),
    ('Table 2 (2b)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b', 'a b^2 A B A B A', 'B A', True),
    ('Table 2 (2b)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'a^2 b', 'a^2 b^2 A B A B a^-2', 'B a^-2', True),
    ('Table 2 (3a)', -1, 1, 1, 'nonfaithful', 'adapted_xy', 'a', 'a b A B', 'b a B', True),
    ('Table 2 (3a)', -1, 1, 1, 'nonfaithful', 'adapted_xy', 'b', 'a b A B', 'b a B A b', True),
    ('Table 2 (3a)', -1, 1, 1, 'nonfaithful', 'adapted_xy', 'a b', 'a b A B', 'b a', True),
    ('Table 2 (4b)', -1, -1, 1, 'nonfaithful', 'adapted_xy', 'a', 'a b a B', 'b A B', True),
    ('Table 2 (4b)', -1, -1, 1, 'nonfaithful', 'adapted_xy', 'b^2', 'a b a B', 'b A B A b^2', True),
    ('Table 2 (4b)', -1, -1, 1, 'nonfaithful', 'adapted_xy', 'a b^2', 'a b a B', 'b A b', True),
    ('Table 2 (4b)', -1, -1, 1, 'nonfaithful', 'adapted_xy', 'a^2', 'a b a B', 'b A B a', True),
    ('Table 3 (4c)', -1, -1, -1, 'faithful', 'adapted_xy', 'b^2', 'b^3 A B A B a b a b^-2', 'B', True),
    ('Table 3 (4c)', -1, -1, -1, 'faithful', 'adapted_xy', 'b^2', 'b^2 A B A B a b a B', 'b A B A b a b a B', True),
    ('Table 3 (4c)', -1, -1, -1, 'faithful', 'adapted_xy', 'a b a b', 'a b a b^2 A b^-3 A', 'B A', True),
    ('Table 3 (4c)', -1, -1, -1, 'faithful', 'adapted_xy', 'a b a b', 'a b^2 A b^-2', 'b^2 a B', True),
    ('Table 3 (4d)', -1, -1, -1, 'faithful', 'adapted_xy', 'a b a b', 'a b a b A B A B', 'b', True),
    ('Table 3 (4d)', -1, -1, -1, 'faithful', 'adapted_xy', 'a b a b a b a b', 'a b a b a b a b A B A B A B A B', 'b', True),
    ('Table 3 (4d)', -1, -1, -1, 'faithful', 'adapted_xy', 'a b a b a b a b a b a b', 'a b a b a b a b a b a b A B A B A B A B A B A B', 'b', True),
    ('Table 3 (4e)', -1, -1, -1, 'faithful', 'adapted_xy', 'a b a B', '1', 'b', True),
    ('Table 3 (4e)', -1, -1, -1, 'faithful', 'adapted_xy', 'a b a B a b a B', '1', 'b', True),
    ('Table 3 (4e)', -1, -1, -1, 'faithful', 'adapted_xy', 'a b a B a b a B a b a B', '1', 'b', True),
    ('Table 4 (2c)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'b^2', 'b^3 A B a^-2 B A B', 'b A B A B', True),
    ('Table 4 (2c)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'b^4', 'b^5 A B a^-2 B a^-2 B a^-2 B A B', 'b A B A B', True),
    ('Table 4 (2c)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'b^6', 'b^7 A B a^-2 B a^-2 B a^-2 B a^-2 B a^-2 B A B', 'b A B A B', True),
    ('Table 4 (2c)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b a b', 'a b a b^2 A B A B A b A B A B A', 'b A B A B A', True),
    ('Table 4 (2c)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b a b a b a b', 'a b a b a b a b^2 A B A B A b A B A B A b A B A B A b A B A B A', 'b A B A B A', True),
    ('Table 4 (2c)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b a b a b a b a b a b', 'a b a b a b a b a b a b^2 A B A B A b A B A B A b A B A B A b A B A B A b A B A B A b A B A B A', 'b A B A B A', True),
    ('Table 4 (2d)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b a b', 'a b a^2 b a b^-2', 'b^2 A B A', True),
    ('Table 4 (2d)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b a b^3', 'a b a^2 b a^2 b a^2 b a b^-4', 'b^4 A B a^-2 B a^-2 B A', True),
    ('Table 4 (2d)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b a b^5', 'a b a^2 b a^2 b a^2 b a^2 b a^2 b a b^-6', 'b^6 A B a^-2 B a^-2 B a^-2 B a^-2 B A', True),
    ('Table 4 (2e)', 1, -1, -1, 'nonfaithful', 'adapted_xy', 'b^2 a^2 b a B A', 'b^2 a^2 b a B A b a^-2 B A B A b a^-2 b^-2', 'b A B A b a^-2 b^-2', True),
    ('Table 4 (3c)', -1, 1, -1, 'nonfaithful', 'adapted_xy', 'a^2', 'a^2 b a B A b A B A', 'A', True),
    ('Table 4 (3c)', -1, 1, -1, 'nonfaithful', 'adapted_xy', 'a^2', 'a b a B A b A B', 'b a B a b A B', True),
    ('Table 4 (3c)', -1, 1, -1, 'nonfaithful', 'adapted_xy', 'b^2', 'b^3 a B A B a b A b^-2', 'B', True),
    ('Table 4 (3c)', -1, 1, -1, 'nonfaithful', 'adapted_xy', 'b^2', 'b^2 a B A B a b A B', 'b a B A b a b A B', True),
    ('Table 4 (3c)', -1, 1, -1, 'nonfaithful', 'adapted_xy', 'a b a b', 'a b a b^2 a B a^-2 b^-2 A', 'B A', True),
    ('Table 4 (3c)', -1, 1, -1, 'nonfaithful', 'adapted_xy', 'a b a b', 'a b^2 a B a^-2 B', 'b a^2 b A B', True),
    ('Table 4 (4c)', -1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b a B', '1', 'a', True),
    ('Table 4 (4c)', -1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b a B a b a B', '1', 'a', True),
    ('Table 4 (4c)', -1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b a B a b a B a b a B', '1', 'a', True),
    ('Table 4 (4d)', -1, -1, -1, 'nonfaithful', 'adapted_xy', 'a^2', 'a^2 b A B A b a B A', 'A', True),
    ('Table 4 (4d)', -1, -1, -1, 'nonfaithful', 'adapted_xy', 'a^2', 'a b A B A b a B', 'b A B a b a B', True),
    ('Table 4 (4d)', -1, -1, -1, 'nonfaithful', 'adapted_xy', 'b^4', 'b^5 A B A b^-2 a b a b^-3', 'b^-2', True),
    ('Table 4 (4d)', -1, -1, -1, 'nonfaithful', 'adapted_xy', 'b^4', 'b^3 A B A b^-2 a b a B', 'b A B A b^2 a b a B', True),
    ('Table 4 (4d)', -1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b^2 a b^2', 'a b^2 a b^3 A B A B a b^-3 A', 'b^-2 A', True),
    ('Table 4 (4d)', -1, -1, -1, 'nonfaithful', 'adapted_xy', 'a b^2 a b^2', 'a b^3 A B A B a B', 'b A b a b a B', True),
]


def _row(fx):
    s = fx.spec
    check_x_in_n = s.frame == "adapted_xy"
    return (
        fx.row, s.delta, s.epsilon, s.theta, s.solution_class, s.frame,
        str(fx.v), str(fx.first), str(fx.second), check_x_in_n,
    )


def test_registry_rows_are_the_fixture_rows():
    assert len(FIXTURE_ROWS) == 65
    assert Counter(_row(fx) for fx in all_fixtures()) == Counter(FIXTURE_ROWS)


def test_closed_branches_point_at_the_family_of_their_rows():
    closed = [fx for fx in all_fixtures() if fx.row.startswith(("Table 1", "Table 2"))]
    assert len(closed) == 20
    for fx in closed:
        branch = table_branch(fx.spec, project(fx.v), sgn(fx.v))
        assert (branch.row, branch.kind) == (fx.row, "exists")
        assert instantiate_witness(branch.family, fx.v) == (fx.first, fx.second)


def test_square_rows_read_both_coordinates_of_vbar():
    # the non-faithful theta = -1 rows of the torus and the Klein bottle
    # refuse a vbar that is no square, alpha^2m beta^2n or alpha^2m beta^4n
    # (Table 2 (3b), (4d)), and send the squares to their mixed families
    torus = EquationSpec(-1, 1, -1, "nonfaithful", "adapted_xy")
    klein = EquationSpec(-1, -1, -1, "nonfaithful", "adapted_xy")
    for r in range(-4, 5):
        for s in range(-8, 9, 2):
            assert table_branch(torus, (r, s), 1).row == ("Table 2 (3b)" if r % 2 else "Table 2 (3c)")
            assert table_branch(torus, (r, s + 1), 1).row == "Table 2 (3b)"
            assert table_branch(klein, (r, s), 1).row == ("Table 2 (4d)" if r % 2 or s % 4 else "Table 2 (4e)")


def test_classify_builds_witnesses_without_parsing(monkeypatch):
    fixtures = all_fixtures()

    def refuse(*args, **kwargs):
        raise AssertionError("parse_word called while classifying")

    for name, module in list(sys.modules.items()):
        if (name == "fgquad" or name.startswith("fgquad.")) and hasattr(module, "parse_word"):
            monkeypatch.setattr(module, "parse_word", refuse)
    for fx in fixtures:
        verdict = classify(fx.spec, fx.v)
        assert verdict.outcome == "exists" and verdict.verified, fx.row


def test_verify_tables_reports_each_failure_reason(monkeypatch):
    # for v = 1 the right-hand side R^-1 R is trivial, so (x, y) = (b, 1)
    # solves x y x^-1 y^-1 = 1, but w(b) = -1 and b is outside the relator
    # subgroup; (a, b) solves nothing.  A pair that fails several checks is
    # reported by the first, and the original frame has no x-in-N check
    adapted, classic = BasisTag.adapted(-1), BasisTag.classic(-1)
    one, a, b = Word.identity(adapted), Word.gen(adapted, "a"), Word.gen(adapted, "b")
    faithful = EquationSpec(1, -1, -1, "faithful", "adapted_xy")
    nonfaithful = EquationSpec(1, -1, -1, "nonfaithful", "adapted_xy")
    original = EquationSpec(1, -1, -1, "nonfaithful", "original_z")
    fixtures = [
        Fixture("unsolved", faithful, one, a, b),
        Fixture("wrong class", faithful, one, b, one),
        Fixture("outside N", nonfaithful, one, b, one),
        Fixture("original frame", original, Word.identity(classic), Word.gen(classic, "b"), Word.identity(classic)),
    ]
    monkeypatch.setattr(tables, "all_fixtures", lambda: fixtures)
    assert verify_tables() == TableReport(4, [
        FixtureFailure("unsolved", "substitution failed"),
        FixtureFailure("wrong class", "wrong solution class"),
        FixtureFailure("outside N", "first unknown not in the relator subgroup"),
    ])
