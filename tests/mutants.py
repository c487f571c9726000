"""A catalogue of mutants of the package, each with the tests that kill it.

Each entry names a module of ``src/fgquad``, an exact source fragment that
occurs once in it, the replacement that makes the mutant, and the tests
(pytest node ids) that must fail on it.  ``run`` copies ``src/`` to a
temporary directory, applies one mutant there and runs its tests in a
subprocess against the copy; the checkout is never touched.  A mutant whose
fragment no longer occurs is a stale entry, and one whose tests all pass
survived; either is a failure.  ``tests/test_mutants.py`` runs every entry
under the ``slow`` marker.  From the repository root:

    python tests/mutants.py                  # every entry
    python tests/mutants.py pieces_odd_seed  # the named entries

The runner needs the standard library only.  Each later change that adds a
decider or a matcher adds its mutants here.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # file stem under src/fgquad
    fragment: str
    replacement: str
    tests: tuple[str, ...]  # node ids; every test they collect must fail


MUTANTS = (
    Mutant(
        # the moved break of the two-squares matcher, on its outward growth
        # of b: the |b| loop of a a b c c b^-1 ends at the first |b| whose
        # c c is not a square, not at the first b^-1 letter that fails
        "aabcc_break_on_square",
        "wicks",
        "                if not k or k in squares[(b + j) % n]:\n"
        "                    found.append(",
        "                if k and k not in squares[(b + j) % n]:\n"
        "                    break\n"
        "                else:\n"
        "                    found.append(",
        (
            "tests/test_wicks.py::TestDecompositions::test_two_squares_pattern",
            "tests/test_wicks.py::TestMatcherOracle::test_every_form_matched_with_and_without_empty_parts",
        ),
    ),
    Mutant(
        # every odd centre is seeded with its one-letter piece, valid or not
        "pieces_odd_seed",
        "wicks",
        "if k and code[p + h] != -code[p]:",
        "if False:",
        (
            "tests/test_wicks.py::TestMatcherOracle::test_same_ordered_matches_on_periodic_commutator_cores",
            "tests/test_wicks.py::TestLongCoreReference::test_periodic_cores_up_to_300_letters",
        ),
    ),
    Mutant(
        # a centre's chain stops growing at h - 2 letters
        "pieces_chain_cap",
        "wicks",
        "while code[p - 1 + h] == -code[p + k] and code[p + h + k] == -code[p - 1]:",
        "while code[p - 1 + h] == -code[p + k] and code[p + h + k] == -code[p - 1] and k + 3 < h:",
        ("tests/test_wicks.py::TestMatcherOracle::test_same_ordered_matches_on_periodic_commutator_cores",),
    ),
    Mutant(
        # the square table stops one half-length short of n/2
        "squares_drop_half",
        "wicks",
        "for d in range(1, n // 2 + 1):",
        "for d in range(1, n // 2):",
        (
            "tests/test_wicks.py::TestSquareRoots::test_square_cores_match_both_degenerate_layouts",
            "tests/test_wicks.py::TestLongCoreReference::test_periodic_cores_up_to_300_letters",
        ),
    ),
    Mutant(
        # each valid piece is filed one position past its end
        "piece_end_off_by_one",
        "wicks",
        "ends[(p + k) % n].append(k)",
        "ends[(p + k + 1) % n].append(k)",
        (
            "tests/test_wicks.py::TestMatcherOracle::test_every_form_matched_with_and_without_empty_parts",
            "tests/test_wicks.py::TestLongCoreReference::test_periodic_cores_up_to_300_letters",
        ),
    ),
    Mutant(
        # a a b c c b^-1 with |c| = 0, the core a square a a at the shift, is
        # never listed
        "aabcc_skip_empty_c",
        "wicks",
        "if not k or k in squares[(b + j) % n]:",
        "if k and k in squares[(b + j) % n]:",
        (
            "tests/test_wicks.py::TestSquareRoots::test_square_cores_match_both_degenerate_layouts",
            "tests/test_wicks.py::TestLongCoreReference::test_periodic_cores_up_to_300_letters",
        ),
    ),
    Mutant(
        # a part word sliced across the seam keeps the core's last and first
        # syllables apart when they share a generator
        "part_slice_no_seam_merge",
        "wicks",
        "                    if i < seam <= j:\n                        runs = _reduce(runs)\n",
        "",
        (
            "tests/test_wicks.py::TestPartWords::test_every_part_and_prefix_is_its_letters",
            "tests/test_wicks.py::TestMatcherOracle::test_every_form_matched_with_and_without_empty_parts",
        ),
    ),
    Mutant(
        # sgn sums the a syllables of an adapted word instead of its b ones
        "sgn_stride_parity",
        "words",
        "syls[syls[0][0] ^ 1 :: 2]",
        "syls[syls[0][0] :: 2]",
        (
            "tests/test_words.py::TestKernels::test_sgn_is_the_all_syllable_sum",
            "tests/test_words.py::TestSgn::test_adapted_values",
        ),
    ),
    Mutant(
        # a product refuses two words whose tags are equal but not the same
        # object
        "mul_identity_only",
        "words",
        "if other.basis is not self.basis and other.basis != self.basis:",
        "if other.basis is not self.basis:",
        ("tests/test_words.py::TestKernels::test_equal_tags_that_are_distinct_objects_multiply",),
    ),
    Mutant(
        # the product of pairs drops the Klein-bottle twist: beta^s with odd
        # s no longer inverts the alpha-degree it moves past
        "mul_no_twist",
        "surface",
        "    return (r - y[0] if epsilon == -1 and s & 1 else r + y[0]), s + y[1]",
        "    return r + y[0], s + y[1]",
        (
            "tests/test_surface.py::TestProductRule::test_pairs_multiply_and_invert_as_words",
            "tests/test_surface.py::TestProductRule::test_klein_twist",
            "tests/test_groupring.py::TestRingAlgebra::test_product_is_the_convolution_of_word_products",
        ),
    ),
    Mutant(
        # p_q stores c*g as +c*g^-1 instead of -c*g^-1
        "p_q_fold_sign",
        "quotient",
        "items.append((inv(p.epsilon, g), -c))",
        "items.append((inv(p.epsilon, g), c))",
        (
            "tests/test_quotient.py::TestPq::test_matches_the_pairwise_oracle[0-1]",
            "tests/test_quotient.py::TestPq::test_matches_the_pairwise_oracle[0--1]",
            "tests/test_quotient.py::TestPq::test_folding_coefficients",
        ),
    ),
    Mutant(
        # Table 2 (3b) reads only s: alpha^r beta^s with odd r and even s is
        # sent to the mixed family instead of refused
        "table_3b_one_coordinate",
        "tables",
        "        if r % 2 or s % 2:",
        "        if s % 2:",
        (
            "tests/test_tables.py::test_square_rows_read_both_coordinates_of_vbar",
            "tests/test_census.py::test_census_matches_golden",
            "tests/test_census.py::test_frames_agree_on_every_census_word",
        ),
    ),
    Mutant(
        # locate reads the orientation character off the parity of r, not s
        "locate_sign_from_r",
        "tables",
        "vbar[1] & 1",
        "vbar[0] & 1",
        (
            "tests/test_surface.py::TestProject::test_locate_passes_the_orientation_of_v",
            "tests/test_classify.py::TestTables::test_classify_agrees_with_fixture_rows",
        ),
    ),
    Mutant(
        # the Klein-bottle lattice of an orientation-reversing element moves
        # by (0, us) instead of (0, 2 us), merging orbits
        "orbit_key_klein_lattice",
        "orbits",
        "        return min(_lattice_rep(r, s, ur, us, 2 * us), _lattice_rep(r, -s, ur, us, 2 * us))",
        "        return min(_lattice_rep(r, s, ur, us, us), _lattice_rep(r, -s, ur, us, us))",
        (
            "tests/test_orbits.py::TestOrbitKey::test_keys_are_bfs_orbits[HatAbs(u=PiElement(epsilon=-1, r=2, s=4))]",
            "tests/test_census.py::test_bench_census_matches_golden",
        ),
    ),
    Mutant(
        # the translation search scans only L = 0, short of its proven window
        "beta_window_zero",
        "derived",
        "    bound = 2 * r_alpha + 1\n",
        "    bound = 0\n",
        (
            "tests/test_word_oracles.py::TestBetaDecide::test_a_wider_window_changes_no_answer",
            "tests/test_box_oracle.py::TestBetaPowerBoxOracle::test_no_false_rejections",
        ),
    ),
)


def run(mutant: Mutant) -> str | None:
    """Apply ``mutant`` to a copy of ``src/`` and run its tests there: None
    when every test fails, else why the entry does not hold."""
    with tempfile.TemporaryDirectory(prefix="fgquad-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "fgquad" / f"{mutant.module}.py"
        text = path.read_text()
        count = text.count(mutant.fragment)
        if count != 1:
            return f"{mutant.name}: the fragment occurs {count} times in {mutant.module}.py"
        path.write_text(text.replace(mutant.fragment, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        )
    # exit 1 is "some tests failed"; a mistyped node id or a mutant that
    # breaks the import exits otherwise
    summary = (done.stdout.strip().splitlines() or [done.stderr.strip()])[-1]
    if done.returncode != 1 or re.search(r"\d+ passed", summary):
        return f"{mutant.name}: pytest exit {done.returncode}: {summary}"
    return None


def main(names: list[str]) -> int:
    problems = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        problem = run(mutant)
        print(problem or f"{mutant.name}: killed")
        problems += problem is not None
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
