"""Independent mod-2 linear-algebra oracle for the solvability deciders.

Both mod-2 second derived equations ask whether the projected parameter lies
in the span of translated ratio elements inside the quotient of Z2[pi] by
g + g^-1.  For supports in a finite box that is plain GF(2) linear algebra:
columns are quotient classes, generators are the projected translates.  A
box-solvable instance is genuinely solvable, so the decider must accept it;
a decider rejection together with a box solution would expose a bug.
"""

import random

from conftest import mono, random_pi
from fgquad import MixedCase, RingElement, p_q, second_decide
from fgquad.orbits import odd_part
from oracles import PiElement, geom_ratio, naive_project, squares_u


def _q_support(elt: RingElement) -> frozenset:
    q = p_q(elt.reduce_mod2())
    return frozenset(q.terms)


def _gf2_member(target: frozenset, generators: list[frozenset]) -> bool:
    """Is target in the GF(2) span of the generators?"""
    coords: dict[tuple, int] = {}

    def mask(support: frozenset) -> int:
        m = 0
        for c in support:
            if c not in coords:
                coords[c] = len(coords)
            m |= 1 << coords[c]
        return m

    basis: dict[int, int] = {}  # leading bit -> row
    for gen in generators:
        row = mask(gen)
        while row:
            lead = row.bit_length() - 1
            if lead in basis:
                row ^= basis[lead]
            else:
                basis[lead] = row
                break
    row = mask(target)
    while row:
        lead = row.bit_length() - 1
        if lead not in basis:
            return False
        row ^= basis[lead]
    return not row


def _box_elements(eps: int, radius: int) -> list[PiElement]:
    return [
        PiElement(eps, r, s)
        for r in range(-radius, radius + 1)
        for s in range(-radius, radius + 1)
    ]


class TestSquaresBoxOracle:
    """(1 - u) Z' = V' in the quotient, u = c^d: direct span membership."""

    def _generators(self, case: MixedCase, radius: int) -> list[frozenset]:
        u = squares_u(case)
        one_minus_u = RingElement.one(case.epsilon) - mono(u)
        gens = []
        for g in _box_elements(case.epsilon, radius):
            sup = _q_support(mono(g) * one_minus_u)
            if sup:
                gens.append(sup)
        return gens

    def test_agrees_with_decider(self):
        rng = random.Random(0xB0B0)
        checked = box_solvable_count = 0
        while checked < 120:
            kind = rng.choice(["eq3_nf", "eq4_nf"])
            m, n = rng.randint(-2, 2), rng.randint(-2, 2)
            if m == 0 and n == 0:
                continue
            case = MixedCase(kind, n=n, m=m)
            v = RingElement.make(
                case.epsilon,
                [(random_pi(rng, case.epsilon, 3).pair, rng.randint(0, 2)) for _ in range(3)],
            )
            checked += 1
            target = _q_support(v)
            c_bar = naive_project(case.c_word)
            radius = 3 + 3 * (abs(c_bar.r) + abs(c_bar.s)) * case.d + 3
            box = _gf2_member(target, self._generators(case, radius))
            decider = second_decide(case, v).solvable
            if box:
                box_solvable_count += 1
                assert decider, f"{case.label()} V={v}: box solvable, decider refused"
            else:
                # the box is generous; a missing decomposition would have to
                # use translates far outside the support
                assert not decider or not target, (
                    f"{case.label()} V={v}: decider solvable, box found nothing"
                )
        assert box_solvable_count >= 10


class TestBetaPowerBoxOracle:
    """ratio_L Z' = V' + D_L in the quotient, over a finite parameter range."""

    @staticmethod
    def _ratio(n: int, L: int) -> RingElement:
        ell = odd_part(n)
        return geom_ratio(PiElement(-1, L, ell), 2 * n // ell, 1)

    @staticmethod
    def _correction(n: int, L: int) -> RingElement:
        if n % 2 == 0 or L == 0:
            return RingElement.zero(-1)
        return geom_ratio(PiElement(-1, 1, 0), L, 1)

    def _box_solvable_at(self, n: int, L: int, v: RingElement, radius: int) -> bool:
        ratio = self._ratio(n, L)
        target = _q_support(v + self._correction(n, L))
        gens = []
        for g in _box_elements(-1, radius):
            sup = _q_support(mono(g) * ratio)
            if sup:
                gens.append(sup)
        return _gf2_member(target, gens)

    def test_no_false_rejections(self):
        # every box-certified solvable instance must be accepted
        rng = random.Random(0xD1CE)
        checked = box_hits = 0
        while checked < 90:
            n = rng.choice([-2, -1, 1, 2, 3])
            case = MixedCase("eq4_f", n=n)
            v = RingElement.make(
                -1, [(random_pi(rng, -1, 2).pair, rng.randint(0, 1)) for _ in range(3)]
            )
            checked += 1
            decider = second_decide(case, v).solvable
            for L in range(-4, 5):
                if self._box_solvable_at(n, L, v, radius=8):
                    box_hits += 1
                    assert decider, f"n={n} L={L} V={v}: box solvable, decider refused"
                    break
        assert box_hits >= 15

    def test_rejections_have_no_box_solution(self):
        # hand-picked unsolvable instances: no parameter in a wide range
        # admits a box decomposition
        cases = [
            (1, [((2, 1), 1)]),
            (2, [((1, 1), 1)]),
            (3, [((1, 2), 1)]),
            (-1, [((1, 1), 1), ((0, 2), 1)]),
            # refused only by the |L + r| pair candidate at L = 1
            (3, [((-2, -1), 1)]),
        ]
        for n, terms in cases:
            case = MixedCase("eq4_f", n=n)
            v = RingElement.make(-1, terms)
            result = second_decide(case, v)
            if result.solvable:
                continue
            for L in range(-5, 6):
                assert not self._box_solvable_at(n, L, v, radius=8), (
                    f"n={n} V={v}: decider refused but box solves at L={L}"
                )
