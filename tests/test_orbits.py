import random
from collections import deque

import pytest

from conftest import random_pi
from fgquad import (
    HatAbs,
    HatL,
    InconsistentSign,
    PiElement,
    RingElement,
    SingularBase,
    Tilde,
    TildeL,
    augment,
    odd_part,
    orbit_key,
    same_orbit,
)
from oracles import augment_at, element_class, orbit_in_box, translation_key


def _generators(action):
    """Definitional generator maps of each action (independent of the package)."""
    if isinstance(action, HatAbs):
        u = action.u
        return [lambda g: u * g, lambda g: u.inv() * g, lambda g: g.inv()]
    if isinstance(action, Tilde):
        t = PiElement(-1, 0, 2 * action.n)
        return [lambda g: t * g, lambda g: t.inv() * g, lambda g: g.inv()]
    ell = odd_part(action.n)
    u = PiElement(-1, action.L, ell)
    if isinstance(action, HatL):
        return [lambda g: u * g, lambda g: u.inv() * g, lambda g: g.inv()]
    t = PiElement(-1, 0, 2 * action.n)
    return [
        lambda g: t * g,
        lambda g: t.inv() * g,
        lambda g: g.inv(),
        lambda g: u * (u * g).inv(),
    ]


def bfs_orbit(action, start: PiElement, radius: int, explore: int) -> set[PiElement]:
    """Generator closure within |r|,|s| <= explore, intersected with the box."""
    gens = _generators(action)
    seen = {start}
    queue = deque([start])
    while queue:
        g = queue.popleft()
        for gen in gens:
            h = gen(g)
            if abs(h.r) > explore or abs(h.s) > explore:
                continue
            if h not in seen:
                seen.add(h)
                queue.append(h)
    return {g for g in seen if abs(g.r) <= radius and abs(g.s) <= radius}


def epsilon(action) -> int:
    """The sign of the group the action acts on: the translation actions act
    on the Klein bottle group."""
    return action.u.epsilon if isinstance(action, HatAbs) else action.epsilon


def key(action, g: PiElement) -> tuple[int, int]:
    """The library's orbit key for HatAbs, the oracle's for the translation
    actions, which the library only augments over."""
    return orbit_key(action, g.pair) if isinstance(action, HatAbs) else translation_key(action, g)


def same(action, g: PiElement, h: PiElement) -> bool:
    if isinstance(action, HatAbs):
        return same_orbit(action, g.pair, h.pair)
    return key(action, g) == key(action, h)


def assert_box_agreement(action, radius: int = 6, explore: int = 30):
    eps = epsilon(action)
    box = [PiElement(eps, r, s) for r in range(-radius, radius + 1) for s in range(-radius, radius + 1)]
    claimed = {g: orbit_in_box(action, g, radius) for g in box}
    done: set[PiElement] = set()
    for g in box:
        if g in done:
            continue
        oracle = bfs_orbit(action, g, radius, explore)
        assert claimed[g] == oracle, f"{action}: orbit of {g} mismatch"
        done |= oracle
    # spot-check the pairwise decision against the enumerated orbits
    rng = random.Random(1234)
    for _ in range(1000):
        g, h = rng.choice(box), rng.choice(box)
        assert same(action, g, h) == (h in claimed[g])


HAT_ABS_PLUS = [
    HatAbs(PiElement(1, r, s))
    for r, s in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (1, -2), (3, 2), (0, 2), (2, 0), (0, 0)]
]
HAT_ABS_MINUS = [
    HatAbs(PiElement(-1, r, s))
    for r, s in [(1, 0), (0, 2), (1, 2), (2, 2), (2, 0), (1, -2), (3, 2), (0, 4), (2, 4), (0, 0)]
]
TILDE = [Tilde(n) for n in (1, -1, 2, -2, 3, 4, -3, 6, 5, -4)]
TILDE_L = [TildeL(n, L) for n, L in [(1, 0), (1, 1), (2, 1), (-2, 0), (3, -1), (4, 2), (2, -2), (-1, 2), (6, 1), (5, 0)]]
HAT_L = [HatL(n, L) for n, L in [(1, 0), (1, 1), (2, 1), (-2, 0), (3, -1), (4, 2), (2, -2), (-1, 2), (6, 1), (5, 0)]]


class TestSameOrbit:
    def test_inverse_step(self):
        action = HatAbs(PiElement(1, 1, 1))
        assert same_orbit(action, (1, 0), (-1, 0))

    def test_translate_step(self):
        action = HatAbs(PiElement(1, 1, 1))
        assert same_orbit(action, (1, 0), (2, 1))

    def test_klein_odd_family(self):
        action = HatAbs(PiElement(-1, 1, 0))
        assert same_orbit(action, (0, 1), (5, -1))

    def test_equivalence_relation(self, rng):
        for action in (TILDE[2], TILDE_L[2], HAT_L[2], HAT_ABS_MINUS[2]):
            for _ in range(150):
                g, h, k = (random_pi(rng, -1, 6) for _ in range(3))
                assert same(action, g, g)
                assert same(action, g, h) == same(action, h, g)
                if same(action, g, h) and same(action, h, k):
                    assert same(action, g, k)

    @pytest.mark.parametrize("action", HAT_ABS_PLUS[:3] + HAT_ABS_MINUS[:3] + TILDE[:3] + TILDE_L[:3] + HAT_L[:3])
    def test_box_agreement_small(self, action):
        assert_box_agreement(action, radius=5, explore=26)


ALL_ACTIONS = HAT_ABS_PLUS + HAT_ABS_MINUS + TILDE + TILDE_L + HAT_L


class TestOrbitKey:
    @pytest.mark.parametrize("action", ALL_ACTIONS, ids=repr)
    def test_keys_are_bfs_orbits(self, action):
        # every generator-closure orbit meeting the box has one key, and no
        # two of them share a key
        radius = 6
        eps = epsilon(action)
        box = [PiElement(eps, r, s) for r in range(-radius, radius + 1) for s in range(-radius, radius + 1)]
        keys = {g: key(action, g) for g in box}
        first_of_key: dict[tuple[int, int], PiElement] = {}
        done: set[PiElement] = set()
        for g in box:
            if g in done:
                continue
            orbit = bfs_orbit(action, g, radius, explore=30)
            assert {keys[h] for h in orbit} == {keys[g]}, f"{action}: orbit of {g} splits"
            assert keys[g] not in first_of_key, f"{action}: {g} and {first_of_key.get(keys[g])}"
            first_of_key[keys[g]] = g
            done |= orbit


class TestElementClass:
    def test_examples(self):
        action = Tilde(2)
        cls = element_class(action, PiElement(-1, 0, 2))
        assert not cls.g_tilde_regular and cls.defective
        cls = element_class(action, PiElement(-1, 1, 1))
        assert cls.g_tilde_regular and not cls.defective
        cls = element_class(Tilde(1), PiElement(-1, 3, 0))
        assert cls.defective

    def test_odd_multiples_any_alpha(self):
        cls = element_class(Tilde(3), PiElement(-1, 7, 3))
        assert not cls.g_tilde_regular and cls.defective

    def test_even_multiples_need_zero_alpha(self):
        cls = element_class(Tilde(3), PiElement(-1, 7, 6))
        assert cls.g_tilde_regular and cls.defective


def ring(eps, *terms):
    return RingElement.make(eps, terms)


class TestAugment:
    def test_twisted_translation(self):
        # (-1, 4) is reached from (1, 0) by translate-inverse, character -1
        action = Tilde(2)
        v = ring(-1, ((1, 0), 3), ((-1, 4), -1))
        assert augment(action, v, (1, 0)) == 4

    def test_singular_base_rejected(self):
        action = Tilde(2)
        with pytest.raises(SingularBase):
            augment(action, ring(-1, ((1, 0), 1)), (0, 2))

    def test_defective_parity(self):
        action = TildeL(1, 0)
        v = ring(-1, ((1, 0), 1))
        assert augment(action, v, (1, 0)) == 1

    def test_character_equivariance(self, rng):
        for _ in range(200):
            n = rng.choice([1, -1, 2, 3, 4, -2])
            L = rng.randint(-3, 3)
            action = TildeL(n, L)
            g = random_pi(rng, -1, 5)
            if element_class(action, g).defective:
                continue
            v = ring(
                -1,
                *[((rng.randint(-6, 6), rng.randint(-6, 6)), rng.randint(-2, 2)) for _ in range(4)],
            )
            base_val = augment_at(action, v, g)
            ell = odd_part(n)
            u = PiElement(-1, L, ell)
            t = PiElement(-1, 0, 2 * n)
            assert augment_at(action, v, t * g) == base_val
            assert augment_at(action, v, g.inv()) == -base_val
            assert augment_at(action, v, u * (u * g).inv()) == -base_val

    def test_hat_tilde_relation(self, rng):
        # hat augmentation = tilde augmentation at g minus at alpha^L beta^n g
        for _ in range(200):
            n = rng.choice([1, -1, 3, 5, -3])
            L = rng.randint(-3, 3)
            hat, til = HatL(n, L), TildeL(n, L)
            g = random_pi(rng, -1, 5)
            if g.s % n == 0:  # defective; the identity is stated off it
                continue
            h = PiElement(-1, L, n) * g
            v = ring(
                -1,
                *[((rng.randint(-6, 6), rng.randint(-6, 6)), rng.randint(-2, 2)) for _ in range(4)],
            )
            assert augment_at(hat, v, g) == augment_at(til, v, g) - augment_at(til, v, h)

    def test_tilde_l_vs_tilde_split(self, rng):
        # generic g: tilde_L augmentation = tilde at g + tilde at i j_L g
        checked = 0
        while checked < 200:
            n = rng.choice([1, -1, 2, 3, 4])
            L = rng.randint(-3, 3)
            action_l, action = TildeL(n, L), Tilde(n)
            g = random_pi(rng, -1, 5)
            if g.s % n == 0:
                continue
            ell = odd_part(n)
            u = PiElement(-1, L, ell)
            ijg = (u * (u * g).inv()).inv()
            if same(action, g, ijg):
                continue
            v = ring(
                -1,
                *[((rng.randint(-6, 6), rng.randint(-6, 6)), rng.randint(-2, 2)) for _ in range(4)],
            )
            got = augment_at(action_l, v, g)
            want = augment_at(action, v, g) + augment_at(action, v, ijg)
            assert got == want
            checked += 1
