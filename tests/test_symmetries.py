"""Verdicts agree across three symmetries of the equation.

Each map below sends the solutions of one equation to the solutions of
another and keeps their class, so ``classify`` under one spec may never answer
``exists`` for ``v`` and ``not_exists`` for its image, or the other way round:

* ``v -> R^j v R^k``: the right-hand side becomes its conjugate by ``R^j``,
  since ``sgn R = +1``;
* ``v -> v^-1``: the right-hand side becomes a conjugate of itself
  (theta = 1) or of its inverse (theta = -1), and ``Q_delta(z1, z2)^-1`` is
  ``Q_+(z2, z1)`` for delta = +1 and ``Q_-(z2^-1, z1^-1)`` for delta = -1;
* ``v -> g^-1 phi(v) g`` for an automorphism ``phi`` of F2 with
  ``phi(R) = g R g^-1`` and ``sgn . phi = sgn``: applying ``phi`` to the
  equation and conjugating by ``g^-1`` gives the equation of the image, with
  solutions ``g^-1 phi(z) g``.  On the classic basis these are the Dehn
  twists ``a -> ab`` and ``b -> ba`` and their inverses for epsilon = +1
  (``g = 1``), and ``a -> b, b -> b^-1 a b`` for epsilon = -1 (``g = b``).

The images are built with the word layer alone; no decider is called but
through ``classify``.  A decided verdict next to an ``undetermined`` one is a
gap in coverage, not a contradiction: those splits are counted and printed
(run with ``-s`` to see them).
"""

from collections import Counter
import random

import pytest

from fgquad import BasisTag, EquationSpec, Word, change_basis, classify, relator_in, sgn

SPECS = [
    EquationSpec(delta, epsilon, theta, cls, frame)
    for delta in (1, -1)
    for epsilon in (1, -1)
    for theta in (1, -1)
    for cls in ("faithful", "nonfaithful")
    for frame in ("original_z", "adapted_xy")
]
INPUTS = 1500
POWERS = (-2, -1, 1, 2)


def random_v(rng: random.Random, spec: EquationSpec) -> Word:
    """At most five syllables, alternating generators, exponents +-1 and +-2."""
    gen = rng.randrange(2)
    syllables = []
    for _ in range(rng.randint(0, 5)):
        syllables.append((gen, rng.choice(POWERS)))
        gen = 1 - gen
    return Word.from_syllables(spec.basis, syllables)


def twists(epsilon: int) -> list[tuple[Word, Word, Word]]:
    """The maps ``(phi(a), phi(b), g)`` on the classic basis."""
    basis = BasisTag.classic(epsilon)
    a, b = Word.gen(basis, "a"), Word.gen(basis, "b")
    if epsilon == -1:
        return [(b, b.inv() * a * b, b)]
    one = Word.identity(basis)
    return [(a * b, b, one), (a * b.inv(), b, one), (a, b * a, one), (a, b * a.inv(), one)]


def phi(twist: tuple[Word, Word, Word], w: Word) -> Word:
    """The image of a classic-basis word under the twist's automorphism."""
    image_a, image_b, _ = twist
    out = Word.identity(w.basis)
    for gen, exp in w.syls:
        out = out * (image_b if gen else image_a) ** exp
    return out


def twisted(twist: tuple[Word, Word, Word], v: Word) -> Word:
    """``g^-1 phi(v) g``, built on the classic basis and carried back to v's."""
    g = twist[2]
    return change_basis(g.inv() * phi(twist, change_basis(v, g.basis)) * g, v.basis)


@pytest.mark.parametrize("epsilon", [1, -1])
def test_twists_conjugate_the_relator_and_keep_sgn(epsilon):
    R = relator_in(BasisTag.classic(epsilon))
    for twist in twists(epsilon):
        image_a, image_b, g = twist
        assert phi(twist, R) == g * R * g.inv()
        assert sgn(image_a) == sgn(image_b) == (1 if epsilon == 1 else -1)


def test_no_symmetry_image_contradicts_its_input():
    assert len(set(SPECS)) == 32
    rng = random.Random(20261018)
    outcomes: Counter = Counter()
    splits: Counter = Counter()
    for idx in range(INPUTS):
        spec = SPECS[idx % len(SPECS)]
        v = random_v(rng, spec)
        R = relator_in(spec.basis)
        maps = twists(spec.epsilon)
        images = {
            "double coset": R ** rng.choice(POWERS) * v * R ** rng.choice(POWERS),
            "inverse": v.inv(),
            "Dehn twist": twisted(maps[idx // len(SPECS) % len(maps)], v),
        }
        outcome = classify(spec, v).outcome
        outcomes[outcome] += 1
        for name, image in images.items():
            other = classify(spec, image).outcome
            assert {outcome, other} != {"exists", "not_exists"}, (spec, str(v), name, str(image))
            splits[name] += outcome != other
    assert outcomes["exists"] and outcomes["not_exists"], outcomes
    print(
        f"\n{INPUTS} inputs over {len(SPECS)} specs, decided/undetermined splits: "
        + ", ".join(f"{name} {count}" for name, count in sorted(splits.items()))
    )
