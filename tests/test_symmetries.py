"""Verdicts agree across two symmetries of the equation.

Each map below sends the solutions of one equation to the solutions of
another and keeps their class, so ``classify`` under one spec may never answer
``exists`` for ``v`` and ``not_exists`` for its image, or the other way round:

* ``v -> R^j v R^k``: the right-hand side becomes its conjugate by ``R^j``,
  since ``sgn R = +1``;
* ``v -> v^-1``: the right-hand side becomes a conjugate of itself
  (theta = 1) or of its inverse (theta = -1), and ``Q_delta(z1, z2)^-1`` is
  ``Q_+(z2, z1)`` for delta = +1 and ``Q_-(z2^-1, z1^-1)`` for delta = -1.

The images are built with the word layer alone; no decider is called but
through ``classify``.  A decided verdict next to an ``undetermined`` one is a
gap in coverage, not a contradiction: those splits are counted and printed
(run with ``-s`` to see them).
"""

from collections import Counter
import random

from fgquad import EquationSpec, Word, classify, relator_in

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


def test_no_symmetry_image_contradicts_its_input():
    assert len(set(SPECS)) == 32
    rng = random.Random(20261018)
    outcomes: Counter = Counter()
    splits: Counter = Counter()
    for idx in range(INPUTS):
        spec = SPECS[idx % len(SPECS)]
        v = random_v(rng, spec)
        R = relator_in(spec.basis)
        images = {
            "double coset": R ** rng.choice(POWERS) * v * R ** rng.choice(POWERS),
            "inverse": v.inv(),
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
