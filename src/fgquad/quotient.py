"""The projection of Z[pi] onto Q = Z[pi - {1}] / (g ~ -g**-1), and of Z2[pi]
onto its mod-2 version.

pi is torsion-free, so no class is its own inverse, and an element of Q is
its coefficients folded onto one representative of each pair {g, g**-1}: the
one with s > 0, or with s == 0 and r > 0.  Inversion negates s (and negates r
when s == 0), so exactly one of the two qualifies.  Modulo 2 the fold needs
no sign, since -c and c agree there.
"""

from __future__ import annotations

from .groupring import RingElement


def p_q(p: RingElement) -> RingElement:
    """Project a ring element: drop the identity, and store c*g as -c*g**-1
    unless g is the representative of its pair."""
    items = []
    for g, c in p.terms.items():
        if g.s > 0 or (g.s == 0 and g.r > 0):
            items.append((g, c))
        elif not g.is_identity:
            items.append((g.inv(), -c))
    return RingElement.make(p.epsilon, items, p.mod)
