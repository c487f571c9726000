"""A fixed pure-Python probe of the machine's current speed.

The benchmark runs on shared hosts whose speed drifts by a third or more
over minutes (a fixed pure-Python loop, timed in 2-second windows on a 2-core
x86 container, went from 11.7 ms to 7.5 ms within one minute, in wall time
and CPU time alike).  No amount of repetition inside one run removes a drift
that outlasts the run, so the timed run probes the speed every
``PROBE_EVERY`` seconds and reports each time as it would read at the
nominal speed: ``measured * NOMINAL_S / probe``.

The probe builds a dictionary keyed by small tuples and sorts it: object
allocation, hashing and comparisons, as in the engine's word and group-ring
algebra.  Of the probes tried it tracked the engine best: over nine
30-second runs of one fixed corpus, the spread of throughput fell from 0.19
in raw times to 0.018 in scaled ones (see README.md).  It never calls
``fgquad``, so a change to the program moves the reported times and a change
of machine speed does not.
"""

from __future__ import annotations

from time import perf_counter

# Seconds of one ``kernel`` call at the nominal speed, about what ``probe``
# read on the container above (0.94-1.0 ms in a calm minute).  It only sets
# the scale of the reported times; the ratio between two runs does not
# depend on it.
NOMINAL_S = 0.0010

PROBE_EVERY = 0.2  # seconds of wall time between probes
PROBE_REPEATS = 3  # kernel calls per probe; the fastest one counts


def _pairs(count: int) -> list[tuple[int, int]]:
    """A fixed list of small integer pairs (a linear congruential sequence)."""
    x, out = 12345, []
    for _ in range(count):
        x = (1103515245 * x + 12345) % 2**31
        out.append((x >> 8) % 1000)
    return list(zip(out[::2], out[1::2]))


_PAIRS = _pairs(2400)


def kernel() -> int:
    """Accumulate a dictionary keyed by tuples and sort its items."""
    table: dict[tuple[int, int], int] = {}
    for a, b in _PAIRS:
        table[a, b] = table.get((a, b), 0) + a * b
    return len(sorted(table.items()))


def probe() -> float:
    """Seconds of the fastest of ``PROBE_REPEATS`` kernel calls."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best
