"""Span tracing around the public functions of each fgquad layer.

The tracer wraps functions from outside the package: every module of the
package that holds a function under some name gets the wrapper under that
name, because that is where its callers look it up (``fgquad.classify``
calls ``analyze_v`` through its own module globals, ``fgquad.derived`` calls
``q_n`` and ``augment`` through its, and ``classify`` imports
``wicks_search`` from ``fgquad.wicks`` at call time).  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

# Traced functions, as "<module>.<function>" under the fgquad package.
TRACED = (
    "words.parse_word",
    "words.change_basis",
    "words.verify_solution",
    "surface.project",
    "tables.table_branch",
    "tables.instantiate_witness",
    "tables.degree_two_witness",
    "groupring.q_n",
    "groupring.fox_derivative",
    "groupring.exact_divide",
    "quotient.p_q",
    "derived.analyze_v",
    "derived.second_decide",
    "orbits.augment",
    "orbits.same_orbit",
    "classify.classify",
    "classify.pattern_witness",
    "wicks.wicks_search",
    "wicks.wicks_decompositions",
    "wicks.extract_solution",
)

# Counters taken from return values and exceptions of traced calls.
COUNTERS = (
    "derived.second_decide.unsolvable",
    "wicks.wicks_search.refused",
    "wicks.wicks_decompositions.matches",
)
PATTERN_HITS = "classify.pattern_witness.hits"  # reported as a ratio over calls


class Tracer:
    """Records one span per traced call: name, start, end, parent, input id.

    Spans are stored column-wise in typed arrays, which keeps a traced pass
    of millions of calls to a few tens of megabytes; ``install`` patches the
    package and ``remove`` restores every original function.
    """

    def __init__(self) -> None:
        self.names = array("H")  # index into TRACED
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # -1 for a root span
        self.inputs = array("q")
        self.counters: Counter[str] = Counter()
        self.input_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, on_result: Optional[Callable], budget_exc: type) -> Callable:
        names, starts, ends, parents, inputs = self.names, self.starts, self.ends, self.parents, self.inputs
        stack = self._stack
        counters = self.counters
        tracer = self
        code = TRACED.index(name)
        refused = name == "wicks.wicks_search"

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            inputs.append(tracer.input_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except budget_exc:
                if refused:
                    counters["wicks.wicks_search.refused"] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _hooks(self) -> dict[str, Callable]:
        counters = self.counters

        def second_decide(result) -> None:
            if not result.solvable:
                counters["derived.second_decide.unsolvable"] += 1

        def pattern_witness(result) -> None:
            if result is not None:
                counters[PATTERN_HITS] += 1

        def decompositions(result) -> None:
            counters["wicks.wicks_decompositions.matches"] += len(result)

        return {
            "derived.second_decide": second_decide,
            "classify.pattern_witness": pattern_witness,
            "wicks.wicks_decompositions": decompositions,
        }

    def install(self) -> None:
        """Put a wrapper under every package-level name of each traced function."""
        budget_exc = importlib.import_module("fgquad.errors").BudgetExceeded
        hooks = self._hooks()
        package = [m for n, m in sorted(sys.modules.items()) if n == "fgquad" or n.startswith("fgquad.")]
        for qualified in TRACED:
            module_name, func_name = qualified.split(".")
            original = getattr(importlib.import_module(f"fgquad.{module_name}"), func_name)
            wrapper = self._wrap(qualified, original, hooks.get(qualified), budget_exc)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def summary(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per traced name (every name present)."""
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        for code, own in zip(self.names, self.self_times()):
            calls[code] += 1
            self_s[code] += own
        return dict(zip(TRACED, calls)), dict(zip(TRACED, self_s))

    def write(self, path) -> None:
        """Write spans as gzipped tab-separated lines: name, start, end, parent, input."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name\tstart\tend\tparent\tinput\n")
            for code, start, end, parent, inp in zip(self.names, self.starts, self.ends, self.parents, self.inputs):
                handle.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (TRACED[code], start, end, parent, inp))
