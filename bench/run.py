"""The fgquad benchmark: seeded verdict workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload closed_long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload wicks_cores --seed 1 --seconds 30 --trace 1

One client in one thread sends each input after the previous verdict
returned (closed loop).  Each input goes through the library path users call,
``parse_word(text, basis)`` then ``classify(spec, v)``.  With ``--trace 0``
the corpus is cycled for ``--seconds`` and the end-to-end metrics are
reported; with ``--trace 1`` one untraced and one traced pass are made over
the first 512 inputs and the per-layer metrics are reported.  Every answer is
checked after the timing (see ``checks.py``).  The last line of standard
output is a JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import corpus
import speed
from tracer import COUNTERS, PATTERN_HITS, TRACED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

DEFAULT_SEED = 1  # the seed whose answers are committed under reference/
MIN_SAMPLES = 1000  # every corpus is at least this large: ten verdicts lie beyond p99
WARMUP = 8  # inputs classified before the clock starts
PROBE_SPAN = 4  # probe windows on either side whose probes scale a time
TRACE_INPUTS = 512  # corpus prefix of a traced run; the whole corpus writes 100+ MB of spans
SETUP_REPEATS = 11  # fresh interpreters timed for setup_s; the median is reported
SETUP_CODE = (
    "import time; t = time.perf_counter(); import fgquad; t = time.perf_counter() - t; "
    "import speed; print(t, min(speed.probe() for _ in range(5)))"
)


def load_fgquad():
    """Import fgquad from this checkout's ``src``, or exit nonzero."""
    init = SRC / "fgquad" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fgquad

    if Path(fgquad.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported fgquad from {fgquad.__file__}, expected {init}")
    return fgquad


def setup_seconds() -> float:
    """Median wall time of ``import fgquad`` in a fresh interpreter, at the nominal speed.

    Each interpreter probes the machine's speed right after the import, and
    its import time is scaled by that probe as the timed run scales its times.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    times = []
    for _ in range(SETUP_REPEATS + 1):  # the first run may compile bytecode
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, probe = map(float, done.stdout.split())
        times.append(seconds * speed.NOMINAL_S / probe)
    return statistics.median(times[1:])


class Workload:
    """A generated corpus, its equation specs and its reference answers."""

    def __init__(self, fgquad, name: str, seed: int, size: int | None = None) -> None:
        self.fgquad = fgquad
        self.name = name
        self.seed = seed
        self.queries = corpus.WORKLOADS[name](seed, size)
        self.specs = [
            fgquad.EquationSpec(q.delta, q.epsilon, q.theta, q.solution_class, q.frame)
            for q in self.queries
        ]
        # the committed answers cover the full-size corpus of the default seed
        self.reference = checks.load_reference(name) if seed == DEFAULT_SEED and size is None else None

    def attempt(self, idx: int):
        """Parse and classify one input; returns (v, verdict) or the exception text."""
        fgquad = self.fgquad
        spec = self.specs[idx]
        try:
            v = fgquad.parse_word(self.queries[idx].text, spec.basis)
            return v, fgquad.classify(spec, v)
        except Exception as exc:  # a raising input is a failed input, not a crash
            return f"{type(exc).__name__}: {exc}"

    def one_pass(self, limit: int | None = None, tracer: Tracer | None = None) -> tuple[float, list]:
        """Classify the first ``limit`` inputs (all by default) once, in order."""
        results = []
        start = perf_counter()
        for idx in range(min(limit or len(self.queries), len(self.queries))):
            if tracer is not None:
                tracer.input_id = idx
            results.append(self.attempt(idx))
        return perf_counter() - start, results

    def failures(self, results: list) -> dict[int, str]:
        """Check every answer of one pass; returns input index -> reason."""
        reference = self.reference
        out: dict[int, str] = {}
        for idx, result in enumerate(results):
            if isinstance(result, str):
                out[idx] = result
                continue
            v, verdict = result
            oracle = self.name == "wicks_cores" and idx < checks.ORACLE_INPUTS
            why = checks.check_verdict(self.fgquad, self.specs[idx], v, verdict, oracle)
            if why is None and reference is not None and checks.answer(verdict) != reference[idx]:
                why = f"answer {checks.answer(verdict)} differs from reference {reference[idx]}"
            if why is not None:
                out[idx] = why
        return out


def answer(result) -> list | str:
    """A result's answer, or the exception text of an input that raised."""
    return result if isinstance(result, str) else checks.answer(result[1])


def answers(results: list) -> list:
    return [answer(r) for r in results]


def mix_counts(results: list) -> Counter:
    mix: Counter = Counter()
    for result in results:
        if isinstance(result, str):
            mix["raised"] += 1
            continue
        verdict = result[1]
        mix[verdict.outcome] += 1
        if verdict.reason is not None:
            mix[f"reason.{verdict.reason}"] += 1
    return mix


def timed_run(work: Workload, seconds: float) -> dict:
    """Cycle through the corpus for ``seconds``, timing each parse + classify.

    Every ``speed.PROBE_EVERY`` seconds the run probes the machine's speed
    (see ``speed.py``); each time is scaled to the nominal speed by the
    median of the probes within ``PROBE_SPAN`` windows on either side of the
    window it fell in.  Each input's figure is the median of its scaled
    times over the passes.  The latency percentiles are taken over those
    figures and the throughput is the number of inputs over their sum.  The
    first pass always completes; its answers are the ones checked.
    """
    n = len(work.queries)
    for idx in range(min(WARMUP, n)):
        work.attempt(idx)
    first: list = []
    changed: set[int] = set()
    windows: list[list[tuple[int, float]]] = [[]]  # (input, raw seconds) per probe window
    probes = [speed.probe()]
    attempt = work.attempt
    count = 0
    start = last_probe = perf_counter()
    while count < n or perf_counter() - start < seconds:
        idx = count % n
        t0 = perf_counter()
        result = attempt(idx)
        t1 = perf_counter()
        windows[-1].append((idx, t1 - t0))
        if count < n:
            first.append(result)
        elif answer(result) != answer(first[idx]):
            changed.add(idx)
        count += 1
        if t1 - last_probe >= speed.PROBE_EVERY:
            probes.append(speed.probe())
            windows.append([])
            last_probe = perf_counter()
    probes.append(speed.probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # window w lies between probes w and w + 1
    samples: list[list[float]] = [[] for _ in range(n)]
    factors = []
    for w, window in enumerate(windows):
        near = probes[max(0, w - PROBE_SPAN + 1):w + PROBE_SPAN + 1]
        factor = speed.NOMINAL_S / statistics.median(near)
        factors.append(factor)
        for idx, raw in window:
            samples[idx].append(raw * factor)
    times = sorted(statistics.median(s) for s in samples)

    failed_inputs = work.failures(first)
    for idx in changed:
        failed_inputs.setdefault(idx, "answer changed between passes")
    failed = sum(count // n + (idx < count % n) for idx in failed_inputs)
    mix = mix_counts(first)
    return {
        "attempted": count,
        "failed": failed,
        "failed_inputs": failed_inputs,
        "mix": mix,
        "speed": (statistics.median(factors), min(factors), max(factors), count / n),
        "metrics": {
            "verdicts_per_s": (n / sum(times), "1/s"),
            "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "latency_p99_ms": (times[math.ceil(0.99 * n) - 1] * 1e3, "ms"),
            "decided_frac": ((mix["exists"] + mix["not_exists"]) / n, "ratio"),
            "ok_frac": (1.0 - failed / count, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def traced_run(work: Workload, write_spans: bool = True) -> dict:
    """One untraced and one traced pass over the first TRACE_INPUTS inputs.

    The corpus is in seeded random order, so the prefix is a fair sample and
    the same for every run of a seed; per-layer counts repeat exactly.
    """
    for idx in range(min(WARMUP, len(work.queries))):
        work.attempt(idx)
    plain_wall, plain = work.one_pass(TRACE_INPUTS)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced = work.one_pass(TRACE_INPUTS, tracer)
    finally:
        tracer.remove()
    failed_inputs = work.failures(traced)
    plain_answers, traced_answers = answers(plain), answers(traced)
    for idx, (a, b) in enumerate(zip(plain_answers, traced_answers)):
        if a != b:
            failed_inputs.setdefault(idx, "traced answer differs from the untraced one")
    calls, self_s = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for name in COUNTERS:
        metrics[name] = (tracer.counters[name], "count")
    pw_calls = calls["classify.pattern_witness"]
    hits = tracer.counters[PATTERN_HITS]
    metrics["classify.pattern_witness.hit_ratio"] = (hits / pw_calls if pw_calls else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    mix = mix_counts(traced)
    for key in ("exists", "not_exists", "undetermined"):
        metrics[f"mix.{key}"] = (mix[key], "count")
    for reason in sorted(checks.REASONS):
        metrics[f"mix.reason.{reason}"] = (mix[f"reason.{reason}"], "count")
    cores = [
        checks.core_len(work.fgquad, spec, result[0])
        for spec, result in zip(work.specs, traced)
        if not isinstance(result, str)
    ]
    metrics["mix.core_len.min"] = (min(cores, default=0), "letters")
    metrics["mix.core_len.max"] = (max(cores, default=0), "letters")
    if write_spans:
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{work.name}-seed{work.seed}.tsv.gz")
    return {
        "attempted": len(traced),
        "failed": len(failed_inputs),
        "failed_inputs": failed_inputs,
        "digests": (checks.digest(plain_answers), checks.digest(traced_answers)),
        "mix": mix,
        "metrics": metrics,
        "tracer": tracer,
    }


def module_shares(self_s: dict[str, float]) -> dict[str, float]:
    total = sum(self_s.values()) or 1.0
    shares: Counter = Counter()
    for name, value in self_s.items():
        shares[name.split(".")[0]] += value / total
    return dict(shares)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record the default seed's answers under reference/ and exit",
    )
    args = parser.parse_args(argv)
    fgquad = load_fgquad()

    if args.write_reference:
        work = Workload(fgquad, args.workload, DEFAULT_SEED)
        _, results = work.one_pass()
        print(checks.write_reference(args.workload, DEFAULT_SEED, answers(results)))
        return 0

    setup_s = setup_seconds() if not args.trace else None
    work = Workload(fgquad, args.workload, args.seed)
    run = traced_run(work) if args.trace else timed_run(work, args.seconds)
    metrics = run["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")

    mix = run["mix"]
    print(f"# {args.workload} seed={args.seed} inputs={len(work.queries)} attempted={run['attempted']}")
    print("# mix: " + ", ".join(f"{key}={mix[key]}" for key in sorted(mix)))
    if "speed" in run:
        mid, low, high, passes = run["speed"]
        print(f"# passes={passes:.2f} speed scale median={mid:.3f} range={low:.3f}-{high:.3f}")
    if args.trace:
        _, self_s = run["tracer"].summary()
        shares = module_shares(self_s)
        print("# self-time share: " + ", ".join(f"{m}={s:.3f}" for m, s in sorted(shares.items())))
    for idx, why in sorted(run["failed_inputs"].items())[:20]:
        print(f"# FAILED input {idx}: {why}")
    result = {
        "correct": not run["failed_inputs"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
