"""Host-speed probe: times a fixed pure-Python reference loop.

The benchmark runs on small guests of shared hosts, whose speed drifts by up
to about 1.8x in phases of under a second to minutes; process CPU time
drifts with wall time, so it is the speed of the core, not time lost
waiting for one. The worker takes probes between timed steps, and
``run.py`` scales each step's time by ``REFERENCE_MS / probe_ms`` over the
probes around it. The end-to-end times therefore read as times on a host
where one probe loop takes ``REFERENCE_MS``; the raw times are printed
next to them.

The loop does the kind of work the pipeline's hot path does (format a
hypothesis, lower-case and split it, intersect token sets, hash a premise
byte by byte, sort the scores) on fixed data, with the garbage collector
off, so the program under test cannot change the work it does.
"""

import bisect
import gc
import random
import statistics
import time

# What one probe loop takes on a quiet 2 GHz Xeon guest (Python 3.11).
REFERENCE_MS = 2.0
REPEATS = 5
_SCAFFOLD = frozenset({"is", "a", "an", "the", "."})
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fixture() -> tuple[str, list[str]]:
    rng = random.Random(20220214)
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = ["".join(rng.choice(letters) for _ in range(rng.randint(3, 9))) for _ in range(400)]
    premise = " ".join(rng.choice(words) for _ in range(32)) + " ."
    labels = ["_".join(rng.choice(words) for _ in range(rng.choice((1, 1, 1, 1, 2, 3))))
              for _ in range(1200)]
    return premise, labels


_PREMISE, _LABELS = _fixture()


def _loop() -> int:
    premise_tokens = set(_PREMISE.lower().split())
    scored = []
    for label in _LABELS:
        hypothesis = f"Kavo is a {label.replace('_', ' ')} ."
        tokens = set(hypothesis.lower().split()) - _SCAFFOLD
        scored.append((len(tokens & premise_tokens) / len(tokens), label))
    h = _FNV_OFFSET
    for byte in _PREMISE.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    scored.sort(reverse=True)
    return h ^ len(scored)


def probe() -> float:
    """Median time of the reference loop over ``REPEATS`` runs, in ms."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            _loop()
            times.append((time.perf_counter() - start) * 1000.0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def scaler(events: list[dict]):
    """A function from a span ``[start, end]`` to its factor ``REFERENCE_MS / probe_ms``.

    ``probe_ms`` is the mean of the probes (events of kind ``speed``) taken
    within the span and of the last one before and the first one after it.
    Without any probe the factor is 1.
    """
    probes = sorted((e["t"], e["ms"]) for e in events if e["e"] == "speed")
    times = [t for t, _ in probes]

    def factor(span: list[float]) -> float:
        lo = max(bisect.bisect_left(times, span[0]) - 1, 0)
        hi = bisect.bisect_right(times, span[1]) + 1
        around = [ms for _, ms in probes[lo:hi]]
        return REFERENCE_MS / statistics.fmean(around) if around else 1.0

    return factor
