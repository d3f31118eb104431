"""A fixed unit of reference work, timed beside every program call.

A shared host's speed changes while a run goes on: on a 2-core x86-64 VM a
fixed query took 34 ms in one second and 54 ms in the next, in steps
lasting from seconds to minutes, and medians over one run cannot remove a
drift that lasts longer than the run. The harness times calls in the CPU
time of its thread, which leaves out time the scheduler gives other
processes, and times one reference unit right before each call, which
measures how fast the CPU runs at that moment.

A call's time is reported in reference milliseconds: its CPU time
multiplied by REFERENCE_MS over the mean CPU time of the reference units
around it. The host's speed also flickers within milliseconds (the time
of one unit jumps between two values about 1.7 times apart), so the mean
of about forty units, which counts how often each state came up, is the
estimate; the tenth slowest and fastest are left out so that a stray
interrupt does not move it. Over two minutes in which the host switched
between its speeds, the time of a fixed snapshot-and-query varied by 24%
(coefficient of variation over two-second windows) and its ratio to the
surrounding units by 6%. The unit is shaped like the program's work: it
deep-copies graph-like objects, turns 256-float lists into numpy vectors
for a cosine, intersects keyword sets and serializes to JSON, on a store
larger than the per-core cache.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import random
import statistics
import time

import numpy as np

# The reported value of one reference unit: a timing in reference
# milliseconds is what it would read on a host that runs the unit in 1 ms.
REFERENCE_MS = 1.0
# A call's speed is the trimmed mean of the reference units this many
# places before and after its own.
WINDOW = 20

# The store is shaped like a canvas graph: objects with a 256-float
# embedding list, text and keywords, about 9 MB in all (the per-core cache
# is 2 MB on the host the benchmark was built on). Each unit works on the
# next slice of it, so that, like the program, it reads memory beyond the
# per-core cache and slows down when other work crowds the shared cache.
STORE_OBJECTS = 1008
SLICE = 4


class ReferenceUnit:
    """The fixed work and the store it walks, a slice per unit."""

    def __init__(self):
        rng = random.Random(0)
        self.store = [
            {
                "id": f"{i:016x}",
                "content": " ".join(f"w{rng.randrange(500)}" for _ in range(12)),
                "keywords": sorted({f"w{rng.randrange(500)}" for _ in range(6)}),
                "embedding": [rng.random() for _ in range(256)],
            }
            for i in range(STORE_OBJECTS)
        ]
        self.cursor = 0

    def run(self) -> int:
        """One unit; returns a number so that nothing is optimised away."""
        start = self.cursor
        self.cursor = (start + SLICE) % STORE_OBJECTS
        part = self.store[start:start + SLICE]
        copied = copy.deepcopy(part)
        shared = 0
        total = 0.0
        for a, b in zip(part, reversed(copied)):
            va = np.asarray(a["embedding"], dtype=np.float64)
            vb = np.asarray(b["embedding"], dtype=np.float64)
            total += float(np.dot(va, vb) / (np.linalg.norm(va) * np.linalg.norm(vb)))
            shared += len(set(a["keywords"]) & set(b["content"].split()))
        text = json.dumps(copied[0], sort_keys=True)
        return shared + int(total) + len(hashlib.sha256(text.encode("utf-8")).digest())

    def time(self) -> int:
        """CPU nanoseconds one unit takes now.

        The garbage collector is held off while the unit runs, so that a
        collection the program's garbage is due never lands in a unit.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.thread_time_ns()
            self.run()
            return time.thread_time_ns() - start
        finally:
            if enabled:
                gc.enable()


def local_reference_ns(refs: list[int], index: int) -> float:
    """Mean time of the reference units around refs[index], less the tenth
    slowest and the tenth fastest."""
    around = sorted(refs[max(0, index - WINDOW): index + WINDOW + 1])
    cut = len(around) // 10
    return statistics.fmean(around[cut: len(around) - cut])


def to_reference_ms(elapsed_ns: int, refs: list[int], index: int) -> float:
    """A call's CPU time in reference milliseconds, by the units around it."""
    return elapsed_ns * REFERENCE_MS / local_reference_ns(refs, index)
