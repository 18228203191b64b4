"""A fixed unit of work that measures how fast the host runs Python right now.

On a shared host the CPU time of the same code moves by a third or more
from one minute to the next, as other tenants load the physical cores and
caches. ``sample`` times a fixed kernel that does the same kind of work as
corecover (exact ``Fraction`` elimination over small matrices, tuples,
``itertools.combinations``) but uses nothing of corecover, so a change to
the program never changes it. The timed process takes one sample after
every instance, and ``scale`` turns the samples into per-instance factors
that express CPU time on a host of fixed speed. Set-up time is scaled the
same way, by samples taken once the process is set up.
"""

from __future__ import annotations

import itertools
import statistics
import time
from fractions import Fraction

# The unit of scaled time: a host on which one sample takes exactly this
# long. An unloaded 2 GHz Xeon (KVM guest, CPython 3.11) takes about 9 ms.
REFERENCE_S = 0.009
# Samples on each side of an instance whose median gives its host speed.
WINDOW = 8
# Samples taken once a process is set up, to scale its set-up time.
SETUP_SAMPLES = 5

MATRIX = tuple(
    tuple(Fraction((31 + i * 17 + j * 7) % 23 - 11, (i * 5 + j * 3 + 1) % 6 + 1) for j in range(6))
    for i in range(7)
)


def _rank(rows: list) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / head
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _kernel() -> int:
    """Sum of the ranks of all 3-row subsets of a fixed 7 x 6 matrix."""
    return sum(_rank([MATRIX[i] for i in subset]) for subset in itertools.combinations(range(7), 3))


KERNEL_RESULT = _kernel()


def sample() -> float:
    """CPU seconds the fixed kernel takes now."""
    t0 = time.process_time()
    result = _kernel()
    elapsed = time.process_time() - t0
    if result != KERNEL_RESULT:
        raise RuntimeError("calibration kernel gave another result")
    return elapsed


def scale(samples: list) -> list:
    """Per-instance factor: reference time over the median nearby sample."""
    return [
        REFERENCE_S / statistics.median(samples[max(0, i - WINDOW): i + WINDOW + 1])
        for i in range(len(samples))
    ]
