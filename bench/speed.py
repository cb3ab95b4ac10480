"""Reference speed of the CPU the benchmark runs on, measured as it runs.

On a shared machine the speed of one core drifts by tens of percent over
minutes, as other tenants load its sibling threads.  That drift is far
wider than any bound a regression gate could use.  So the benchmark times
a fixed reference chunk next to every job, and scales each job's time by
``REFERENCE_S / chunk time``.  The chunk is this file's own code and never
calls the package.  Like the workloads, it mixes text parsing with
big-integer bit loops.  A time scaled this way reads as seconds on a CPU
where the chunk takes ``REFERENCE_S``.  The raw times are kept in the
run's record.

``pin()`` keeps the benchmark and every process it starts on one CPU.
The parent then times the chunk on the same CPU that runs the CLI job.
The loop is closed, with one job at a time, so pinning costs no
parallelism.
"""

import os
import time

REFERENCE_S = 0.02

_TEXT = "".join(f"{i % 97 + 1} {i % 89 + 2} {i % 83 + 3}\n" for i in range(1500))
_MASKS = [(1 << (i % 61)) | (1 << (i * 7 % 61)) | (1 << (i * 13 % 61)) for i in range(600)]


def chunk():
    """Run the reference chunk once; returns its wall time in seconds."""
    start = time.perf_counter()
    rows = sorted(tuple(int(x) for x in line.split(" ")) for line in _TEXT.split("\n")[:-1])
    seen = {}
    for row in rows:
        seen[row] = seen.get(row, 0) + 1
    acc = len(seen)
    for a in _MASKS:
        for b in _MASKS[:16]:
            t = a & ~b | (b >> 3)
            while t:
                low = t & -t
                acc ^= low.bit_length()
                t ^= low
    return time.perf_counter() - start if acc >= 0 else 0.0


def pin():
    """Restrict this process and its future children to one CPU."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
