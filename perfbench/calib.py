"""The fixed pure-Python loop that tracks the host's speed.

Its CPU time moves with the host's speed regime (shared cores, frequency),
so the result line divides CPU times by it; see ``run.py``.
"""

from __future__ import annotations

import time

LOOP = 300_000


def calibrate() -> float:
    """CPU seconds of one run of the loop."""
    start = time.process_time()
    x = 0
    for i in range(LOOP):
        x += i % 7
    return time.process_time() - start
