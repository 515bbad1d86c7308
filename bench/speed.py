"""Machine-speed probe used to express times at a reference speed.

On the shared 2-CPU machine this benchmark was built on, the same work takes
up to 1.7 times longer in some minutes than in others, in CPU time as much
as in wall time, so repeats inside a 30 s run do not remove it. A fixed
probe, half interpreter loop and half numpy pass over a 3 MB array, is
timed around every operation. An operation's time scaled by
REFERENCE_S / probe time is its time at the speed where the probe takes
REFERENCE_S. The probe is the faster of two back-to-back passes, so a brief
interruption of one pass does not read as a slow machine.

Over a few minutes of identical rounds, scaling cut the coefficient of
variation of the round time from 0.15 to 0.07 (many_trials) and from 0.15
to 0.10 (hard_instance, whose large-array kernels the probe tracks less
well).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.020
_BLOCK = np.random.default_rng(0).random((200, 2048))


def _pass() -> float:
    start = perf_counter()
    acc = 0
    for i in range(250_000):
        acc += i
    for _ in range(5):
        np.minimum.accumulate(_BLOCK, axis=1).sum()
    return perf_counter() - start


def probe() -> float:
    """Seconds for one probe pass (about REFERENCE_S at reference speed)."""
    return min(_pass(), _pass())
