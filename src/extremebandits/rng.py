"""Counter-based random streams.

Every random draw in the package is addressed, never sequential-global: the
double consumed at time t of trial m under seed s is a pure function of
(s, lane, m, t). Streams are built on numpy's Philox generator with

    key     = (seed, lane)
    counter = (0, trial, 0, 0)

so the t-th double of a (seed, lane, trial) stream is simply the t-th output.
Putting the trial index in counter word 1 leaves the whole low word for
in-trial draws: trials can never collide. Philox is stateless given the
counter: the double at step t of trial m is word (t-1) mod 4 of the block at
counter ((t-1)//4 + 1, m, 0, 0). So a reader never replays a stream: it sets
the counter of one generator and reads from there (``_seek``), and a block
drawn piecewise is bit-identical to the same block drawn in one call. That
is what makes worker fan-out and re-runs reproducible.

Lanes keep independent concerns on disjoint streams: arm-value draws, policy
coin flips, assignment sampling, checker-internal sampling, bootstrap
resampling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

ARM_LANE = 0
POLICY_LANE = 1
ASSIGN_LANE = 2
CHECK_LANE = 3
BOOT_LANE = 4

_MAX_UINT64 = 2**64


def _as_uint64(x: int, what: str) -> int:
    if not 0 <= x < _MAX_UINT64:
        raise ValueError(f"{what} must be in [0, 2^64), got {x}")
    return x


def generator_for(seed: int, lane: int, trial: int) -> np.random.Generator:
    """Fresh generator positioned at the start of the (seed, lane, trial) stream."""
    key = np.array([_as_uint64(seed, "seed"), _as_uint64(lane, "lane")], dtype=np.uint64)
    counter = np.array([0, _as_uint64(trial, "trial"), 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _seek(bitgen: np.random.Philox, state: dict, trial: int, t0: int) -> None:
    """Position bitgen so that its next double is step t0 + 1 of ``trial``.

    ``state`` is the generator's own state dict, reused between calls: its
    counter is rewritten in place and its buffer marked empty, so the next
    draw computes the block at counter (t0 // 4 + 1, trial, 0, 0); the
    t0 mod 4 words of that block before step t0 + 1 are then skipped.
    """
    counter = state["state"]["counter"]
    counter[0] = t0 // 4
    counter[1] = trial
    state["buffer_pos"] = 4
    bitgen.state = state
    if t0 % 4:
        bitgen.random_raw(t0 % 4)


def uniform_block(seed: int, lane: int, trial: int, n: int) -> np.ndarray:
    """Doubles for t = 1..n of one trial stream, in [0, 1)."""
    return generator_for(seed, lane, trial).random(n)


@dataclass(frozen=True)
class RngStream:
    """Address of a single random value: (seed, trial, t) plus a lane.

    ``uniform()`` returns *the* double at this address. Sampling operations
    take an RngStream rather than a stateful generator so that the same
    address always produces the same value, independent of call order.
    """

    seed: int
    trial: int = 0
    t: int = 1
    lane: int = ARM_LANE

    def __post_init__(self):
        _as_uint64(self.seed, "seed")
        _as_uint64(self.trial, "trial")
        _as_uint64(self.lane, "lane")
        # _seek stores (t-1)//4 in a 64-bit counter word.
        if not 1 <= self.t <= 4 * _MAX_UINT64:
            raise ValueError(f"time index must be in [1, 2^66], got {self.t}")

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """Doubles at times t, t+1, ..., t+n-1 of this stream, read from the
        counter of step t: O(n), whatever t is."""
        gen = generator_for(self.seed, self.lane, self.trial)
        if self.t > 1:  # a new generator already reads step 1
            _seek(gen.bit_generator, gen.bit_generator.state, self.trial, self.t - 1)
        return gen.random(n)

    def at(self, *, trial: int | None = None, t: int | None = None, lane: int | None = None) -> "RngStream":
        kwargs = {}
        if trial is not None:
            kwargs["trial"] = trial
        if t is not None:
            kwargs["t"] = t
        if lane is not None:
            kwargs["lane"] = lane
        return replace(self, **kwargs)


class TrialStreams:
    """Stateful block reader over a fixed set of trial streams.

    ``next_block(n)`` returns the next n doubles of every trial as an
    (n_trials, n) array; ``next_block(n, rows)`` returns only the given rows
    (indices into the trial set), in that order. One generator serves the
    whole set: for each row it is repositioned at the trial's counter
    (``_seek``), which costs a state set rather than a new generator per
    trial. Reading a horizon in blocks therefore yields exactly what
    ``uniform_block`` gives in one call, and a row left out of a block costs
    nothing and leaves the row's later blocks unchanged.
    """

    def __init__(self, seed: int, lane: int, trials: Sequence[int] | Iterable[int]):
        self._trials = [_as_uint64(m, "trial") for m in trials]
        self._gen = generator_for(seed, lane, 0)
        self._bitgen = self._gen.bit_generator
        self._state = self._bitgen.state
        self._t0 = 0  # steps already read

    def __len__(self) -> int:
        return len(self._trials)

    def next_block(self, n: int, rows: Sequence[int] | None = None) -> np.ndarray:
        trials = self._trials if rows is None else [self._trials[r] for r in rows]
        out = np.empty((len(trials), n))
        for row, m in zip(out, trials):
            _seek(self._bitgen, self._state, m, self._t0)
            self._gen.random(n, out=row)
        self._t0 += n
        return out
