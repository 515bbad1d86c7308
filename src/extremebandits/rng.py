"""Counter-based random streams.

Every random draw in the package is addressed, never sequential-global: the
double consumed at time t of trial m under seed s is a pure function of
(s, lane, m, t). Streams are built on numpy's Philox generator with

    key     = (seed, lane)
    counter = (0, trial, 0, 0)

so the t-th double of a (seed, lane, trial) stream is simply the t-th output.
Putting the trial index in counter word 1 leaves the whole low word for
in-trial draws: trials can never collide, and a block drawn piecewise is
bit-identical to the same block drawn in one call (Philox is stateless given
the counter). That is what makes worker fan-out and re-runs reproducible.

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
        if self.t < 1:
            raise ValueError(f"time index must be >= 1, got {self.t}")

    def uniform(self) -> float:
        # The t-th output of the trial stream. Wasteful for huge t in a
        # single call, but single-value access is only used at test scale;
        # bulk consumers go through uniform_block / TrialStreams.
        return float(uniform_block(self.seed, self.lane, self.trial, self.t)[-1])

    def uniforms(self, n: int) -> np.ndarray:
        """Doubles at times t, t+1, ..., t+n-1 of this stream."""
        block = uniform_block(self.seed, self.lane, self.trial, self.t - 1 + n)
        return block[self.t - 1 :]

    def randint(self, k: int) -> int:
        """One integer uniform on {1, ..., k}, derived from this address."""
        u = self.uniform()
        return min(int(u * k), k - 1) + 1

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

    Holds one generator per trial; ``next_block(n)`` returns the next n
    doubles of every trial as an (n_trials, n) array. Because Philox blocks
    drawn piecewise match one-shot draws, consuming a horizon in chunks
    yields exactly the same values as ``uniform_block`` would in one call.
    """

    def __init__(self, seed: int, lane: int, trials: Sequence[int] | Iterable[int]):
        self._gens = [generator_for(seed, lane, m) for m in trials]

    def __len__(self) -> int:
        return len(self._gens)

    def next_block(self, n: int) -> np.ndarray:
        out = np.empty((len(self._gens), n))
        for row, gen in enumerate(self._gens):
            gen.random(n, out=out[row])
        return out


class Coin:
    """One already-drawn uniform wrapped in the RngStream read interface.

    Vectorized execution materializes whole policy-lane blocks up front;
    Coin hands a single entry of such a block to Policy.choose with the
    exact semantics of the equivalent RngStream address: repeated reads see
    the same value, and randint uses the same truncation formula.
    """

    __slots__ = ("u",)

    def __init__(self, u: float):
        self.u = u

    def uniform(self) -> float:
        return self.u

    def randint(self, k: int) -> int:
        return min(int(self.u * k), k - 1) + 1
