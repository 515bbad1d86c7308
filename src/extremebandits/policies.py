"""Arm-selection policies.

A policy is a (possibly randomized) map from the observed history to the next
arm. State is carried functionally: ``observe`` returns a new PolicyState, so
a state can be replayed or forked without aliasing. Randomized policies draw
nothing themselves: ``choose(state, t, u)`` receives this (trial, t)'s policy
coin as a float u in [0, 1) and must be a pure function of (state, t, u),
which is what keeps sequential and vectorized execution bit-identical. Where
no coin exists (the exact evaluation of a deterministic policy) u is None.

Arm indices are 1-based everywhere. All tie-breaks go to the lowest arm
index.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UnknownPolicy

_UNSEEN = math.inf


@dataclass(frozen=True)
class PolicyState:
    """Observation summary after the plays so far.

    best_per_arm holds each arm's smallest observed cost, inf while the arm
    is unseen; memory holds policy-specific extras.
    """

    best_per_arm: tuple[float, ...]
    memory: object = None

    @property
    def K(self) -> int:
        return len(self.best_per_arm)


class Policy:
    """Base policy; subclasses override choose() and possibly the hooks."""

    name: str = "?"

    def initial_state(self, K: int) -> PolicyState:
        return PolicyState((_UNSEEN,) * K, self._initial_memory(K))

    def _initial_memory(self, K: int):
        return None

    def choose(self, state: PolicyState, t: int, u: float | None = None) -> int:
        """The arm, in 1..K, to play at step t; u is the step's policy coin
        in [0, 1), None where no coin exists."""
        raise NotImplementedError

    def observe(self, state: PolicyState, arm: int, value: float) -> PolicyState:
        bests = state.best_per_arm
        if value < bests[arm - 1]:
            bests = bests[: arm - 1] + (value,) + bests[arm:]
        return PolicyState(bests, self._update_memory(state, arm, value))

    def _update_memory(self, state: PolicyState, arm: int, value: float):
        return state.memory

    def arm_script(self, K: int, horizon: int) -> np.ndarray | None:
        """Arm sequence for t=1..horizon if value- and coin-independent."""
        return None

    @property
    def is_deterministic(self) -> bool:
        """True when choose() never reads its coin u."""
        return False

    def to_record(self) -> dict:
        return {"name": self.name, "params": {}}


def _check_int(name: str, value, low: int) -> None:
    """Raise UnknownPolicy unless value is an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UnknownPolicy(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise UnknownPolicy(f"{name} must be >= {low}, got {value}")


def _check_real(name: str, value) -> None:
    """Raise UnknownPolicy unless value is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UnknownPolicy(f"{name} must be a real number, got {value!r}")


def _lowest_argmin(values: Sequence[float]) -> int:
    """1-based index of the smallest value; ties go to the lowest index."""
    best_idx = 0
    for idx in range(1, len(values)):
        if values[idx] < values[best_idx]:
            best_idx = idx
    return best_idx + 1


def _uniform_arm(u: float, K: int) -> int:
    """The arm in 1..K that a coin u in [0, 1) picks uniformly."""
    return min(int(u * K), K - 1) + 1


@dataclass(frozen=True)
class RoundRobinPolicy(Policy):
    name = "round_robin"

    def choose(self, state, t, u=None):
        return (t - 1) % state.K + 1

    def arm_script(self, K, horizon):
        return (np.arange(horizon) % K) + 1

    @property
    def is_deterministic(self):
        return True


@dataclass(frozen=True)
class UniformRandomPolicy(Policy):
    name = "uniform_random"

    def choose(self, state, t, u=None):
        return _uniform_arm(u, state.K)


@dataclass(frozen=True)
class EpsGreedyMinPolicy(Policy):
    """Exploit the arm holding the smallest best-so-far; explore w.p. epsilon.

    One coin u serves both decisions: explore iff u < eps, and the explored
    arm is 1 + floor(K u / eps), so eps=1 is pathwise uniform_random. Unseen
    arms count as +inf, hence eps=0 greedily locks onto the first arm played.
    """

    epsilon: float = 0.1

    name = "eps_greedy_min"

    def __post_init__(self):
        _check_real("epsilon", self.epsilon)
        if not 0.0 <= self.epsilon <= 1.0:
            raise UnknownPolicy(f"epsilon must be in [0, 1], got {self.epsilon}")

    def choose(self, state, t, u=None):
        if self.epsilon > 0.0 and u < self.epsilon:
            return _uniform_arm(u / self.epsilon, state.K)
        return _lowest_argmin(state.best_per_arm)

    @property
    def is_deterministic(self):
        return self.epsilon == 0.0

    def to_record(self):
        return {"name": self.name, "params": {"epsilon": self.epsilon}}


@dataclass(frozen=True)
class QuantileThresholdPolicy(Policy):
    """Play the arm with the lowest empirical q-quantile of observed values.

    The score of an arm with sorted observations x_(1..n) is x_(ceil(q n)),
    +inf while unseen. Every explore_every-th step (t = 1, 1+m, 1+2m, ...)
    is a forced round-robin exploration so scores keep converging; all other
    steps exploit. Deterministic by construction.
    """

    q: float = 0.25
    explore_every: int = 10

    name = "quantile_threshold"

    def __post_init__(self):
        _check_real("q", self.q)
        if not 0.0 < self.q < 1.0:
            raise UnknownPolicy(f"q must be in (0, 1), got {self.q}")
        _check_int("explore_every", self.explore_every, 1)

    def _initial_memory(self, K):
        return ((),) * K

    def _update_memory(self, state, arm, value):
        per_arm = list(state.memory)
        values = list(per_arm[arm - 1])
        bisect.insort(values, value)
        per_arm[arm - 1] = tuple(values)
        return tuple(per_arm)

    def _score(self, values: tuple[float, ...]) -> float:
        if not values:
            return _UNSEEN
        k = max(1, math.ceil(self.q * len(values)))
        return values[k - 1]

    def choose(self, state, t, u=None):
        if (t - 1) % self.explore_every == 0:
            return ((t - 1) // self.explore_every) % state.K + 1
        return _lowest_argmin([self._score(v) for v in state.memory])

    @property
    def is_deterministic(self):
        return True

    def to_record(self):
        return {"name": self.name, "params": {"q": self.q, "explore_every": self.explore_every}}


@dataclass(frozen=True)
class FixedArmPolicy(Policy):
    arm: int = 1

    name = "fixed_arm"

    def __post_init__(self):
        _check_int("arm", self.arm, 1)

    def choose(self, state, t, u=None):
        return self.arm

    def arm_script(self, K, horizon):
        return np.full(horizon, self.arm, dtype=int)

    @property
    def is_deterministic(self):
        return True

    def to_record(self):
        return {"name": self.name, "params": {"arm": self.arm}}


@dataclass(frozen=True)
class SequenceThenArmPolicy(Policy):
    """Play a fixed prefix of arms, then one arm forever."""

    prefix: tuple[int, ...] = ()
    tail_arm: int = 1

    name = "arm_sequence"

    def __post_init__(self):
        _check_int("tail_arm", self.tail_arm, 1)
        for a in self.prefix:
            _check_int("prefix arm", a, 1)

    def choose(self, state, t, u=None):
        if t <= len(self.prefix):
            return self.prefix[t - 1]
        return self.tail_arm

    def arm_script(self, K, horizon):
        script = np.full(horizon, self.tail_arm, dtype=int)
        head = min(len(self.prefix), horizon)
        script[:head] = self.prefix[:head]
        return script

    @property
    def is_deterministic(self):
        return True

    def to_record(self):
        return {"name": self.name, "params": {"prefix": list(self.prefix), "tail_arm": self.tail_arm}}


@dataclass(frozen=True)
class TablePolicy(Policy):
    """Explicit history-to-arm lookup over a finite value alphabet.

    Arm choices are deterministic, so a history is just the sequence of
    observed values, encoded as indices into ``alphabet``. ``mapping`` must
    be total over histories up to ``depth``. Observations outside the
    alphabet fall through to ``default_arm`` forever; the table's behavior
    on such branches is immaterial to the set computations it exists for,
    but a policy has to answer on every reachable history.
    """

    alphabet: tuple[float, ...] = ()
    mapping: dict = None  # dict[tuple[int, ...], int]
    depth: int = 0
    default_arm: int = 1

    name = "table"

    def __post_init__(self):
        if self.mapping is None:
            object.__setattr__(self, "mapping", {})
        _check_int("depth", self.depth, 0)
        _check_int("default_arm", self.default_arm, 1)
        for arm in self.mapping.values():
            _check_int("table arm", arm, 1)
        n = len(self.alphabet)
        if n > 1 and self.depth > 64:
            # Over 2**64 histories: more than any mapping can list.
            raise UnknownPolicy(f"table not total: depth {self.depth} over {n} values has over 2**64 histories")
        domain = range(n)
        listed = sum(isinstance(h, tuple) and len(h) < self.depth and all(i in domain for i in h) for h in self.mapping)
        missing = _history_count(n, self.depth) - listed
        if missing:
            example = next(h for h in _histories(n, self.depth) if h not in self.mapping)
            raise UnknownPolicy(f"table not total: missing {missing} histories, e.g. {example}")

    def _initial_memory(self, K):
        return ()

    def _update_memory(self, state, arm, value):
        try:
            idx = self.alphabet.index(value)
        except ValueError:
            idx = -1
        return state.memory + (idx,)

    def choose(self, state, t, u=None):
        history = state.memory
        if -1 in history:
            return self.default_arm
        if len(history) >= self.depth:
            return self.default_arm
        return self.mapping[history]

    @property
    def is_deterministic(self):
        return True

    def to_record(self):
        return {
            "name": self.name,
            "params": {
                "alphabet": list(self.alphabet),
                "depth": self.depth,
                "default_arm": self.default_arm,
                "entries": [{"history": list(h), "arm": a} for h, a in sorted(self.mapping.items())],
            },
        }


def table_from_record(params: dict) -> TablePolicy:
    mapping = {tuple(e["history"]): e["arm"] for e in params["entries"]}
    return TablePolicy(
        alphabet=tuple(params["alphabet"]),
        mapping=mapping,
        depth=params["depth"],
        default_arm=params.get("default_arm", 1),
    )


def _history_count(alphabet_size: int, depth: int) -> int:
    """The number of histories _histories yields: sum of alphabet_size**d, d < depth."""
    if alphabet_size < 2:
        return depth if alphabet_size else min(depth, 1)
    return (alphabet_size**depth - 1) // (alphabet_size - 1)


def _histories(alphabet_size: int, depth: int):
    """All value-index histories of length < depth (the table's domain)."""
    import itertools

    for d in range(depth):
        yield from itertools.product(range(alphabet_size), repeat=d)


def enumerate_tables(K: int, alphabet: Sequence[float], depth: int, default_arm: int = 1):
    """Every total TablePolicy over the alphabet up to depth; K^nodes of them."""
    import itertools

    nodes = list(_histories(len(alphabet), depth))
    for arms in itertools.product(range(1, K + 1), repeat=len(nodes)):
        yield TablePolicy(
            alphabet=tuple(alphabet),
            mapping=dict(zip(nodes, arms)),
            depth=depth,
            default_arm=default_arm,
        )


_BASELINES = ("round_robin", "uniform_random", "eps_greedy_min", "quantile_threshold")


def baseline(name: str, params: dict | None = None) -> Policy:
    """The four reference baselines; raises UnknownPolicy on anything else."""
    if name not in _BASELINES:
        raise UnknownPolicy(f"unknown baseline {name!r}; expected one of {_BASELINES}")
    return make_policy(name, params)


def make_policy(name: str, params: dict | None = None) -> Policy:
    """Factory over every named policy, including the structural ones."""
    params = dict(params or {})
    try:
        if name == "round_robin":
            return RoundRobinPolicy(**params)
        if name == "uniform_random":
            return UniformRandomPolicy(**params)
        if name == "eps_greedy_min":
            return EpsGreedyMinPolicy(**params)
        if name == "quantile_threshold":
            return QuantileThresholdPolicy(**params)
        if name == "fixed_arm":
            return FixedArmPolicy(**params)
        if name == "arm_sequence":
            if "prefix" in params:
                params["prefix"] = tuple(params["prefix"])
            return SequenceThenArmPolicy(**params)
        if name == "table":
            return table_from_record(params)
    except (TypeError, KeyError) as exc:
        raise UnknownPolicy(f"bad params for policy {name!r}: {exc}") from exc
    raise UnknownPolicy(f"unknown policy {name!r}")
