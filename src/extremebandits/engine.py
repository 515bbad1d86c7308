"""Trajectory simulation, running-minimum curves, and the regret clock.

The load-bearing contract: the cost observed at (trial, t) is the t-th
uniform of that trial's arm stream pushed through the chosen arm's inverse
CDF, and the policy's coin at (trial, t) is the t-th uniform of the trial's
policy stream. Every execution path below (sequential reference, vectorized
kernels) reads the same counter addresses, so they all produce bit-identical
trajectories and the worker count cannot change any number. Every Monte
Carlo curve comes from one block loop, ``_running_minima``, over fixed
64-trial chunks, and the chunk sums of each step are added in trial order
from zero: ``estimate_min_curve``, ``extreme_regret`` and the early-stopping
``stream_curve`` agree bit for bit on the same trials. A kernel owes that
loop the running minimum, not every cost: the epsilon-greedy kernel steps
from record to record (draws that beat their arm's best so far) and returns
only the records' costs, +inf elsewhere. A trial whose minimum has reached
the lowest cost any arm can return is finished: its minimum can no longer
fall, so from the next block on it draws nothing and the loop carries its
minimum forward. The scripted exact curve is a
cumulative sum and product over chunks of steps, with each discrete arm's
survivals computed once. Change points of the trial
minima are kept as columns (trial, step, delta). A bootstrap resample is
n_trials trial indices drawn uniformly with replacement; their counts weight
one sparse matrix-vector product over the events.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .distributions import Distribution, expected_min, log_survivals, _check_horizon
from .errors import BudgetExceeded, ConfigInvalid, ContinuousArm, UnknownPolicy
from .policies import (
    EpsGreedyMinPolicy,
    Policy,
    QuantileThresholdPolicy,
    UniformRandomPolicy,
)
from .rng import ARM_LANE, BOOT_LANE, POLICY_LANE, TrialStreams, generator_for

CHUNK_TRIALS = 64
BLOCK_STEPS = 4096
MAX_TREE_LEAVES = 10_000_000
# Steps x breakpoints per chunk of the scripted exact curve (a few MB).
EXACT_CHUNK_CELLS = 2**18
WORKERS_ENV = "EXTREMEBANDITS_WORKERS"


def worker_count(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV, "")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigInvalid(f"{WORKERS_ENV} must be an integer, got {env!r}", schema_path="workers") from None


def parallel_map(fn, jobs: list, workers: int | None = None) -> list:
    """Order-preserving map, fanned out over processes when workers > 1.

    The pool never exceeds the jobs or the CPUs: with the fork start method
    every worker starts at the first submit.
    """
    w = min(worker_count(workers), len(jobs), os.cpu_count() or 1)
    if w <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (4 * w))))


@dataclass(frozen=True)
class Trace:
    seed: int
    trial: int
    arms: np.ndarray
    values: np.ndarray
    best_so_far: np.ndarray


def run_trajectory(policy: Policy, arms: tuple[Distribution, ...], horizon: int, seed: int, trial: int = 0) -> Trace:
    """Sequential reference simulation of one trial."""
    _check_horizon(horizon)
    K = len(arms)
    arm_row = generator_for(seed, ARM_LANE, trial).random(horizon)
    pol_row = generator_for(seed, POLICY_LANE, trial).random(horizon).tolist()
    caches = [_icdf_cache(d) for d in arms]
    state = policy.initial_state(K)
    chosen = np.empty(horizon, dtype=np.int64)
    values = np.empty(horizon)
    for t in range(1, horizon + 1):
        arm = _checked_arm(policy, policy.choose(state, t, pol_row[t - 1]), K)
        value = _icdf_one(caches[arm - 1], arm_row[t - 1])
        chosen[t - 1] = arm
        values[t - 1] = value
        state = policy.observe(state, arm, value)
    return Trace(seed=seed, trial=trial, arms=chosen, values=values, best_so_far=np.minimum.accumulate(values))


def _icdf_cache(d: Distribution):
    """(support, cum) arrays for a discrete arm, None for uniform01."""
    if not d.is_discrete:
        return None
    from .distributions import icdf_arrays

    support, cum = icdf_arrays(d)
    return np.asarray(support), np.asarray(cum)


def _icdf_one(cache, u: float) -> float:
    if cache is None:
        return float(u)
    support, cum = cache
    return float(support[np.searchsorted(cum, u, side="left")])


def _icdf_block(cache, u: np.ndarray) -> np.ndarray:
    if cache is None:
        return u
    support, cum = cache
    return support[np.searchsorted(cum, u, side="left")]


# ---------------------------------------------------------------------------
# Vectorized kernels, reading exactly the addressed uniforms. next_block(bt,
# live) steps only the live rows (ascending indices into the trials, a
# subset of the previous call's live rows) and returns their (len(live) x bt)
# block of the next bt steps, whose running minimum, carried across blocks,
# equals that of the trials' costs: every cell where a trial's minimum can
# fall holds its cost, and any other cell may hold +inf. A row left out is a
# finished trial: it draws nothing, and its state is never read again. The
# epsilon-greedy kernel returns only its records; the others return every
# cost, which satisfies the same contract.


class _KernelBase:
    def __init__(self, policy, arms, seed, trials):
        self.policy = policy
        self.arms = arms
        self.K = len(arms)
        self.n = len(trials)
        self.caches = [_icdf_cache(d) for d in arms]
        self.arm_streams = TrialStreams(seed, ARM_LANE, trials)
        self._pol_streams = None
        self._seed = seed
        self._trials = trials
        self.t0 = 0  # steps already consumed

    def pol_block(self, bt, live):
        if self._pol_streams is None:
            self._pol_streams = TrialStreams(self._seed, POLICY_LANE, self._trials)
        return self._pol_streams.next_block(bt, live)

    def next_block(self, bt: int, live: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class _ScriptedKernel(_KernelBase):
    def __init__(self, policy, arms, seed, trials, script):
        super().__init__(policy, arms, seed, trials)
        self.script = script

    def next_block(self, bt, live):
        u = self.arm_streams.next_block(bt, live)
        piece = self.script[self.t0 : self.t0 + bt]
        self.t0 += bt
        v = np.empty_like(u)
        for k in range(self.K):
            cols = np.nonzero(piece == k + 1)[0]
            if cols.size:
                v[:, cols] = _icdf_block(self.caches[k], u[:, cols])
        return v


class _RandomKernel(_KernelBase):
    def next_block(self, bt, live):
        u = self.arm_streams.next_block(bt, live)
        p = self.pol_block(bt, live)
        self.t0 += bt
        arm = np.minimum((p * self.K).astype(np.int64), self.K - 1)
        v = np.empty_like(u)
        for k in range(self.K):
            mask = arm == k
            if np.any(mask):
                v[mask] = _icdf_block(self.caches[k], u[mask])
        return v


class _EpsGreedyKernel(_KernelBase):
    """Epsilon-greedy, stepped from record to record; returns only records.

    A record is a draw that strictly improves its arm's best-so-far. The
    greedy arm changes only at a record, so between records every step's arm
    is known ahead: the explored arm on an explore coin, the greedy arm
    otherwise. One round finds the next record of every row still active in
    the block by comparing each cell's uniform with the improvement threshold
    of its arm. Only record cells are drawn through the inverse CDF; every
    other cell is +inf, which is allowed because it costs at least its arm's
    best, hence at least the trial's running minimum. The running minima are
    bit-identical to stepping one column at a time: the same uniforms, the
    same inverse CDF, the lowest-index argmin and the same explored-arm
    truncation.
    """

    def __init__(self, policy, arms, seed, trials):
        super().__init__(policy, arms, seed, trials)
        self.code = np.min_scalar_type(self.K - 1)  # smallest type for an arm index
        self.bests = np.full((self.n, self.K), math.inf)
        self.greedy = np.zeros(self.n, dtype=self.code)
        # floors[j] is the largest u whose inverse CDF falls below atom j.
        self.floors = [None if c is None else np.concatenate(([-1.0], c[1])) for c in self.caches]
        self.thr = np.column_stack([self._threshold(k, self.bests[:, k]) for k in range(self.K)])

    def _threshold(self, k, best):
        """Largest u with icdf_k(u) < best, so a draw improves iff u <= it."""
        if self.caches[k] is None:
            return np.nextafter(best, -math.inf)
        return self.floors[k][np.searchsorted(self.caches[k][0], best, side="left")]

    def next_block(self, bt, live):
        u = self.arm_streams.next_block(bt, live)
        explore = explore_arm = None
        if self.policy.epsilon > 0.0:
            explore, explore_arm = self._coins(bt, live)
        self.t0 += bt
        return self._records(u, explore, explore_arm, live)

    def _coins(self, bt, live):
        """Explore flags and explored arms (0-based) of the live rows' next
        policy block."""
        eps, K = self.policy.epsilon, self.K
        p = self.pol_block(bt, live)
        explore = p < eps
        # min(int(p / eps * K), K - 1), clamped before the cast so the
        # small-int conversion never sees an out-of-range value.
        p /= eps
        p *= K
        np.minimum(p, K - 1, out=p)
        return explore, p.astype(self.code)

    def _records(self, u, explore, explore_arm, live):
        """Step through the block's records, updating bests, thr and greedy,
        and return the block with each record's cost and +inf elsewhere.

        u, explore, explore_arm and the returned block hold the live rows
        only: ``at`` indexes them, and ``live[at]`` the kernel's state."""
        n, bt = u.shape
        v = np.full((n, bt), math.inf)
        cols = np.arange(bt)
        at = np.arange(n)
        pos = np.zeros(n, dtype=np.intp)  # first column not yet stepped
        while at.size:  # one round per record of the busiest row
            lo = int(pos.min())
            rows = live[at]
            g = self.greedy[rows]
            sub = slice(None) if at.size == n else at  # views, not copies
            uu = u[sub, lo:]
            if explore is None:
                hit = uu <= self.thr[rows, g][:, None]
            else:
                played = np.where(explore[sub, lo:], explore_arm[sub, lo:], g[:, None])
                hit = np.zeros(uu.shape, dtype=bool)
                for k in range(self.K):
                    hit |= (played == k) & (uu <= self.thr[rows, k][:, None])
            if pos.max() > lo:
                hit &= cols[lo:] >= pos[:, None]
            first = hit.argmax(axis=1)
            found = np.nonzero(hit[np.arange(at.size), first])[0]
            first = first[found]
            a = g[found] if explore is None else played[found, first]
            at, rows, c = at[found], rows[found], lo + first
            for k in range(self.K):
                sel = a == k
                i, r, ck = at[sel], rows[sel], c[sel]
                if r.size:
                    v[i, ck] = self.bests[r, k] = _icdf_block(self.caches[k], u[i, ck])
                    self.thr[r, k] = self._threshold(k, self.bests[r, k])
            self.greedy[rows] = np.argmin(self.bests[rows], axis=1)
            pos = c + 1
            keep = pos < bt
            at, pos = at[keep], pos[keep]
        return v


class _QuantileKernel(_KernelBase):
    def __init__(self, policy, arms, seed, trials):
        super().__init__(policy, arms, seed, trials)
        self.supports = [c[0] for c in self.caches]
        self.hists = [np.zeros((self.n, len(s)), dtype=np.int64) for s in self.supports]
        self.counts = np.zeros((self.n, self.K), dtype=np.int64)

    def _scores(self, live):
        q = self.policy.q
        counts = self.counts[live]
        scores = np.full((len(live), self.K), math.inf)
        for k in range(self.K):
            seen = counts[:, k] > 0
            if not np.any(seen):
                continue
            target = np.maximum(np.ceil(q * counts[:, k]), 1.0)
            cum = np.cumsum(self.hists[k][live], axis=1)
            idx = np.argmax(cum >= target[:, None], axis=1)
            vals = self.supports[k][idx]
            scores[seen, k] = vals[seen]
        return scores

    def next_block(self, bt, live):
        every = self.policy.explore_every
        u = self.arm_streams.next_block(bt, live)
        lidx = np.stack([np.searchsorted(c[1], u, side="left") for c in self.caches])
        at = np.arange(len(live))
        v = np.empty_like(u)
        for c in range(bt):
            t = self.t0 + c + 1
            if (t - 1) % every == 0:
                arm = np.full(len(live), ((t - 1) // every) % self.K, dtype=np.int64)
            else:
                arm = np.argmin(self._scores(live), axis=1)
            li = lidx[arm, at, c]
            for k in range(self.K):
                mask = arm == k
                if np.any(mask):
                    np.add.at(self.hists[k], (live[mask], li[mask]), 1)
                    v[mask, c] = self.supports[k][li[mask]]
            self.counts[live, arm] += 1
        self.t0 += bt
        return v


class _GenericKernel(_KernelBase):
    """Per-trial sequential stepping; slow but covers every policy."""

    def __init__(self, policy, arms, seed, trials):
        super().__init__(policy, arms, seed, trials)
        self.states = [policy.initial_state(self.K) for _ in trials]

    def next_block(self, bt, live):
        u = self.arm_streams.next_block(bt, live)
        p = self.pol_block(bt, live).tolist()
        v = np.empty_like(u)
        for c in range(bt):
            t = self.t0 + c + 1
            for i, row in enumerate(live):
                arm = _checked_arm(self.policy, self.policy.choose(self.states[row], t, p[i][c]), self.K)
                value = _icdf_one(self.caches[arm - 1], u[i, c])
                v[i, c] = value
                self.states[row] = self.policy.observe(self.states[row], arm, value)
        self.t0 += bt
        return v


def _checked_arm(policy, arm, K) -> int:
    """arm itself if it is in 1..K, else UnknownPolicy: unchecked, arm 0
    would play the last arm, an arm above K would index past the arms, and
    the scripted kernel would read unwritten memory for either."""
    if not 1 <= arm <= K:
        raise UnknownPolicy(f"policy {policy.name} plays arm {arm}, but the bandit has arms 1..{K}")
    return arm


def _arm_script(policy, K, t_max) -> np.ndarray | None:
    """The policy's arms for t = 1..t_max as int64, None if it adapts."""
    script = policy.arm_script(K, t_max)
    if script is None:
        return None
    script = np.asarray(script, dtype=np.int64)
    bad = (script < 1) | (script > K)
    if np.any(bad):
        _checked_arm(policy, int(script[np.argmax(bad)]), K)
    return script


def _make_kernel(policy, arms, seed, trials, t_max) -> _KernelBase:
    script = _arm_script(policy, len(arms), t_max)
    if script is not None:
        return _ScriptedKernel(policy, arms, seed, trials, script)
    if isinstance(policy, UniformRandomPolicy):
        return _RandomKernel(policy, arms, seed, trials)
    if isinstance(policy, EpsGreedyMinPolicy):
        return _EpsGreedyKernel(policy, arms, seed, trials)
    if isinstance(policy, QuantileThresholdPolicy) and all(d.is_discrete for d in arms):
        return _QuantileKernel(policy, arms, seed, trials)
    return _GenericKernel(policy, arms, seed, trials)


# ---------------------------------------------------------------------------
# Monte Carlo curves.


def _running_minima(policy, arms, seed, trials, t_max):
    """Yield (t0, v) for consecutive time blocks of the given trials.

    v is the (len(trials) x bt) running minimum at steps t0+1..t0+bt,
    carried over from the blocks before. This is the one place a kernel is
    stepped, so every Monte Carlo curve sees the same blocks. A trial whose
    minimum has reached the lowest cost any arm can return is finished: the
    kernel no longer steps it, and its rows hold the carried minimum, which
    is what stepping it would have produced.
    """
    kernel = _make_kernel(policy, arms, seed, trials, t_max)
    lowest = min(d.support[0] if d.is_discrete else 0.0 for d in arms)
    carry = np.full(len(trials), math.inf)
    for t0 in range(0, t_max, BLOCK_STEPS):
        bt = min(BLOCK_STEPS, t_max - t0)
        live = np.flatnonzero(carry > lowest)  # only shrinks: carry only falls
        if live.size == len(trials):  # the kernel's block is v: no copy
            v = _carried_minima(kernel.next_block(bt, live), carry)
        else:
            v = np.repeat(carry[:, None], bt, axis=1)
            if live.size:
                v[live] = _carried_minima(kernel.next_block(bt, live), carry[live])
        carry = v[:, -1].copy()
        yield t0, v


def _carried_minima(v, carry):
    """Running minima of the block v, in place, continuing from carry."""
    np.minimum.accumulate(v, axis=1, out=v)
    return np.minimum(v, carry[:, None], out=v)


def _trial_chunks(first: int, n_trials: int) -> list[range]:
    """Trials first..first+n_trials-1 in consecutive CHUNK_TRIALS-trial ranges."""
    end = first + n_trials
    return [range(s, min(s + CHUNK_TRIALS, end)) for s in range(first, end, CHUNK_TRIALS)]


@dataclass(frozen=True)
class MinCurve:
    """E[min of the first t costs] for t = 1..t_max.

    estimates is nonincreasing (exact values, or the running minimum of the
    raw Monte Carlo means); raw keeps the uncorrected means; se has the
    per-t standard errors (zeros in exact mode).
    """

    t_max: int
    estimates: np.ndarray
    raw: np.ndarray
    se: np.ndarray
    mode: str
    n_trials: int
    seed: int | None


def _curve_chunk(job):
    policy, arms, seed, trials, t_max, want_events = job
    sums = np.zeros(t_max)
    sumsq = np.zeros(t_max)
    rows, steps, vals = [], [], []
    carry = np.full(len(trials), math.inf)
    for t0, v in _running_minima(policy, arms, seed, trials, t_max):
        bt = v.shape[1]
        sums[t0 : t0 + bt] += v.sum(axis=0)
        sumsq[t0 : t0 + bt] += (v * v).sum(axis=0)
        if want_events:
            prev = np.column_stack([carry, v[:, :-1]])
            r, c = np.nonzero(v < prev)
            rows.append(r)
            steps.append(t0 + 1 + c)
            vals.append(v[r, c])
            carry = v[:, -1]
    return sums, sumsq, _columnar_events(rows, steps, vals, trials.start) if want_events else None


def _columnar_events(rows, ts, vals, start):
    """Change points of the trials' running minima as (trial_ids, ts, deltas).

    The per-block pieces are put in trial-major, time-ordered sequence by one
    stable sort on the row. A delta is the fall of the running minimum at
    that step, the first one from 0.0: the bits of np.diff(vs, prepend=0.0)
    over each trial's values vs.
    """
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    rows, ts, vals = rows[order], np.concatenate(ts)[order], np.concatenate(vals)[order]
    before = np.concatenate(([0.0], vals[:-1]))
    before[np.flatnonzero(np.diff(rows, prepend=-1))] = 0.0
    return rows + start, ts, vals - before


def _curve_and_events(policy, arms, t_max, n_trials, seed, workers, want_events):
    _check_horizon(t_max)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    jobs = [(policy, arms, seed, trials, t_max, want_events) for trials in _trial_chunks(0, n_trials)]
    sums = np.zeros(t_max)
    sumsq = np.zeros(t_max)
    pieces = []
    for s, sq, ev in parallel_map(_curve_chunk, jobs, workers):
        sums += s
        sumsq += sq
        pieces.append(ev)
    events = tuple(np.concatenate(column) for column in zip(*pieces)) if want_events else None
    raw = sums / n_trials
    if n_trials > 1:
        var = np.maximum(sumsq - n_trials * raw * raw, 0.0) / (n_trials - 1)
        se = np.sqrt(var / n_trials)
    else:
        se = np.zeros(t_max)
    curve = MinCurve(
        t_max=t_max,
        estimates=np.minimum.accumulate(raw),
        raw=raw,
        se=se,
        mode="monte_carlo",
        n_trials=n_trials,
        seed=seed,
    )
    return curve, events


def estimate_min_curve(
    policy: Policy,
    arms: tuple[Distribution, ...],
    t_max: int,
    n_trials: int = 1000,
    seed: int = 0,
    workers: int | None = None,
) -> MinCurve:
    """Monte Carlo running-minimum curve over n_trials independent trials."""
    curve, _ = _curve_and_events(policy, arms, t_max, n_trials, seed, workers, False)
    return curve


@dataclass(frozen=True)
class StreamResult:
    raw: np.ndarray
    crossed_at: int | None
    t_evaluated: int


def stream_curve(
    policy: Policy,
    arms: tuple[Distribution, ...],
    n_trials: int,
    seed: int,
    t_max: int,
    stop_threshold: float | None = None,
    trial_offset: int = 0,
) -> StreamResult:
    """Mean running-minimum curve that can stop once it dips to a threshold.

    The trials are split into the same 64-trial chunks as in
    estimate_min_curve, stepped in lockstep one time block at a time, and
    each block's chunk sums are added in chunk order from zero, so raw is
    bit-equal to estimate_min_curve's over the same trials. raw is
    truncated at the block where the crossing happened.
    """
    _check_horizon(t_max)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    chunks = [
        _running_minima(policy, arms, seed, trials, t_max) for trials in _trial_chunks(trial_offset, n_trials)
    ]
    pieces = []
    for t0 in range(0, t_max, BLOCK_STEPS):
        # next() one chunk at a time: a single chunk's block is held at once.
        mean = sum(next(chunk)[1].sum(axis=0) for chunk in chunks) / n_trials
        pieces.append(mean)
        if stop_threshold is not None:
            hits = np.nonzero(mean <= stop_threshold)[0]
            if hits.size:
                return StreamResult(
                    raw=np.concatenate(pieces), crossed_at=t0 + int(hits[0]) + 1, t_evaluated=t0 + len(mean)
                )
    return StreamResult(raw=np.concatenate(pieces), crossed_at=None, t_evaluated=t_max)


# ---------------------------------------------------------------------------
# Exact curves.


def exact_min_curve(policy: Policy, arms: tuple[Distribution, ...], t_max: int) -> MinCurve:
    """Exact E[min over t] curve for scripted or deterministic policies.

    Scripted policies get the closed form: P[min >= v] is a product of
    per-draw survivals, integrated piecewise between atoms (uniform01 draws
    contribute exact (1-v)^n factors on each piece). Deterministic adaptive
    policies are evaluated by enumerating the outcome tree, which needs
    discrete arms and a leaf budget.
    """
    _check_horizon(t_max)
    script = _arm_script(policy, len(arms), t_max)
    if script is not None:
        raw = _scripted_exact_curve(script, arms, t_max)
    elif policy.is_deterministic:
        raw = _tree_exact_curve(policy, arms, t_max)
    else:
        raise UnknownPolicy(f"exact curves need a scripted or deterministic policy, not {policy.name}")
    return MinCurve(
        t_max=t_max,
        estimates=np.minimum.accumulate(raw),
        raw=raw,
        se=np.zeros(t_max),
        mode="exact",
        n_trials=0,
        seed=None,
    )


def _scripted_exact_curve(script, arms, t_max):
    breaks = sorted({v for d in arms if d.is_discrete for v in d.support} | {1.0})
    w = np.array(breaks)
    left = np.concatenate([[0.0], w[:-1]])
    a = 1.0 - left
    b = 1.0 - w
    # Per-arm increments of one step: log survivals at every breakpoint for a
    # discrete arm; a uniform01 arm multiplies the (1-v)^n factors instead.
    # The neutral entries (0.0 to add, 1.0 to multiply) are exact.
    log_s = np.zeros((len(arms), len(w)))
    fac_a = np.ones((len(arms), len(w)))
    fac_b = np.ones((len(arms), len(w)))
    is_uniform = np.zeros(len(arms), dtype=np.int64)
    for k, d in enumerate(arms):
        if d.is_discrete:
            # log P[X >= v] at each breakpoint; -inf above the last atom.
            j = np.searchsorted(d.support, w, side="left")
            log_s[k] = np.append(log_survivals(d), -math.inf)[j]
        else:
            fac_a[k], fac_b[k], is_uniform[k] = a, b, 1
    # Running state after the previous step, accumulated chunk by chunk in
    # step order, so every entry equals the per-step update bit for bit.
    log_d = np.zeros(len(w))
    pow_a, pow_b = a, b
    n_uniform = 0
    chunk = max(1, EXACT_CHUNK_CELLS // len(w))
    raw = np.empty(t_max)
    for t0 in range(0, t_max, chunk):
        k = script[t0 : t0 + chunk] - 1
        # Fancy indexing copies, so each seed folds into its first row in
        # place: row i is then ((state + inc_1) + ...) + inc_i, as stepped.
        L, PA, PB = log_s[k], fac_a[k], fac_b[k]
        L[0] += log_d
        PA[0] *= pow_a
        PB[0] *= pow_b
        np.cumsum(L, axis=0, out=L)
        np.cumprod(PA, axis=0, out=PA)
        np.cumprod(PB, axis=0, out=PB)
        n_u = n_uniform + np.cumsum(is_uniform[k])
        log_d, pow_a, pow_b, n_uniform = L[-1].copy(), PA[-1].copy(), PB[-1].copy(), int(n_u[-1])
        # exp(L) * (PA - PB), summed per step, computed in place.
        np.exp(L, out=L)
        PA -= PB
        L *= PA
        raw[t0 : t0 + len(k)] = np.sum(L, axis=1) / (n_u + 1)
    return raw


def _tree_exact_curve(policy, arms, t_max):
    for d in arms:
        if not d.is_discrete:
            raise ContinuousArm("tree evaluation needs discrete arms")
    widest = max(len(d.support) for d in arms)
    # widest**t_max > MAX_TREE_LEAVES, decided without building that number.
    leaves = 1
    for _ in range(t_max if widest > 1 else 0):
        leaves *= widest
        if leaves > MAX_TREE_LEAVES:
            raise BudgetExceeded(f"outcome tree would exceed {MAX_TREE_LEAVES} leaves")
    raw = np.zeros(t_max)
    # Depth first with an explicit stack: recursion would nest t_max deep.
    # Nodes are expanded in the recursive pre-order, so every raw[t] sums
    # its terms in the same order.
    stack = [(policy.initial_state(len(arms)), 0, 0.0, math.inf)]
    while stack:
        state, t, log_p, cur_min = stack.pop()
        arm = _checked_arm(policy, policy.choose(state, t + 1, None), len(arms))
        d = arms[arm - 1]
        children = []
        for v, lv in zip(d.support, d.log_probs):
            child_min = v if v < cur_min else cur_min
            child_logp = log_p + lv
            raw[t] += math.exp(child_logp) * child_min
            if t + 1 < t_max:
                children.append((policy.observe(state, arm, v), t + 1, child_logp, child_min))
        stack.extend(reversed(children))
    return raw


# ---------------------------------------------------------------------------
# Regret clock.


@dataclass(frozen=True)
class RegretReport:
    """First time the policy's curve catches the oracle's value at horizon T.

    t_prime is the crossing time within [1, cap], None if the curve never
    got there; ratio = t_prime / horizon, inf when t_prime is None. ci_low /
    ci_high bracket t_prime by bootstrap percentiles in Monte Carlo mode.
    """

    horizon: int
    cap: int
    mode: str
    oracle_value: float
    t_prime: int | None
    ratio: float
    n_trials: int
    seed: int | None
    ci_low: int | None
    ci_high: int | None
    curve: MinCurve


def crossing_time(values: np.ndarray, threshold: float) -> int | None:
    """First 1-based index where the running min of values dips to threshold
    plus relative slack 1e-12, absorbing last-ulp rounding in exact curves."""
    slack = 1e-12 * max(1.0, abs(threshold))
    hits = np.nonzero(np.minimum.accumulate(values) <= threshold + slack)[0]
    return int(hits[0]) + 1 if hits.size else None


def extreme_regret(
    policy: Policy,
    arms: tuple[Distribution, ...],
    horizon: int,
    oracle_value: float | None = None,
    mode: str = "monte_carlo",
    n_trials: int = 1000,
    seed: int = 0,
    cap: int | None = None,
    bootstrap: int = 1000,
    workers: int | None = None,
) -> RegretReport:
    """Time-to-match ratio against the best single-arm value at the horizon.

    oracle_value defaults to the exact best single-armed expectation. The
    policy curve is evaluated out to cap (default 4*K*horizon); if it never
    reaches the oracle value there, the report carries the infinity marker.
    """
    _check_horizon(horizon)
    if oracle_value is None:
        oracle_value = min(expected_min(d, horizon) for d in arms)
    if cap is None:
        cap = 4 * len(arms) * horizon
    if cap < 1:
        raise ValueError("cap must be >= 1")

    ci_low = ci_high = None
    if mode == "exact":
        curve = exact_min_curve(policy, arms, cap)
        t_prime = crossing_time(curve.raw, oracle_value)
        n_used, seed_used = 0, None
    elif mode == "monte_carlo":
        want_events = bootstrap > 0 and n_trials > 1
        curve, events = _curve_and_events(policy, arms, cap, n_trials, seed, workers, want_events)
        t_prime = crossing_time(curve.raw, oracle_value)
        if want_events:
            ci_low, ci_high = _bootstrap_crossing_ci(events, n_trials, cap, oracle_value, seed, bootstrap)
        n_used, seed_used = n_trials, seed
    else:
        raise ValueError(f"mode must be exact or monte_carlo, got {mode!r}")

    return RegretReport(
        horizon=horizon,
        cap=cap,
        mode=mode,
        oracle_value=oracle_value,
        t_prime=t_prime,
        ratio=(t_prime / horizon) if t_prime is not None else math.inf,
        n_trials=n_used,
        seed=seed_used,
        ci_low=ci_low,
        ci_high=ci_high,
        curve=curve,
    )


def _bootstrap_crossing_ci(events, n_trials, cap, threshold, seed, n_boot):
    """Percentile bootstrap of the crossing time, resampling whole trials.

    A resample is n_trials trial indices drawn uniformly with replacement;
    how often each trial was drawn is its weight. Trial curves are kept as
    change-point deltas (``_columnar_events``) in a sparse cap x n_trials
    matrix, so one resample is a mat-vec with those counts followed by a
    cumulative sum. A CSR row sums its terms in trial order from 0.0, as a
    scatter-add over the events would. All resampling randomness comes from
    the dedicated bootstrap lane of the seed.
    """
    trial_ids, ts, deltas = events
    deltas_by_step = csr_matrix((deltas, (ts - 1, trial_ids)), shape=(cap, n_trials))
    slack = 1e-12 * max(1.0, abs(threshold))
    rng = generator_for(seed, BOOT_LANE, 0)
    crossings = np.empty(n_boot)
    for i in range(n_boot):
        # One resample at a time, so memory stays O(n_trials): n uniform
        # trial indices, counted into multinomial(n, 1/n) weights.
        picks = rng.integers(0, n_trials, size=n_trials)
        counts = np.bincount(picks, minlength=n_trials).astype(float)
        mean = np.cumsum(deltas_by_step @ counts) / n_trials
        hits = np.nonzero(mean <= threshold + slack)[0]
        crossings[i] = hits[0] + 1 if hits.size else math.inf
    lo, hi = np.quantile(crossings, [0.025, 0.975], method="nearest")
    return (
        int(lo) if math.isfinite(lo) else None,
        int(hi) if math.isfinite(hi) else None,
    )
