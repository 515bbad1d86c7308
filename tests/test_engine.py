"""Simulation engine: kernels, curves, crossing clocks, determinism."""

import math

import numpy as np
import pytest

import extremebandits as xb
from extremebandits import engine
from extremebandits.engine import BLOCK_STEPS, CHUNK_TRIALS
from extremebandits.distributions import log_survival_at
from extremebandits.errors import ConfigInvalid
from extremebandits.rng import BOOT_LANE, POLICY_LANE, TrialStreams, generator_for

HALF_VS_RISKY = (
    xb.point_mass(0.5),
    xb.make_discrete([(0.0, 0.25), (1.0, 0.75)]),
)
UNIFORM_VS_SURE = (xb.uniform01(), xb.point_mass(1.0))
# Equal atoms, unequal masses: greedy ties resolve to the lowest index,
# and the arm picked changes the next draw.
TIED = (xb.make_discrete([(0.2, 0.5), (0.7, 0.5)]), xb.make_discrete([(0.2, 0.1), (0.7, 0.9)]))
MIX3 = (
    xb.make_discrete([(0.1, 0.01), (0.6, 0.99)]),
    xb.uniform01(),
    xb.make_discrete([(0.05, 0.001), (0.3, 0.5), (0.9, 0.499)]),
)
# At seed 40, trial 9 of eps-greedy (0.1) first draws the 0.0 atom at
# t = BLOCK_STEPS, the last column of the first block: a record that moves
# the greedy arm across the block boundary.
LATE_LOW = (xb.point_mass(0.5), xb.make_discrete([(0.0, 0.01), (1.0, 0.99)]))
# A rare 0.0 atom under rare low atoms on both arms: trials reach the floor
# at scattered times, and records keep coming for those that have not.
GRADED = (
    xb.make_discrete([(0.0, 0.002), (0.2, 0.01), (0.6, 0.988)]),
    xb.make_discrete([(0.1, 0.004), (0.4, 0.05), (0.8, 0.946)]),
)
ARM_SETS = {"half_vs_risky": HALF_VS_RISKY, "uniform_vs_sure": UNIFORM_VS_SURE, "tied": TIED, "mix3": MIX3}
# Adaptive, deterministic and not vectorized: runs on the generic kernel.
TABLE = xb.TablePolicy(
    alphabet=(0.0, 0.5, 1.0),
    mapping={(): 2, (0,): 1, (1,): 2, (2,): 1},
    depth=2,
    default_arm=2,
)


def _trajectory_minima(policy, arms, t_max, n, seed):
    """(n x t_max) running minima of the sequential reference, which steps
    every trial to t_max."""
    return np.vstack([xb.run_trajectory(policy, arms, t_max, seed, trial).best_so_far for trial in range(n)])


def _manual_raw(policy, arms, t_max, n, seed, best=None):
    """Mean of the reference running minima, summed chunk by chunk in trial
    order, as the engine adds its chunk sums."""
    if best is None:
        best = _trajectory_minima(policy, arms, t_max, n, seed)
    sums = np.zeros(t_max)
    for trials in engine._trial_chunks(0, n):
        sums += best[trials.start : trials.stop].sum(axis=0)
    return sums / n


KERNEL_POLICIES = [
    xb.RoundRobinPolicy(),
    xb.FixedArmPolicy(arm=2),
    xb.SequenceThenArmPolicy(prefix=(2, 2, 1), tail_arm=1),
    xb.UniformRandomPolicy(),
    xb.EpsGreedyMinPolicy(epsilon=0.1),
    xb.EpsGreedyMinPolicy(epsilon=0.0),
    xb.EpsGreedyMinPolicy(epsilon=1.0),
    xb.QuantileThresholdPolicy(q=0.25, explore_every=4),
]


@pytest.mark.parametrize("policy", KERNEL_POLICIES, ids=lambda p: f"{p.name}-{p.to_record()['params']}")
def test_kernel_matches_sequential_bitwise(policy):
    # One chunk (n <= CHUNK_TRIALS), so the kernel's per-column pairwise sum
    # is byte-for-byte the vstack sum over the sequential reference rows.
    n, t_max, seed = 48, 50, 12
    assert n <= CHUNK_TRIALS
    for arms in ARM_SETS.values():
        curve = xb.estimate_min_curve(policy, arms, t_max, n_trials=n, seed=seed)
        assert np.array_equal(curve.raw, _manual_raw(policy, arms, t_max, n, seed))


def test_generic_kernel_matches_sequential_bitwise():
    # Quantile policy on a continuous arm falls back to the per-trial kernel.
    policy = xb.QuantileThresholdPolicy(q=0.5, explore_every=3)
    n, t_max, seed = 16, 30, 4
    curve = xb.estimate_min_curve(policy, UNIFORM_VS_SURE, t_max, n_trials=n, seed=seed)
    assert np.array_equal(curve.raw, _manual_raw(policy, UNIFORM_VS_SURE, t_max, n, seed))

    curve_t = xb.estimate_min_curve(TABLE, HALF_VS_RISKY, t_max, n_trials=n, seed=seed)
    assert np.array_equal(curve_t.raw, _manual_raw(TABLE, HALF_VS_RISKY, t_max, n, seed))


def _assert_matches_reference_per_trial(policy, arms, t_max, n, seed):
    best = _trajectory_minima(policy, arms, t_max, n, seed)
    curve = xb.estimate_min_curve(policy, arms, t_max, n_trials=n, seed=seed)
    assert np.array_equal(curve.raw, _manual_raw(policy, arms, t_max, n, seed, best))
    for trials in engine._trial_chunks(0, n):
        blocks = [v.copy() for _, v in engine._running_minima(policy, arms, seed, trials, t_max)]
        assert np.array_equal(np.hstack(blocks), best[trials.start : trials.stop])


# Both bandits have a 0.0 atom, the lowest cost there is: a trial that draws
# it is finished and is no longer stepped. Across the policies, some trials
# finish within the first block and some never do.
@pytest.mark.parametrize("arms", [LATE_LOW, HALF_VS_RISKY], ids=["late_low", "half_vs_risky"])
@pytest.mark.parametrize("policy", KERNEL_POLICIES, ids=lambda p: f"{p.name}-{p.to_record()['params']}")
def test_finished_trials_match_sequential_reference(policy, arms):
    # Two chunks and two blocks; the reference never skips a step.
    _assert_matches_reference_per_trial(policy, arms, BLOCK_STEPS + 7, CHUNK_TRIALS + 6, 40)


@pytest.mark.parametrize("arms", [LATE_LOW, HALF_VS_RISKY, GRADED], ids=["late_low", "half_vs_risky", "graded"])
@pytest.mark.parametrize("policy", [*KERNEL_POLICIES, TABLE], ids=lambda p: f"{p.name}-{p.to_record()['params']}")
def test_finished_trials_in_short_blocks(policy, arms, monkeypatch):
    # 64-step blocks: on GRADED trials finish in every block, so the live
    # rows of later blocks are a sparse subset of the chunk, and the live
    # trials still set records that move the greedy arm. Short blocks also
    # keep the generic kernel, which steps each trial in Python, quick.
    monkeypatch.setattr(engine, "BLOCK_STEPS", 64)
    _assert_matches_reference_per_trial(policy, arms, 8 * 64 + 7, CHUNK_TRIALS + 6, 40)


def test_finished_trials_draw_nothing(monkeypatch):
    reads = []
    next_block = TrialStreams.next_block

    def spy(self, n, rows=None):
        out = next_block(self, n, rows)
        reads.append((n, out.shape[0]))
        return out

    monkeypatch.setattr(TrialStreams, "next_block", spy)
    n, t_max, seed = CHUNK_TRIALS, 3 * BLOCK_STEPS, 40
    policy = xb.EpsGreedyMinPolicy(epsilon=0.1)
    blocks = [v.copy() for _, v in engine._running_minima(policy, LATE_LOW, seed, range(n), t_max)]
    live = [n] + [int(np.sum(v[:, -1] > 0.0)) for v in blocks[:-1]]
    assert 0 < live[1] < n  # some trials finish in block 1, some do not
    # Per block, one arm and one policy read, of the live rows only.
    assert reads == [(BLOCK_STEPS, m) for m in live for _ in range(2)]

    # Round robin finishes every trial on HALF_VS_RISKY within the first
    # block; the kernel is not called after that.
    reads.clear()
    blocks = [v for _, v in engine._running_minima(xb.RoundRobinPolicy(), HALF_VS_RISKY, seed, range(n), t_max)]
    assert [b.shape for b in blocks] == [(n, BLOCK_STEPS)] * 3
    assert np.all(blocks[1] == 0.0) and np.all(blocks[2] == 0.0)
    assert reads == [(BLOCK_STEPS, n)]


class _SteppedEpsGreedyKernel(engine._KernelBase):
    """Reference epsilon-greedy kernel: one vectorized step per column."""

    def __init__(self, policy, arms, seed, trials):
        super().__init__(policy, arms, seed, trials)
        self.bests = np.full((self.n, self.K), math.inf)

    def next_block(self, bt, live):
        eps = self.policy.epsilon
        u = self.arm_streams.next_block(bt, live)
        vk = np.stack([engine._icdf_block(self.caches[k], u) for k in range(self.K)])
        if eps > 0.0:
            p = self.pol_block(bt, live)
            explore = p < eps
            explore_arm = np.minimum((p / eps * self.K).astype(np.int64), self.K - 1)
        self.t0 += bt
        at = np.arange(len(live))
        v = np.empty_like(u)
        for c in range(bt):
            arm = np.argmin(self.bests[live], axis=1)
            if eps > 0.0:
                np.copyto(arm, explore_arm[:, c], where=explore[:, c])
            vals = vk[arm, at, c]
            v[:, c] = vals
            np.minimum.at(self.bests, (live, arm), vals)
        return v


def _stepped(run):
    """run() with the stepped reference in place of the engine's kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_EpsGreedyKernel", _SteppedEpsGreedyKernel)
        return run()


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("arms", [*ARM_SETS.values(), LATE_LOW], ids=[*ARM_SETS, "late_low"])
def test_eps_greedy_kernel_matches_stepped_reference(arms, epsilon):
    # Two blocks, two 64-trial chunks; with LATE_LOW it includes a record on
    # the last column of the first block.
    policy = xb.EpsGreedyMinPolicy(epsilon=epsilon)
    kw = dict(n_trials=80, seed=40, t_max=BLOCK_STEPS + 7)

    def estimate():
        return xb.estimate_min_curve(policy, arms, **kw)

    def stream():
        return xb.stream_curve(policy, arms, **kw)

    got, want = estimate(), _stepped(estimate)
    assert np.array_equal(got.raw, want.raw)
    assert np.array_equal(got.se, want.se)
    assert np.array_equal(stream().raw, _stepped(stream).raw)

    # Per trial, not only the sums: the record kernel's +inf cells must
    # leave every running minimum of both chunks and both blocks unchanged.
    def minima():
        out = []
        for trials in engine._trial_chunks(0, kw["n_trials"]):
            out += [v.copy() for _, v in engine._running_minima(policy, arms, kw["seed"], trials, kw["t_max"])]
        return out

    got_blocks, want_blocks = minima(), _stepped(minima)
    assert [b.shape for b in got_blocks] == [(64, BLOCK_STEPS), (64, 7), (16, BLOCK_STEPS), (16, 7)]
    for g, w in zip(got_blocks, want_blocks, strict=True):
        assert np.array_equal(g, w)


def test_eps_greedy_record_on_last_block_column():
    policy = xb.EpsGreedyMinPolicy(epsilon=0.1)
    t_max = BLOCK_STEPS + 7
    trace = xb.run_trajectory(policy, LATE_LOW, t_max, seed=40, trial=9)
    t = BLOCK_STEPS
    assert trace.best_so_far[t - 2] == 0.5
    assert (trace.arms[t - 1], trace.values[t - 1]) == (2, 0.0)
    one = xb.stream_curve(policy, LATE_LOW, n_trials=1, seed=40, t_max=t_max, trial_offset=9)
    assert np.array_equal(one.raw, trace.best_so_far)


def test_stream_curve_early_stop_inside_second_block():
    policy = xb.EpsGreedyMinPolicy(epsilon=0.1)
    n, t_max, seed = 64, 3 * BLOCK_STEPS, 3
    full = xb.estimate_min_curve(policy, UNIFORM_VS_SURE, t_max, n_trials=n, seed=seed)
    thr = full.raw[BLOCK_STEPS + 1000]
    want = xb.crossing_time(full.raw, thr)
    assert BLOCK_STEPS < want <= 2 * BLOCK_STEPS

    def run():
        return xb.stream_curve(policy, UNIFORM_VS_SURE, n_trials=n, seed=seed, t_max=t_max, stop_threshold=thr)

    got, ref = run(), _stepped(run)
    assert got.crossed_at == ref.crossed_at == want
    assert got.t_evaluated == ref.t_evaluated == 2 * BLOCK_STEPS
    assert np.array_equal(got.raw, ref.raw)
    assert np.array_equal(got.raw, full.raw[: 2 * BLOCK_STEPS])


def test_kernel_block_boundary():
    # A horizon past one 4096-step block must splice blocks seamlessly.
    policy = xb.RoundRobinPolicy()
    n, t_max, seed = 8, 4100, 9
    curve = xb.estimate_min_curve(policy, UNIFORM_VS_SURE, t_max, n_trials=n, seed=seed)
    assert np.array_equal(curve.raw, _manual_raw(policy, UNIFORM_VS_SURE, t_max, n, seed))


def test_worker_fanout_is_invisible(monkeypatch):
    policy = xb.EpsGreedyMinPolicy(epsilon=0.2)
    kw = dict(t_max=80, n_trials=200, seed=5)
    one = xb.estimate_min_curve(policy, HALF_VS_RISKY, workers=1, **kw)
    two = xb.estimate_min_curve(policy, HALF_VS_RISKY, workers=2, **kw)
    assert np.array_equal(one.raw, two.raw)
    assert np.array_equal(one.se, two.se)
    assert np.array_equal(one.estimates, two.estimates)

    monkeypatch.setenv(xb.engine.WORKERS_ENV, "2")
    via_env = xb.estimate_min_curve(policy, HALF_VS_RISKY, **kw)
    assert np.array_equal(one.raw, via_env.raw)


def test_worker_count_resolution(monkeypatch):
    monkeypatch.delenv(xb.engine.WORKERS_ENV, raising=False)
    assert xb.worker_count() == 1
    monkeypatch.setenv(xb.engine.WORKERS_ENV, "3")
    assert xb.worker_count() == 3
    assert xb.worker_count(5) == 5  # explicit argument beats the env
    assert xb.worker_count(0) == 1
    monkeypatch.setenv(xb.engine.WORKERS_ENV, "abc")
    with pytest.raises(ConfigInvalid):
        xb.worker_count()


class _PoolSpy:
    """Stands in for ProcessPoolExecutor: records its size, maps inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


def test_parallel_map_clamps_pool_to_jobs_and_cpus(monkeypatch):
    monkeypatch.setattr(engine, "ProcessPoolExecutor", _PoolSpy)
    monkeypatch.setattr(_PoolSpy, "sizes", [])
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 4)
    assert engine.parallel_map(abs, [-1, -2, -3], workers=1000) == [1, 2, 3]
    assert engine.parallel_map(abs, list(range(-9, 0)), workers=1000) == list(range(9, 0, -1))
    assert engine.parallel_map(abs, [-5], workers=1000) == [5]  # one job: no pool
    assert _PoolSpy.sizes == [3, 4]


def test_estimates_are_running_min_and_se_sane():
    policy = xb.UniformRandomPolicy()
    curve = xb.estimate_min_curve(policy, UNIFORM_VS_SURE, 60, n_trials=192, seed=2)
    assert np.all(np.diff(curve.estimates) <= 0)
    assert np.array_equal(curve.estimates, np.minimum.accumulate(curve.raw))
    assert np.all(curve.se >= 0)
    # Minimum of a point mass draw is deterministic: se must be exactly 0.
    det = xb.estimate_min_curve(xb.FixedArmPolicy(arm=2), UNIFORM_VS_SURE, 5, n_trials=64, seed=2)
    assert np.array_equal(det.se, np.zeros(5))
    assert np.array_equal(det.raw, np.ones(5))


def test_exact_curve_uniform_tail():
    # One sure draw of 1, then uniforms: E[min over t] = 1/t.
    policy = xb.SequenceThenArmPolicy(prefix=(2,), tail_arm=1)
    curve = xb.exact_min_curve(policy, UNIFORM_VS_SURE, 5)
    want = np.array([1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5])
    np.testing.assert_allclose(curve.raw, want, rtol=1e-12)
    assert curve.mode == "exact"
    assert np.array_equal(curve.se, np.zeros(5))


def test_exact_curve_alternating_arms():
    # Round robin on (uniform, sure 1): t draws hold ceil(t/2) uniforms.
    curve = xb.exact_min_curve(xb.RoundRobinPolicy(), UNIFORM_VS_SURE, 8)
    want = np.array([1.0 / (math.ceil(t / 2) + 1) for t in range(1, 9)])
    np.testing.assert_allclose(curve.raw, want, rtol=1e-12)


def test_exact_curve_matches_expected_min():
    for arms in (HALF_VS_RISKY, UNIFORM_VS_SURE):
        for k, d in enumerate(arms, start=1):
            curve = xb.exact_min_curve(xb.FixedArmPolicy(arm=k), arms, 7)
            want = [xb.expected_min(d, t) for t in range(1, 8)]
            np.testing.assert_allclose(curve.raw, want, rtol=1e-12)


def _stepped_scripted_exact_curve(script, arms, t_max):
    """Reference scripted exact curve: survivals looked up one breakpoint at
    a time, the state updated and reduced one step at a time."""
    breaks = sorted({v for d in arms if d.is_discrete for v in d.support} | {1.0})
    w = np.array(breaks)
    left = np.concatenate([[0.0], w[:-1]])
    log_s = [np.array([log_survival_at(d, v) for v in w]) if d.is_discrete else None for d in arms]
    log_d = np.zeros(len(w))
    a = 1.0 - left
    b = 1.0 - w
    pow_a = a.copy()
    pow_b = b.copy()
    n_uniform = 0
    raw = np.empty(t_max)
    for t in range(1, t_max + 1):
        k = script[t - 1] - 1
        if log_s[k] is None:
            n_uniform += 1
            pow_a *= a
            pow_b *= b
        else:
            log_d += log_s[k]
        raw[t - 1] = float(np.sum(np.exp(log_d) * (pow_a - pow_b)) / (n_uniform + 1))
    return raw


def _random_arm(rng, m):
    values = np.sort(rng.choice(np.linspace(0.0, 1.0, 1001), m, replace=False))
    probs = rng.random(m)
    return xb.make_discrete(list(zip(values.tolist(), (probs / probs.sum()).tolist())))


_ATOMS_RNG = np.random.default_rng(3)
SIXTY_ATOMS = (_random_arm(_ATOMS_RNG, 60), _random_arm(_ATOMS_RNG, 60))
UNIFORM_MIX3 = (xb.make_discrete([(0.1, 0.01), (0.6, 0.99)]), xb.uniform01(), xb.uniform01())


def _desk_arms():
    a = xb.desk_sequence(2)
    return xb.build_tuple(a, xb.BAssignment((1, 2))).arms, xb.horizon_T(a.log_alphas[-1])


SCRIPTED_CASES = {
    "round_robin-uniform_vs_sure": lambda: (xb.RoundRobinPolicy(), UNIFORM_VS_SURE, 50_000),
    "arm_sequence-uniform_vs_sure": lambda: (xb.SequenceThenArmPolicy(prefix=(2,), tail_arm=1), UNIFORM_VS_SURE, 50_000),
    "round_robin-sixty_atoms": lambda: (xb.RoundRobinPolicy(), SIXTY_ATOMS, 1_000),
    "round_robin-desk": lambda: (xb.RoundRobinPolicy(), *_desk_arms()),
    "round_robin-mix3": lambda: (xb.RoundRobinPolicy(), UNIFORM_MIX3, 3_000),
    "fixed_arm-sixty_atoms": lambda: (xb.FixedArmPolicy(arm=2), SIXTY_ATOMS, 5_000),
}


@pytest.mark.parametrize("case", SCRIPTED_CASES)
def test_scripted_exact_curve_matches_stepped_reference(case, monkeypatch):
    policy, arms, t_max = SCRIPTED_CASES[case]()
    script = np.asarray(policy.arm_script(len(arms), t_max), dtype=np.int64)
    want = _stepped_scripted_exact_curve(script, arms, t_max)
    assert np.array_equal(xb.exact_min_curve(policy, arms, t_max).raw, want)
    if case == "fixed_arm-sixty_atoms":  # spans more than two default chunks
        n_breaks = len({v for d in arms for v in d.support} | {1.0})
        assert t_max > 2 * (engine.EXACT_CHUNK_CELLS // n_breaks)
    # Chunks of one step or a few steps: every chunk seeds the next.
    short = min(t_max, 700)
    for cells in (1, 7):
        monkeypatch.setattr(engine, "EXACT_CHUNK_CELLS", cells)
        assert np.array_equal(xb.exact_min_curve(policy, arms, short).raw, want[:short])


def _brute_curve(policy, arms, t_max):
    """Per-depth E[min] by full outcome-tree enumeration (policy API only)."""
    out = np.zeros(t_max)

    def rec(state, t, logp, best):
        arm = policy.choose(state, t)
        d = arms[arm - 1]
        for v, lp in zip(d.support, d.log_probs):
            nb = min(best, v)
            out[t - 1] += math.exp(logp + lp) * nb
            if t < t_max:
                rec(policy.observe(state, arm, v), t + 1, logp + lp, nb)

    rec(policy.initial_state(len(arms)), 1, 0.0, math.inf)
    return out


def test_tree_exact_curve_matches_brute_enumeration():
    # eps=0 greedy is deterministic but value-adaptive: tree walker territory.
    for policy in (
        xb.EpsGreedyMinPolicy(epsilon=0.0),
        xb.QuantileThresholdPolicy(q=0.5, explore_every=2),
    ):
        curve = xb.exact_min_curve(policy, HALF_VS_RISKY, 6)
        np.testing.assert_allclose(curve.raw, _brute_curve(policy, HALF_VS_RISKY, 6), rtol=1e-12)


def test_tree_exact_curve_deep_horizon():
    # Point masses keep the leaf budget at 1 however long the horizon; the
    # walk must not nest one call per step.
    arms = (xb.point_mass(0.5), xb.point_mass(1.0))
    curve = xb.exact_min_curve(xb.EpsGreedyMinPolicy(epsilon=0.0), arms, 5000)
    assert np.all(curve.raw == 0.5)


def test_tree_exact_curve_leaf_budget():
    # The budget is widest**t_max leaves, refused before the walk and without
    # building that number: 2**24 > 10**7 >= 2**23. Greedy at eps = 0 locks
    # onto the sure arm, so the walk at the budget is a single path.
    policy = xb.EpsGreedyMinPolicy(epsilon=0.0)
    assert np.all(xb.exact_min_curve(policy, HALF_VS_RISKY, 23).raw == 0.5)
    for t_max in (24, 10**12):
        with pytest.raises(xb.BudgetExceeded):
            xb.exact_min_curve(policy, HALF_VS_RISKY, t_max)


def test_exact_curve_rejects_randomized_policies():
    with pytest.raises(xb.UnknownPolicy):
        xb.exact_min_curve(xb.UniformRandomPolicy(), HALF_VS_RISKY, 4)
    with pytest.raises(xb.UnknownPolicy):
        xb.exact_min_curve(xb.EpsGreedyMinPolicy(epsilon=0.5), HALF_VS_RISKY, 4)


@pytest.mark.parametrize(
    "policy",
    [xb.FixedArmPolicy(arm=3), xb.SequenceThenArmPolicy(prefix=(1, 3), tail_arm=1)],
    ids=["fixed_arm", "arm_sequence"],
)
def test_scripted_arm_outside_bandit_rejected(policy):
    with pytest.raises(xb.UnknownPolicy, match="arms 1..2"):
        xb.exact_min_curve(policy, UNIFORM_VS_SURE, 5)
    with pytest.raises(xb.UnknownPolicy, match="arms 1..2"):
        xb.estimate_min_curve(policy, UNIFORM_VS_SURE, 5, n_trials=3)
    with pytest.raises(xb.UnknownPolicy, match="arms 1..2"):
        xb.run_trajectory(policy, UNIFORM_VS_SURE, 5, seed=0)
    # An arm past the horizon is never played.
    if isinstance(policy, xb.SequenceThenArmPolicy):
        assert xb.exact_min_curve(policy, UNIFORM_VS_SURE, 1).raw[0] == 0.5


def test_adaptive_arm_outside_bandit_rejected():
    # The table plays arm 3 of two once it has seen 0.0: the tree walker,
    # the generic kernel and the sequential reference all reject it.
    tab = xb.TablePolicy(alphabet=(0.0, 0.5, 1.0), mapping={(): 2, (0,): 3, (1,): 1, (2,): 1}, depth=2)
    with pytest.raises(xb.UnknownPolicy, match="plays arm 3, but the bandit has arms 1..2"):
        xb.exact_min_curve(tab, HALF_VS_RISKY, 3)
    with pytest.raises(xb.UnknownPolicy, match="plays arm 3"):
        xb.estimate_min_curve(tab, HALF_VS_RISKY, 3, n_trials=64, seed=0)
    with pytest.raises(xb.UnknownPolicy, match="plays arm 3"):
        for trial in range(64):
            xb.run_trajectory(tab, HALF_VS_RISKY, 3, seed=0, trial=trial)


def test_stream_curve_matches_estimate_bitwise():
    # One chunk, a partial second chunk, and many chunks whose sums are
    # added in the same order on both paths. Uniform costs, so the order of
    # the additions shows in the last bits.
    policy = xb.EpsGreedyMinPolicy(epsilon=0.1)
    t_max, seed = 200, 11
    for n in (CHUNK_TRIALS, 80, 400, 1000):
        est = xb.estimate_min_curve(policy, UNIFORM_VS_SURE, t_max, n_trials=n, seed=seed)
        stream = xb.stream_curve(policy, UNIFORM_VS_SURE, n_trials=n, seed=seed, t_max=t_max)
        assert np.array_equal(stream.raw, est.raw), n
        assert stream.crossed_at is None
        assert stream.t_evaluated == t_max


def test_stream_curve_early_stop_matches_crossing_time():
    policy = xb.EpsGreedyMinPolicy(epsilon=0.1)
    n, t_max, seed, thr = 64, 300, 11, 0.4
    est = xb.estimate_min_curve(policy, HALF_VS_RISKY, t_max, n_trials=n, seed=seed)
    want = xb.crossing_time(est.raw, thr)
    stream = xb.stream_curve(
        policy, HALF_VS_RISKY, n_trials=n, seed=seed, t_max=t_max, stop_threshold=thr
    )
    assert want is not None
    assert stream.crossed_at == want
    assert len(stream.raw) == stream.t_evaluated >= stream.crossed_at


def test_stream_trial_offset_shifts_streams():
    policy = xb.UniformRandomPolicy()
    a = xb.stream_curve(policy, UNIFORM_VS_SURE, n_trials=32, seed=0, t_max=20, trial_offset=0)
    b = xb.stream_curve(policy, UNIFORM_VS_SURE, n_trials=32, seed=0, t_max=20, trial_offset=32)
    assert not np.array_equal(a.raw, b.raw)
    # Offset trials are the same trials the plain engine would label 32..63.
    manual = np.vstack(
        [xb.run_trajectory(policy, UNIFORM_VS_SURE, 20, 0, trial).best_so_far for trial in range(32, 64)]
    ).sum(axis=0) / 32
    assert np.array_equal(b.raw, manual)


def test_crossing_time_semantics():
    vals = np.array([0.9, 0.5, 0.5, 0.2])
    assert xb.crossing_time(vals, 0.5) == 2
    assert xb.crossing_time(vals, 0.1) is None
    assert xb.crossing_time(vals, 0.9) == 1
    # Relative slack absorbs last-ulp misses.
    assert xb.crossing_time(np.array([0.5 + 1e-13]), 0.5) == 1
    # Non-monotone input is handled through the running minimum.
    assert xb.crossing_time(np.array([0.9, 0.1, 0.8]), 0.2) == 2


def test_extreme_regret_exact_bernoulli_then_sure():
    # Sure 1 first, then the {0, 1} coin: curve p^(t-1) vs oracle p^T, so the
    # match time is exactly T + 1 at every horizon.
    p = 0.5
    arms = (xb.make_discrete([(0.0, 1 - p), (1.0, p)]), xb.point_mass(1.0))
    policy = xb.SequenceThenArmPolicy(prefix=(2,), tail_arm=1)
    for horizon in range(1, 21):
        rep = xb.extreme_regret(policy, arms, horizon, mode="exact")
        assert rep.oracle_value == pytest.approx(p**horizon, rel=1e-12)
        assert rep.t_prime == horizon + 1
        assert rep.ratio == pytest.approx((horizon + 1) / horizon, rel=1e-12)
        assert rep.ci_low is None and rep.ci_high is None


def test_extreme_regret_exact_uniform_case():
    policy = xb.SequenceThenArmPolicy(prefix=(2,), tail_arm=1)
    for horizon in (10, 100):
        rep = xb.extreme_regret(policy, UNIFORM_VS_SURE, horizon, mode="exact")
        assert rep.oracle_value == pytest.approx(1.0 / (horizon + 1), rel=1e-12)
        assert rep.t_prime == horizon + 1
        assert rep.ratio == pytest.approx((horizon + 1) / horizon, rel=1e-12)


def test_extreme_regret_never_matching_is_inf():
    rep = xb.extreme_regret(xb.FixedArmPolicy(arm=2), UNIFORM_VS_SURE, 10, mode="exact")
    assert rep.t_prime is None
    assert rep.ratio == math.inf
    assert rep.cap == 4 * 2 * 10


def test_extreme_regret_monte_carlo_with_bootstrap():
    policy = xb.RoundRobinPolicy()
    rep = xb.extreme_regret(
        policy, UNIFORM_VS_SURE, 10, mode="monte_carlo", n_trials=400, seed=3, bootstrap=400
    )
    # Alternating draws need about twice the horizon of uniforms.
    assert rep.t_prime is not None
    assert 15 <= rep.t_prime <= 25
    assert rep.ci_low is not None and rep.ci_high is not None
    assert rep.ci_low <= rep.t_prime <= rep.ci_high
    again = xb.extreme_regret(
        policy, UNIFORM_VS_SURE, 10, mode="monte_carlo", n_trials=400, seed=3, bootstrap=400
    )
    assert again.t_prime == rep.t_prime
    assert (again.ci_low, again.ci_high) == (rep.ci_low, rep.ci_high)


def _dense_bootstrap_crossings(best, threshold, seed, n_boot):
    """Reference bootstrap over the (n_trials x cap) running minima of the
    sequential reference: each resample draws n_trials trial indices and
    averages the drawn trials' curves; returns every resample's crossing
    time."""
    n_trials = best.shape[0]
    slack = 1e-12 * max(1.0, abs(threshold))
    rng = generator_for(seed, BOOT_LANE, 0)
    crossings = np.empty(n_boot)
    for i in range(n_boot):
        picks = rng.integers(0, n_trials, size=n_trials)
        mean = best[picks].mean(axis=0)
        hits = np.nonzero(mean <= threshold + slack)[0]
        crossings[i] = hits[0] + 1 if hits.size else math.inf
    return crossings


@pytest.mark.parametrize(
    "policy, arms, horizon, seed",
    [
        (xb.RoundRobinPolicy(), UNIFORM_VS_SURE, 10, 3),
        (xb.EpsGreedyMinPolicy(epsilon=0.1), UNIFORM_VS_SURE, 20, 5),
        (xb.UniformRandomPolicy(), HALF_VS_RISKY, 4, 6),
    ],
)
def test_bootstrap_ci_matches_dense_resamples(policy, arms, horizon, seed):
    n_trials, n_boot = 300, 200
    cap = 4 * len(arms) * horizon
    oracle = min(xb.expected_min(d, horizon) for d in arms)
    want = _dense_bootstrap_crossings(_trajectory_minima(policy, arms, cap, n_trials, seed), oracle, seed, n_boot)
    lo, hi = np.quantile(want, [0.025, 0.975], method="nearest")
    want_ci = (int(lo) if math.isfinite(lo) else None, int(hi) if math.isfinite(hi) else None)
    _, events = engine._curve_and_events(policy, arms, cap, n_trials, seed, 1, True)
    # Every resample's crossing, not only the two percentiles: the engine
    # hands its crossings to np.quantile.
    seen = []
    quantile = np.quantile
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "quantile", lambda a, *args, **kw: seen.append(np.array(a)) or quantile(a, *args, **kw))
        got_ci = engine._bootstrap_crossing_ci(events, n_trials, cap, oracle, seed, n_boot)
    assert len(seen) == 1
    assert np.array_equal(seen[0], want)
    assert got_ci == want_ci
    rep = xb.extreme_regret(policy, arms, horizon, n_trials=n_trials, seed=seed, bootstrap=n_boot)
    assert (rep.ci_low, rep.ci_high) == want_ci


def test_bootstrap_identical_trials_pin_the_interval():
    # Point masses: every trial has the same curve, so every resample
    # crosses where the mean does.
    arms = (xb.point_mass(0.5), xb.point_mass(0.3))
    rep = xb.extreme_regret(xb.RoundRobinPolicy(), arms, 5, n_trials=50, seed=2, bootstrap=100)
    assert rep.t_prime == 2
    assert rep.ci_low == rep.ci_high == rep.t_prime


def test_bootstrap_two_trials_one_resample():
    rep = xb.extreme_regret(xb.RoundRobinPolicy(), UNIFORM_VS_SURE, 10, n_trials=2, seed=4, bootstrap=1)
    assert type(rep.ci_low) is int and type(rep.ci_high) is int
    # One resample: both percentiles are its crossing.
    assert 1 <= rep.ci_low == rep.ci_high <= rep.cap


def test_bootstrap_resamples_that_never_cross():
    never = xb.extreme_regret(xb.FixedArmPolicy(arm=2), UNIFORM_VS_SURE, 10, n_trials=50, seed=1, bootstrap=50)
    assert never.t_prime is None
    assert (never.ci_low, never.ci_high) == (None, None)
    # Capped at the mean's own crossing, the later-crossing resamples never
    # get there: the upper bound is None, the lower one is not.
    full = xb.extreme_regret(xb.RoundRobinPolicy(), UNIFORM_VS_SURE, 10, n_trials=200, seed=1, bootstrap=200)
    rep = xb.extreme_regret(
        xb.RoundRobinPolicy(), UNIFORM_VS_SURE, 10, n_trials=200, seed=1, bootstrap=200, cap=full.t_prime
    )
    assert rep.t_prime == full.t_prime
    assert rep.ci_low is not None and rep.ci_low <= rep.t_prime
    assert rep.ci_high is None


def _trajectory_events(policy, arms, t_max, n_trials, seed):
    """Reference events: per trial, the steps where best_so_far strictly
    falls (t = 1 included) and the falls, the first one from 0.0."""
    trial_ids, ts, deltas = [], [], []
    for m in range(n_trials):
        best = xb.run_trajectory(policy, arms, t_max, seed, m).best_so_far
        steps = np.concatenate(([0], np.nonzero(best[1:] < best[:-1])[0] + 1))
        trial_ids.append(np.full(len(steps), m, dtype=np.int64))
        ts.append(steps + 1)
        deltas.append(np.diff(best[steps], prepend=0.0))
    return tuple(np.concatenate(column) for column in (trial_ids, ts, deltas))


@pytest.mark.parametrize(
    ("policy", "arms"),
    [
        (xb.EpsGreedyMinPolicy(epsilon=0.1), UNIFORM_VS_SURE),
        (xb.UniformRandomPolicy(), UNIFORM_VS_SURE),
        (xb.EpsGreedyMinPolicy(epsilon=0.1), LATE_LOW),
        (xb.UniformRandomPolicy(), LATE_LOW),
    ],
    ids=["policy0", "policy1", "policy0-late_low", "policy1-late_low"],
)
def test_columnar_events_match_trajectories(policy, arms):
    # 70 trials span two chunks; the cap spans two blocks, so a trial's
    # events come from both and are merged in time order. On LATE_LOW most
    # trials are finished after the first block and add no event after it.
    n_trials, t_max, seed = CHUNK_TRIALS + 6, BLOCK_STEPS + 300, 3
    _, events = engine._curve_and_events(policy, arms, t_max, n_trials, seed, 1, True)
    want = _trajectory_events(policy, arms, t_max, n_trials, seed)
    for got, ref in zip(events, want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    if arms is UNIFORM_VS_SURE:
        # Every trial has an event at t = 1, so one past the first block
        # means a trial with events from both blocks.
        assert np.any(events[1] > BLOCK_STEPS)


def test_extreme_regret_honors_explicit_oracle_and_cap():
    rep = xb.extreme_regret(
        xb.FixedArmPolicy(arm=1), UNIFORM_VS_SURE, 5, oracle_value=0.25, mode="exact", cap=3
    )
    # E[min of t uniforms] = 1/(t+1) <= 1/4 first at t = 3.
    assert rep.t_prime == 3
    assert rep.cap == 3
    with pytest.raises(ValueError):
        xb.extreme_regret(xb.FixedArmPolicy(arm=1), UNIFORM_VS_SURE, 5, cap=0)


def test_exact_curve_over_single_armed_oracle():
    policy = xb.SequenceThenArmPolicy(prefix=(2,), tail_arm=1)
    value = xb.exact_min_curve(policy, UNIFORM_VS_SURE, 10).raw[-1]
    oracle = xb.single_armed_oracle(UNIFORM_VS_SURE, 10)
    assert value == pytest.approx(0.1, rel=1e-12)
    assert oracle.value == pytest.approx(1.0 / 11.0, rel=1e-12)
    assert oracle.arm == 1


def test_run_trajectory_replays_through_policy_api():
    policy = xb.EpsGreedyMinPolicy(epsilon=0.3)
    arms = HALF_VS_RISKY
    seed, trial, horizon = 7, 2, 40
    trace = xb.run_trajectory(policy, arms, horizon, seed, trial)
    assert np.array_equal(trace.best_so_far, np.minimum.accumulate(trace.values))
    state = policy.initial_state(len(arms))
    for t in range(1, horizon + 1):
        u = xb.RngStream(seed=seed, trial=trial, t=t, lane=POLICY_LANE).uniform()
        assert policy.choose(state, t, u) == trace.arms[t - 1]
        state = policy.observe(state, int(trace.arms[t - 1]), float(trace.values[t - 1]))
    assert state.best_per_arm == tuple(trace.values[trace.arms == k].min(initial=math.inf) for k in (1, 2))
    assert min(state.best_per_arm) == trace.best_so_far[-1]
