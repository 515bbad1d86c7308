"""Policy behavior: determinism, memory updates, baseline registry."""

import dataclasses
import math

import numpy as np
import pytest

import extremebandits as xb
from extremebandits.rng import POLICY_LANE


def test_round_robin_cycle():
    pol = xb.RoundRobinPolicy()
    st = pol.initial_state(2)
    assert pol.choose(st, 1) == 1
    assert pol.choose(st, 2) == 2
    assert pol.choose(st, 5) == 1
    script = pol.arm_script(3, 7)
    assert list(script) == [1, 2, 3, 1, 2, 3, 1]
    assert pol.is_deterministic


def test_observe_is_pure():
    pol = xb.RoundRobinPolicy()
    st0 = pol.initial_state(2)
    st1 = pol.observe(st0, arm=1, value=0.7)
    assert st0.best_per_arm == (math.inf, math.inf) and st0.K == 2
    assert st1.best_per_arm == (0.7, math.inf)
    st2 = pol.observe(st1, arm=2, value=0.2)
    assert st2.best_per_arm == (0.7, 0.2)
    assert pol.observe(st2, arm=1, value=0.9).best_per_arm == (0.7, 0.2)  # a worse cost keeps the best
    assert st1.best_per_arm == (0.7, math.inf)  # unchanged
    assert [f.name for f in dataclasses.fields(st2)] == ["best_per_arm", "memory"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        st2.best_per_arm = ()


def test_uniform_random_uses_single_coin():
    pol = xb.UniformRandomPolicy()
    st = pol.initial_state(4)
    u = xb.RngStream(seed=0, trial=0, t=1, lane=POLICY_LANE).uniform()
    assert pol.choose(st, 1, u) == min(int(u * 4), 3) + 1
    assert not pol.is_deterministic


@pytest.mark.parametrize("policy", [xb.UniformRandomPolicy(), xb.EpsGreedyMinPolicy(epsilon=1.0)])
def test_coin_arm_range_and_formula(policy):
    # The arm a coin picks is min(int(u K), K - 1) + 1, in 1..K for every
    # coin up to the largest double below 1, which picks arm K.
    last = math.nextafter(1.0, 0.0)
    coins = [0.0, last, *xb.uniform_block(1, POLICY_LANE, 0, 50)]
    for K in range(1, 65):
        st = policy.initial_state(K)
        for u in coins:
            arm = policy.choose(st, 1, u)
            assert 1 <= arm <= K
            assert arm == min(int(u * K), K - 1) + 1
        assert policy.choose(st, 1, last) == K


def test_eps_greedy_full_exploration_matches_uniform():
    # epsilon=1 must consume the coin identically to uniform_random.
    eps = xb.EpsGreedyMinPolicy(epsilon=1.0)
    uni = xb.UniformRandomPolicy()
    arms = (xb.uniform01(), xb.uniform01(), xb.uniform01())
    for trial in range(6):
        tr_e = xb.run_trajectory(eps, arms, horizon=20, seed=3, trial=trial)
        tr_u = xb.run_trajectory(uni, arms, horizon=20, seed=3, trial=trial)
        assert np.array_equal(tr_e.arms, tr_u.arms)
        assert np.array_equal(tr_e.values, tr_u.values)


def test_eps_greedy_zero_is_pure_exploit():
    pol = xb.EpsGreedyMinPolicy(epsilon=0.0)
    assert pol.is_deterministic
    st = pol.initial_state(2)
    st = pol.observe(st, 1, 0.9)
    st = pol.observe(st, 2, 0.1)
    # No rng needed when epsilon is zero.
    assert pol.choose(st, 3) == 2
    st = pol.observe(st, 2, 0.05)
    assert pol.choose(st, 4) == 2


def test_eps_greedy_tie_breaks_low():
    pol = xb.EpsGreedyMinPolicy(epsilon=0.0)
    st = pol.initial_state(3)
    st = pol.observe(st, 2, 0.5)
    st = pol.observe(st, 3, 0.5)
    # Unseen arm has inf; between arms 2 and 3 the lower index wins.
    assert pol.choose(st, 3) == 2


def test_eps_greedy_validates_epsilon():
    with pytest.raises(xb.UnknownPolicy):
        xb.EpsGreedyMinPolicy(epsilon=1.5)
    with pytest.raises(xb.UnknownPolicy):
        xb.EpsGreedyMinPolicy(epsilon=-0.1)
    # Real numbers only: a bool would pass the range check as 0 or 1.
    for bad in (True, "0.1", None):
        with pytest.raises(xb.UnknownPolicy, match="epsilon must be a real number"):
            xb.EpsGreedyMinPolicy(epsilon=bad)
        with pytest.raises(xb.UnknownPolicy, match="q must be a real number"):
            xb.QuantileThresholdPolicy(q=bad)
    assert xb.EpsGreedyMinPolicy(epsilon=1).epsilon == 1
    assert xb.QuantileThresholdPolicy(q=np.float64(0.5)).q == 0.5


def test_quantile_threshold_schedule_and_score():
    pol = xb.QuantileThresholdPolicy(q=0.5, explore_every=3)
    assert pol.is_deterministic
    st = pol.initial_state(2)
    # t=1 explores arm 1, t=4 explores arm 2, t=7 arm 1 again.
    assert pol.choose(st, 1) == 1
    st = pol.observe(st, 1, 0.8)
    assert pol.choose(st, 2) == 1  # arm 2 unseen -> inf, arm 1 has 0.8? no:
    # exploit step: arm 1 score is its median 0.8, arm 2 is inf -> arm 1.
    st = pol.observe(st, 1, 0.2)
    # arm 1 samples (0.2, 0.8): ceil(0.5*2)=1 -> first order stat 0.2.
    assert pol.choose(st, 3) == 1
    assert pol.choose(st, 4) == 2  # explore slot -> arm (4-1)//3 % 2 + 1 = 2
    st = pol.observe(st, 2, 0.1)
    assert pol.choose(st, 5) == 2  # 0.1 beats 0.2


def test_quantile_memory_is_sorted():
    pol = xb.QuantileThresholdPolicy(q=0.25, explore_every=10)
    st = pol.initial_state(2)
    for v in (0.9, 0.1, 0.5):
        st = pol.observe(st, 1, v)
    assert st.memory[0] == (0.1, 0.5, 0.9)
    assert st.memory[1] == ()


def test_fixed_arm_and_sequence_policies():
    fixed = xb.FixedArmPolicy(arm=2)
    assert list(fixed.arm_script(3, 4)) == [2, 2, 2, 2]
    seq = xb.SequenceThenArmPolicy(prefix=(2,), tail_arm=1)
    assert list(seq.arm_script(2, 5)) == [2, 1, 1, 1, 1]
    st = seq.initial_state(2)
    assert seq.choose(st, 1) == 2
    assert seq.choose(st, 2) == 1
    with pytest.raises(xb.UnknownPolicy):
        xb.FixedArmPolicy(arm=0)


def test_table_policy_depth_two():
    # Alphabet {a, 1}: react to the first two observations, then settle.
    tab = xb.TablePolicy(
        alphabet=(0.05, 1.0),
        mapping={(): 1, (0,): 1, (1,): 2},
        depth=2,
        default_arm=2,
    )
    st = tab.initial_state(2)
    assert tab.choose(st, 1) == 1
    st = tab.observe(st, 1, 1.0)  # alphabet index 1
    assert tab.choose(st, 2) == 2
    st = tab.observe(st, 2, 0.05)  # history now length 2 -> default
    assert tab.choose(st, 3) == 2
    assert tab.is_deterministic


def test_table_policy_off_alphabet_absorbs():
    tab = xb.TablePolicy(
        alphabet=(0.05, 1.0),
        mapping={(): 2, (0,): 1, (1,): 1},
        depth=2,
        default_arm=1,
    )
    st = tab.initial_state(2)
    st = tab.observe(st, 2, 0.3)  # not in alphabet
    assert tab.choose(st, 2) == 1
    st = tab.observe(st, 1, 0.05)
    assert tab.choose(st, 3) == 1  # stays on default forever


def test_table_policy_requires_total_mapping():
    # Arms above K cannot be rejected at construction (K is unknown until a
    # state exists), but totality over the history domain is enforced.
    with pytest.raises(xb.UnknownPolicy):
        xb.TablePolicy(
            alphabet=(0.05, 1.0),
            mapping={(): 1, (0,): 1},  # missing (1,)
            depth=2,
        )
    # Missing histories are counted, not listed. Keys outside the domain (an
    # index past the alphabet, a history as long as the depth) count for none.
    with pytest.raises(xb.UnknownPolicy, match=r"missing 1 histories, e\.g\. \(1,\)$"):
        xb.TablePolicy(alphabet=(0.05, 1.0), mapping={(): 1, (0,): 1, (5,): 1, (0, 0): 1}, depth=2)
    # (3**40 - 1) / 2 histories.
    with pytest.raises(xb.UnknownPolicy, match=r"missing 6078832729528464400 histories, e\.g\. \(\)$"):
        xb.TablePolicy(alphabet=(0.5, 0.0, 1.0), depth=40)
    with pytest.raises(xb.UnknownPolicy, match=r"missing 999999999998 histories, e\.g\. \(0, 0\)$"):
        xb.TablePolicy(alphabet=(0.5,), mapping={(): 1, (0,): 1}, depth=10**12)
    with pytest.raises(xb.UnknownPolicy, match="over 2\\*\\*64 histories"):
        xb.TablePolicy(alphabet=(0.5, 1.0), depth=65)


def test_enumerate_tables_counts():
    tables = list(xb.enumerate_tables(2, (0.5, 1.0), 2))
    # Nodes: (), (0,), (1,) -> 2^3 = 8 distinct deterministic reactions.
    assert len(tables) == 8
    assert len({tuple(sorted(t.mapping.items())) for t in tables}) == 8
    assert all(isinstance(t, xb.TablePolicy) for t in tables)
    singles = list(xb.enumerate_tables(3, (1.0,), 1))
    assert len(singles) == 3


def test_baseline_registry():
    for name in ("round_robin", "uniform_random", "eps_greedy_min", "quantile_threshold"):
        pol = xb.baseline(name)
        assert pol.name == name
    pol = xb.baseline("eps_greedy_min", {"epsilon": 0.25})
    assert pol.epsilon == 0.25
    with pytest.raises(xb.UnknownPolicy):
        xb.baseline("ucb")
    with pytest.raises(xb.UnknownPolicy):
        xb.baseline("round_robin", {"bogus": 1})
    with pytest.raises(xb.UnknownPolicy):
        xb.baseline("fixed_arm")  # constructor exists but is not a baseline


def test_make_policy_covers_scripted_families():
    fixed = xb.make_policy("fixed_arm", {"arm": 2})
    assert isinstance(fixed, xb.FixedArmPolicy)
    seq = xb.make_policy("arm_sequence", {"prefix": [2], "tail_arm": 1})
    assert seq.prefix == (2,)
    with pytest.raises(xb.UnknownPolicy):
        xb.make_policy("nope", {})


def test_policy_record_roundtrip():
    for pol in (
        xb.RoundRobinPolicy(),
        xb.EpsGreedyMinPolicy(epsilon=0.3),
        xb.QuantileThresholdPolicy(q=0.1, explore_every=5),
        xb.FixedArmPolicy(arm=2),
        xb.SequenceThenArmPolicy(prefix=(2, 1), tail_arm=2),
    ):
        rec = pol.to_record()
        back = xb.make_policy(rec["name"], rec.get("params", {}))
        assert back.to_record() == rec


def test_table_record_roundtrip():
    tab = xb.TablePolicy(
        alphabet=(0.05, 1.0),
        mapping={(): 1, (0,): 2, (1,): 1},
        depth=2,
        default_arm=2,
    )
    rec = tab.to_record()
    back = xb.table_from_record(rec["params"])
    assert back.mapping == tab.mapping
    assert back.alphabet == tab.alphabet
    assert back.depth == tab.depth
    assert back.default_arm == tab.default_arm
