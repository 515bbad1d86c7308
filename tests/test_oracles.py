"""Benchmark values: single-arm, greedy lookahead, full DP, two-point scan.

The DP is cross-checked against an exhaustive search over every
deterministic reactive policy, evaluated by a from-scratch outcome-tree
walker that shares no code with the DP or the simulation engine.
"""

import math

import numpy as np
import pytest

import extremebandits as xb
from extremebandits import oracles
from extremebandits.distributions import icdf_arrays
from extremebandits.rng import ARM_LANE, TrialStreams


def brute_policy_value(policy, arms, horizon):
    """Expected minimum by enumerating all outcome paths (policy API only)."""

    def rec(state, t, logp, best):
        if t > horizon:
            return math.exp(logp) * best
        arm = policy.choose(state, t)
        d = arms[arm - 1]
        total = 0.0
        for v, lp in zip(d.support, d.log_probs):
            total += rec(policy.observe(state, arm, v), t + 1, logp + lp, min(best, v))
        return total

    return rec(policy.initial_state(len(arms)), 1, 0.0, math.inf)


HALF_VS_RISKY = (
    xb.point_mass(0.5),
    xb.make_discrete([(0.0, 0.25), (1.0, 0.75)]),
)


def test_single_armed_oracle_matches_expected_min():
    arms = HALF_VS_RISKY
    for horizon in (1, 2, 3, 5):
        res = xb.single_armed_oracle(arms, horizon)
        per_arm = [xb.expected_min(d, horizon) for d in arms]
        assert res.value == min(per_arm)
        assert res.arm == per_arm.index(min(per_arm)) + 1


def test_single_armed_oracle_frozen_switch():
    # Risky arm overtakes the sure 1/2 from the third pull on.
    assert xb.single_armed_oracle(HALF_VS_RISKY, 2) == xb.OracleResult(1, 0.5)
    res3 = xb.single_armed_oracle(HALF_VS_RISKY, 3)
    assert res3.arm == 2
    assert res3.value == pytest.approx(0.75**3, rel=1e-12)
    res5 = xb.single_armed_oracle(HALF_VS_RISKY, 5)
    assert res5.value == pytest.approx(0.2373046875, rel=1e-12)


def test_single_armed_oracle_tie_breaks_low():
    arms = (xb.point_mass(0.4), xb.point_mass(0.4))
    assert xb.single_armed_oracle(arms, 3).arm == 1


def test_optimal_matches_exhaustive_depth2():
    arms = (
        xb.make_discrete([(0.1, 0.3), (0.9, 0.7)]),
        xb.make_discrete([(0.3, 0.8), (0.6, 0.2)]),
    )
    horizon = 2
    alphabet = sorted({v for d in arms for v in d.support})
    best = min(
        brute_policy_value(tab, arms, horizon)
        for tab in xb.enumerate_tables(2, alphabet, horizon)
    )
    assert xb.optimal_oracle_value(arms, horizon) == pytest.approx(best, rel=1e-12)


def test_optimal_matches_exhaustive_depth3():
    # Shared support values keep the reaction alphabet at three symbols,
    # so all 2^13 tables stay enumerable.
    arms = (
        xb.make_discrete([(0.2, 0.5), (0.8, 0.5)]),
        xb.make_discrete([(0.4, 0.6), (0.8, 0.4)]),
    )
    horizon = 3
    alphabet = sorted({v for d in arms for v in d.support})
    best = min(
        brute_policy_value(tab, arms, horizon)
        for tab in xb.enumerate_tables(2, alphabet, horizon)
    )
    assert xb.optimal_oracle_value(arms, horizon) == pytest.approx(best, rel=1e-12)


def test_optimal_frozen_value_half_vs_risky():
    assert xb.optimal_oracle_value(HALF_VS_RISKY, 2) == pytest.approx(0.375, rel=1e-12)


def test_oracle_ordering():
    cases = [
        HALF_VS_RISKY,
        (
            xb.make_discrete([(0.1, 0.3), (0.9, 0.7)]),
            xb.make_discrete([(0.3, 0.8), (0.6, 0.2)]),
        ),
        (
            xb.make_discrete([(0.05, 0.05), (1.0, 0.95)]),
            xb.make_discrete([(0.3, 0.5), (0.7, 0.5)]),
            xb.point_mass(0.45),
        ),
    ]
    for arms in cases:
        for horizon in (1, 2, 4, 7):
            optimal = xb.optimal_oracle_value(arms, horizon)
            greedy = xb.greedy_oracle_value(arms, horizon, mode="exact")
            single = xb.single_armed_oracle(arms, horizon).value
            assert optimal <= greedy + 1e-12
            assert greedy <= single + 1e-12


def test_greedy_step_frozen():
    # Fresh start: lowest mean wins. Holding 1/2: the risky arm's capped
    # expectation 3/8 beats the sure arm's 1/2.
    assert xb.greedy_oracle_step(HALF_VS_RISKY, None) == 1
    assert xb.greedy_oracle_step(HALF_VS_RISKY, 0.5) == 2
    assert xb.greedy_oracle_step(HALF_VS_RISKY, 0.0) == 1  # ties -> lowest


def test_greedy_equals_optimal_at_horizon2():
    # One lookahead step is exactly the DP's last stage, so they agree at T=2.
    assert xb.greedy_oracle_value(HALF_VS_RISKY, 2, mode="exact") == pytest.approx(
        0.375, rel=1e-12
    )


def test_greedy_monte_carlo_agrees_with_exact():
    arms = (
        xb.make_discrete([(0.1, 0.3), (0.9, 0.7)]),
        xb.make_discrete([(0.3, 0.8), (0.6, 0.2)]),
    )
    exact = xb.greedy_oracle_value(arms, 5, mode="exact")
    n = 40_000
    mc = xb.greedy_oracle_value(arms, 5, mode="monte_carlo", n_trials=n, seed=7)
    # Values live in [0.1, 0.9]; 3 sigma with the worst-case spread.
    assert abs(mc - exact) <= 3 * 0.5 / math.sqrt(n)


def _stepped_greedy_monte_carlo(arms, horizon, n_trials, seed):
    """Reference: the greedy Monte Carlo oracle reading one column per step."""
    support, idx, _ = oracles._joint_support(arms)
    choices = oracles._greedy_choices(arms, support)
    cums = [icdf_arrays(d)[1] for d in arms]
    streams = TrialStreams(seed, ARM_LANE, range(n_trials))
    state = np.full(n_trials, len(support), dtype=np.intp)
    for _ in range(horizon):
        u = streams.next_block(1)[:, 0]
        arm_of = choices[state]
        new_idx = np.empty(n_trials, dtype=np.intp)
        for k in range(len(arms)):
            mask = arm_of == k + 1
            if np.any(mask):
                new_idx[mask] = idx[k][np.searchsorted(cums[k], u[mask], side="left")]
        np.minimum(state, new_idx, out=state)
    return float(support[state].mean())


@pytest.mark.parametrize("cells", [50 * 7, 50 * 40])
def test_greedy_monte_carlo_blocks_match_stepped_reader(monkeypatch, cells):
    # 50 trials: blocks of 7 steps (off the four-word Philox grid) or 40;
    # the horizon crosses a block boundary either way.
    monkeypatch.setattr(oracles, "GREEDY_BLOCK_CELLS", cells)
    # Rare low atoms keep records coming, so every step moves the value.
    rare = (xb.make_discrete([(0.0, 0.01), (0.5, 0.99)]), xb.make_discrete([(0.2, 0.05), (0.7, 0.95)]))
    for arms in (xb.build_tuple(xb.desk_sequence(2), xb.BAssignment((1, 2))).arms, rare):
        for horizon in (45, 60):
            got = xb.greedy_oracle_value(arms, horizon, mode="monte_carlo", n_trials=50, seed=4)
            assert got == _stepped_greedy_monte_carlo(arms, horizon, 50, 4)


def test_greedy_monte_carlo_is_deterministic():
    arms = HALF_VS_RISKY
    a = xb.greedy_oracle_value(arms, 4, mode="monte_carlo", n_trials=500, seed=3)
    b = xb.greedy_oracle_value(arms, 4, mode="monte_carlo", n_trials=500, seed=3)
    assert a == b


def test_greedy_mode_validation():
    with pytest.raises(ValueError):
        xb.greedy_oracle_value(HALF_VS_RISKY, 2, mode="typo")


def test_dp_rejects_continuous_arms():
    with pytest.raises(xb.ContinuousArm):
        xb.optimal_oracle_value((xb.uniform01(), xb.point_mass(1.0)), 3)
    with pytest.raises(xb.ContinuousArm):
        xb.greedy_oracle_value((xb.uniform01(),), 3, mode="exact")


def test_dp_budget_guards():
    big = xb.make_discrete([((i + 1) / 100.0, 1.0 / 65) for i in range(65)])
    with pytest.raises(xb.BudgetExceeded):
        xb.optimal_oracle_value((big,), 2)
    with pytest.raises(xb.BudgetExceeded):
        xb.optimal_oracle_value(HALF_VS_RISKY, 100_001)


def test_dp_rejects_subfloat_masses():
    seq = xb.canonical_sequence(2, 2)
    tup = xb.build_tuple(seq, xb.BAssignment((1, 2)))
    ok = xb.optimal_oracle_value(tup.arms, 2)  # depth 2 is representable
    assert 0.0 < ok <= 1.0
    tiny = xb.make_discrete_from_logs([(0.01, -800.0), (1.0, math.log1p(-math.exp(-800.0)))])
    with pytest.raises(xb.PropertyViolation):
        xb.optimal_oracle_value((tiny,), 2)


def test_scan_matches_closed_form_minimizer():
    for horizon in (100, 1000, 10_000):
        res = xb.best_arm_scan(horizon)
        closed = 1.0 - (horizon + 1.0) ** (-1.0 / horizon)
        assert abs(res.s_star - closed) <= 1e-6
        assert res.value == pytest.approx(
            xb.two_point_commit_value(closed, horizon), rel=1e-9
        )
        assert res.lower_bound <= res.s_star <= res.upper_bound


def test_scan_frozen_at_100():
    res = xb.best_arm_scan(100)
    assert res.s_star == pytest.approx(0.045102434872307216, abs=1e-7)


def test_scan_bounds_nan_at_horizon1():
    res = xb.best_arm_scan(1)
    assert math.isnan(res.upper_bound) and math.isnan(res.lower_bound)
    # At T=1 the objective s + (1-s)^2 has its minimum at s = 1/2.
    assert res.s_star == pytest.approx(0.5, abs=1e-6)


def test_two_point_value_formula():
    assert xb.two_point_commit_value(0.25, 3) == pytest.approx(
        0.25 + 0.75**4, rel=1e-15
    )
