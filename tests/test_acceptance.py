"""Acceptance gate: twelve headline behaviors, one printed verdict each.

Run with plain pytest; each criterion prints an "ACCEPTANCE nn name: PASS"
line straight to the terminal (capture is bypassed) so the gate's status is
readable at a glance even inside a larger suite.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import extremebandits as xb


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def announce(number, name):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"ACCEPTANCE {number:02d} {name}: FAIL", flush=True)
            raise
        with capfd.disabled():
            print(f"ACCEPTANCE {number:02d} {name}: PASS", flush=True)

    return announce


UNIFORM_VS_SURE = (xb.uniform01(), xb.point_mass(1.0))


def test_01_rule_of_59(criterion):
    with criterion(1, "rule_of_59"):
        start = time.perf_counter()
        exact = xb.extreme_quantile_prob(0.05, 59)
        assert exact == pytest.approx(0.9515054747505768, rel=1e-15)
        assert exact >= 0.95
        # 58 draws are not enough: 59 is the minimal count.
        assert xb.extreme_quantile_prob(0.05, 58) < 0.95
        # Monte Carlo confirmation with an independent generator.
        n = 100_000
        rng = np.random.default_rng(59)
        mins = rng.random((n, 59)).min(axis=1)
        phat = float((mins <= 0.05).mean())
        se = math.sqrt(phat * (1.0 - phat) / n)
        assert abs(phat - exact) <= 3.0 * se
        assert time.perf_counter() - start < 1.0


def test_02_minimum_quantile_distribution(criterion):
    with criterion(2, "minimum_quantile_distribution"):
        start = time.perf_counter()
        reports = xb.run_check("beta_law", seed=0)
        assert len(reports) == 3
        assert [r.params["horizon"] for r in reports] == [1, 10, 59]
        assert all(r.params["n_trials"] == 100_000 for r in reports)
        assert all(r.passed for r in reports)
        assert time.perf_counter() - start < 10.0


def test_03_sure_then_coin_clock(criterion):
    with criterion(3, "sure_then_coin_clock"):
        p = 0.5
        arms = (xb.make_discrete([(0.0, 1 - p), (1.0, p)]), xb.point_mass(1.0))
        policy = xb.SequenceThenArmPolicy(prefix=(2,), tail_arm=1)
        value = xb.exact_min_curve(policy, arms, 10).raw[-1]
        assert value / xb.single_armed_oracle(arms, 10).value == pytest.approx(1.0 / p, rel=1e-12)
        for horizon in range(1, 21):
            rep = xb.extreme_regret(policy, arms, horizon, mode="exact")
            assert rep.t_prime == horizon + 1
            assert rep.ratio == pytest.approx((horizon + 1) / horizon, rel=1e-12)


def test_04_sure_then_uniform_clock(criterion):
    with criterion(4, "sure_then_uniform_clock"):
        policy = xb.SequenceThenArmPolicy(prefix=(2,), tail_arm=1)
        for horizon in (10, 100):
            rep = xb.extreme_regret(policy, UNIFORM_VS_SURE, horizon, mode="exact")
            assert rep.oracle_value == pytest.approx(1.0 / (horizon + 1), rel=1e-12)
            assert rep.t_prime == horizon + 1
            assert rep.ratio == pytest.approx((horizon + 1) / horizon, rel=1e-12)
        # Monte Carlo estimate of the same curve agrees within 3 SE at T=10.
        curve = xb.estimate_min_curve(policy, UNIFORM_VS_SURE, 10, n_trials=4000, seed=1)
        assert abs(curve.raw[9] - 0.1) <= 3.0 * curve.se[9]


def test_05_sure_half_vs_risky_benchmarks(criterion):
    with criterion(5, "sure_half_vs_risky_benchmarks"):
        arms = (xb.point_mass(0.5), xb.make_discrete([(0.0, 0.25), (1.0, 0.75)]))
        assert xb.expected_min(arms[0], 2) == pytest.approx(0.5, rel=1e-12)
        assert xb.expected_min(arms[1], 2) == pytest.approx(9.0 / 16.0, rel=1e-12)
        assert xb.optimal_oracle_value(arms, 2) == pytest.approx(0.375, rel=1e-12)
        assert xb.greedy_oracle_value(arms, 2, mode="exact") == pytest.approx(0.375, rel=1e-12)
        assert xb.single_armed_oracle(arms, 2) == xb.OracleResult(1, 0.5)
        res3 = xb.single_armed_oracle(arms, 3)
        assert res3.arm == 2
        res5 = xb.single_armed_oracle(arms, 5)
        assert res5.arm == 2
        assert res5.value == pytest.approx(0.2373046875, rel=1e-12)


def test_06_two_point_scan(criterion):
    with criterion(6, "two_point_scan"):
        start = time.perf_counter()
        for horizon in (100, 1000, 10_000):
            res = xb.best_arm_scan(horizon)
            closed = 1.0 - (horizon + 1.0) ** (-1.0 / horizon)
            assert abs(res.s_star - closed) <= 1e-6
            assert res.lower_bound <= res.s_star <= res.upper_bound
        assert time.perf_counter() - start < 5.0


def test_07_mass_sequence_properties(criterion):
    with criterion(7, "mass_sequence_properties"):
        rep = xb.check_lemma5()
        assert rep.passed
        labels = [s["label"] for s in rep.details["sequences"]]
        assert labels == ["canonical K=2", "canonical K=3", "canonical K=5", "desk K=2"]
        assert all(s["passed"] for s in rep.details["sequences"])


def test_08_single_arm_drops_fast(criterion):
    with criterion(8, "single_arm_drops_fast"):
        start = time.perf_counter()
        rep = xb.check_lemma6()
        assert rep.passed
        assert rep.details["mode"] == "exact"
        assert rep.details["horizon"] == 11940
        assert len(rep.details["per_assignment"]) == 4
        assert rep.details["worst_margin"] > 0
        assert time.perf_counter() - start < 1.0


def test_09_product_average_and_envelope(criterion):
    with criterion(9, "product_average_and_envelope"):
        rep10 = xb.check_lemma10(n_cases=1000, seed=0)
        assert rep10.passed
        assert rep10.details["n_pass"] == 1000
        rep11 = xb.check_lemma11()
        assert rep11.passed
        assert rep11.details["worst_margin"] >= 0.0


def test_10_path_set_exchange(criterion):
    with criterion(10, "path_set_exchange"):
        start = time.perf_counter()
        rep = xb.check_lemma7_8(t_small=2, tables="exhaustive")
        assert rep.passed
        assert rep.details["path_set_identity"]
        assert rep.details["count_form_matches"]
        assert rep.details["min_average_margin"] >= 0.0
        assert time.perf_counter() - start < 60.0


def test_11_hard_instance_slowdown(criterion):
    with criterion(11, "hard_instance_slowdown"):
        start = time.perf_counter()
        policies = [xb.baseline("round_robin"), xb.baseline("eps_greedy_min", {"epsilon": 0.1})]
        for policy in policies:
            cor = xb.check_corollary9(policy=policy, n_assignments=200, n_trials=400, seed=0)
            assert cor.passed, policy.name
            assert cor.details["fraction"] >= cor.details["floor"]
            thm = xb.demonstrate_theorem1(policy=policy, n_assignments=200, n_trials=400, seed=0)
            assert thm.passed, policy.name
            assert thm.details["fraction"] >= thm.details["floor"]
            # Every flagged assignment keeps its match clock past the floor.
            for event, ratio in zip(thm.details["events"], thm.details["ratios"]):
                if event:
                    r = math.inf if ratio is None else ratio
                    assert r >= thm.details["ratio_floor"]
        assert time.perf_counter() - start < 900.0


def _run_cli(args, out_dir, workers):
    env = dict(os.environ)
    env["EXTREMEBANDITS_WORKERS"] = str(workers)
    proc = subprocess.run(
        [sys.executable, "-m", "extremebandits.cli", *args, "--out-dir", str(out_dir)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def _assert_dirs_byte_identical(a, b):
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b and names_a
    for name in names_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_12_worker_count_invisible_in_artifacts(criterion, tmp_path):
    with criterion(12, "worker_count_invisible_in_artifacts"):
        simulate = [
            "simulate",
            "--bandit-preset",
            "half_vs_risky",
            "--policy",
            "eps_greedy_min",
            "--epsilon",
            "0.1",
            "--horizon",
            "200",
            "--trials",
            "256",
            "--seed",
            "9",
        ]
        regret = [
            "regret",
            "--bandit-preset",
            "half_vs_risky",
            "--policy",
            "eps_greedy_min",
            "--epsilon",
            "0.1",
            "--mode",
            "monte_carlo",
            "--horizon",
            "30",
            "--trials",
            "256",
            "--bootstrap",
            "500",
            "--seed",
            "9",
        ]
        for label, args in (("sim", simulate), ("reg", regret)):
            d1 = tmp_path / f"{label}_w1"
            d8 = tmp_path / f"{label}_w8"
            _run_cli(args, d1, workers=1)
            _run_cli(args, d8, workers=8)
            _assert_dirs_byte_identical(d1, d8)
        # The stored config names the experiment, not the execution.
        payload = json.loads((tmp_path / "sim_w1" / "config.json").read_text())
        assert "workers" not in payload["config"]
