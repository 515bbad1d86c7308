"""Inequality checks: each one re-derived here at reduced size."""

import math

import pytest
from scipy.special import logsumexp

import extremebandits as xb
from extremebandits.verification import lemma10_margin


def test_beta_law_check_passes():
    rep = xb.check_beta_law(horizon=59, n_trials=20_000, seed=0)
    assert rep.passed
    assert rep.details["ks_statistic"] < rep.details["ks_threshold"]
    assert rep.details["mean"] == pytest.approx(1.0 / 60.0, abs=4 * rep.details["mean_se"])


def test_beta_law_check_horizon_one():
    # T=1 reduces to plain uniforms; a sanity anchor for the transform.
    rep = xb.check_beta_law(horizon=1, n_trials=20_000, seed=1)
    assert rep.passed
    assert rep.details["mean"] == pytest.approx(0.5, abs=0.02)


def test_lemma5_default_and_failing_sequences():
    assert xb.check_lemma5().passed
    bad = [
        ("flat", xb.user_sequence(2, [0.3, 0.3])),
        ("slow-decay", xb.user_sequence(2, [0.3, 0.2])),
    ]
    rep = xb.check_lemma5(bad)
    assert not rep.passed
    flat, slow = rep.details["sequences"]
    assert flat["label"] == "flat" and not flat["passed"]
    assert not flat["decreasing"]
    assert flat["margins_d"][1] < 0
    assert slow["decreasing"]
    assert slow["margins_b"][0] < 0  # 0.3 > 1/(8K)


def test_lemma6_exact_mode():
    rep = xb.check_lemma6()
    assert rep.passed
    d = rep.details
    assert d["mode"] == "exact"
    assert d["horizon"] == 11940
    assert len(d["per_assignment"]) == 4
    assert d["worst_margin"] > 0
    assert d["proof_margin"] > 0
    for row in d["per_assignment"]:
        assert row["oracle_value"] < d["threshold"]


def test_lemma6_analytic_fallback():
    rep = xb.check_lemma6(xb.canonical_sequence(2, 4), i=4)
    assert rep.passed
    assert rep.details["mode"] == "analytic"
    assert rep.details["ceiling_margin"] >= 0
    log_alpha = xb.canonical_alpha(2, 4)
    assert rep.details["log_horizon"] == pytest.approx(
        math.log(-log_alpha) - log_alpha, rel=1e-12
    )


def test_lemma7_8_exhaustive():
    rep = xb.check_lemma7_8(t_small=2, tables="exhaustive")
    assert rep.passed
    d = rep.details
    assert d["path_set_identity"] and d["count_form_matches"]
    assert d["min_average_margin"] >= 0
    assert d["min_markov_margin"] >= -1e-15
    # 8 reaction tables x 2 assignments fixing the deep atom on arm 1.
    assert d["n_cases"] == 16


def test_lemma7_8_sampled_and_budget():
    rep = xb.check_lemma7_8(t_small=3, tables="sampled", n_sampled=20, seed=1)
    assert rep.passed
    with pytest.raises(xb.BudgetExceeded):
        xb.check_lemma7_8(t_small=5)


def test_lemma10_pinned_margin_recomputed():
    # Same quantity in plain linear arithmetic, no shared code path.
    a = xb.desk_sequence(2)
    alpha_1, alpha_2 = a.alphas
    w1, w2 = 1.0 - alpha_1, 1.0  # both off-index atoms sit on arm 1 for b=(1,1)
    lhs = 0.5 * ((w1 - alpha_2) ** 3 * w2**2 + w1**3 * (w2 - alpha_2) ** 2)
    rhs = math.exp(-2 * alpha_2 * 5 / (2 * 2)) * (w1 - alpha_2 / 2) ** 3 * (w2 - alpha_2 / 2) ** 2
    want = math.log(lhs) - math.log(rhs)
    got = lemma10_margin(a, xb.BAssignment((1, 1)), 2, (3, 2), 5)
    assert got == pytest.approx(want, rel=1e-12)
    assert got >= 0


def test_lemma10_sweep():
    rep = xb.check_lemma10(n_cases=60, seed=0)
    assert rep.passed
    assert rep.details["n_pass"] == 60
    assert rep.details["worst_margin"] >= -1e-12
    assert rep.details["pinned_margin"] >= 0


def test_lemma11_envelope():
    rep = xb.check_lemma11()
    assert rep.passed
    assert rep.details["worst_margin"] >= 0
    # The envelope is tight at the right endpoint for i=1: recompute there.
    y = 1.0 / 4.0
    assert (1 - y) - math.exp(-2 * y) == pytest.approx(0.143469340287367, abs=1e-12)


def test_corollary9_reduced():
    rep = xb.check_corollary9(n_assignments=8, n_trials=50, seed=0)
    assert rep.passed
    d = rep.details
    assert d["t_eval"] == 3673
    assert d["threshold"] == pytest.approx(2 * 0.99 * 0.05**2 / 4, rel=1e-12)
    assert len(d["estimates"]) == 8
    assert d["fraction"] >= d["floor"]


def test_corollary9_adaptive_policy():
    rep = xb.check_corollary9(
        policy=xb.EpsGreedyMinPolicy(epsilon=0.1), n_assignments=8, n_trials=50, seed=0
    )
    assert rep.passed


def test_theorem1_reduced_internal_consistency():
    rep = xb.demonstrate_theorem1(n_assignments=8, n_trials=50, seed=0)
    assert rep.passed
    d = rep.details
    assert d["horizon"] == 11940 and d["t_eval"] == 3673
    assert len(d["events"]) == 8 and len(d["ratios"]) == 8
    for event, ratio in zip(d["events"], d["ratios"]):
        r = math.inf if ratio is None else ratio
        if event:
            # An event certifies the curve stayed high through t_eval, so the
            # match time (if any) must land beyond it.
            assert r >= d["ratio_floor"]
    assert d["fraction"] >= d["floor"]


def test_run_check_registry():
    reports = xb.run_check("lemma11")
    assert len(reports) == 1 and reports[0].check_id == "lemma11"
    reports5 = xb.run_check("lemma5")
    assert reports5[0].passed
    with pytest.raises(ValueError):
        xb.run_check("lemma99")
    # run_check takes a built policy; the CLI builds it with baseline.
    with pytest.raises(xb.UnknownPolicy):
        xb.baseline("ucb")
    assert set(xb.ALL_CHECKS) == {
        "beta_law",
        "lemma5",
        "lemma6",
        "lemma7_8",
        "lemma10",
        "lemma11",
        "corollary9",
        "theorem1",
    }
