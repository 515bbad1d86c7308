"""Tests of the benchmark's references and output checks.

    python3 -m pytest bench/test_reference.py -q

Every reference computation is compared with brute-force enumeration at
tiny sizes, and every output check of every workload is shown to fail on a
deliberately perturbed output (and to pass on the unperturbed one).
"""

from __future__ import annotations

import copy
import math
import sys
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

ARMS = [([0.2, 0.5, 1.0], [0.3, 0.3, 0.4]), ([0.1, 0.7], [0.25, 0.75])]
ARMS3 = [([0.1, 0.6, 0.9], [0.2, 0.5, 0.3]), ([0.3, 0.4, 1.0], [0.4, 0.35, 0.25])]


def _enumerate_min(arms, counts):
    """E[min], E[min^2] over every outcome of counts[k] draws from arm k."""
    pools = [arm for arm, n in zip(arms, counts) for _ in range(n)]
    m1 = m2 = 0.0
    for combo in product(*(list(zip(*arm)) for arm in pools)):
        p = math.prod(q for _, q in combo)
        low = min(v for v, _ in combo)
        m1 += p * low
        m2 += p * low * low
    return m1, m2


# ---------------------------------------------------------------------------
# References against brute force.


@pytest.mark.parametrize("counts", [(1, 0), (0, 1), (1, 1), (2, 1), (3, 2), (0, 4)])
def test_scripted_moments_match_enumeration(counts):
    got = ref.scripted_moments(ARMS, np.array(counts))
    assert got == pytest.approx(_enumerate_min(ARMS, counts), rel=1e-13)


def test_round_robin_counts():
    assert ref.round_robin_counts(3, 5).tolist() == [[1, 0, 0], [1, 1, 0], [1, 1, 1], [2, 1, 1], [2, 2, 1]]


@pytest.mark.parametrize("horizon", [1, 2, 3, 5])
def test_single_arm_telescoping_matches_enumeration(horizon):
    for arm in ARMS + ARMS3:
        want = _enumerate_min([arm], (horizon,))[0]
        assert ref.single_arm_expected_min(arm, horizon) == pytest.approx(want, rel=1e-13)


def _tables(alphabet, arms_count, depth):
    """Every deterministic policy up to depth: value history -> arm."""
    nodes = [h for d in range(depth) for h in product(alphabet, repeat=d)]
    for choice in product(range(arms_count), repeat=len(nodes)):
        table = dict(zip(nodes, choice))
        yield lambda t, history, table=table: table[tuple(v for _, v in history)]


def test_lower_bound_and_optimal_against_every_policy():
    alphabet = sorted({v for values, _ in ARMS for v in values})
    values = [ref.brute_force_moments(rule, ARMS, 2)[0] for rule in _tables(alphabet, 2, 2)]
    assert min(values) == pytest.approx(ref.optimal_value(ARMS, 2), rel=1e-13)
    assert ref.lower_bound_curve(ARMS, 2)[-1] <= min(values) + 1e-15
    for t in (1, 2, 3, 4):
        bound = ref.lower_bound_curve(ARMS3, t)[-1]
        assert bound <= ref.enumerate_paths(ref.greedy_best_rule(2), ARMS3, t)[-1] + 1e-15
        assert bound <= ref.optimal_value(ARMS3, t) + 1e-15


def _binomial_moments(t, p):
    m1 = m2 = 0.0
    for n in range(t + 1):
        w = math.comb(t, n) * p**n * (1 - p) ** (t - n)
        m1 += w / (n + 1)
        m2 += w * 2 / ((n + 1) * (n + 2))
    return m1, m2


def test_uniform_vs_sure_closed_forms():
    m1, m2 = ref.uvs_uniform_random(12)
    for t in range(1, 13):
        assert (m1[t - 1], m2[t - 1]) == pytest.approx(_binomial_moments(t, 0.5), rel=1e-13)
    # Round robin pulls the uniform arm at odd t.
    e1, _ = ref.uvs_scripted(ref.round_robin_counts(2, 4)[:, 0])
    assert e1.tolist() == [0.5, 0.5, 1 / 3, 1 / 3]


def _eps_greedy_uvs_brute(t, eps):
    """Every sequence of coins (explore arm 1, explore arm 2, exploit)."""
    m1 = m2 = 0.0
    for coins in product(range(3), repeat=t):
        p = math.prod((eps / 2, eps / 2, 1 - eps)[c] for c in coins)
        best = [math.inf, math.inf]  # a uniform draw is < 1, so arm 1 beats arm 2 once seen
        n = 0
        for c in coins:
            arm = c if c < 2 else min(range(2), key=lambda k: (best[k], k))
            best[arm] = 0.5 if arm == 0 else 1.0
            n += arm == 0
        m1 += p / (n + 1)
        m2 += p * 2 / ((n + 1) * (n + 2))
    return m1, m2


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.7, 1.0])
def test_eps_greedy_uniform_vs_sure_recursion(eps):
    m1, m2 = ref.uvs_eps_greedy(7, eps)
    for t in range(1, 8):
        assert (m1[t - 1], m2[t - 1]) == pytest.approx(_eps_greedy_uvs_brute(t, eps), rel=1e-12)
    if eps == 1.0:  # pathwise uniform random
        assert np.allclose(m1, ref.uvs_uniform_random(7)[0], rtol=1e-13)


def _eps_greedy_brute(arms, eps, horizon):
    """Coins (explore arm k or exploit) times per-arm outcome tables."""
    K = len(arms)
    m1 = np.zeros(horizon)
    m2 = np.zeros(horizon)
    for coins in product(range(K + 1), repeat=horizon):
        pc = math.prod(eps / K if c < K else 1 - eps for c in coins)
        if pc == 0.0:
            continue

        def rule(t, history, coins=coins):
            if coins[t - 1] < K:
                return coins[t - 1]
            best = [min((v for a, v in history if a == k), default=math.inf) for k in range(K)]
            return min(range(K), key=lambda k: (best[k], k))

        for t in range(1, horizon + 1):
            a, b = ref.brute_force_moments(rule, arms, t)
            m1[t - 1] += pc * a
            m2[t - 1] += pc * b
    return m1, m2


@pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
def test_eps_greedy_recursion_matches_brute_force(eps):
    got = ref.eps_greedy_moments(ARMS, eps, 3)
    want = _eps_greedy_brute(ARMS, eps, 3)
    assert np.allclose(got[0], want[0], rtol=1e-12) and np.allclose(got[1], want[1], rtol=1e-12)
    assert np.allclose(ref.eps_greedy_moments(ARMS, 0.0, 4)[0], ref.enumerate_paths(ref.greedy_best_rule(2), ARMS, 4), rtol=1e-12)


def test_greedy_moments_match_brute_force():
    def rule(t, history):
        low = min((v for _, v in history), default=math.inf)
        scores = [math.fsum(min(v, low) * p for v, p in zip(*arm)) for arm in ARMS3]
        return min(range(2), key=lambda k: (scores[k], k))

    for t in (1, 2, 3):
        assert ref.greedy_moments(ARMS3, t) == pytest.approx(ref.brute_force_moments(rule, ARMS3, t), rel=1e-13)


@pytest.mark.parametrize("rule", [ref.greedy_best_rule(2), ref.quantile_rule(2, 0.5, 3), ref.quantile_rule(2, 0.25, 2)])
def test_path_enumeration_matches_brute_force(rule):
    curve = ref.enumerate_paths(rule, ARMS3, 3)
    for t in (1, 2, 3):
        assert curve[t - 1] == pytest.approx(ref.brute_force_moments(rule, ARMS3, t)[0], rel=1e-13)


# ---------------------------------------------------------------------------
# Every check fails on a perturbed output.


def test_generic_checks_fail_on_perturbation():
    want = np.array([0.5, 0.25, 0.125])
    assert not checks.close(want.copy(), want, "x")
    assert checks.close(want * (1 + 1e-6), want, "x")
    m1, m2 = ref.uvs_uniform_random(50)
    se = np.sqrt((m2 - m1 * m1) / 1000)
    assert not checks.within_se(m1 + 5 * se, m1, m2, 1000, "x")
    assert checks.within_se(m1 + 7 * se, m1, m2, 1000, "x")
    assert not checks.above_bound(0.3, 0.3, 100, 0.1, 1.0, "x")
    assert checks.above_bound(0.3 - 7 * math.sqrt(0.2 * 0.7 / 100), 0.3, 100, 0.1, 1.0, "x")
    oracle = 1 / 21
    t_x = int(np.argmax(m1 <= oracle)) + 1
    assert not checks.crossing(t_x, oracle, m1, m2, 1000, "x")
    assert checks.crossing(t_x + 20, oracle, m1, m2, 10**6, "x")
    assert checks.crossing(t_x - 20, oracle, m1, m2, 10**6, "x")
    assert checks.crossing(None, oracle, m1, m2, 10**6, "x")
    assert not checks.crossing(None, 0.0, m1, m2, 1000, "x")
    assert checks.at_most(1.0 + 1e-9, 1.0, "x") and not checks.at_most(1.0, 1.0, "x")


def _beta(T=10, n=10_000, shift=0.0, ks=0.005):
    sd = math.sqrt(T / ((T + 1) ** 2 * (T + 2)))
    mean = 1 / (T + 1) + shift * sd / math.sqrt(n)
    details = {"ks_statistic": ks, "ks_threshold": 1.63 / math.sqrt(n), "mean": mean,
               "expected_mean": 1 / (T + 1), "mean_se": sd / math.sqrt(n)}
    passed = ks < details["ks_threshold"] and abs(shift) <= 3
    return details, {"horizon": T, "n_trials": n}, passed


def test_beta_law_check_fails_on_perturbation():
    assert not checks.beta_law(*_beta())
    assert not checks.beta_law(*_beta(shift=4.0))  # fails the 1% verdict, but not the law
    assert checks.beta_law(*_beta(shift=7.0))
    assert checks.beta_law(*_beta(ks=0.03))
    details, params, passed = _beta()
    assert checks.beta_law(details, params, not passed)


@pytest.fixture(scope="module")
def eb():
    import extremebandits
    import extremebandits.cli  # noqa: F401

    return extremebandits


def _perfect_hard_instance(w):
    arms = [workloads._desk_arms(w.a.alphas, b) for b in w.ASSIGNMENTS]
    oracles = [min(ref.single_arm_expected_min(arm, w.t_i) for arm in pair) for pair in arms]
    cap = 8 * w.t_i
    res = {}
    for pname in w.policies:
        curves = []
        for pair in arms:
            if pname == "round_robin":
                curves.append(ref.scripted_moments(pair, ref.round_robin_counts(2, cap))[0])
            else:
                curves.append(ref.eps_greedy_moments(pair, w.EPSILON, cap)[0])
        res[f"corollary9.{pname}"] = SimpleNamespace(passed=True, details={"t_eval": w.t_eval, "estimates": [c[w.t_eval - 1] for c in curves]})
        ratios = []
        for c, oracle in zip(curves, oracles):
            hits = np.nonzero(c <= oracle)[0]
            ratios.append((int(hits[0]) + 1) / w.t_i if hits.size else None)
        res[f"theorem1.{pname}"] = SimpleNamespace(passed=True, details={
            "t_eval": w.t_eval, "horizon": w.t_i, "ratio_floor": 0.9 * w.t_eval / w.t_i,
            "events": [True] * len(arms), "ratios": ratios})
    res["single_armed_oracle"] = []
    for pair in arms:
        values = [ref.single_arm_expected_min(arm, w.t_i) for arm in pair]
        res["single_armed_oracle"].append(SimpleNamespace(arm=1 + values.index(min(values)), value=min(values)))
    return res


def _perturbations_hard_instance(res):
    def est(key, case, factor):
        def f(r):
            r[key].details["estimates"][case] *= factor
        return f

    def setd(key, field, value):
        def f(r):
            r[key].details[field] = value
        return f

    def ratio(key, case, value):
        def f(r):
            r[key].details["ratios"][case] = value
        return f

    return {
        "corollary9 verdict": lambda r: setattr(r["corollary9.round_robin"], "passed", False),
        "theorem1 verdict": lambda r: setattr(r["theorem1.eps_greedy_min"], "passed", False),
        "t_eval": setd("corollary9.eps_greedy_min", "t_eval", res["corollary9.eps_greedy_min"].details["t_eval"] + 1),
        "T_i": setd("theorem1.round_robin", "horizon", 11939),
        "ratio floor": setd("theorem1.round_robin", "ratio_floor", 0.5),
        "round robin estimate": est("corollary9.round_robin", 0, 1.5),
        "eps-greedy estimate high": est("corollary9.eps_greedy_min", 1, 4.0),
        "eps-greedy estimate below bound": est("corollary9.eps_greedy_min", 1, 0.1),
        "flagged ratio below floor": ratio("theorem1.eps_greedy_min", 0, 0.1),
        "round robin crossing": ratio("theorem1.round_robin", 0, res["theorem1.round_robin"].details["ratios"][0] * 2.0),
        "eps-greedy crossing reported early": ratio("theorem1.eps_greedy_min", 1, res["theorem1.eps_greedy_min"].details["ratios"][1] * 0.2),
        "eps-greedy crossing missed": ratio("theorem1.eps_greedy_min", 1, None),
        "oracle value": lambda r: setattr(r["single_armed_oracle"][0], "value", r["single_armed_oracle"][0].value * (1 + 1e-6)),
        "oracle arm": lambda r: setattr(r["single_armed_oracle"][1], "arm", 3 - r["single_armed_oracle"][1].arm),
    }


def _perfect_many_trials(w):
    H, cap = w.HORIZON, 8 * w.HORIZON
    res = {}
    for key, (m1, _) in {"regret.uniform_random": ref.uvs_uniform_random(cap),
                         "regret.eps_greedy_min": ref.uvs_eps_greedy(cap, w.EPSILON)}.items():
        t_prime = int(np.argmax(m1 <= 1 / (H + 1))) + 1
        res[key] = {"files": {}, "curve": {"raw": m1.copy(), "estimate": np.minimum.accumulate(m1)},
                    "regret": {"oracle_value": 1 / (H + 1), "horizon": H, "cap": cap, "n_trials": w.TRIALS,
                               "t_prime": t_prime, "ratio": t_prime / H, "ci_low": t_prime - 3, "ci_high": t_prime + 3}}
    res["beta_law"] = [SimpleNamespace(details=d, params=p, passed=ok) for d, p, ok in (_beta(T, w.BETA_TRIALS) for T in w.BETA_HORIZONS)]
    g1, _ = ref.greedy_moments(workloads._desk_arms(w.a.alphas, w.assignment), w.GREEDY_HORIZON)
    res["greedy.exact"] = g1
    res["greedy.monte_carlo"] = g1
    return res


def _perturbations_many_trials(res):
    def regret(key, field, value):
        def f(r):
            r[key]["regret"][field] = value
        return f

    def curve(key, j, factor):
        def f(r):
            r[key]["curve"]["raw"][j] *= factor
            r[key]["curve"]["estimate"] = np.minimum.accumulate(r[key]["curve"]["raw"])
        return f

    ur, eg = "regret.uniform_random", "regret.eps_greedy_min"
    return {
        "oracle": regret(ur, "oracle_value", 1 / 100),
        "cap": regret(eg, "cap", 801),
        "trials": regret(ur, "n_trials", 9999),
        "uniform random curve": curve(ur, 100, 1.2),
        "eps-greedy curve": curve(eg, 5, 1.2),
        "running minimum": lambda r: r[eg]["curve"]["estimate"].__setitem__(50, 0.0),
        "t_prime": regret(ur, "t_prime", res[ur]["regret"]["t_prime"] - 40),
        "ratio": regret(eg, "ratio", 2.0),
        "bootstrap interval": regret(eg, "ci_low", None),
        "beta law": lambda r: r["beta_law"][2].details.__setitem__("ks_statistic", 0.1),
        "greedy exact": lambda r: r.__setitem__("greedy.exact", r["greedy.exact"] * (1 + 1e-6)),
        "greedy monte carlo": lambda r: r.__setitem__("greedy.monte_carlo", r["greedy.monte_carlo"] * 1.2),
    }


def _perfect_exact_curves(w):
    H = w.REGRET_HORIZON
    long1, _ = ref.uvs_scripted(ref.round_robin_counts(2, w.LONG)[:, 0])
    reg1, _ = ref.uvs_scripted(np.arange(8 * H))
    big, _ = ref.scripted_moments(w.big_arms, ref.round_robin_counts(2, w.SCRIPTED_HORIZON))
    arms = workloads._desk_arms(w.a.alphas, w.assignment)
    rr, _ = ref.scripted_moments(arms, ref.round_robin_counts(2, w.t_i))
    return {
        "simulate.uniform_vs_sure": {"curve": {"raw": long1.copy(), "estimate": long1.copy()}},
        "regret.uniform_vs_sure": {"curve": {"raw": reg1.copy()},
                                   "regret": {"t_prime": H + 1, "cap": 8 * H, "oracle_value": 1 / (H + 1), "ratio": (H + 1) / H}},
        "simulate.arms_json": {"curve": {"raw": big.copy()}},
        "verify.lemmas": {"checks": [{"check_id": c, "passed": True} for c in w.LEMMAS]},
        "optimal": ref.optimal_value(arms, w.t_i),
        "greedy": ref.greedy_moments(arms, w.t_i)[0],
        "single_armed": SimpleNamespace(value=min(ref.single_arm_expected_min(arm, w.t_i) for arm in arms)),
        "curve.round_robin": SimpleNamespace(raw=rr.copy()),
        "tree.eps_greedy_min": SimpleNamespace(raw=ref.enumerate_paths(ref.greedy_best_rule(2), w.tree_arms, w.TREE_HORIZON)),
        "tree.quantile_threshold": SimpleNamespace(raw=ref.enumerate_paths(
            ref.quantile_rule(2, w.QUANTILE["q"], w.QUANTILE["explore_every"]), w.tree_arms, w.TREE_HORIZON)),
    }


def _perturbations_exact_curves(res):
    def scale(path, factor):
        def f(r):
            obj = r
            for key in path[:-1]:
                obj = obj[key] if isinstance(obj, dict) else getattr(obj, key)
            if isinstance(obj, dict):
                obj[path[-1]] = obj[path[-1]] * factor
            else:
                getattr(obj, path[-1])[-1] *= factor
        return f

    def last(path, factor):
        def f(r):
            r[path[0]][path[1]][path[2]][-1] *= factor
        return f

    return {
        "long curve raw": last(("simulate.uniform_vs_sure", "curve", "raw"), 1 + 1e-6),
        "long curve estimate": last(("simulate.uniform_vs_sure", "curve", "estimate"), 1 + 1e-6),
        "regret t_prime": lambda r: r["regret.uniform_vs_sure"]["regret"].__setitem__("t_prime", 6250),
        "regret oracle": scale(("regret.uniform_vs_sure", "regret", "oracle_value"), 1 + 1e-6),
        "regret ratio": scale(("regret.uniform_vs_sure", "regret", "ratio"), 1 + 1e-6),
        "regret curve": last(("regret.uniform_vs_sure", "curve", "raw"), 1 + 1e-6),
        "scripted curve": last(("simulate.arms_json", "curve", "raw"), 1 + 1e-6),
        "verify failed": lambda r: r["verify.lemmas"]["checks"][3].__setitem__("passed", False),
        "verify missing": lambda r: r["verify.lemmas"]["checks"].pop(),
        "optimal value": lambda r: r.__setitem__("optimal", r["optimal"] * (1 + 1e-6)),
        "optimal above greedy": lambda r: r.__setitem__("greedy", r["optimal"] * (1 - 1e-6)),
        "single-arm": lambda r: setattr(r["single_armed"], "value", r["single_armed"].value * (1 + 1e-6)),
        "round-robin curve": scale(("curve.round_robin", "raw"), 1 + 1e-6),
        "tree eps-greedy": scale(("tree.eps_greedy_min", "raw"), 1 + 1e-6),
        "tree quantile": scale(("tree.quantile_threshold", "raw"), 1 + 1e-6),
    }


WORKLOAD_CASES = {
    "hard_instance": (_perfect_hard_instance, _perturbations_hard_instance),
    "many_trials": (_perfect_many_trials, _perturbations_many_trials),
    "exact_curves": (_perfect_exact_curves, _perturbations_exact_curves),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_CASES))
def test_workload_checks_fail_on_every_perturbation(eb, name):
    w = workloads.WORKLOADS[name](eb, 3)
    perfect, perturbations = WORKLOAD_CASES[name]
    res = perfect(w)
    assert w.check(copy.deepcopy(res)) == []
    for label, perturb in perturbations(res).items():
        bad = copy.deepcopy(res)
        perturb(bad)
        assert w.check(bad), f"{name}: check passed on perturbed output ({label})"
