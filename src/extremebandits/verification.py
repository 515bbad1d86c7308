"""Numerical checks of the hard-instance analysis, one per named claim.

Each check computes the two sides of an inequality (or a distributional
statement) from scratch and reports margins, so a regression anywhere in
the construction or the simulator shows up as a failed check rather than a
silently wrong simulation. Check ids double as CLI verify targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp
from scipy.stats import kstest

from . import engine
from .construction import (
    AlphaSequence,
    BAssignment,
    _omegas_betas,
    all_assignments,
    build_mixture,
    build_tuple,
    canonical_sequence,
    desk_sequence,
    horizon_T,
    horizon_Tprime,
    log_horizon_T,
    sample_b,
    sibling_tuples,
)
from .distributions import expected_min
from .errors import BudgetExceeded, HorizonOverflow
from .oracles import single_armed_oracle
from .policies import Policy, baseline, enumerate_tables
from .rng import ASSIGN_LANE, CHECK_LANE, RngStream, TrialStreams, generator_for

REL_SLACK = 1e-12

# Sanity floor for "happens for enough assignments" statements: observed
# fraction may undershoot 1/K by at most two binomial standard errors.
_TWO_SE = 2.0


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    passed: bool
    seed: int | None
    params: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def _slacked(threshold: float) -> float:
    return REL_SLACK * max(1.0, abs(threshold))


# ---------------------------------------------------------------------------
# beta_law: the distribution of the running-minimum quantile.


def check_beta_law(horizon: int = 59, n_trials: int = 100_000, seed: int = 0) -> CheckReport:
    """min of T uniforms has CDF G(a) = 1 - (1-a)^T and mean 1/(T+1).

    Kolmogorov-Smirnov at the asymptotic 1% critical value 1.63/sqrt(N),
    plus a 3-standard-error window on the sample mean.
    """
    mins = np.empty(n_trials)
    start = 0
    while start < n_trials:
        size = min(4096, n_trials - start)
        block = TrialStreams(seed, CHECK_LANE, range(start, start + size)).next_block(horizon)
        mins[start : start + size] = block.min(axis=1)
        start += size

    def cdf(x):
        return -np.expm1(horizon * np.log1p(-np.clip(x, 0.0, 1.0)))

    ks = kstest(mins, cdf)
    ks_threshold = 1.63 / math.sqrt(n_trials)
    mean = float(mins.mean())
    expected = 1.0 / (horizon + 1)
    se = float(mins.std(ddof=1) / math.sqrt(n_trials))
    passed = ks.statistic < ks_threshold and abs(mean - expected) <= 3.0 * se
    return CheckReport(
        check_id="beta_law",
        passed=bool(passed),
        seed=seed,
        params={"horizon": horizon, "n_trials": n_trials},
        details={
            "ks_statistic": float(ks.statistic),
            "ks_threshold": ks_threshold,
            "mean": mean,
            "expected_mean": expected,
            "mean_se": se,
        },
    )


# ---------------------------------------------------------------------------
# lemma5: the mass-sequence properties hold for the canonical presets.


def _sequence_report(a: AlphaSequence, label: str) -> dict:
    r = a.report
    return {
        "label": label,
        "passed": bool(r.passed),
        "decreasing": bool(r.decreasing),
        "margins_a": [float(x) for x in r.margins_a],
        "margins_b": [float(x) for x in r.margins_b],
        "margins_c": [float(x) for x in r.margins_c],
        "margins_d": [float(x) for x in r.margins_d],
    }


def check_lemma5(sequences: list[tuple[str, AlphaSequence]] | None = None) -> CheckReport:
    """Mass bounds (sum, per-index, tail-domination, squared-decay) all hold."""
    if sequences is None:
        sequences = [(f"canonical K={K}", canonical_sequence(K, 4)) for K in (2, 3, 5)]
        sequences.append(("desk K=2", desk_sequence(2)))
    per = [_sequence_report(a, label) for label, a in sequences]
    return CheckReport(
        check_id="lemma5",
        passed=all(p["passed"] for p in per),
        seed=None,
        params={"n_sequences": len(per)},
        details={"sequences": per},
    )


# ---------------------------------------------------------------------------
# lemma6: at horizon T_i the best single arm is already below 2 alpha_i.


def check_lemma6(a: AlphaSequence | None = None, i: int | None = None) -> CheckReport:
    """For every assignment: exact best-arm value at T_i < 2 alpha_i.

    Also re-derives the proof step (1-alpha)^T_i < alpha in logs. When T_i
    overflows integers the exact expectation is out of reach and the check
    falls back to the defining inequality alpha T_i >= log(1/alpha), which
    the ceiling guarantees and which implies the bound identically.
    """
    if a is None:
        a = desk_sequence(2)
    if i is None:
        i = a.depth
    log_alpha = a.log_alphas[i - 1]
    alpha = a.alphas[i - 1]
    details: dict = {"i": i, "alpha_i": alpha}
    try:
        t_i = horizon_T(log_alpha)
    except HorizonOverflow:
        log_t = log_horizon_T(log_alpha)
        margin = log_t - (math.log(-log_alpha) - log_alpha)
        details.update({"mode": "analytic", "log_horizon": log_t, "ceiling_margin": float(margin)})
        # alpha T >= log(1/alpha) forces (1-alpha)^T <= e^{-alpha T} <= alpha,
        # so value <= alpha + (1-alpha)^T < 2 alpha holds identically.
        return CheckReport(
            check_id="lemma6",
            passed=margin >= 0.0,
            seed=None,
            params={"K": a.K, "i": i},
            details=details,
        )

    threshold = 2.0 * alpha
    proof_margin = math.log(alpha) - t_i * math.log1p(-alpha)
    per_b = []
    worst = math.inf
    for b in all_assignments(a.K, a.depth):
        tup = build_tuple(a, b)
        value = single_armed_oracle(tup.arms, t_i).value
        per_b.append({"b": list(b.values), "oracle_value": value})
        worst = min(worst, threshold - value)
    passed = worst > 0.0 and proof_margin > 0.0
    details.update(
        {
            "mode": "exact",
            "horizon": t_i,
            "threshold": threshold,
            "worst_margin": float(worst),
            "proof_margin": float(proof_margin),
            "per_assignment": per_b,
        }
    )
    return CheckReport(check_id="lemma6", passed=bool(passed), seed=None, params={"K": a.K, "i": i}, details=details)


# ---------------------------------------------------------------------------
# lemma7_8: sibling-averaged survival of the high-value path set, and the
# Markov step that converts path mass into expected-minimum mass.


def _threshold_paths(policy: Policy, arms, depth: int, threshold: float) -> dict[tuple, float]:
    """All length-depth observation sequences with every value >= threshold,
    mapped to their log probabilities under (policy, arms)."""
    paths: dict[tuple, float] = {}

    def walk(state, t, logp, key):
        if t == depth:
            paths[key] = logp
            return
        arm = policy.choose(state, t + 1, None)
        d = arms[arm - 1]
        for v, lv in zip(d.support, d.log_probs):
            if v >= threshold:
                walk(policy.observe(state, arm, v), t + 1, logp + lv, key + (v,))

    walk(policy.initial_state(len(arms)), 0, 0.0, ())
    return paths


def _count_form_logp(policy: Policy, tup, a: AlphaSequence, path: tuple) -> float:
    """Recompute a path's log probability from value counts alone:
    sum_j c_j log alpha_j + sum_k m_k log gamma_k."""
    value_to_index = {a.alphas[j - 1]: j for j in range(1, a.depth + 1)}
    state = policy.initial_state(tup.K)
    c_log = 0.0
    for t, v in enumerate(path, 1):
        arm = policy.choose(state, t, None)
        if v == 1.0:
            c_log += tup.log_gammas[arm - 1]
        else:
            c_log += a.log_alphas[value_to_index[v] - 1]
        state = policy.observe(state, arm, v)
    return c_log


def check_lemma7_8(
    a: AlphaSequence | None = None,
    i: int = 2,
    t_small: int = 2,
    tables: str = "exhaustive",
    n_sampled: int = 100,
    seed: int = 0,
) -> CheckReport:
    """Brute-force the path-set comparison on tiny horizons.

    For every assignment (up to the irrelevant index-i entry) and every
    deterministic lookup-table policy over the high-value alphabet:

    * the set of all-high observation sequences is identical across the K
      sibling tuples and their mixture;
    * each path probability factorizes into the count form;
    * average sibling path mass >= exp(-2 alpha_i T / (i K)) * mixture mass;
    * per sibling, E[min] >= threshold * P[all values >= threshold].
    """
    if t_small > 4:
        raise BudgetExceeded(f"t_small={t_small} exceeds the brute-force budget of 4")
    if a is None:
        a = desk_sequence(2)
    K = a.K
    threshold = a.alphas[i - 2]
    alphabet = tuple(a.alphas[j - 1] for j in range(1, i)) + (1.0,)
    c_log = -2.0 * a.alphas[i - 1] * t_small / (i * K)

    if tables == "exhaustive":
        table_list = list(enumerate_tables(K, alphabet, t_small))
    else:
        rng = generator_for(seed, CHECK_LANE, 0)
        pool = list(enumerate_tables(K, alphabet, t_small))
        idx = rng.choice(len(pool), size=min(n_sampled, len(pool)), replace=False)
        table_list = [pool[j] for j in idx]

    b_list = [b for b in all_assignments(K, a.depth) if b.values[i - 1] == 1]
    n_checked = 0
    min_avg_margin = math.inf
    min_markov_margin = math.inf
    identity_ok = True
    count_form_ok = True
    for b in b_list:
        siblings = sibling_tuples(a, b, i)
        mixture = build_mixture(a, b, i)
        for table in table_list:
            n_checked += 1
            path_maps = [_threshold_paths(table, tup.arms, t_small, threshold) for tup in siblings]
            mix_paths = _threshold_paths(table, mixture.arms, t_small, threshold)
            keys = set(mix_paths)
            if any(set(pm) != keys for pm in path_maps):
                identity_ok = False
                continue
            for tup, pm in list(zip(siblings, path_maps)) + [(mixture, mix_paths)]:
                for path, logp in pm.items():
                    again = _count_form_logp(table, tup, a, path)
                    if abs(again - logp) > 1e-12 * max(1.0, abs(logp)):
                        count_form_ok = False
            probs = [math.fsum(math.exp(lp) for lp in pm.values()) for pm in path_maps]
            mix_prob = math.fsum(math.exp(lp) for lp in mix_paths.values())
            avg = math.fsum(probs) / K
            margin = avg - math.exp(c_log) * mix_prob
            min_avg_margin = min(min_avg_margin, margin)
            for tup, p in zip(siblings, probs):
                e_min = float(engine.exact_min_curve(table, tup.arms, t_small).raw[-1])
                markov = e_min - threshold * p
                min_markov_margin = min(min_markov_margin, markov)

    passed = (
        identity_ok
        and count_form_ok
        and min_avg_margin >= -_slacked(1.0)
        and min_markov_margin >= -_slacked(threshold)
    )
    return CheckReport(
        check_id="lemma7_8",
        passed=bool(passed),
        seed=seed if tables != "exhaustive" else None,
        params={"K": K, "i": i, "t_small": t_small, "tables": tables, "n_tables": len(table_list)},
        details={
            "threshold": threshold,
            "path_set_identity": identity_ok,
            "count_form_matches": count_form_ok,
            "min_average_margin": float(min_avg_margin),
            "min_markov_margin": float(min_markov_margin),
            "shrink_factor": math.exp(c_log),
            "n_cases": n_checked,
        },
    )


# ---------------------------------------------------------------------------
# lemma10: averaging the index-i placement beats the mean-mass product.


def lemma10_margin(a: AlphaSequence, b: BAssignment, i: int, counts, horizon: int) -> float:
    """log LHS - log RHS of the product-average comparison.

    LHS = (1/K) sum_{k'} prod_k (omega_k - [k=k'] alpha_i)^{n_k};
    RHS = exp(-2 alpha_i T / (i K)) prod_k (omega_k - alpha_i / K)^{n_k}.
    """
    K = a.K
    alpha_i = a.alphas[i - 1]
    omegas, _ = _omegas_betas(a, b, i)
    lhs_terms = []
    for k_prime in range(1, K + 1):
        s = 0.0
        for k in range(1, K + 1):
            g = omegas[k - 1] - (alpha_i if k == k_prime else 0.0)
            s += counts[k - 1] * math.log(g)
        lhs_terms.append(s)
    lhs = float(logsumexp(lhs_terms)) - math.log(K)
    rhs = -2.0 * alpha_i * horizon / (i * K) + math.fsum(
        counts[k - 1] * math.log(omegas[k - 1] - alpha_i / K) for k in range(1, K + 1)
    )
    return lhs - rhs


def check_lemma10(n_cases: int = 1000, seed: int = 0, arm_counts: tuple[int, ...] = (2, 3), t_max: int = 50) -> CheckReport:
    """Randomized sweep of the product-average inequality, plus one pinned case."""
    pinned = lemma10_margin(desk_sequence(2), BAssignment((1, 1)), 2, (3, 2), 5)
    sequences = {K: desk_sequence(K) for K in arm_counts}
    n_pass = 0
    worst = math.inf
    for case in range(n_cases):
        rng = generator_for(seed, CHECK_LANE, case + 1)
        K = int(arm_counts[rng.integers(len(arm_counts))])
        a = sequences[K]
        i = a.depth
        b = BAssignment(tuple(int(x) for x in rng.integers(1, K + 1, size=a.depth)))
        horizon = int(rng.integers(1, t_max + 1))
        counts = rng.multinomial(horizon, np.full(K, 1.0 / K))
        margin = lemma10_margin(a, b, i, counts, horizon)
        worst = min(worst, margin)
        if margin >= -REL_SLACK:
            n_pass += 1
    passed = n_pass == n_cases and pinned >= -REL_SLACK
    return CheckReport(
        check_id="lemma10",
        passed=bool(passed),
        seed=seed,
        params={"n_cases": n_cases, "arm_counts": list(arm_counts), "t_max": t_max},
        details={"n_pass": n_pass, "worst_margin": float(worst), "pinned_margin": float(pinned)},
    )


# ---------------------------------------------------------------------------
# lemma11: the exponential-vs-linear envelope on the small-y interval.


def check_lemma11(i_max: int = 100, grid: int = 10_000) -> CheckReport:
    """exp(-y (1 + 1/i)) <= 1 - y for y in [0, 1/(2(1+i))], every i."""
    worst = math.inf
    worst_i = 0
    for i in range(1, i_max + 1):
        y = np.linspace(0.0, 1.0 / (2.0 * (1.0 + i)), grid)
        margin = (1.0 - y) - np.exp(-y * (1.0 + 1.0 / i))
        m = float(margin.min())
        if m < worst:
            worst, worst_i = m, i
    return CheckReport(
        check_id="lemma11",
        passed=worst >= 0.0,
        seed=None,
        params={"i_max": i_max, "grid": grid},
        details={"worst_margin": worst, "worst_i": worst_i},
    )


# ---------------------------------------------------------------------------
# corollary9 and theorem1: the simulated fraction of assignments on which a
# policy is still far from the oracle at the shifted horizon.


def _case_tuple(a: AlphaSequence, seed: int, case: int):
    b = sample_b(a.K, a.depth, RngStream(seed=seed, trial=case, t=1, lane=ASSIGN_LANE))
    return b, build_tuple(a, b)


def _corollary_case(job):
    policy, arms, n_trials, seed, t_eval, offset = job
    res = engine.stream_curve(policy, arms, n_trials, seed, t_eval, trial_offset=offset)
    return float(res.raw[t_eval - 1])


def check_corollary9(
    policy: Policy | None = None,
    a: AlphaSequence | None = None,
    i: int = 2,
    n_assignments: int = 200,
    n_trials: int = 400,
    seed: int = 0,
    workers: int | None = None,
) -> CheckReport:
    """On a fraction >= 1/K of random assignments (within noise), the policy's
    expected minimum at the shifted horizon is still >= 2 alpha_i."""
    if policy is None:
        policy = baseline("round_robin")
    if a is None:
        a = desk_sequence(2)
    t_eval, c = horizon_Tprime(a.log_alphas[i - 1], i, a.K)
    threshold = 2.0 * a.alphas[i - 1]
    jobs = []
    bs = []
    for case in range(n_assignments):
        b, tup = _case_tuple(a, seed, case)
        bs.append(list(b.values))
        jobs.append((policy, tup.arms, n_trials, seed, t_eval, case * n_trials))
    estimates = engine.parallel_map(_corollary_case, jobs, workers)
    hits = [est >= threshold for est in estimates]
    fraction = sum(hits) / n_assignments
    se = math.sqrt(max(fraction * (1.0 - fraction), 1e-12) / n_assignments)
    floor = 1.0 / a.K - _TWO_SE * se
    return CheckReport(
        check_id="corollary9",
        passed=bool(fraction >= floor),
        seed=seed,
        params={
            "policy": policy.to_record(),
            "K": a.K,
            "i": i,
            "n_assignments": n_assignments,
            "n_trials": n_trials,
        },
        details={
            "t_eval": t_eval,
            "horizon_constant": c,
            "threshold": threshold,
            "fraction": fraction,
            "se": se,
            "floor": floor,
            "estimates": [float(e) for e in estimates],
        },
    )


def _theorem_case(job):
    policy, arms, n_trials, seed, cap, t_eval, oracle_value, offset = job
    stop = oracle_value + _slacked(oracle_value)
    res = engine.stream_curve(policy, arms, n_trials, seed, cap, stop_threshold=stop, trial_offset=offset)
    # The curve is truncated at the crossing block, so the min below covers
    # [1, t_eval] exactly whenever the crossing came later (or never).
    return res.crossed_at, float(res.raw[: min(t_eval, len(res.raw))].min())


def demonstrate_theorem1(
    policy: Policy | None = None,
    a: AlphaSequence | None = None,
    i: int = 2,
    n_assignments: int = 200,
    n_trials: int = 400,
    seed: int = 0,
    cap_factor: int = 4,
    workers: int | None = None,
) -> CheckReport:
    """End-to-end demonstration on the two-index preset: for a >= 1/K
    fraction of assignments the policy's curve is still >= 2 alpha_i at the
    shifted horizon, and on those assignments the time-to-match ratio stays
    near or beyond the shifted horizon's share of T_i."""
    if policy is None:
        policy = baseline("round_robin")
    if a is None:
        a = desk_sequence(2)
    K = a.K
    log_alpha = a.log_alphas[i - 1]
    t_i = horizon_T(log_alpha)
    t_eval, _ = horizon_Tprime(log_alpha, i, K)
    threshold = 2.0 * a.alphas[i - 1]
    cap = cap_factor * K * t_i
    jobs = []
    for case in range(n_assignments):
        _, tup = _case_tuple(a, seed, case)
        oracle_value = single_armed_oracle(tup.arms, t_i).value
        jobs.append((policy, tup.arms, n_trials, seed, cap, t_eval, oracle_value, case * n_trials))
    results = engine.parallel_map(_theorem_case, jobs, workers)
    ratios = []
    events = []
    for (crossed_at, low_point), job in zip(results, jobs):
        event = low_point >= threshold and (crossed_at is None or crossed_at > t_eval)
        events.append(event)
        ratios.append((crossed_at / t_i) if crossed_at is not None else math.inf)
    fraction = sum(events) / n_assignments
    se = math.sqrt(max(fraction * (1.0 - fraction), 1e-12) / n_assignments)
    floor = 1.0 / K - _TWO_SE * se
    ratio_floor = 0.9 * t_eval / t_i
    event_ratios = [r for r, e in zip(ratios, events) if e]
    ratios_ok = all(r >= ratio_floor for r in event_ratios)
    return CheckReport(
        check_id="theorem1",
        passed=bool(fraction >= floor and ratios_ok),
        seed=seed,
        params={
            "policy": policy.to_record(),
            "K": K,
            "i": i,
            "n_assignments": n_assignments,
            "n_trials": n_trials,
            "cap": cap,
        },
        details={
            "horizon": t_i,
            "t_eval": t_eval,
            "threshold": threshold,
            "fraction": fraction,
            "se": se,
            "floor": floor,
            "ratio_floor": ratio_floor,
            "ratios_ok": ratios_ok,
            "min_event_ratio": min(event_ratios, default=math.inf),
            "ratios": [r if math.isfinite(r) else None for r in ratios],
            "events": events,
        },
    )


# ---------------------------------------------------------------------------
# Registry used by the CLI.


def run_check(check_id: str, seed: int = 0, workers: int | None = None, policy: str = "round_robin") -> list[CheckReport]:
    pol = baseline(policy)
    if check_id == "beta_law":
        return [check_beta_law(horizon=t, seed=seed) for t in (1, 10, 59)]
    if check_id == "lemma5":
        return [check_lemma5()]
    if check_id == "lemma6":
        return [check_lemma6()]
    if check_id == "lemma7_8":
        return [check_lemma7_8(seed=seed)]
    if check_id == "lemma10":
        return [check_lemma10(seed=seed)]
    if check_id == "lemma11":
        return [check_lemma11()]
    if check_id == "corollary9":
        return [check_corollary9(policy=pol, seed=seed, workers=workers)]
    if check_id == "theorem1":
        return [demonstrate_theorem1(policy=pol, seed=seed, workers=workers)]
    raise ValueError(f"unknown check id {check_id!r}; known: {', '.join(ALL_CHECKS)}")


ALL_CHECKS = (
    "beta_law",
    "lemma5",
    "lemma6",
    "lemma7_8",
    "lemma10",
    "lemma11",
    "corollary9",
    "theorem1",
)
