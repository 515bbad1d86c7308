"""Reference strategies that the extreme-regret clock is measured against.

Three strengths, all minimizing the expected running minimum:

* single-armed: commit to one arm for the whole horizon (the benchmark the
  regret ratio uses);
* optimal: full dynamic program over best-so-far states, allowed to react
  to every observation;
* greedy: one-step lookahead, picks argmin_k E[min(X_k, best-so-far)].

Plus the closed-form family scan for two-point arms {s w.p. s, 1 w.p. 1-s},
whose commit value at horizon T is g(s) = s + (1-s)^(T+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    Distribution,
    expected_min,
    expected_min_capped,
    icdf_arrays,
    _check_horizon,
)
from .errors import BudgetExceeded, ContinuousArm, PropertyViolation
from .policies import _lowest_argmin
from .rng import ARM_LANE, TrialStreams

MAX_DP_SUPPORT = 64
MAX_DP_HORIZON = 100_000
# Trials x steps per block of uniforms read by the greedy Monte Carlo oracle.
GREEDY_BLOCK_CELLS = 2**20


@dataclass(frozen=True)
class OracleResult:
    arm: int
    value: float


def single_armed_oracle(arms: tuple[Distribution, ...], horizon: int) -> OracleResult:
    """Best commit-to-one-arm value; ties go to the lowest arm index."""
    _check_horizon(horizon)
    values = [expected_min(d, horizon) for d in arms]
    arm = _lowest_argmin(values)
    return OracleResult(arm=arm, value=values[arm - 1])


def _joint_support(arms: tuple[Distribution, ...]):
    """Sorted union of atom values, per-arm global indices, linear probs."""
    for d in arms:
        if not d.is_discrete:
            raise ContinuousArm("exact adaptive oracles need discrete arms")
    support = sorted({v for d in arms for v in d.support})
    if len(support) > MAX_DP_SUPPORT:
        raise BudgetExceeded(f"joint support {len(support)} exceeds {MAX_DP_SUPPORT}")
    pos = {v: j for j, v in enumerate(support)}
    idx, probs = [], []
    for d in arms:
        p = d.probs()
        if np.any((p == 0.0) & np.isfinite(d.log_probs)):
            raise PropertyViolation(
                "atom mass underflows to zero in linear scale; exact adaptive "
                "oracles are limited to linearly representable tuples"
            )
        idx.append(np.array([pos[v] for v in d.support], dtype=np.intp))
        probs.append(p)
    return np.array(support, dtype=float), idx, probs


def _min_index_tables(n_states: int, idx: list[np.ndarray]):
    """Per arm: table[state, j] = state after observing arm's j-th atom.

    States 0..m-1 are best-so-far = support[state]; state m means nothing
    observed yet, so the new observation becomes the best.
    """
    tables = []
    rows = np.arange(n_states - 1, dtype=np.intp)
    for g in idx:
        t = np.minimum.outer(rows, g)
        tables.append(np.vstack([t, g[None, :]]))
    return tables


def optimal_oracle_value(arms: tuple[Distribution, ...], horizon: int) -> float:
    """Exact value of the fully adaptive minimizer, by backward induction.

    State = best-so-far (an element of the joint support, or nothing-yet);
    W_0(y) = y and W_r(y) = min_k sum_j p_kj W_{r-1}(min(y, v_kj)).
    """
    _check_horizon(horizon)
    if horizon > MAX_DP_HORIZON:
        raise BudgetExceeded(f"horizon {horizon} exceeds {MAX_DP_HORIZON}")
    support, idx, probs = _joint_support(arms)
    m = len(support)
    tables = _min_index_tables(m + 1, idx)
    w = np.append(support, math.inf)
    for _ in range(horizon):
        w_new = np.full(m + 1, math.inf)
        for table, p in zip(tables, probs):
            np.minimum(w_new, w[table] @ p, out=w_new)
        w = w_new
    return float(w[m])


def greedy_oracle_step(arms: tuple[Distribution, ...], best_so_far: float | None) -> int:
    """Arm minimizing E[min(X_k, best-so-far)]; ties to the lowest index."""
    return _lowest_argmin([expected_min_capped(d, best_so_far) for d in arms])


def greedy_oracle_value(
    arms: tuple[Distribution, ...],
    horizon: int,
    mode: str = "exact",
    n_trials: int = 10_000,
    seed: int = 0,
) -> float:
    """Value of the one-step-lookahead strategy.

    exact mode rolls the greedy decision rule through the same best-so-far
    state space as the optimal DP (discrete arms only). monte_carlo mode
    simulates n_trials trajectories with the shared per-(trial, t) uniforms.
    """
    _check_horizon(horizon)
    if mode == "exact":
        return _greedy_exact(arms, horizon)
    if mode == "monte_carlo":
        return _greedy_monte_carlo(arms, horizon, n_trials, seed)
    raise ValueError(f"mode must be exact or monte_carlo, got {mode!r}")


def _greedy_choices(arms, support) -> np.ndarray:
    """Greedy arm (1-based) for each best-so-far state; last = nothing-yet."""
    choices = [greedy_oracle_step(arms, float(v)) for v in support]
    choices.append(greedy_oracle_step(arms, None))
    return np.array(choices, dtype=np.intp)


def _greedy_exact(arms, horizon) -> float:
    if horizon > MAX_DP_HORIZON:
        raise BudgetExceeded(f"horizon {horizon} exceeds {MAX_DP_HORIZON}")
    support, idx, probs = _joint_support(arms)
    m = len(support)
    tables = _min_index_tables(m + 1, idx)
    choices = _greedy_choices(arms, support)
    masks = [np.nonzero(choices == k + 1)[0] for k in range(len(arms))]
    w = np.append(support, math.inf)
    for _ in range(horizon):
        w_new = np.empty(m + 1)
        for k, rows in enumerate(masks):
            if rows.size:
                w_new[rows] = w[tables[k][rows]] @ probs[k]
        w = w_new
    return float(w[m])


def _greedy_monte_carlo(arms, horizon, n_trials, seed) -> float:
    support, idx, _ = _joint_support(arms)
    m = len(support)
    choices = _greedy_choices(arms, support)
    # Per arm: map the shared uniform to a global support index.
    cums, glob = [], []
    for d, g in zip(arms, idx):
        _, cum = icdf_arrays(d)
        cums.append(cum)
        glob.append(g)
    streams = TrialStreams(seed, ARM_LANE, range(n_trials))
    state = np.full(n_trials, m, dtype=np.intp)
    steps = max(1, GREEDY_BLOCK_CELLS // n_trials)
    for t0 in range(0, horizon, steps):
        for u in streams.next_block(min(steps, horizon - t0)).T:
            arm_of = choices[state]
            new_idx = np.empty(n_trials, dtype=np.intp)
            for k in range(len(arms)):
                mask = arm_of == k + 1
                if np.any(mask):
                    local = np.searchsorted(cums[k], u[mask], side="left")
                    new_idx[mask] = glob[k][local]
            np.minimum(state, new_idx, out=state)
    return float(support[state].mean())


@dataclass(frozen=True)
class ScanResult:
    horizon: int
    s_star: float
    value: float
    upper_bound: float
    lower_bound: float


def two_point_commit_value(s: float, horizon: int) -> float:
    """E[min over T pulls] of the arm {s w.p. s, 1 w.p. 1-s}: s + (1-s)^(T+1)."""
    return s + (1.0 - s) ** (horizon + 1)


def best_arm_scan(horizon: int, grid: int = 10_000, tol: float = 1e-9) -> ScanResult:
    """Minimize s + (1-s)^(T+1) over s in (0, 1).

    Coarse grid scan, then golden-section refinement of the bracketing
    interval down to tol. Bounds: the minimizer is below 2 ln T / T and
    above (ln T - ln ln T - ln 2) / (2 (T + 1)) once T >= 2; for T = 1 the
    bracket formulas are meaningless and come back as nan.
    """
    _check_horizon(horizon)
    ss = np.linspace(0.0, 1.0, grid + 1)[1:-1]
    vals = ss + (1.0 - ss) ** (horizon + 1)
    j = int(np.argmin(vals))
    lo = ss[j - 1] if j > 0 else 0.0
    hi = ss[j + 1] if j + 1 < len(ss) else 1.0
    s_star = _golden_section(lambda s: two_point_commit_value(s, horizon), lo, hi, tol)
    if horizon >= 2:
        upper = 2.0 * math.log(horizon) / horizon
        lower = (math.log(horizon) - math.log(math.log(horizon)) - math.log(2.0)) / (2.0 * (horizon + 1))
    else:
        upper = lower = math.nan
    return ScanResult(
        horizon=horizon,
        s_star=s_star,
        value=two_point_commit_value(s_star, horizon),
        upper_bound=upper,
        lower_bound=lower,
    )


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0
