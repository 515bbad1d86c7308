"""Reference values computed apart from the package.

Nothing here imports extremebandits: every number is derived from the
arms' atoms (or from closed forms) with plain numpy and math, so a fault in
the package cannot hide in its own reference. Each function is tested
against brute-force enumeration at tiny sizes in ``test_reference.py``.

A discrete arm is a pair ``(values, probs)`` of equal-length sequences with
values in [0, 1]. Curves are arrays indexed by t - 1 for t = 1..T; "moments"
are ``(E[M_t], E[M_t^2])`` with M_t the minimum of the first t costs.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


# ---------------------------------------------------------------------------
# Discrete arms: survivals on the joint grid.


def joint_grid(arms) -> np.ndarray:
    """Sorted union of every arm's atom values."""
    return np.array(sorted({float(v) for values, _ in arms for v in values}))


def survivals(arm, grid: np.ndarray) -> np.ndarray:
    """S(v) = P[X >= v] at each grid point (an atom at v counts)."""
    values = np.asarray(arm[0], dtype=float)
    probs = np.asarray(arm[1], dtype=float)
    order = np.argsort(values)
    values, probs = values[order], probs[order]
    # tail[j] = mass at or above values[j]; tail[m] = 0.
    tail = np.append(np.cumsum(probs[::-1])[::-1], 0.0)
    tail[0] = 1.0
    return tail[np.searchsorted(values, grid, side="left")]


def _moments_from_tail(grid: np.ndarray, tail: np.ndarray):
    """E[M], E[M^2] from P[M >= v_j] (last axis over the grid)."""
    lo = np.concatenate([[0.0], grid[:-1]])
    return tail @ (grid - lo), tail @ (grid * grid - lo * lo)


def scripted_moments(arms, counts: np.ndarray):
    """Moments of the minimum when arm k has been pulled counts[..., k] times.

    P[M >= v] = prod_k S_k(v)^{n_k}: draws are independent whatever the
    order, so only the pull counts matter.
    """
    grid = joint_grid(arms)
    s = np.stack([survivals(arm, grid) for arm in arms])  # (K, J)
    counts = np.asarray(counts)
    tail = np.ones(counts.shape[:-1] + (len(grid),))
    for k in range(len(arms)):
        tail = tail * np.power(s[k], counts[..., k, None])
    return _moments_from_tail(grid, tail)


def round_robin_counts(K: int, horizon: int) -> np.ndarray:
    """counts[t-1, k] = pulls of arm k+1 among t = 1..horizon round-robin steps."""
    t = np.arange(1, horizon + 1)[:, None]
    k = np.arange(K)[None, :]
    return (t - k + K - 1) // K


def single_arm_expected_min(arm, horizon: int) -> float:
    """E[min of horizon draws] by the telescoping sum over the arm's atoms."""
    values = sorted(zip(arm[0], arm[1]))
    acc = []
    above = 1.0  # P[X >= current atom]
    for v, p in values:
        nxt = max(above - p, 0.0)
        acc.append(v * (above**horizon - nxt**horizon))
        above = nxt
    return math.fsum(acc)


def lower_bound_curve(arms, horizon: int) -> np.ndarray:
    """L(t) = integral over [0, 1] of (min_k S_k(v))^t dv, t = 1..horizon.

    Whatever arm a policy picks, each draw is >= v with probability at least
    min_k S_k(v), so every policy's E[M_t] is at least L(t).
    """
    grid = joint_grid(arms)
    s_min = np.min(np.stack([survivals(arm, grid) for arm in arms]), axis=0)
    t = np.arange(1, horizon + 1)[:, None]
    return _moments_from_tail(grid, np.power(s_min[None, :], t))[0]


# ---------------------------------------------------------------------------
# uniform_vs_sure: arm 1 is uniform on [0, 1), arm 2 is a sure 1. With N
# uniform draws among t pulls, E[M] = 1/(N+1) and E[M^2] = 2/((N+1)(N+2)).


def _uniform_moments_given(n: np.ndarray):
    n = np.asarray(n, dtype=float)
    return 1.0 / (n + 1.0), 2.0 / ((n + 1.0) * (n + 2.0))


def uvs_scripted(uniform_pulls: np.ndarray):
    """Moments for a script that has pulled the uniform arm n times by t."""
    return _uniform_moments_given(uniform_pulls)


def uvs_uniform_random(horizon: int, p: float = 0.5):
    """N ~ Binomial(t, p): E[1/(N+1)] and E[2/((N+1)(N+2))] in closed form.

    Both follow from 1/(n+1) = int_0^1 x^n dx and
    1/((n+1)(n+2)) = int_0^1 x^n (1-x) dx, integrated against (q + p x)^t.
    """
    t = np.arange(1, horizon + 1, dtype=float)
    q = 1.0 - p
    m1 = (1.0 - q ** (t + 1)) / ((t + 1) * p)
    m2 = 2.0 * ((1.0 - q ** (t + 1)) / (t + 1) - (1.0 - q ** (t + 2)) / (t + 2)) / (p * p)
    return m1, m2


def uvs_eps_greedy(horizon: int, epsilon: float):
    """Exact recursion over N_t, the uniform-arm pull count, for eps-greedy-min.

    Step 1 exploits arm 1 (both arms unseen, lowest index wins). While arm 1
    is unseen the sure arm's 1.0 beats its +inf, so only exploration
    (probability eps/2) pulls it; once seen, any uniform draw beats 1.0 and
    arm 1 is pulled unless exploration picks arm 2 (probability eps/2).
    """
    half = epsilon / 2.0
    dist = np.zeros(horizon + 1)
    dist[0] = 1.0
    m1 = np.empty(horizon)
    m2 = np.empty(horizon)
    e1, e2 = _uniform_moments_given(np.arange(horizon + 1))
    for t in range(1, horizon + 1):
        p_arm1 = np.full(horizon + 1, 1.0 - half)
        if t > 1:
            p_arm1[0] = half
        moved = dist * p_arm1
        dist = dist - moved
        dist[1:] += moved[:-1]
        m1[t - 1] = math.fsum(dist * e1)
        m2[t - 1] = math.fsum(dist * e2)
    return m1, m2


# ---------------------------------------------------------------------------
# Adaptive strategies on discrete arms.


def _capped_mean(arm, cap: float) -> float:
    """E[min(X, cap)]; cap = inf gives the mean."""
    return math.fsum(min(v, cap) * p for v, p in zip(arm[0], arm[1]))


def greedy_moments(arms, horizon: int):
    """Moments of the one-step-lookahead strategy, by forward propagation of
    the best-so-far distribution. The strategy pulls argmin_k E[min(X_k, y)]
    at best-so-far y (y = +inf before any pull), ties to the lowest index."""
    grid = joint_grid(arms)
    J = len(grid)
    choice = []
    for y in list(grid) + [math.inf]:
        scores = [_capped_mean(arm, y) for arm in arms]
        choice.append(min(range(len(arms)), key=lambda k: (scores[k], k)))
    dist = np.zeros(J + 1)
    dist[J] = 1.0  # nothing observed yet
    index = {v: j for j, v in enumerate(grid)}
    for _ in range(horizon):
        new = np.zeros(J + 1)
        for state in np.nonzero(dist)[0]:
            values, probs = arms[choice[state]]
            for v, p in zip(values, probs):
                new[min(state, index[float(v)])] += dist[state] * p
        dist = new
    values = np.append(grid, 0.0)
    return float(dist @ values), float(dist @ (values * values))


def eps_greedy_moments(arms, epsilon: float, horizon: int):
    """Exact curve of eps-greedy-min on discrete arms, t = 1..horizon.

    The policy only reads each arm's best value so far, so its state is one
    atom index per arm (or "unseen"), and the curve is a forward propagation
    of the state distribution through a fixed transition matrix. Each step
    explores arm k with probability eps/K and otherwise pulls the arm with
    the lowest best-so-far (+inf while unseen), ties to the lowest index.
    """
    arms = [tuple(zip(*sorted(zip(*arm)))) for arm in arms]  # atom index order = value order
    K = len(arms)
    sizes = [len(values) for values, _ in arms]
    states = list(product(*(range(m + 1) for m in sizes)))  # index m = unseen
    where = {s: i for i, s in enumerate(states)}

    def best(s, k):
        return arms[k][0][s[k]] if s[k] < sizes[k] else math.inf

    move = np.zeros((len(states), len(states)))
    low = np.empty(len(states))
    for i, s in enumerate(states):
        bests = [best(s, k) for k in range(K)]
        low[i] = min(bests)
        exploit = min(range(K), key=lambda k: (bests[k], k))
        for k in range(K):
            pull = epsilon / K + (1.0 - epsilon if k == exploit else 0.0)
            for j, p in enumerate(arms[k][1]):
                after = list(s)
                after[k] = min(s[k], j)
                move[i, where[tuple(after)]] += pull * p
    dist = np.zeros(len(states))
    dist[where[tuple(sizes)]] = 1.0
    low[where[tuple(sizes)]] = 0.0  # nothing seen: never occupied after t = 0
    m1 = np.empty(horizon)
    m2 = np.empty(horizon)
    for t in range(horizon):
        dist = dist @ move
        m1[t] = dist @ low
        m2[t] = dist @ (low * low)
    return m1, m2


def optimal_value(arms, horizon: int) -> float:
    """Backward induction: W_0(y) = y, W_r(y) = min_k E[W_{r-1}(min(y, X_k))]."""
    grid = joint_grid(arms)
    J = len(grid)
    index = {v: j for j, v in enumerate(grid)}
    w = np.append(grid, math.inf)
    nexts = []
    for values, probs in arms:
        cols = np.array([index[float(v)] for v in values])
        nexts.append((np.minimum(np.arange(J + 1)[:, None], cols[None, :]), np.asarray(probs, dtype=float)))
    for _ in range(horizon):
        w = np.min(np.stack([w[table] @ p for table, p in nexts]), axis=0)
    return float(w[J])


# ---------------------------------------------------------------------------
# Outcome-path enumeration for deterministic adaptive policies.


def greedy_best_rule(K: int):
    """eps-greedy-min with eps = 0: the arm with the lowest best-so-far
    (+inf while unseen), ties to the lowest index."""

    def choose(t, history):
        best = [math.inf] * K
        for arm, v in history:
            best[arm] = min(best[arm], v)
        return min(range(K), key=lambda k: (best[k], k))

    return choose


def quantile_rule(K: int, q: float, every: int):
    """Empirical q-quantile index: forced round robin at t = 1, 1+every, ...,
    otherwise the arm whose ceil(q n)-th smallest observation is lowest."""

    def choose(t, history):
        if (t - 1) % every == 0:
            return ((t - 1) // every) % K
        scores = []
        for k in range(K):
            seen = sorted(v for arm, v in history if arm == k)
            scores.append(seen[max(1, math.ceil(q * len(seen))) - 1] if seen else math.inf)
        return min(range(K), key=lambda k: (scores[k], k))

    return choose


def enumerate_paths(rule, arms, horizon: int) -> np.ndarray:
    """E[M_t] for t = 1..horizon over every outcome path, level by level.

    ``rule(t, history)`` returns a 0-based arm from the (arm, value) history.
    Every path of length t is kept explicitly with its probability.
    """
    paths = [((), 1.0, math.inf)]
    curve = np.empty(horizon)
    for t in range(1, horizon + 1):
        grown = []
        for history, prob, low in paths:
            arm = rule(t, history)
            for v, p in zip(*arms[arm]):
                grown.append((history + ((arm, v),), prob * p, min(low, v)))
        paths = grown
        curve[t - 1] = math.fsum(prob * low for _, prob, low in paths)
    return curve


def brute_force_moments(rule, arms, horizon: int):
    """E[M], E[M^2] by enumerating every table of per-arm outcomes.

    Arm k's s-th pull returns outcome[k][s]; all K x horizon outcome tables
    are enumerated, so this shares no structure with the path enumeration.
    Exponential in K * horizon: tiny sizes only.
    """
    K = len(arms)
    m1 = m2 = 0.0
    sizes = [range(len(arm[0])) for arm in arms]
    for table in product(*(sizes[k] for k in range(K) for _ in range(horizon))):
        prob = 1.0
        for k in range(K):
            for s in range(horizon):
                prob *= arms[k][1][table[k * horizon + s]]
        used = [0] * K
        history = ()
        for t in range(1, horizon + 1):
            arm = rule(t, history)
            v = arms[arm][0][table[arm * horizon + used[arm]]]
            used[arm] += 1
            history += ((arm, v),)
        low = min(v for _, v in history)
        m1 += prob * low
        m2 += prob * low * low
    return m1, m2
