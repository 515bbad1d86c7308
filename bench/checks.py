"""Output checks: each compares program outputs with reference values and
returns a list of failure messages (empty when the output is correct).

Monte Carlo outputs are judged in standard errors taken from the exact
variance, at Z = 6 standard errors: over every point a run checks, a
correct program fails such a check with a probability far below one in a
million, while any bias larger than that shows.
"""

from __future__ import annotations

import math

import numpy as np

Z = 6.0
# Exact evaluators against the references: both are exact in real
# arithmetic and differ only in summation order and log/linear domain.
RTOL = 1e-9


def close(got, want, what: str, rtol: float = RTOL) -> list[str]:
    """Every entry of got within rtol (relative) of want."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    bad = np.nonzero(~(err <= rtol))[0]
    if bad.size:
        j = int(bad[0])
        return [f"{what}: {bad.size} entries off, first at index {j}: {got[j]!r} vs {want[j]!r}"]
    return []


def within_se(got, mean, second, n: int, what: str) -> list[str]:
    """Monte Carlo means of n trials against exact (E[M], E[M^2])."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if got.shape != mean.shape:
        return [f"{what}: shape {got.shape} != {mean.shape}"]
    se = np.sqrt(np.maximum(np.asarray(second) - mean * mean, 0.0) / n)
    z = np.abs(got - mean) / np.maximum(se, 1e-300)
    bad = np.nonzero(~(z <= Z))[0]
    if bad.size:
        j = int(bad[0])
        return [f"{what}: {bad.size} entries beyond {Z} se, first at index {j}: {got[j]!r} vs {mean[j]!r} (se {se[j]:.3g})"]
    return []


def above_bound(got, bound, n: int, lo: float, hi: float, what: str) -> list[str]:
    """Monte Carlo means of n trials that cannot lie below the exact bound
    except by noise. For a cost in [lo, hi] with mean near L the variance is
    at most (L - lo)(hi - L) (Bhatia-Davis)."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    bound = np.atleast_1d(np.asarray(bound, dtype=float))
    se = np.sqrt(np.maximum((bound - lo) * (hi - bound), 0.0) / n)
    bad = np.nonzero(~(got >= bound - Z * se))[0]
    if bad.size:
        j = int(bad[0])
        return [f"{what}: {bad.size} estimates below the any-policy bound, first {got[j]!r} < {bound[j]!r}"]
    return []


def crossing(t_prime, oracle: float, mean, second, n: int, what: str) -> list[str]:
    """t_prime is the first t whose Monte Carlo mean reaches the oracle, so the
    exact curve must be within Z se of the oracle at t_prime (or below it),
    and not below it by more than Z se one step earlier. With no crossing
    (t_prime None) the exact curve, given up to the cap, must stay above the
    oracle less Z se throughout."""
    mean = np.asarray(mean, dtype=float)
    se = np.sqrt(np.maximum(np.asarray(second) - mean * mean, 0.0) / n)
    if t_prime is None:
        below = np.nonzero(mean < oracle - Z * se)[0]
        if below.size:
            return [f"{what}: no crossing reported, but the exact curve is below the oracle from t={below[0] + 1}"]
        return []
    t = int(t_prime)
    if not 1 <= t <= len(mean):
        return [f"{what}: t_prime {t} outside 1..{len(mean)}"]
    out = []
    if mean[t - 1] > oracle + Z * se[t - 1]:
        out.append(f"{what}: exact curve {mean[t - 1]!r} at t_prime={t} is above the oracle {oracle!r} by more than {Z} se")
    if t > 1 and mean[t - 2] < oracle - Z * se[t - 2]:
        out.append(f"{what}: exact curve {mean[t - 2]!r} at t_prime-1 is already below the oracle {oracle!r}")
    return out


def equal(got, want, what: str) -> list[str]:
    return [] if got == want else [f"{what}: {got!r} != {want!r}"]


def at_most(small, large, what: str, rtol: float = 1e-12) -> list[str]:
    """small <= large up to last-ulp rounding."""
    if small <= large + rtol * max(abs(large), 1e-300):
        return []
    return [f"{what}: {small!r} > {large!r}"]


def beta_law(details: dict, params: dict, passed: bool) -> list[str]:
    """The minimum of T uniforms is Beta(1, T).

    The check's own verdict is a 1%-level test (KS at 1.63/sqrt(N), mean
    within 3 se), so about one seed in a hundred fails it by chance. Here the
    reported statistics are held to a one-in-a-million level instead, and
    the verdict is checked against the rule the check states.
    """
    T, n = params["horizon"], params["n_trials"]
    out = close(details["expected_mean"], 1.0 / (T + 1), f"beta_law T={T} expected mean", 1e-15)
    # P[sqrt(N) D > 2.6] ~ 2 exp(-2 * 2.6^2) ~ 2.7e-6 for the KS statistic D.
    if not details["ks_statistic"] < 2.6 / math.sqrt(n):
        out.append(f"beta_law T={T}: KS statistic {details['ks_statistic']!r} beyond 2.6/sqrt(N)")
    var = T / ((T + 1) ** 2 * (T + 2))
    out += within_se(details["mean"], 1.0 / (T + 1), var + 1.0 / (T + 1) ** 2, n, f"beta_law T={T} mean")
    rule = details["ks_statistic"] < details["ks_threshold"] and abs(details["mean"] - details["expected_mean"]) <= 3.0 * details["mean_se"]
    out += equal(bool(passed), bool(rule), f"beta_law T={T} verdict against its stated rule")
    return out
