"""Cost distributions on [0, 1] and exact minimum-of-T functionals.

Arms are either finite discrete distributions or the standard uniform.
Discrete masses are stored as natural logs: the adversarial constructions
this package studies use atom masses that can sit far below linear double
range, and every closed form here only needs masses through survival
functions, which exponentiate safely after the log-domain algebra is done.

The one identity everything leans on: for X_1..X_T iid with survival S,
P[min >= v] = S(v)^T, so the exact expected minimum over a finite support
is a telescoping sum of survival powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import NonNormalized, NotContinuous, OutOfRange
from .rng import RngStream

DISCRETE = "discrete"
UNIFORM01 = "uniform01"

# |sum of probs - 1| allowed at construction / load.
NORMALIZATION_TOL = 1e-12

LOG_ZERO = float("-inf")
LOG_HALF = math.log(0.5)


def _exp_diff(log_a: float, log_b: float) -> float:
    """e^log_a - e^log_b for log_a >= log_b, accurate when nearly equal."""
    if log_b == LOG_ZERO:
        return math.exp(log_a)
    if log_b > log_a:
        raise ValueError("exp_diff expects log_a >= log_b")
    # e^a - e^b = e^a * (1 - e^(b-a)) = e^a * (-expm1(b-a))
    return math.exp(log_a) * (-math.expm1(log_b - log_a))


@dataclass(frozen=True)
class Distribution:
    """A cost distribution on [0, 1].

    For ``kind == "discrete"``, ``support`` is strictly ascending and
    ``log_probs`` holds the log masses, normalized to NORMALIZATION_TOL.
    For ``kind == "uniform01"`` both tuples are empty.
    """

    kind: str
    support: tuple[float, ...] = ()
    log_probs: tuple[float, ...] = ()

    @property
    def is_discrete(self) -> bool:
        return self.kind == DISCRETE

    def probs(self) -> np.ndarray:
        """Linear masses (may underflow to 0 for extreme log masses)."""
        return np.exp(np.asarray(self.log_probs))

    def mean(self) -> float:
        if not self.is_discrete:
            return 0.5
        return float(np.dot(np.asarray(self.support), self.probs()))


def uniform01() -> Distribution:
    return Distribution(kind=UNIFORM01)


def make_discrete(atoms: Iterable[tuple[float, float]]) -> Distribution:
    """Build a discrete distribution from (value, probability) pairs.

    Pairs with equal values are merged. Raises OutOfRange for values outside
    [0, 1], NonNormalized for nonpositive masses or a total off by more than
    NORMALIZATION_TOL.
    """
    pairs = list(atoms)
    if not pairs:
        raise NonNormalized("need at least one atom")
    for v, p in pairs:
        if not 0.0 <= v <= 1.0:
            raise OutOfRange(f"atom value {v} outside [0, 1]")
        if not p > 0.0:
            raise NonNormalized(f"atom probability must be positive, got {p}")
    return make_discrete_from_logs(
        [(v, math.log(p)) for v, p in pairs], total_log_mass=math.log(math.fsum(p for _, p in pairs))
    )


def make_discrete_from_logs(
    atoms: Iterable[tuple[float, float]], *, total_log_mass: float | None = None
) -> Distribution:
    """Like make_discrete but with log masses, for construction-scale atoms.

    ``total_log_mass`` lets a caller that already knows the exact linear total
    (e.g. make_discrete, which fsum'd it) supply it; otherwise the total is
    checked via logsumexp of the parts.
    """
    pairs = sorted(atoms, key=lambda vp: vp[0])
    if not pairs:
        raise NonNormalized("need at least one atom")
    values: list[float] = []
    logs: list[float] = []
    for v, lp in pairs:
        if not 0.0 <= v <= 1.0:
            raise OutOfRange(f"atom value {v} outside [0, 1]")
        if lp == LOG_ZERO:
            raise NonNormalized("atom with zero mass")
        if values and v == values[-1]:
            logs[-1] = float(np.logaddexp(logs[-1], lp))
        else:
            values.append(float(v))
            logs.append(float(lp))
    total = total_log_mass if total_log_mass is not None else float(logsumexp(np.array(logs)))
    # |e^total - 1| <= tol, evaluated without cancellation.
    if abs(math.expm1(total)) > NORMALIZATION_TOL:
        raise NonNormalized(f"atom masses sum to exp({total}) != 1")
    return Distribution(kind=DISCRETE, support=tuple(values), log_probs=tuple(logs))


def point_mass(value: float) -> Distribution:
    return make_discrete([(value, 1.0)])


def log_survivals(d: Distribution) -> np.ndarray:
    """log P[X >= v_j] for each support point; index 0 is exactly 0.0."""
    if not d.is_discrete:
        raise NotContinuous("log_survivals is for discrete distributions")
    logs = np.asarray(d.log_probs)
    m = len(logs)
    out = np.empty(m)
    out[0] = 0.0  # all mass sits at or above the smallest atom
    for j in range(1, m):
        out[j] = logsumexp(logs[j:])
    # Survival is nonincreasing by construction; enforce against logsumexp
    # rounding so downstream _exp_diff never sees an inversion.
    np.minimum.accumulate(out, out=out)
    return out


def survival(d: Distribution, v: float) -> float:
    """P[X >= v]; an atom exactly at v counts."""
    if not d.is_discrete:
        return min(1.0, max(0.0, 1.0 - v))
    support = np.asarray(d.support)
    j = int(np.searchsorted(support, v, side="left"))
    if j >= len(support):
        return 0.0
    if j == 0:
        return 1.0
    return float(math.exp(logsumexp(np.asarray(d.log_probs)[j:])))


def log_survival_at(d: Distribution, v: float) -> float:
    """log P[X >= v]; an atom exactly at v counts. -inf above all mass."""
    if not d.is_discrete:
        if v <= 0.0:
            return 0.0
        if v >= 1.0:
            return LOG_ZERO
        return math.log1p(-v)
    support = np.asarray(d.support)
    j = int(np.searchsorted(support, v, side="left"))
    if j >= len(support):
        return LOG_ZERO
    return float(log_survivals(d)[j])


def expected_min(d: Distribution, horizon: int) -> float:
    """E[min of `horizon` iid draws], exact.

    Discrete case telescopes survival powers, all in log domain until the
    final difference, so horizons like 10^4 with masses like 6e-4 keep full
    relative precision. Uniform case is 1/(T+1).
    """
    _check_horizon(horizon)
    if not d.is_discrete:
        return 1.0 / (horizon + 1)
    ls = log_survivals(d)
    acc = 0.0
    m = len(ls)
    for j in range(m):
        lo = ls[j + 1] * horizon if j + 1 < m else LOG_ZERO
        acc += d.support[j] * _exp_diff(ls[j] * horizon, lo)
    return acc


def expected_min_capped(d: Distribution, cap: float | None) -> float:
    """E[min(X, cap)] for one draw; cap None means no cap (plain mean)."""
    if cap is None:
        return d.mean()
    if not 0.0 <= cap <= 1.0:
        raise OutOfRange(f"cap {cap} outside [0, 1]")
    if not d.is_discrete:
        # integral of x on [0, cap] plus cap * P[X > cap]
        return cap - 0.5 * cap * cap
    acc = 0.0
    for v, lp in zip(d.support, d.log_probs):
        if v < cap:
            acc += v * math.exp(lp)
        else:
            break
    return acc + cap * survival(d, cap)


def icdf_arrays(d: Distribution) -> tuple[np.ndarray, np.ndarray]:
    """(support, cumulative probabilities) for inverse-CDF sampling.

    The last cumulative entry is pinned to 1.0 so u in [0, 1) always lands.
    """
    if not d.is_discrete:
        raise NotContinuous("uniform01 samples are the uniforms themselves")
    support = np.asarray(d.support)
    cum = np.cumsum(np.exp(np.asarray(d.log_probs)))
    cum[-1] = 1.0
    return support, cum


def icdf(d: Distribution, u: np.ndarray | float):
    """Inverse CDF; boundary ties resolve to the lower-indexed atom."""
    if not d.is_discrete:
        return u
    support, cum = icdf_arrays(d)
    idx = np.searchsorted(cum, u, side="left")
    return support[idx]


def sample(d: Distribution, r: RngStream) -> float:
    """The draw of d addressed by r (stateless: same address, same value)."""
    return float(icdf(d, r.uniform()))


def extreme_quantile_prob(alpha: float, horizon: int) -> float:
    """P[F(min of T draws) <= alpha] = 1 - (1-alpha)^T, any continuous F.

    Evaluated as -expm1(T log1p(-alpha)) so tiny alpha keeps precision.
    """
    if not 0.0 <= alpha <= 1.0:
        raise OutOfRange(f"alpha {alpha} outside [0, 1]")
    _check_horizon(horizon)
    if alpha == 1.0:
        return 1.0
    return -math.expm1(horizon * math.log1p(-alpha))


def to_record(d: Distribution) -> dict:
    if not d.is_discrete:
        return {"kind": UNIFORM01}
    return {
        "kind": DISCRETE,
        "atoms": [{"value": v, "prob": math.exp(lp)} for v, lp in zip(d.support, d.log_probs)],
    }


def from_record(rec: dict) -> Distribution:
    kind = rec.get("kind")
    if kind == UNIFORM01:
        return uniform01()
    if kind == DISCRETE:
        atoms = rec.get("atoms", [])
        return make_discrete([(a["value"], a["prob"]) for a in atoms])
    raise NonNormalized(f"unknown distribution kind {kind!r}")


def _check_horizon(horizon: int) -> None:
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
