"""Adversarial arm-tuple construction.

The hard instances are K-arm tuples parameterized by a rapidly decaying
atom-mass sequence alpha_1 > alpha_2 > ... and an assignment b mapping each
index to an arm: arm k gets an atom at value alpha_j with mass alpha_j for
every j with b_j = k, and the remaining mass gamma_k sits at value 1. A
"mixture" tuple smears index i's atom evenly across all arms (mass
alpha_i / K each), which is what makes arm identities statistically hard to
tell apart over the relevant horizon.

Canonical sequences use log alpha_i = -(i!)^2 log(8K); everything here works
on the logs because linear doubles die long before index 4. The class of
sequences usable at simulation scale (the "desk" preset) keeps the same
structural properties at magnitudes where linear arithmetic is still exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .distributions import LOG_HALF, Distribution, make_discrete_from_logs
from .errors import HorizonOverflow, IndexTooLarge, PropertyViolation
from .rng import RngStream

CANONICAL = "canonical"
USER = "user"

# Log-domain comparison slack for the structural property checks: the
# inequalities themselves are checked at zero tolerance, this only absorbs
# last-ulp rounding of the log arithmetic.
PROPERTY_SLACK = 1e-12

MAX_CANONICAL_INDEX = 8
MAX_HORIZON = 2**62


@dataclass(frozen=True)
class PropertyReport:
    """Per-index verdicts and log-domain margins for properties (A)-(D).

    (A) total mass <= 1/2 (global; the verdict is replicated per index so the
        arrays stay aligned),
    (B) alpha_i <= 1/(4(1+i)),
    (C) tail sum beyond i is <= alpha_i/(i K),
    (D) alpha_i <= alpha_{i-1}^i 2^{-i} for i >= 2 (vacuous at i = 1).

    Margins are RHS - LHS in log domain: nonnegative means the property holds
    with that much log slack. The infinite tail in (C) is evaluated over the
    stored prefix with the unstored remainder taken as exactly zero.
    """

    holds_a: tuple[bool, ...]
    holds_b: tuple[bool, ...]
    holds_c: tuple[bool, ...]
    holds_d: tuple[bool, ...]
    margins_a: tuple[float, ...]
    margins_b: tuple[float, ...]
    margins_c: tuple[float, ...]
    margins_d: tuple[float, ...]
    decreasing: bool

    @property
    def passed(self) -> bool:
        """(A) and (B) everywhere, (C) and (D) from index 2 on."""
        n = len(self.holds_a)
        if not (all(self.holds_a) and all(self.holds_b)):
            return False
        return all(self.holds_c[1:]) and all(self.holds_d[1:]) if n > 1 else True


@dataclass(frozen=True)
class AlphaSequence:
    """A finite prefix of an atom-mass sequence for K arms.

    ``log_alphas`` is authoritative; ``alphas`` carries the linear values
    (user-supplied exactly, or exp of the logs for canonical sequences) used
    when materializing atoms. Construction computes the property report; it
    does not reject failing sequences: reporting on defective sequences is
    the validator's job, and only build_tuple demands properties hold.
    """

    K: int
    log_alphas: tuple[float, ...]
    alphas: tuple[float, ...]
    source: str
    report: PropertyReport = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.K < 2:
            raise PropertyViolation(f"need at least 2 arms, got K={self.K}")
        if not self.log_alphas:
            raise PropertyViolation("empty atom-mass sequence")
        if len(self.log_alphas) != len(self.alphas):
            raise PropertyViolation("log_alphas and alphas length mismatch")
        for la in self.log_alphas:
            if not la < 0.0:
                raise PropertyViolation(f"log alpha must be negative (alpha in (0,1)), got {la}")
        if self.report is None:
            object.__setattr__(self, "report", _property_report(self.K, self.log_alphas))

    @property
    def depth(self) -> int:
        return len(self.log_alphas)


@dataclass(frozen=True)
class BAssignment:
    """Index-to-arm assignment b_1..b_I; entries are 1-based arm indices."""

    values: tuple[int, ...]

    def __post_init__(self):
        for v in self.values:
            if not (isinstance(v, int) and v >= 1):
                raise PropertyViolation(f"assignment entries are arm indices >= 1, got {v!r}")

    def with_index(self, i: int, arm: int) -> "BAssignment":
        vals = list(self.values)
        vals[i - 1] = arm
        return BAssignment(tuple(vals))


@dataclass(frozen=True)
class ConstructedTuple:
    """A K-arm tuple produced by the construction, plus its bookkeeping.

    gammas[k-1] is arm k's mass at value 1. For tuples built relative to a
    designated index i (siblings and mixtures), omegas[k-1] is arm k's value-1
    mass ignoring index i and betas[k-1] = alpha_i / omega_k; both are None
    for plain builds.
    """

    kind: str  # "pure" | "mixture"
    arms: tuple[Distribution, ...]
    gammas: tuple[float, ...]
    log_gammas: tuple[float, ...]
    alpha: AlphaSequence
    b: BAssignment
    index: int | None = None
    omegas: tuple[float, ...] | None = None
    betas: tuple[float, ...] | None = None

    @property
    def K(self) -> int:
        return len(self.arms)


def canonical_alpha(K: int, i: int) -> float:
    """log alpha_i of the canonical sequence: -(i!)^2 log(8K)."""
    if K < 2:
        raise PropertyViolation(f"need at least 2 arms, got K={K}")
    if i < 1:
        raise IndexTooLarge(f"index must be >= 1, got {i}")
    if i > MAX_CANONICAL_INDEX:
        raise IndexTooLarge(f"canonical index {i} beyond supported maximum {MAX_CANONICAL_INDEX}")
    return -float(math.factorial(i) ** 2) * math.log(8 * K)


def canonical_sequence(K: int, depth: int) -> AlphaSequence:
    logs = tuple(canonical_alpha(K, i) for i in range(1, depth + 1))
    return AlphaSequence(K=K, log_alphas=logs, alphas=tuple(math.exp(la) for la in logs), source=CANONICAL)


def user_sequence(K: int, alphas: Sequence[float]) -> AlphaSequence:
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise PropertyViolation(f"alpha values must lie in (0, 1), got {a}")
    return AlphaSequence(
        K=K,
        log_alphas=tuple(math.log(a) for a in alphas),
        alphas=tuple(float(a) for a in alphas),
        source=USER,
    )


def desk_sequence(K: int = 2) -> AlphaSequence:
    """Two-index preset sized for laptop-scale simulation.

    alpha_1 = 0.05 and alpha_2 = 0.99 * alpha_1^2 / 4, i.e. property (D) held
    with 1% to spare, which puts the index-2 horizons near 10^4 steps.
    """
    a1 = 0.05
    return user_sequence(K, [a1, 0.99 * a1 * a1 / 4.0])


def validate_alpha_sequence(a: AlphaSequence) -> PropertyReport:
    """The report computed at construction; exposed as the named operation."""
    return a.report


def _property_report(K: int, log_alphas: Sequence[float]) -> PropertyReport:
    logs = np.asarray(log_alphas, dtype=float)
    n = len(logs)
    margin_a = LOG_HALF - float(logsumexp(logs))
    margins_a = (margin_a,) * n
    margins_b = tuple(-math.log(4.0 * (i + 1)) - logs[i - 1] for i in range(1, n + 1))
    margins_c = []
    for i in range(1, n + 1):
        tail = logs[i:]
        if len(tail) == 0:
            margins_c.append(math.inf)
        else:
            margins_c.append(float(logs[i - 1] - math.log(i * K) - logsumexp(tail)))
    margins_d = [math.inf]
    for i in range(2, n + 1):
        margins_d.append(float(i * logs[i - 2] - i * math.log(2.0) - logs[i - 1]))
    ok = lambda m: m >= -PROPERTY_SLACK
    return PropertyReport(
        holds_a=tuple(ok(m) for m in margins_a),
        holds_b=tuple(ok(m) for m in margins_b),
        holds_c=tuple(ok(m) for m in margins_c),
        holds_d=tuple(ok(m) for m in margins_d),
        margins_a=margins_a,
        margins_b=tuple(margins_b),
        margins_c=tuple(margins_c),
        margins_d=tuple(margins_d),
        decreasing=bool(np.all(np.diff(logs) < 0)),
    )


def _check_buildable(a: AlphaSequence, b: BAssignment) -> None:
    if len(b.values) != a.depth:
        raise PropertyViolation(
            f"assignment depth {len(b.values)} != sequence depth {a.depth}"
        )
    for v in b.values:
        if v > a.K:
            raise PropertyViolation(f"assignment entry {v} exceeds K={a.K}")
    if not all(a.report.holds_a):
        raise PropertyViolation("total atom mass exceeds 1/2 (property (A) fails)")
    if not a.report.decreasing:
        raise PropertyViolation("atom-mass sequence must be strictly decreasing to build a tuple")
    for al in a.alphas:
        if al <= 0.0:
            raise PropertyViolation(
                "atom mass underflows linear range; this sequence is a log-domain "
                "validation target, not a simulation target"
            )


def _arm(a: AlphaSequence, assigned: list[int]) -> tuple[Distribution, float, float]:
    """One arm from its assigned indices.

    Returns (distribution, gamma, log_gamma) with gamma the mass at value 1.
    """
    atoms = [(a.alphas[j - 1], a.log_alphas[j - 1]) for j in assigned]
    total = math.fsum(a.alphas[j - 1] for j in assigned)
    gamma = 1.0 - total
    log_gamma = math.log1p(-total)
    atoms.append((1.0, log_gamma))
    return make_discrete_from_logs(atoms), gamma, log_gamma


def build_tuple(a: AlphaSequence, b: BAssignment) -> ConstructedTuple:
    """Materialize the pure tuple for assignment b.

    Arm k holds an atom (alpha_j, mass alpha_j) for each j with b_j = k and
    mass gamma_k = 1 - sum of those alphas at value 1.
    """
    _check_buildable(a, b)
    arms, gammas, log_gammas = [], [], []
    for k in range(1, a.K + 1):
        assigned = [j for j in range(1, a.depth + 1) if b.values[j - 1] == k]
        arm, gamma, log_gamma = _arm(a, assigned)
        arms.append(arm)
        gammas.append(gamma)
        log_gammas.append(log_gamma)
    return ConstructedTuple(
        kind="pure",
        arms=tuple(arms),
        gammas=tuple(gammas),
        log_gammas=tuple(log_gammas),
        alpha=a,
        b=b,
    )


def _omegas_betas(a: AlphaSequence, b: BAssignment, i: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    omegas = []
    for k in range(1, a.K + 1):
        off_mass = math.fsum(a.alphas[j - 1] for j in range(1, a.depth + 1) if j != i and b.values[j - 1] == k)
        omegas.append(1.0 - off_mass)
    alpha_i = a.alphas[i - 1]
    betas = tuple(alpha_i / w for w in omegas)
    return tuple(omegas), betas


def sibling_tuples(a: AlphaSequence, b: BAssignment, i: int) -> tuple[ConstructedTuple, ...]:
    """The K tuples that agree with b off index i and send index i to each arm.

    Each carries (omega, beta) metadata for index i; sibling k' has
    gamma_k = omega_k - [k == k'] alpha_i.
    """
    _check_index(a, i)
    _check_buildable(a, b)
    omegas, betas = _omegas_betas(a, b, i)
    out = []
    for k_prime in range(1, a.K + 1):
        pure = build_tuple(a, b.with_index(i, k_prime))
        out.append(
            ConstructedTuple(
                kind="pure",
                arms=pure.arms,
                gammas=pure.gammas,
                log_gammas=pure.log_gammas,
                alpha=a,
                b=pure.b,
                index=i,
                omegas=omegas,
                betas=betas,
            )
        )
    return tuple(out)


def build_mixture(a: AlphaSequence, b: BAssignment, i: int) -> ConstructedTuple:
    """The equal-weight mixture of the K siblings at index i.

    Every arm k keeps its off-index atoms, gains mass alpha_i / K at value
    alpha_i, and holds gamma_k = omega_k - alpha_i / K at value 1, which is
    the arm-wise average of the sibling tuples.
    """
    _check_index(a, i)
    _check_buildable(a, b)
    omegas, betas = _omegas_betas(a, b, i)
    alpha_i = a.alphas[i - 1]
    log_alpha_i = a.log_alphas[i - 1]
    arms, gammas, log_gammas = [], [], []
    for k in range(1, a.K + 1):
        assigned = [j for j in range(1, a.depth + 1) if j != i and b.values[j - 1] == k]
        atoms = [(a.alphas[j - 1], a.log_alphas[j - 1]) for j in assigned]
        atoms.append((alpha_i, log_alpha_i - math.log(a.K)))
        off_mass = math.fsum(a.alphas[j - 1] for j in assigned)
        total = off_mass + alpha_i / a.K
        gamma = 1.0 - total
        log_gamma = math.log1p(-total)
        atoms.append((1.0, log_gamma))
        arms.append(make_discrete_from_logs(atoms))
        gammas.append(gamma)
        log_gammas.append(log_gamma)
    return ConstructedTuple(
        kind="mixture",
        arms=tuple(arms),
        gammas=tuple(gammas),
        log_gammas=tuple(log_gammas),
        alpha=a,
        b=b,
        index=i,
        omegas=omegas,
        betas=betas,
    )


def horizon_T(log_alpha: float) -> int:
    """ceil(log(1/alpha) / alpha), the horizon at which alpha-mass atoms show up.

    Raises HorizonOverflow (carrying the log horizon) when the value exceeds
    the integer guard; callers that only need scaling keep working in logs.
    """
    _check_log_alpha(log_alpha)
    log_t = math.log(-log_alpha) - log_alpha
    if log_t > math.log(MAX_HORIZON):
        raise HorizonOverflow(f"horizon exp({log_t:.6g}) exceeds integer range", log_horizon=log_t)
    return int(math.ceil(-log_alpha / math.exp(log_alpha)))


def log_horizon_T(log_alpha: float) -> float:
    """log of horizon_T; exact log of the integer when representable."""
    _check_log_alpha(log_alpha)
    log_t = math.log(-log_alpha) - log_alpha
    if log_t > math.log(MAX_HORIZON):
        return log_t
    return math.log(horizon_T(log_alpha))


def c_factor(i: int) -> float:
    """The horizon-ratio constant (1 - 1/i) / ((1 + 1/i)^2 + 2/i); 0 at i=1, -> 1."""
    if i < 1:
        raise IndexTooLarge(f"index must be >= 1, got {i}")
    inv = 1.0 / i
    return (1.0 - inv) / ((1.0 + inv) ** 2 + 2.0 * inv)


def horizon_Tprime(log_alpha: float, i: int, K: int) -> tuple[int, float]:
    """floor(c_i K log(1/alpha) / alpha) and c_i.

    At i = 1 the constant is zero and the horizon degenerates to 0; accepted
    here, excluded from verification runs by the checkers.
    """
    _check_log_alpha(log_alpha)
    c = c_factor(i)
    if c == 0.0:
        return 0, 0.0
    log_t = math.log(c * K) + math.log(-log_alpha) - log_alpha
    if log_t > math.log(MAX_HORIZON):
        raise HorizonOverflow(f"horizon exp({log_t:.6g}) exceeds integer range", log_horizon=log_t)
    return int(math.floor(c * K * (-log_alpha) / math.exp(log_alpha))), c


def log_horizon_Tprime(log_alpha: float, i: int, K: int) -> float:
    _check_log_alpha(log_alpha)
    c = c_factor(i)
    if c == 0.0:
        return float("-inf")
    log_t = math.log(c * K) + math.log(-log_alpha) - log_alpha
    if log_t > math.log(MAX_HORIZON):
        return log_t
    return math.log(horizon_Tprime(log_alpha, i, K)[0])


def sample_b(K: int, depth: int, r: RngStream) -> BAssignment:
    """Assignment with entries independently uniform on {1..K}."""
    if K < 2:
        raise PropertyViolation(f"need at least 2 arms, got K={K}")
    u = r.uniforms(depth)
    entries = np.minimum((u * K).astype(int), K - 1) + 1
    return BAssignment(tuple(int(e) for e in entries))


def all_assignments(K: int, depth: int):
    """Every assignment in {1..K}^depth, lexicographic; small depths only."""
    import itertools

    for combo in itertools.product(range(1, K + 1), repeat=depth):
        yield BAssignment(combo)


def sequence_to_record(a: AlphaSequence) -> dict:
    if a.source == CANONICAL:
        alphas = [f"canonical:{i}" for i in range(1, a.depth + 1)]
    else:
        alphas = list(a.alphas)
    return {"K": a.K, "alphas": alphas}


def sequence_from_record(rec: dict) -> AlphaSequence:
    K = rec["K"]
    raw = rec["alphas"]
    canonical_idx = []
    linear = []
    for entry in raw:
        if isinstance(entry, str):
            tag, _, idx = entry.partition(":")
            if tag != CANONICAL or not idx.isdigit():
                raise PropertyViolation(f"bad alpha entry {entry!r}")
            canonical_idx.append(int(idx))
        else:
            linear.append(float(entry))
    if canonical_idx and linear:
        raise PropertyViolation("mixing canonical and explicit alphas is not supported")
    if canonical_idx:
        if canonical_idx != list(range(1, len(canonical_idx) + 1)):
            raise PropertyViolation("canonical alpha entries must be canonical:1..canonical:n in order")
        return canonical_sequence(K, len(canonical_idx))
    return user_sequence(K, linear)


def _check_index(a: AlphaSequence, i: int) -> None:
    if not 1 <= i <= a.depth:
        raise IndexTooLarge(f"designated index {i} outside 1..{a.depth}")


def _check_log_alpha(log_alpha: float) -> None:
    if not log_alpha < 0.0:
        raise PropertyViolation(f"log alpha must be negative, got {log_alpha}")
