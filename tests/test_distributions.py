"""Distribution layer against brute-force enumeration and Monte Carlo."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extremebandits as xb
from extremebandits.distributions import (
    COUNTED_ICDF_ATOMS,
    COUNTED_ICDF_CELLS,
    _icdf_index,
    icdf_arrays,
    log_survival_at,
    log_survivals,
)

# ---------------------------------------------------------------------------
# Independent oracles.


def brute_expected_min(atoms, horizon):
    """Enumerate every outcome sequence of length horizon. Exponential; only
    usable for tiny cases, which is exactly what makes it independent."""
    total = 0.0
    for combo in itertools.product(atoms, repeat=horizon):
        prob = math.prod(p for _, p in combo)
        total += prob * min(v for v, _ in combo)
    return total


def brute_expected_min_capped(atoms, cap):
    return math.fsum(p * min(v, cap) for v, p in atoms)


CASES = [
    [(0.0, 0.25), (1.0, 0.75)],
    [(0.5, 1.0)],
    [(0.1, 0.2), (0.4, 0.3), (0.9, 0.5)],
    [(0.05, 0.05), (1.0, 0.95)],
    [(0.2, 0.125), (0.3, 0.125), (0.7, 0.25), (1.0, 0.5)],
]


@pytest.mark.parametrize("atoms", CASES)
@pytest.mark.parametrize("horizon", [1, 2, 3, 5, 7])
def test_expected_min_matches_enumeration(atoms, horizon):
    d = xb.make_discrete(atoms)
    got = xb.expected_min(d, horizon)
    want = brute_expected_min(atoms, horizon)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("atoms", CASES)
def test_expected_min_capped_matches_enumeration(atoms):
    d = xb.make_discrete(atoms)
    for cap in (0.0, 0.05, 0.3, 0.75, 1.0):
        got = xb.expected_min_capped(d, cap)
        want = brute_expected_min_capped(atoms, cap)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert xb.expected_min_capped(d, None) == pytest.approx(d.mean(), rel=1e-12)


def test_expected_min_uniform_closed_form():
    u = xb.uniform01()
    for t in (1, 2, 10, 1000):
        assert xb.expected_min(u, t) == pytest.approx(1.0 / (t + 1), rel=1e-14)
    assert xb.expected_min_capped(u, 0.25) == pytest.approx(0.25 - 0.25**2 / 2, rel=1e-14)
    assert xb.expected_min_capped(u, None) == 0.5


def test_expected_min_monte_carlo_agreement():
    atoms = [(0.1, 0.2), (0.4, 0.3), (0.9, 0.5)]
    d = xb.make_discrete(atoms)
    rng = np.random.default_rng(2024)  # independent generator on purpose
    n, horizon = 40_000, 6
    vals = np.array([v for v, _ in atoms])
    draws = vals[rng.choice(3, size=(n, horizon), p=[p for _, p in atoms])]
    mins = draws.min(axis=1)
    se = mins.std(ddof=1) / math.sqrt(n)
    assert abs(xb.expected_min(d, horizon) - mins.mean()) <= 3 * se


def test_expected_min_log_domain_precision():
    # One atom of mass 1e-12 at 0: E[min_T] = (1 - 1e-12)^T exactly.
    d = xb.make_discrete([(0.0, 1e-12), (1.0, 1.0 - 1e-12)])
    for t in (1, 100, 10_000):
        want = (1.0 - 1e-12) ** t
        assert xb.expected_min(d, t) == pytest.approx(want, rel=1e-13)


def test_expected_min_subfloat_masses_via_logs():
    # Masses far below the linear double range still work end to end.
    d = xb.make_discrete_from_logs([(0.0, -800.0), (1.0, math.log1p(-math.exp(-800)))])
    assert xb.expected_min(d, 10) == pytest.approx(1.0)
    assert log_survival_at(d, 1.0) == pytest.approx(math.log1p(-math.exp(-800)))


# ---------------------------------------------------------------------------
# Construction and validation.


def test_make_discrete_sorts_and_merges():
    d = xb.make_discrete([(0.9, 0.25), (0.1, 0.5), (0.9, 0.25)])
    assert d.support == (0.1, 0.9)
    assert np.exp(d.log_probs[1]) == pytest.approx(0.5, rel=1e-14)


def test_make_discrete_rejects_out_of_range():
    with pytest.raises(xb.OutOfRange):
        xb.make_discrete([(1.5, 1.0)])
    with pytest.raises(xb.OutOfRange):
        xb.make_discrete([(-0.1, 1.0)])


def test_make_discrete_rejects_bad_mass():
    with pytest.raises(xb.NonNormalized):
        xb.make_discrete([(0.5, 0.0)])
    with pytest.raises(xb.NonNormalized):
        xb.make_discrete([(0.5, 0.6), (0.7, 0.6)])
    with pytest.raises(xb.NonNormalized):
        xb.make_discrete([(0.5, 0.5)])


def test_point_mass():
    d = xb.point_mass(0.5)
    assert d.support == (0.5,)
    assert xb.expected_min(d, 100) == 0.5


# ---------------------------------------------------------------------------
# Survival / quantile functions.


def test_survival_includes_atom_at_v():
    d = xb.make_discrete([(0.2, 0.3), (0.8, 0.7)])
    assert xb.survival(d, 0.2) == pytest.approx(1.0)
    assert xb.survival(d, 0.20001) == pytest.approx(0.7, rel=1e-12)
    assert xb.survival(d, 0.8) == pytest.approx(0.7, rel=1e-12)
    assert xb.survival(d, 0.81) == 0.0
    u = xb.uniform01()
    assert xb.survival(u, 0.25) == 0.75


def test_log_survivals_top_is_zero_and_monotone():
    d = xb.make_discrete([(0.1, 0.2), (0.4, 0.3), (0.9, 0.5)])
    ls = log_survivals(d)
    assert ls[0] == 0.0
    assert np.all(np.diff(ls) <= 0)
    assert ls[2] == pytest.approx(math.log(0.5), rel=1e-12)


def test_log_survival_at_boundaries():
    d = xb.make_discrete([(0.2, 0.3), (0.8, 0.7)])
    assert log_survival_at(d, 0.0) == 0.0
    assert log_survival_at(d, 0.5) == pytest.approx(math.log(0.7), rel=1e-12)
    assert log_survival_at(d, 0.9) == -math.inf
    assert log_survival_at(xb.uniform01(), 0.25) == pytest.approx(math.log(0.75))
    assert log_survival_at(xb.uniform01(), 1.0) == -math.inf


def test_icdf_tie_goes_to_lower_atom():
    d = xb.make_discrete([(0.0, 0.25), (1.0, 0.75)])
    assert xb.icdf(d, 0.25) == 0.0  # u exactly at the boundary
    assert xb.icdf(d, 0.25 + 1e-12) == 1.0
    assert xb.icdf(d, 0.0) == 0.0
    out = xb.icdf(d, np.array([0.1, 0.25, 0.9]))
    assert list(out) == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("d", [xb.make_discrete([(0.0, 0.25), (1.0, 0.75)]), xb.uniform01()], ids=["discrete", "uniform01"])
def test_icdf_rejects_u_outside_unit_interval(d, bad):
    # A short array is bisected and a long one counted: both refuse.
    for u in (bad, np.array([0.5, bad]), np.full(COUNTED_ICDF_CELLS, bad)):
        with pytest.raises(xb.OutOfRange):
            xb.icdf(d, u)


def test_sample_equals_icdf_of_addressed_uniform():
    d = xb.make_discrete([(0.1, 0.2), (0.4, 0.3), (0.9, 0.5)])
    for t in range(1, 30):
        r = xb.RngStream(seed=8, trial=2, t=t, lane=0)
        assert xb.sample(d, r) == xb.icdf(d, r.uniform())
    u = xb.uniform01()
    r = xb.RngStream(seed=8, trial=2, t=5, lane=0)
    assert xb.sample(u, r) == r.uniform()


def test_extreme_quantile_prob():
    assert xb.extreme_quantile_prob(0.3, 1) == pytest.approx(0.3, rel=1e-15)
    assert xb.extreme_quantile_prob(0.5, 2) == pytest.approx(0.75, rel=1e-15)
    for alpha, t in [(0.05, 59), (0.01, 461), (0.2, 7)]:
        assert xb.extreme_quantile_prob(alpha, t) == pytest.approx(1.0 - (1.0 - alpha) ** t, rel=1e-12)
    assert xb.extreme_quantile_prob(1.0, 3) == 1.0
    with pytest.raises(xb.OutOfRange):
        xb.extreme_quantile_prob(-0.1, 3)


def test_record_roundtrip():
    d = xb.make_discrete([(0.1, 0.2), (0.4, 0.3), (0.9, 0.5)])
    back = xb.from_record(xb.to_record(d))
    assert back.support == d.support
    assert np.allclose(back.log_probs, d.log_probs, rtol=1e-15)
    u = xb.from_record(xb.to_record(xb.uniform01()))
    assert not u.is_discrete


# ---------------------------------------------------------------------------
# Property-based invariants.


atoms_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)


def _normalize(atoms):
    total = sum(p for _, p in atoms)
    return [(v, p / total) for v, p in atoms]


@settings(max_examples=60, deadline=None)
@given(atoms=atoms_strategy, horizon=st.integers(min_value=1, max_value=30))
def test_expected_min_bounds_and_monotonicity(atoms, horizon):
    d = xb.make_discrete(_normalize(atoms))
    e1 = xb.expected_min(d, horizon)
    e2 = xb.expected_min(d, horizon + 1)
    assert d.support[0] - 1e-12 <= e2 <= e1 + 1e-12
    assert e1 <= d.mean() + 1e-12


@settings(max_examples=60, deadline=None)
@given(atoms=atoms_strategy, u=st.floats(min_value=0.0, max_value=0.999999, allow_nan=False))
def test_icdf_lands_on_support(atoms, u):
    d = xb.make_discrete(_normalize(atoms))
    assert float(xb.icdf(d, u)) in set(d.support)


@settings(max_examples=60, deadline=None)
@given(atoms=atoms_strategy)
def test_survival_is_monotone_step(atoms):
    d = xb.make_discrete(_normalize(atoms))
    grid = np.linspace(0, 1, 23)
    vals = [xb.survival(d, v) for v in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == 1.0


@settings(max_examples=40, deadline=None)
@given(atoms=atoms_strategy, cap=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_capped_expectation_bounds(atoms, cap):
    d = xb.make_discrete(_normalize(atoms))
    v = xb.expected_min_capped(d, cap)
    assert -1e-12 <= v <= min(cap, d.mean()) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.one_of(st.sampled_from([1, 2, COUNTED_ICDF_ATOMS, COUNTED_ICDF_ATOMS + 1]), st.integers(1, COUNTED_ICDF_ATOMS + 40)),
    weights_seed=st.integers(0, 2**32 - 1),
    underflow=st.integers(-1, COUNTED_ICDF_ATOMS + 40),
    extra=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=20),
)
def test_icdf_index_is_searchsorted_left(m, weights_seed, underflow, extra):
    # Log masses from random weights. With underflow in range, that atom's
    # mass is e^-800, 0.0 in double: its cum entry ties with the one before
    # (or is 0.0 for the first atom).
    w = np.random.default_rng(weights_seed).random(m) + 0.01
    tiny = 0 <= underflow < m and m > 1
    if tiny:
        w[underflow] = 0.0
    with np.errstate(divide="ignore"):
        logs = np.log(w / w.sum())
    logs[logs == -math.inf] = -800.0
    d = xb.make_discrete_from_logs(list(zip(np.linspace(0.0, 1.0, m).tolist(), logs.tolist())))
    _, cum = icdf_arrays(d)
    if tiny and underflow < m - 1:
        assert cum[underflow] == (cum[underflow - 1] if underflow else 0.0)
    # Every cum entry and its neighbours, 0.0 and the largest double below 1.
    candidates = np.concatenate((cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0), [0.0, np.nextafter(1.0, 0.0)], extra))
    u = candidates[candidates < 1.0]
    want = np.searchsorted(cum, u, side="left")
    assert np.array_equal(_icdf_index(cum, u), want)  # a short array
    wide = np.tile(u, -(-COUNTED_ICDF_CELLS // len(u)))
    got = _icdf_index(cum, wide)
    assert got.dtype == (np.uint8 if m <= COUNTED_ICDF_ATOMS else np.intp)
    assert np.array_equal(got, np.tile(want, len(wide) // len(u)))
