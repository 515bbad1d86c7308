"""Addressed-randomness contract: same coordinates, same value, any path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremebandits.rng import (
    ARM_LANE,
    CHECK_LANE,
    POLICY_LANE,
    RngStream,
    TrialStreams,
    generator_for,
    uniform_block,
)


def test_same_address_same_value():
    a = RngStream(seed=12, trial=3, t=5, lane=ARM_LANE).uniform()
    b = RngStream(seed=12, trial=3, t=5, lane=ARM_LANE).uniform()
    assert a == b


def test_lanes_are_independent_streams():
    arm = RngStream(seed=12, trial=3, t=5, lane=ARM_LANE).uniform()
    pol = RngStream(seed=12, trial=3, t=5, lane=POLICY_LANE).uniform()
    chk = RngStream(seed=12, trial=3, t=5, lane=CHECK_LANE).uniform()
    assert len({arm, pol, chk}) == 3


def test_trials_do_not_collide():
    row0 = uniform_block(seed=9, lane=ARM_LANE, trial=0, n=64)
    row1 = uniform_block(seed=9, lane=ARM_LANE, trial=1, n=64)
    assert not np.array_equal(row0, row1)


def test_uniform_is_the_t_th_block_entry():
    block = uniform_block(seed=4, lane=ARM_LANE, trial=11, n=20)
    for t in (1, 2, 7, 20):
        assert RngStream(seed=4, trial=11, t=t, lane=ARM_LANE).uniform() == block[t - 1]


def test_uniforms_slice_matches_block():
    block = uniform_block(seed=4, lane=ARM_LANE, trial=2, n=30)
    got = RngStream(seed=4, trial=2, t=11, lane=ARM_LANE).uniforms(20)
    assert np.array_equal(got, block[10:30])


def test_piecewise_blocks_match_one_shot():
    trials = range(5, 9)
    for sizes in ((13, 17), (1, 4096, 0, 7, 300)):
        streams = TrialStreams(7, ARM_LANE, trials)
        blocks = [streams.next_block(n) for n in sizes]
        whole = np.vstack([uniform_block(7, ARM_LANE, tr, sum(sizes)) for tr in trials])
        assert np.array_equal(np.hstack(blocks), whole)


class _GeneratorPerTrial:
    """Reference reader: one generator per trial, each read sequentially."""

    def __init__(self, seed, lane, trials):
        self._gens = [generator_for(seed, lane, m) for m in trials]

    def next_block(self, n):
        out = np.empty((len(self._gens), n))
        for row, gen in enumerate(self._gens):
            gen.random(n, out=out[row])
        return out


def _assert_same_blocks(seed, lane, trials, sizes):
    streams = TrialStreams(seed, lane, trials)
    ref = _GeneratorPerTrial(seed, lane, trials)
    assert len(streams) == len(trials)
    for n in sizes:
        assert np.array_equal(streams.next_block(n), ref.next_block(n))


@pytest.mark.parametrize(
    "trials",
    [range(3), [9, 2, 40, 2, 0], [2**64 - 1, 7, 2**40 + 5], []],
)
def test_trial_streams_match_generator_per_trial(trials):
    # Block sizes that leave the read position at every offset within a
    # four-word Philox block, including a zero-size read.
    _assert_same_blocks(11, POLICY_LANE, list(trials), (1, 3, 4096, 0, 7, 300))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    trials=st.lists(st.integers(0, 2**64 - 1), max_size=6),
    sizes=st.lists(st.integers(0, 70), max_size=6),
)
def test_trial_streams_property(seed, trials, sizes):
    _assert_same_blocks(seed, ARM_LANE, trials, sizes)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    trials=st.lists(st.integers(0, 2**64 - 1), max_size=6),
    data=st.data(),
)
def test_trial_streams_read_row_subsets(seed, trials, data):
    # Each block reads an arbitrary subset of rows: it equals those rows of
    # the full block, and the rows it skipped read the same later on.
    sub = TrialStreams(seed, ARM_LANE, trials)
    full = TrialStreams(seed, ARM_LANE, trials)
    pick = st.sets(st.integers(0, len(trials) - 1)) if trials else st.just(set())
    for n in data.draw(st.lists(st.integers(0, 70), max_size=5), label="sizes"):
        rows = np.array(sorted(data.draw(pick, label="rows")), dtype=np.intp)
        got = sub.next_block(n, rows)
        assert got.shape == (len(rows), n)
        assert np.array_equal(got, full.next_block(n)[rows])
    assert np.array_equal(sub.next_block(9), full.next_block(9))


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_trial_streams_reject_bad_trial(bad):
    with pytest.raises(ValueError):
        TrialStreams(0, ARM_LANE, [0, bad])


def _philox_reference(seed, lane, trial, t):
    """The double at step t, from a Philox advanced to the step's block."""
    bitgen = np.random.Philox(
        key=np.array([seed, lane], dtype=np.uint64),
        counter=np.array([0, trial, 0, 0], dtype=np.uint64),
    )
    bitgen.advance((t - 1) // 4)
    word = int(bitgen.random_raw(4)[(t - 1) % 4])
    return (word >> 11) * 2.0**-53


def test_uniform_at_huge_t_reads_from_the_counter():
    for t in (2**40, 2**40 + 1, 2**40 + 2, 2**40 + 3, 2**40 + 4):
        r = RngStream(seed=4, trial=11, t=t, lane=CHECK_LANE)
        assert r.uniform() == _philox_reference(4, CHECK_LANE, 11, t)
        got = r.uniforms(6)
        assert got[0] == r.uniform()
        assert got[5] == _philox_reference(4, CHECK_LANE, 11, t + 5)
    # The reference formula agrees with the generator at small t.
    block = uniform_block(4, CHECK_LANE, 11, 9)
    assert [_philox_reference(4, CHECK_LANE, 11, t) for t in range(1, 10)] == list(block)


def test_generator_reproducibility():
    g1 = generator_for(100, ARM_LANE, 42).random(8)
    g2 = generator_for(100, ARM_LANE, 42).random(8)
    assert np.array_equal(g1, g2)


def test_address_validation():
    with pytest.raises(ValueError):
        RngStream(seed=-1, trial=0, t=1, lane=ARM_LANE)
    with pytest.raises(ValueError):
        RngStream(seed=0, trial=0, t=0, lane=ARM_LANE)
    with pytest.raises(ValueError):
        RngStream(seed=0, trial=0, t=4 * 2**64 + 1, lane=ARM_LANE)


def test_at_rekeys_fields():
    r = RngStream(seed=5, trial=1, t=2, lane=ARM_LANE)
    shifted = r.at(t=9, lane=POLICY_LANE)
    assert shifted.seed == 5 and shifted.trial == 1
    assert shifted.t == 9 and shifted.lane == POLICY_LANE
