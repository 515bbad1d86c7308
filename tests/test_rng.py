"""Addressed-randomness contract: same coordinates, same value, any path."""

import numpy as np
import pytest

from extremebandits.rng import (
    ARM_LANE,
    CHECK_LANE,
    POLICY_LANE,
    Coin,
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


def test_randint_range_and_formula():
    for t in range(1, 200):
        r = RngStream(seed=1, trial=0, t=t, lane=POLICY_LANE)
        k = r.randint(7)
        assert 1 <= k <= 7
        assert k == min(int(r.uniform() * 7), 6) + 1


def test_coin_matches_stream_semantics():
    r = RngStream(seed=3, trial=5, t=9, lane=POLICY_LANE)
    c = Coin(r.uniform())
    assert c.uniform() == r.uniform()
    assert c.uniform() == c.uniform()  # reads are idempotent, not consuming
    for k in (2, 3, 10):
        assert c.randint(k) == r.randint(k)


def test_generator_reproducibility():
    g1 = generator_for(100, ARM_LANE, 42).random(8)
    g2 = generator_for(100, ARM_LANE, 42).random(8)
    assert np.array_equal(g1, g2)


def test_address_validation():
    with pytest.raises(ValueError):
        RngStream(seed=-1, trial=0, t=1, lane=ARM_LANE)
    with pytest.raises(ValueError):
        RngStream(seed=0, trial=0, t=0, lane=ARM_LANE)


def test_at_rekeys_fields():
    r = RngStream(seed=5, trial=1, t=2, lane=ARM_LANE)
    shifted = r.at(t=9, lane=POLICY_LANE)
    assert shifted.seed == 5 and shifted.trial == 1
    assert shifted.t == 9 and shifted.lane == POLICY_LANE
