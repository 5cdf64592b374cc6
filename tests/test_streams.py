"""Counter-addressed random stream tests: determinism, isolation, statistics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from spinlab import streams
from spinlab.disorder import GAUSSIAN, sample_matrix
from spinlab.dynamics import simulate_full
from spinlab.model import InitialLaw, ModelParams, double_well
from spinlab.streams import BrownianStream, CounterStream, derive_seed


def test_derive_seed_is_deterministic_and_64bit():
    a = derive_seed(123, "purpose", 0, 7)
    assert a == derive_seed(123, "purpose", 0, 7)
    assert 0 <= a < 1 << 64


def test_derive_seed_separates_parts():
    seen = {
        derive_seed(1, "a", 2),
        derive_seed(1, "a", 3),
        derive_seed(1, "b", 2),
        derive_seed(2, "a", 2),
    }
    assert len(seen) == 4


def test_derive_seed_no_concatenation_collision():
    # ("ab", 1) and ("a", "b1") must hash differently
    assert derive_seed(0, "ab", 1) != derive_seed(0, "a", "b1")


def test_uniforms_open_interval():
    s = CounterStream(99, "test")
    u = s.uniforms(lane=0, count=10000)
    assert np.all(u > 0) and np.all(u < 1)
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_moments():
    s = CounterStream(5, "test")
    z = s.normals(lane=3, count=200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    assert abs(np.mean(z**3)) < 0.05


def test_longer_read_extends_shorter_one():
    # asking for more values must not change the ones already seen
    s = CounterStream(7, "chunks")
    whole = s.normals(lane=1, count=64)
    np.testing.assert_array_equal(whole[:20], s.normals(lane=1, count=20))
    np.testing.assert_array_equal(whole[:50], s.normals(lane=1, count=50))


def test_normal_at_isolated_recompute():
    s = CounterStream(7, "chunks")
    block = s.normals(lane=4, count=40)
    for idx in (0, 1, 17, 39):
        assert s.normal_at(lane=4, index=idx) == block[idx]


def test_lanes_are_distinct_streams():
    s = CounterStream(11, "lanes")
    a = s.normals(lane=0, count=100)
    b = s.normals(lane=1, count=100)
    assert not np.array_equal(a, b)


def test_tag_gives_disjoint_draws():
    s = CounterStream(11, "tags")
    a = s.normals(lane=0, count=100, tag=0)
    b = s.normals(lane=0, count=100, tag=1)
    assert not np.array_equal(a, b)


def test_purpose_and_replica_separate():
    a = CounterStream(3, "one").normals(0, 50)
    b = CounterStream(3, "two").normals(0, 50)
    c = CounterStream(3, "one", replica=1).normals(0, 50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rejects_out_of_range_seed():
    with pytest.raises(ValueError):
        CounterStream(-1, "bad")
    with pytest.raises(ValueError):
        CounterStream(1 << 64, "bad")


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    lane=st.integers(min_value=0, max_value=2**32),
    start=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=64),
)
def test_raw_window_consistency(seed, lane, start, count):
    # any sub-window of the raw stream equals the same slice of a wider read
    s = CounterStream(seed, "prop")
    wide = s.raw(lane, 0, start + count)
    window = s.raw(lane, start, count)
    np.testing.assert_array_equal(wide[start:], window)


_U64 = st.integers(min_value=0, max_value=2**64 - 1)


# start up to 2**66 - 8 puts counter word 0 at 2**64 - 2, its largest value
# that no address carries out of
_START = st.one_of(st.integers(min_value=0, max_value=10_000),
                   st.integers(min_value=2**66 - 10_000, max_value=2**66 - 8))


@settings(deadline=None, max_examples=50)
@given(
    seed=_U64,
    reads=st.lists(
        st.tuples(_U64, _START, st.integers(min_value=0, max_value=64), _U64),
        min_size=1, max_size=8,
    ),
)
# the first read leaves a word in numpy's buffer; the next two put every
# counter word at (or next to) its largest value, then back to 0
@example(seed=7, reads=[(3, 1, 2, 5), (2**64 - 1, 2**66 - 8, 64, 2**64 - 1), (0, 0, 5, 0)])
def test_raw_matches_fresh_philox_at_the_counter(seed, reads):
    # oracle: a fresh numpy Philox built at the enclosing counter, whatever
    # the earlier reads left the stream's own generator holding
    s = CounterStream(seed, "oracle")
    for lane, start, count, tag in reads:
        fresh = Philox(key=s._key, counter=np.array([start // 4, lane, tag, 0], dtype=np.uint64))
        expected = fresh.random_raw(start % 4 + count)[start % 4:]
        np.testing.assert_array_equal(s.raw(lane, start, count, tag), expected)


def test_numpy_integer_coordinates_address_like_python_ints():
    s = CounterStream(4, "np-ints")
    for lane, start, tag in ((3, 5, 2), (2**64 - 1, 9, 2**64 - 1)):
        want = s.raw(lane, start, 11, tag)
        got = s.raw(np.uint64(lane), np.int64(start), 11, np.uint64(tag))
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(s.raw(np.int64(7), 0, 6), s.raw(7, 0, 6))


@pytest.mark.parametrize("lane, start, tag", [
    (2**64, 0, 0), (-1, 0, 0), (0, 2**66, 0), (0, -1, 0), (0, 0, 2**64), (0, 0, -1),
])
def test_raw_outside_the_counter_range_raises(lane, start, tag):
    # an address past a coordinate's 64 bits raises instead of aliasing
    # into the next lane or tag
    with pytest.raises(OverflowError):
        CounterStream(4, "range").raw(lane, start, 1, tag)


def test_one_generator_per_stream(monkeypatch):
    p = ModelParams(20, 1.0, 2.0, 1.0, 5, 4, 7)
    mat = sample_matrix(GAUSSIAN, 20, seed=3)
    built = []

    def counting(*args, **kwargs):
        built.append(1)
        return Philox(*args, **kwargs)

    monkeypatch.setattr(streams, "Philox", counting)
    simulate_full(p, double_well(2.0), mat, InitialLaw("uniform", 1.0, 2.0), replica=1)
    assert len(built) == 3  # init, brownian, bridge
    del built[:]
    sample_matrix(GAUSSIAN, 20, seed=3)
    assert len(built) == 1


def test_brownian_increment_variance_scales_with_step():
    bs = BrownianStream(42, replica=0)
    inc = bs.increments(n_particles=50, n_steps=400, grid_step=0.01)
    assert inc.shape == (50, 400)
    assert abs(inc.var() / 0.01 - 1.0) < 0.05


def test_brownian_increment_at_matches_block():
    bs = BrownianStream(42, replica=3)
    inc = bs.increments(n_particles=4, n_steps=30, grid_step=0.25)
    for i in (0, 3):
        for g in (0, 29):
            assert bs.increment_at(i, g, 0.25) == inc[i, g]


def test_brownian_same_inputs_identical_across_instances():
    a = BrownianStream(8, replica=2).increments(3, 10, 0.5)
    b = BrownianStream(8, replica=2).increments(3, 10, 0.5)
    np.testing.assert_array_equal(a, b)


def test_normal_block_matches_per_lane():
    s = CounterStream(21, "block")
    block = s.normal_block(n_lanes=5, count=17)
    assert block.shape == (5, 17)
    for lane in range(5):
        np.testing.assert_array_equal(block[lane], s.normals(lane, 17))


def test_box_muller_equals_the_closed_form_bit_for_bit():
    # the in-place transform must keep every bit of
    # sqrt(-2 log u1) * cos(2 pi u2), extreme words and strided reads included
    words = CounterStream(3, "box-muller").raw(0, 0, 4096)
    words[:4] = [0, 2**64 - 1, 2**64 - 1, 0]

    def closed_form(w0, w1):
        def unit(w):
            return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        return np.sqrt(-2.0 * np.log(unit(w0))) * np.cos(2.0 * np.pi * unit(w1))

    for w0, w1 in ((words[0::2], words[1::2]), (words[:2048], words[2048:])):
        got = streams._box_muller(w0, w1)
        assert got.dtype == np.float64 and np.all(np.isfinite(got))
        assert got.tobytes() == closed_form(w0, w1).tobytes()
    np.testing.assert_array_equal(words[:4], [0, 2**64 - 1, 2**64 - 1, 0])
