import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusketch.errors import ConfigurationError
from cusketch.states import enumerate_states, state_space_size


def brute_states(m, d, g):
    """All (g+1)-vectors satisfying the state invariants, by raw filtering."""
    out = set()
    for k in product(range(m + 1), repeat=g + 1):
        if sum(k) != m or k[0] < 1:
            continue
        top = max(l for l in range(g + 1) if k[l] > 0)
        if k[top] >= d or top == 0:
            out.add(k)
    return out


class TestEnumeration:
    def test_tiny_example(self):
        space = enumerate_states(3, 2, 1)
        assert [space.state(i) for i in range(len(space))] == [(3, 0), (1, 2)]

    def test_large_count_formula(self):
        assert state_space_size(50, 4, 5) == 2_349_060

    def test_d_equals_m_single_state(self):
        for g in (1, 2, 3):
            space = enumerate_states(4, 4, g)
            assert len(space) == 1
            assert space.state(0) == (4,) + (0,) * g

    def test_initial_state_is_index_zero(self):
        space = enumerate_states(7, 3, 2)
        assert space.state(0) == (7, 0, 0)
        assert space.initial_index == 0

    def test_index_map_is_bijective(self):
        space = enumerate_states(6, 2, 3)
        assert sorted(space.rank(space.states).tolist()) == list(range(len(space)))
        for i in range(len(space)):
            assert space.index(space.state(i)) == i

    def test_index_of_trimmed_state(self):
        space = enumerate_states(5, 2, 3)
        assert space.index((3, 2)) == space.index((3, 2, 0, 0))

    @pytest.mark.parametrize("k", [(5, 1, 0), (2, 1, 1), (0, 3, 3), (4, 3, -1), (3, 0, 1)])
    def test_index_of_non_member_raises(self, k):
        space = enumerate_states(6, 2, 2)
        with pytest.raises(ConfigurationError):
            space.index(k)

    @pytest.mark.parametrize("m,d,g", [(3, 2, 1), (5, 2, 2), (6, 3, 3), (8, 7, 2), (4, 1, 2)])
    def test_matches_brute_force(self, m, d, g):
        space = enumerate_states(m, d, g)
        expected = brute_states(m, d, g)
        got = {space.state(i) for i in range(len(space))}
        assert got == expected
        assert len(space) == math.comb(m + g - d, g)

    def test_count_formula_on_grid(self):
        for m in range(2, 13):
            for d in range(1, m + 1):
                for g in range(1, 5):
                    assert len(enumerate_states(m, d, g)) == math.comb(m + g - d, g)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            enumerate_states(3, 2, 0)
        with pytest.raises(ConfigurationError):
            enumerate_states(3, 4, 1)
        with pytest.raises(ConfigurationError):
            enumerate_states(1, 1, 1)

    @pytest.mark.parametrize("m,d,g,dtype", [
        (50, 4, 3, np.int8), (127, 126, 2, np.int8), (128, 127, 2, np.int16),
        (200, 3, 2, np.int16), (40000, 39999, 2, np.int64),
    ])
    def test_counts_stored_in_the_smallest_type_that_holds_m(self, m, d, g, dtype):
        space = enumerate_states(m, d, g)
        assert space.states.dtype == dtype
        assert (space.rank(space.states) == np.arange(len(space))).all()
        assert (space.states.sum(axis=1, dtype=np.int64) == m).all()

    def test_enumeration_order_deterministic(self):
        a = enumerate_states(7, 2, 3)
        b = enumerate_states(7, 2, 3)
        assert (a.states == b.states).all()

    def test_pad_extends_trimmed_histograms(self):
        space = enumerate_states(5, 2, 3)
        assert space.pad((3, 2)) == (3, 2, 0, 0)
        with pytest.raises(ConfigurationError):
            space.pad((1, 1, 1, 1, 1))


class TestRank:
    @pytest.mark.parametrize("m,d,g", [(50, 4, 4), (20, 19, 5), (6, 6, 2), (4, 1, 3)])
    def test_rank_is_enumeration_order(self, m, d, g):
        space = enumerate_states(m, d, g)
        assert (space.rank(space.states) == np.arange(len(space))).all()

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 14), d_frac=st.floats(0.0, 1.0), g=st.integers(1, 5),
           data=st.data())
    def test_rank_and_membership(self, m, d_frac, g, data):
        d = 1 + round(d_frac * (m - 1))
        space = enumerate_states(m, d, g)
        assert (space.rank(space.states) == np.arange(len(space))).all()
        # move one unit between two levels, or add or remove one unit
        i = data.draw(st.integers(0, len(space) - 1))
        a = data.draw(st.integers(0, g))
        b = data.draw(st.integers(0, g))
        delta = data.draw(st.sampled_from([(-1, 1), (-1, 0), (1, 0)]))
        k = space.states[i].copy()
        k[a] += delta[0]
        k[b] += delta[1]
        states = space.states.tolist()
        want = states.index(k.tolist()) if k.tolist() in states else -1  # non-states rank -1
        assert space.rank(k[None, :])[0] == want
