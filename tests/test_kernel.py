import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import cusketch.kernel as kernel_mod
from cusketch.errors import ConfigurationError, InternalConsistencyError
from cusketch.kernel import (
    beta_lb,
    beta_ub,
    build_kernel,
    check_kernel_size,
    dump_kernel,
    gamma_lb,
    gamma_ub,
    transition_prob,
)
from cusketch.states import StateSpace, enumerate_states

DATA = Path(__file__).parent / "data"
# Chains that reach every case of the event pass's target rule: d = 1,
# d = m - 1 and d = m; g = 1 (UB's capped target is (m - d, d)) and g >= 2.
SCALAR_GRID = [
    (6, 3, 2), (5, 1, 1), (5, 1, 3), (6, 5, 1), (6, 5, 3),
    (4, 4, 1), (4, 4, 3), (8, 2, 1), (7, 3, 4),
]


class TestGammaLb:
    def test_identity_on_capped_full_selection(self):
        assert gamma_lb((1, 2), 1, 2, d=2) == (1, 2)

    def test_full_minimum_shifts_down(self):
        assert gamma_lb((1, 2), 0, 1, d=2) == (3, 0)

    def test_partial_move_between_levels(self):
        assert gamma_lb((1, 2, 2), 1, 1, d=2) == (1, 1, 3)

    def test_invalid_event_rejected(self):
        with pytest.raises(ConfigurationError):
            gamma_lb((1, 2), 1, 3, d=2)  # c > d
        with pytest.raises(ConfigurationError):
            gamma_lb((1, 2), 0, 2, d=2)  # c > k_0
        with pytest.raises(ConfigurationError):
            gamma_lb((1, 2), 2, 1, d=2)  # v > g


class TestGammaUb:
    def test_boost_at_cap_g1(self):
        assert gamma_ub((1, 2), 1, 2, d=2) == (1, 2)  # (m - d, d) = (1, 2)

    def test_matches_lb_off_cap(self):
        assert gamma_ub((1, 2), 0, 1, d=2) == gamma_lb((1, 2), 0, 1, d=2) == (3, 0)

    def test_boost_at_cap_g2(self):
        assert gamma_ub((1, 2, 4), 2, 2, d=2) == (3, 2, 2)

    def test_boost_at_cap_g3(self):
        # (k0+k1, k2, k3-d, d)
        assert gamma_ub((1, 1, 2, 3), 3, 3, d=3) == (2, 2, 0, 3)


class TestTransitionProb:
    def test_examples(self):
        assert transition_prob((1, 2), 0, 1, m=3, d=2) == pytest.approx(2 / 3)
        assert transition_prob((1, 2), 1, 2, m=3, d=2) == pytest.approx(1 / 3)
        assert transition_prob((1, 2), 1, 1, m=3, d=2) == 0.0

    def test_events_from_a_state_sum_to_one(self):
        for m, d, g in [(5, 2, 2), (6, 3, 2), (7, 4, 3)]:
            space = enumerate_states(m, d, g)
            for i in range(len(space)):
                k = space.state(i)
                total = sum(
                    transition_prob(k, v, c, m, d)
                    for v in range(g + 1)
                    if k[v] >= 1
                    for c in range(1, min(d, k[v]) + 1)
                )
                assert total == pytest.approx(1.0, abs=1e-12)


class TestBeta:
    def test_lb_examples(self):
        assert beta_lb((3, 0), 0, 2, m=3, d=2) == pytest.approx(1 / 3)
        assert beta_lb((1, 2), 0, 1, m=3, d=2) == pytest.approx(2 / 3)
        assert beta_lb((1, 2), 1, 2, m=3, d=2) == 0.0

    def test_ub_examples(self):
        assert beta_ub((1, 2), 1, 2, m=3, d=2) == pytest.approx(1.0)
        assert beta_ub((1, 2), 0, 1, m=3, d=2) == pytest.approx(2 / 3)
        assert beta_ub((1, 4), 1, 2, m=5, d=2) == pytest.approx(5 / 10)

    def test_all_betas_within_unit_interval(self):
        for m, d, g in [(4, 2, 1), (6, 3, 2), (8, 7, 3), (5, 5, 2)]:
            space = enumerate_states(m, d, g)
            for variant, beta in (("lb", beta_lb), ("ub", beta_ub)):
                for i in range(len(space)):
                    k = space.state(i)
                    for v in range(g + 1):
                        if k[v] < 1:
                            continue
                        for c in range(1, min(d, k[v]) + 1):
                            assert 0.0 <= beta(k, v, c, m, d) <= 1.0


def _rows_by_source(kernel):
    """Each source state's edges as sorted (dst, v, c, p, beta) tuples."""
    rows = {}
    for src, dst, v, c, p, b in zip(*kernel.edges()):
        rows.setdefault(int(src), []).append((int(dst), int(v), int(c), float(p), float(b)))
    return {src: sorted(edges) for src, edges in rows.items()}


class TestBuildKernel:
    def test_lb_rows_for_two_state_chain(self):
        space = enumerate_states(3, 2, 1)
        rows = _rows_by_source(build_kernel(space, "lb"))
        assert rows[0] == [(1, 0, 2, pytest.approx(1.0), pytest.approx(1 / 3))]
        assert rows[1] == [
            (0, 0, 1, pytest.approx(2 / 3), pytest.approx(2 / 3)),
            (1, 1, 2, pytest.approx(1 / 3), 0.0),
        ]

    def test_ub_rows_for_two_state_chain(self):
        space = enumerate_states(3, 2, 1)
        rows = _rows_by_source(build_kernel(space, "ub"))
        assert rows[1] == [
            (0, 0, 1, pytest.approx(2 / 3), pytest.approx(2 / 3)),
            (1, 1, 2, pytest.approx(1 / 3), pytest.approx(1.0)),
        ]

    def test_matches_scalar_functions(self):
        for m, d, g in SCALAR_GRID:
            space = enumerate_states(m, d, g)
            for variant, gamma, beta in (("lb", gamma_lb, beta_lb), ("ub", gamma_ub, beta_ub)):
                kernel = build_kernel(space, variant)
                for src, dst, v, c, p, b in zip(*kernel.edges()):
                    k = space.state(src)
                    assert space.index(gamma(k, v, c, d)) == dst
                    assert p == pytest.approx(transition_prob(k, v, c, m, d), abs=1e-14)
                    assert b == pytest.approx(beta(k, v, c, m, d), abs=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(2, 10),
        d_frac=st.floats(0.01, 1.0),
        g=st.integers(1, 4),
        variant=st.sampled_from(["lb", "ub"]),
    )
    def test_rows_stochastic_and_closed(self, m, d_frac, g, variant):
        d = max(1, round(d_frac * m))
        space = enumerate_states(m, d, g)
        kernel = build_kernel(space, variant)  # raises on closure/row-sum bugs
        edges = kernel.edges()
        sums = np.zeros(len(space))
        np.add.at(sums, edges.src, edges.p)
        assert np.abs(sums - 1.0).max() < 1e-12
        assert kernel.n_edges <= m * len(space)
        assert kernel.p.nnz == kernel.n_edges
        assert kernel.p.has_canonical_format  # distinct events reach distinct targets

    def test_edge_count_bound_per_row(self):
        space = enumerate_states(7, 3, 2)
        kernel = build_kernel(space, "lb")
        per_row = np.bincount(kernel.edges().src, minlength=len(space))
        for i in range(len(space)):
            k = space.state(i)
            bound = sum(min(3, kv) for kv in k if kv >= 1)
            assert per_row[i] <= bound


    @pytest.mark.parametrize("m,d,g", [(6, 3, 2), (5, 5, 2), (8, 1, 3), (9, 4, 1)])
    def test_matrix_and_reward_match_edges(self, m, d, g):
        space = enumerate_states(m, d, g)
        for variant in ("lb", "ub"):
            kernel = build_kernel(space, variant)
            edges = kernel.edges()
            n = len(space)
            assert kernel.n_edges == len(edges.src)
            assert kernel.p.nnz == kernel.n_edges
            p = sp.csr_matrix((edges.p, (edges.src, edges.dst)), shape=(n, n))
            assert abs(kernel.transition_matrix() - p).max() == 0.0
            assert kernel.p.has_canonical_format
            reward = np.zeros(n)
            np.add.at(reward, edges.src, edges.p * edges.beta)
            assert (kernel.expected_increment() == reward).all()

    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    def test_block_size_does_not_change_kernel(self, monkeypatch, block_rows):
        space = enumerate_states(9, 3, 3)
        whole = {v: build_kernel(space, v) for v in ("lb", "ub")}
        monkeypatch.setattr(kernel_mod, "_BLOCK_ROWS", block_rows)
        for variant, ref in whole.items():
            kernel = build_kernel(space, variant)
            assert abs(kernel.p - ref.p).max() == 0.0
            assert (kernel.p.indices == ref.p.indices).all()
            assert (kernel.r == ref.r).all()
            for got, want in zip(kernel.edges(), ref.edges()):
                assert (got == want).all()

    def test_stores_only_matrix_and_reward(self):
        kernel = build_kernel(enumerate_states(50, 4, 2), "lb")
        p = kernel.p
        assert p.indices.dtype == np.int32 and p.indptr.dtype == np.int32
        stored = p.data.nbytes + p.indices.nbytes + p.indptr.nbytes + kernel.r.nbytes
        assert stored / kernel.n_edges <= 14

    def test_build_holds_one_copy_of_the_matrix(self):
        # A transposed second copy of P held during the build puts the ratio near 2.2.
        space = enumerate_states(40, 4, 4)
        tracemalloc.start()
        try:
            kernel = build_kernel(space, "lb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        p = kernel.p
        stored = p.data.nbytes + p.indices.nbytes + p.indptr.nbytes + kernel.r.nbytes
        assert peak <= 1.8 * stored


class TestBuildChecks:
    """Each consistency check of the event pass trips on an injected fault,
    and so aborts both the build and the dump."""

    @staticmethod
    def _aborts(space, match):
        with pytest.raises(InternalConsistencyError, match=match):
            build_kernel(space, "lb")
        with pytest.raises(InternalConsistencyError, match=match):
            dump_kernel(space, "lb", io.StringIO())

    def test_closure(self, monkeypatch):
        rank = StateSpace.rank

        def off_by_one(self, rows):
            rows = np.array(rows, dtype=np.int64)
            rows[:, 0] += 1
            return rank(self, rows)

        monkeypatch.setattr(StateSpace, "rank", off_by_one)
        self._aborts(enumerate_states(6, 3, 2), "left the state space")

    def test_row_sums(self, monkeypatch):
        comb_table = kernel_mod._comb_table
        monkeypatch.setattr(kernel_mod, "_comb_table", lambda n, r: comb_table(n, r) * 1.001)
        self._aborts(enumerate_states(6, 3, 2), "row sums deviate")

    def test_beta_range(self, monkeypatch):
        # C(n, r) = -1 instead of 0 for n < r: the liveness rule keeps every
        # event probability off those entries, but beta's C(above, d) term
        # reads them; at d = m the single event's beta becomes 2
        comb_table = kernel_mod._comb_table

        def negative_zeros(n, r):
            table = comb_table(n, r)
            table[table == 0] = -1
            return table

        monkeypatch.setattr(kernel_mod, "_comb_table", negative_zeros)
        m, d, g = 5, 5, 2
        space = enumerate_states(m, d, g)
        # the faulted table's probabilities and betas, by hand from the event
        # rule: only beta is out of range
        table, denom = kernel_mod._comb_table(m, d), math.comb(m, d)
        row_sums = np.zeros(len(space))
        betas = []
        for i, k in enumerate(space.states.tolist()):
            for v in range(g + 1):
                above = sum(k[v + 1 :])
                for c in range(1, d + 1):
                    if k[v] >= c and above >= d - c:
                        row_sums[i] += table[k[v], c] * table[above, d - c] / denom
                        betas.append((table[above + c, d] - table[above, d]) / denom)
        assert np.abs(row_sums - 1.0).max() <= kernel_mod.ROW_SUM_TOL
        assert max(betas) > 1
        with pytest.raises(InternalConsistencyError, match="beta values escaped"):
            next(kernel_mod._event_pass(space, "lb"))
        self._aborts(space, "beta values escaped")


class TestSizeGuard:
    def test_table1_rows_up_to_g5_pass(self):
        for g in range(1, 6):
            check_kernel_size(50, 4, g)

    def test_g6_refused(self):
        with pytest.raises(ConfigurationError, match="guard"):
            check_kernel_size(50, 4, 6)

    def test_invalid_parameters_are_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            check_kernel_size(3, 4, 1)

    def test_build_applies_the_guard(self):
        # one row stands in for the 20.4M states: the guard reads (m, d, g) only
        space = StateSpace(50, 4, 6, np.array([[50, 0, 0, 0, 0, 0, 0]]))
        with pytest.raises(ConfigurationError, match="guard"):
            build_kernel(space, "lb")


class TestSerialization:
    def test_dump_layout_round_trips(self, tmp_path):
        space = enumerate_states(4, 2, 2)
        kernel = build_kernel(space, "ub")
        path = tmp_path / "kernel.json"
        with open(path, "w") as fh:
            dump_kernel(space, "ub", fh)
        loaded = json.loads(path.read_text())
        assert loaded["m"] == 4 and loaded["d"] == 2 and loaded["g"] == 2
        assert loaded["variant"] == "ub"
        assert len(loaded["states"]) == len(space)
        assert len(loaded["edges"]) == kernel.n_edges
        src, dst, v, c, p, beta = loaded["edges"][0]
        assert 0 <= src < len(space) and 0 <= dst < len(space)
        assert math.isclose(sum(e[4] for e in loaded["edges"]), len(space))
        edges = kernel.edges()
        assert [e[0] for e in loaded["edges"]] == edges.src.tolist()
        assert [e[5] for e in loaded["edges"]] == edges.beta.tolist()
        with pytest.raises(ConfigurationError):
            space.pad((1, 1, 1, 1, 1))

    @pytest.mark.parametrize("variant", ["lb", "ub"])
    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    def test_dump_matches_recorded_copy_at_any_block_size(self, monkeypatch, variant, block_rows):
        monkeypatch.setattr(kernel_mod, "_BLOCK_ROWS", block_rows)
        fh = io.StringIO()
        dump_kernel(enumerate_states(6, 3, 2), variant, fh)
        assert fh.getvalue() == (DATA / f"kernel_6_3_2.{variant}.json").read_text()

    def test_dump_memory_does_not_grow_with_the_edges(self, monkeypatch, tmp_path):
        # The dump holds one block of text at a time, so its peak is set by
        # the block size, not the edge count: with 256-row blocks this chain
        # peaks at about 0.5x the kernel's stored bytes, where json.dump of
        # the whole layout held every edge as Python lists at about 22x.
        # Small blocks keep the traced run short (default blocks: 38 s and a
        # 9.8 MB peak at (40, 4, 4), 0.63x its stored bytes).
        monkeypatch.setattr(kernel_mod, "_BLOCK_ROWS", 256)
        space = enumerate_states(20, 4, 4)
        kernel = build_kernel(space, "lb")
        p = kernel.p
        stored = p.data.nbytes + p.indices.nbytes + p.indptr.nbytes + kernel.r.nbytes
        del kernel, p
        tracemalloc.start()
        try:
            with open(tmp_path / "kernel.json", "w") as fh:
                dump_kernel(space, "lb", fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stored
