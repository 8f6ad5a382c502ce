import dataclasses
import importlib.util
import io
import json
import math
import threading
import tracemalloc
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import cusketch.kernel as kernel_mod
from cusketch.bounds import chain_values
from cusketch.errors import ConfigurationError, InternalConsistencyError
from cusketch.kernel import build_kernel, check_kernel_size, dump_kernel, retarget_capped
from cusketch.simulate import _VARIANT_CODES, _expected_min_numerator, _run_steps
from cusketch.states import StateSpace, enumerate_states
from references import kernel_edges

DATA = Path(__file__).parent / "data"
# Every chain with m <= 10, g <= 4 and at most 3,000 (state, subset) pairs:
# 187 of them, covering d = 1, d = m - 1, d = m, g = 1 .. 4 and binding caps.
RULE_GRID = [
    (m, d, g)
    for m in range(2, 11)
    for d in range(1, m + 1)
    for g in range(1, 5)
    if math.comb(m + g - d, g) * math.comb(m, d) <= 3000
]


def _rule_rows(space, variant):
    """P, r and each edge's beta of one chain, from the sketch's update rule alone.

    Each state's offset histogram becomes counters (k_l of them at value l),
    and a copy steps once through every d-subset with `_run_steps`, the
    simulator's stepper. P's entry is the number of subsets reaching the
    target over C(m, d), divided once. The rise of a subset is the change in
    C(m, d) times the absent item's expected error; r's entry sums the
    rises over C(m, d)^2, and an edge's beta is its subsets' mean rise over
    C(m, d).
    """
    m, d, g = space.m, space.d, space.g
    subsets = list(combinations(range(m), d))
    n, per = len(space), len(subsets)
    children, rises = [], []
    for k in space.states.tolist():
        parent = [level for level, count in enumerate(k) for _ in range(count)]
        before = _expected_min_numerator(parent, d)
        for subset in subsets:
            child = parent.copy()
            _run_steps(child, [subset], _VARIANT_CODES[variant], g)
            low = min(child)
            children.append([child.count(low + level) for level in range(g + 1)])
            rises.append(_expected_min_numerator(child, d) - before)
    dst = space.rank(children)  # a child with an offset above g sums short of m: -1
    assert (dst >= 0).all(), "the rule left the state space"
    src = np.repeat(np.arange(n), per)
    hits, rise = np.zeros((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64)
    np.add.at(hits, (src, dst), 1)
    np.add.at(rise, (src, dst), rises)
    beta = np.divide(rise, hits * per, out=np.zeros((n, n)), where=hits > 0)
    return hits / per, rise.sum(axis=1) / per**2, beta


def _event(k, v, c, d, variant):
    """(target, p, beta) of event (v, c) at state k, read off the kernel's
    edges; None where the event cannot happen."""
    space = enumerate_states(sum(k), d, len(k) - 1)
    edges = kernel_edges(build_kernel(space, variant))
    at = np.flatnonzero((edges.src == space.index(k)) & (edges.v == v) & (edges.c == c))
    if not len(at):
        return None
    (j,) = at
    return space.state(edges.dst[j]), float(edges.p[j]), float(edges.beta[j])


class TestGammaLb:
    """Hand examples of the LB chain's targets."""

    def test_identity_on_capped_full_selection(self):
        assert _event((1, 2), 1, 2, 2, "lb")[0] == (1, 2)

    def test_full_minimum_shifts_down(self):
        assert _event((1, 2), 0, 1, 2, "lb")[0] == (3, 0)

    def test_partial_move_between_levels(self):
        assert _event((1, 2, 2), 1, 1, 2, "lb")[0] == (1, 1, 3)


class TestGammaUb:
    """Hand examples of the UB chain's targets."""

    def test_boost_at_cap_g1(self):
        assert _event((1, 2), 1, 2, 2, "ub")[0] == (1, 2)  # (m - d, d) = (1, 2)

    def test_matches_lb_off_cap(self):
        assert _event((1, 2), 0, 1, 2, "ub")[0] == _event((1, 2), 0, 1, 2, "lb")[0] == (3, 0)

    def test_boost_at_cap_g2(self):
        assert _event((1, 2, 4), 2, 2, 2, "ub")[0] == (3, 2, 2)

    def test_boost_at_cap_g3(self):
        # (k0+k1, k2, k3-d, d)
        assert _event((1, 1, 2, 3), 3, 3, 3, "ub")[0] == (2, 2, 0, 3)


class TestTransitionProb:
    def test_examples(self):
        assert _event((1, 2), 0, 1, 2, "lb")[1] == pytest.approx(2 / 3)
        assert _event((1, 2), 1, 2, 2, "lb")[1] == pytest.approx(1 / 3)
        assert _event((1, 2), 1, 1, 2, "lb") is None  # probability 0: no edge

    def test_events_from_a_state_sum_to_one(self):
        for m, d, g in [(5, 2, 2), (6, 3, 2), (7, 4, 3)]:
            for variant in ("lb", "ub"):
                kernel = build_kernel(enumerate_states(m, d, g), variant)
                assert np.abs(kernel.p.sum(axis=1) - 1.0).max() <= 1e-12


class TestBeta:
    def test_lb_examples(self):
        assert _event((3, 0), 0, 2, 2, "lb")[2] == pytest.approx(1 / 3)
        assert _event((1, 2), 0, 1, 2, "lb")[2] == pytest.approx(2 / 3)
        assert _event((1, 2), 1, 2, 2, "lb")[2] == 0.0

    def test_ub_examples(self):
        assert _event((1, 2), 1, 2, 2, "ub")[2] == pytest.approx(1.0)
        assert _event((1, 2), 0, 1, 2, "ub")[2] == pytest.approx(2 / 3)
        assert _event((1, 4), 1, 2, 2, "ub")[2] == pytest.approx(5 / 10)

    def test_all_betas_within_unit_interval(self):
        for m, d, g in [(4, 2, 1), (6, 3, 2), (8, 7, 3), (5, 5, 2)]:
            for variant in ("lb", "ub"):
                beta = kernel_edges(build_kernel(enumerate_states(m, d, g), variant)).beta
                assert 0.0 <= beta.min() and beta.max() <= 1.0


def _rows_by_source(kernel):
    """Each source state's edges as sorted (dst, v, c, p, beta) tuples."""
    rows = {}
    for src, dst, v, c, p, b in zip(*kernel_edges(kernel)):
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

    def test_rows_follow_the_update_rule(self):
        for m, d, g in RULE_GRID:
            space = enumerate_states(m, d, g)
            for variant in ("lb", "ub"):
                kernel = build_kernel(space, variant)
                p, r, beta = _rule_rows(space, variant)
                where = f"(m, d, g) = ({m}, {d}, {g}), {variant}"
                assert (kernel.p.toarray() == p).all(), where
                assert np.abs(kernel.r - r).max() <= 2.3e-16, where
                edges = kernel_edges(kernel)
                assert (edges.beta == beta[edges.src, edges.dst]).all(), where

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
        edges = kernel_edges(kernel)
        sums = np.zeros(len(space))
        np.add.at(sums, edges.src, edges.p)
        assert np.abs(sums - 1.0).max() < 1e-12
        assert kernel.n_edges <= m * len(space)
        assert kernel.p.has_canonical_format  # distinct events reach distinct targets

    def test_edge_count_bound_per_row(self):
        space = enumerate_states(7, 3, 2)
        kernel = build_kernel(space, "lb")
        per_row = np.bincount(kernel_edges(kernel).src, minlength=len(space))
        for i in range(len(space)):
            k = space.state(i)
            bound = sum(min(3, kv) for kv in k if kv >= 1)
            assert per_row[i] <= bound


    # (50, 4, 3) and (12, 6, 4) hit the cap on most rows, so UB's re-targeted
    # P and r are compared with UB's own full event pass on many capped rows.
    @pytest.mark.parametrize(
        "m,d,g", [(6, 3, 2), (5, 5, 2), (8, 1, 3), (9, 4, 1), (50, 4, 3), (12, 6, 4)]
    )
    def test_matrix_and_reward_match_edges(self, m, d, g):
        space = enumerate_states(m, d, g)
        for variant in ("lb", "ub"):
            kernel = build_kernel(space, variant)
            edges = kernel_edges(kernel)
            n = len(space)
            assert kernel.n_edges == len(edges.src)
            p = sp.csr_matrix((edges.p, (edges.src, edges.dst)), shape=(n, n))
            assert abs(kernel.p - p).max() == 0.0
            assert kernel.p.has_canonical_format
            reward = np.zeros(n)
            np.add.at(reward, edges.src, edges.p * edges.beta)
            assert (kernel.r == reward).all()

    @pytest.mark.parametrize("block_rows", [1, 3, 7, 64])
    def test_block_size_does_not_change_kernel(self, monkeypatch, block_rows):
        # P, r (UB's by re-targeting LB's) and the dump bytes of both chains,
        # against the default blocks, which hold each of these chains whole
        def outputs(space):
            got = []
            for variant in ("lb", "ub"):
                kernel = build_kernel(space, variant)
                fh = io.StringIO()
                dump_kernel(space, variant, fh)
                arrays = (kernel.p.data, kernel.p.indices, kernel.p.indptr, kernel.r)
                got.append([a.tobytes() for a in arrays] + [fh.getvalue()])
            return got

        chains = [(9, 3, 3), (6, 3, 2), (5, 5, 2), (8, 1, 3), (7, 4, 3)]
        spaces = [enumerate_states(m, d, g) for m, d, g in chains]
        assert all(len(space) <= kernel_mod._BLOCK_ROWS for space in spaces)
        whole = [outputs(space) for space in spaces]
        monkeypatch.setattr(kernel_mod, "_BLOCK_ROWS", block_rows)
        for space, want in zip(spaces, whole):
            assert outputs(space) == want, (space.m, space.d, space.g)

    def test_build_temporaries_are_block_sized(self, monkeypatch):
        # Beyond P and r, a build holds one block's temporaries: about 30 kB
        # plus 200 B per block row at (50, 4, 3), 18,424 states. N-sized
        # row sums, fill pointers, level sums and masks took 0.8 MB there.
        # UB's build is LB's plus the re-targeting, so it covers both passes.
        space = enumerate_states(50, 4, 3)
        for block_rows in (256, 512):
            monkeypatch.setattr(kernel_mod, "_BLOCK_ROWS", block_rows)
            tracemalloc.start()
            try:
                kernel = build_kernel(space, "ub")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            p = kernel.p
            stored = p.data.nbytes + p.indices.nbytes + p.indptr.nbytes + kernel.r.nbytes
            transient = peak - stored
            assert transient <= 2**16 + 256 * block_rows, block_rows
            assert transient < 8 * len(space), block_rows  # one float N-vector
            del kernel, p

    @pytest.mark.parametrize("variant", ["lb", "ub"])
    def test_matrix_is_a_view_of_the_kernels_arrays(self, variant):
        kernel = build_kernel(enumerate_states(9, 3, 3), variant)
        p = kernel.p
        for name in ("data", "indices", "indptr"):
            # SciPy may wrap an array in a new view object, but copies none
            view, own = getattr(p, name), getattr(kernel, name)
            assert view.ctypes.data == own.ctypes.data and view.shape == own.shape, name
            assert view.dtype == own.dtype, name
        assert p.has_canonical_format
        assert kernel.n_edges == p.nnz

    @pytest.mark.parametrize("missing", ["scipy", "extension"])
    def test_missing_sparsetools_is_an_import_error(self, monkeypatch, missing):
        if missing == "scipy":
            monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        else:  # a finder over a directory without the extension
            empty = SimpleNamespace(find_spec=lambda name: None)
            monkeypatch.setattr(kernel_mod, "FileFinder", lambda path, *details: empty)
        with pytest.raises(ImportError, match="scipy.sparse._sparsetools was not found"):
            kernel_mod._load_sparsetools()

    def test_stores_only_matrix_and_reward(self):
        kernel = build_kernel(enumerate_states(50, 4, 2), "lb")
        p = kernel.p
        assert p.indices.dtype == np.int32 and p.indptr.dtype == np.int32
        stored = p.data.nbytes + p.indices.nbytes + p.indptr.nbytes + kernel.r.nbytes
        assert stored / kernel.n_edges <= 14

    def test_build_holds_one_copy_of_the_matrix(self):
        # A transposed second copy of P held during the build puts the ratio
        # near 2.2; UB's re-targeting adds only block-sized temporaries.
        space = enumerate_states(40, 4, 4)
        for variant in ("lb", "ub"):
            tracemalloc.start()
            try:
                kernel = build_kernel(space, variant)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            p = kernel.p
            stored = p.data.nbytes + p.indices.nbytes + p.indptr.nbytes + kernel.r.nbytes
            assert peak <= 1.8 * stored, variant
            del kernel, p


class TestOffsetOrder:
    """A long-run kernel labels its states in ascending total offset
    off(k) = sum_l l k_l, and is the rank-order kernel under that permutation."""

    @staticmethod
    def _check(m, d, g):
        space = enumerate_states(m, d, g)
        n = len(space)
        position, starts = space.offset_order
        order = np.argsort(position)  # the rank of each label
        assert position[0] == 0 and sorted(position) == list(range(n))
        # levels of ascending off, ties in rank order; entries widened first,
        # as l k_l passes int8's 127 at m = 50, g = 3
        off = (space.states.astype(np.int64) @ np.arange(g + 1))[order]
        level = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        assert starts[0] == 0 and starts[-1] == n
        assert (np.diff(off[starts[:-1]]) > 0).all() and (off == off[starts[level]]).all()
        assert (np.diff(order)[np.diff(level) == 0] > 0).all()
        for variant in ("lb", "ub"):
            by_rank = build_kernel(space, variant)
            by_offset = build_kernel(space, variant, "offset")
            assert by_offset.order == "offset" and by_offset.variant == variant
            permuted = by_rank.p[order][:, order].tocsr()
            permuted.sort_indices()
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(permuted, name), getattr(by_offset, name)), name
            assert by_offset.r.tobytes() == by_rank.r[order].tobytes()
            # the renewal structure: every edge but a self-loop changes off
            rows = np.repeat(np.arange(n), np.diff(by_offset.indptr))
            cols = by_offset.indices
            moves = cols != rows
            assert (off[rows[moves]] != off[cols[moves]]).all(), (m, d, g, variant)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_the_rank_order_kernel(self, m):
        for d in range(1, m + 1):
            for g in (1, 2, 3):
                self._check(m, d, g)

    @pytest.mark.parametrize("g", [2, 3])
    def test_offsets_past_int8(self, g):
        self._check(50, 4, g)

    def test_unknown_order_is_refused(self):
        with pytest.raises(ConfigurationError, match="order must be"):
            build_kernel(enumerate_states(3, 2, 1), "lb", "lexicographic")


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

    @staticmethod
    def _aborts_ub(space, match):
        """A fault confined to UB's capped event: LB still builds, but UB's
        kernel, which is LB's re-targeted, its dump and its value abort."""
        assert build_kernel(space, "lb").variant == "lb"
        with pytest.raises(InternalConsistencyError, match=match):
            build_kernel(space, "ub")
        with pytest.raises(InternalConsistencyError, match=match):
            dump_kernel(space, "ub", io.StringIO())
        threads = threading.active_count()
        for T in (10, None):
            with pytest.raises(InternalConsistencyError, match=match):
                chain_values(space.m, space.d, space.g, T)
        assert threading.active_count() == threads

    def test_ub_capped_closure(self, monkeypatch):
        # rank -1 on the batch of UB's lifted targets alone, which no other
        # event's block reproduces
        space = enumerate_states(6, 3, 2)
        edges = kernel_edges(build_kernel(space, "ub"))
        lifted = space.states[edges.dst[(edges.v == space.g) & (edges.c == space.d)]]
        rank = StateSpace.rank

        def lifted_off(self, rows):
            ranks = rank(self, rows)
            return np.full_like(ranks, -1) if np.array_equal(rows, lifted) else ranks

        monkeypatch.setattr(StateSpace, "rank", lifted_off)
        self._aborts_ub(space, "left the state space")

    def test_ub_capped_beta(self, monkeypatch):
        # C(d, d) a hair below 1 moves the row sums by 1e-14 and keeps every
        # other beta in range, but UB's capped beta at the states with only
        # d counters above the minimum, exactly 1, now exceeds it
        m, d = 6, 3
        comb_table = kernel_mod._comb_table

        def short_one(n, r):
            table = comb_table(n, r)
            table[d, d] -= 1e-14 * math.comb(m, d)
            return table

        monkeypatch.setattr(kernel_mod, "_comb_table", short_one)
        self._aborts_ub(enumerate_states(m, d, 2), "beta values escaped")

    def test_retarget_needs_lb_self_loops(self):
        ub = build_kernel(enumerate_states(6, 3, 2), "ub")
        with pytest.raises(ConfigurationError, match="only an LB kernel"):
            retarget_capped(ub)
        # UB's P has no diagonal entry at d < m, so no capped row has a self-loop
        with pytest.raises(InternalConsistencyError, match="self-loop"):
            retarget_capped(dataclasses.replace(ub, variant="lb"))


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
        edges = kernel_edges(kernel)
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
        # The dump holds one block of text and 8 B of row sum per state, so
        # its peak is not set by the edge count: with 256-row blocks this chain
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
