import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import cusketch.bounds
from cusketch.bounds import (
    _stationary_direct,
    asymptotic_error,
    chain_values,
    compute_bounds,
    evolve_occupancy,
    expected_error,
    expected_error_from_kernel,
    stationary,
)
from cusketch.errors import ConfigurationError, InternalConsistencyError, NonConvergenceError
from cusketch.kernel import build_kernel
from cusketch.states import enumerate_states


@pytest.fixture(scope="module")
def two_state_lb():
    return build_kernel(enumerate_states(3, 2, 1), "lb")


@pytest.fixture(scope="module")
def two_state_ub():
    return build_kernel(enumerate_states(3, 2, 1), "ub")


class TestOccupancy:
    def test_first_steps_of_two_state_chain(self, two_state_lb):
        pis = evolve_occupancy(two_state_lb, 3)
        assert pis[0].tolist() == [1.0, 0.0]
        assert pis[1] == pytest.approx([0.0, 1.0])
        assert pis[2] == pytest.approx([2 / 3, 1 / 3])

    def test_stochastic_at_every_step(self, two_state_ub):
        for pi in evolve_occupancy(two_state_ub, 50):
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert (pi >= 0).all()

    def test_horizon_must_be_positive(self, two_state_lb):
        with pytest.raises(ConfigurationError):
            evolve_occupancy(two_state_lb, 0)

    def test_oversized_stack_refused_before_allocating(self, two_state_lb, monkeypatch):
        def occupancy_sequence(*args):
            raise AssertionError("evolved occupancy past the size guard")

        monkeypatch.setattr(cusketch.bounds, "occupancy_sequence", occupancy_sequence)
        with pytest.raises(ConfigurationError, match="guard"):
            evolve_occupancy(two_state_lb, 10**9)  # 16 GB of float64


class TestExpectedError:
    def test_horizon_one_equals_first_step_error(self):
        assert expected_error(3, 2, 1, 1, "lb") == pytest.approx(1 / 3, abs=1e-12)
        assert expected_error(3, 2, 1, 1, "ub") == pytest.approx(1 / 3, abs=1e-12)

    def test_horizon_two_hand_values(self):
        # 0.5 * (1/3 + pi(1).r) with pi(1) the point mass on (1, 2)
        assert expected_error(3, 2, 1, 2, "lb") == pytest.approx(7 / 18, abs=1e-12)
        assert expected_error(3, 2, 1, 2, "ub") == pytest.approx(5 / 9, abs=1e-12)

    def test_bounds_bracket_exact_value_at_horizon_two(self):
        exact = 4 / 9  # brute-force expectation of the average error
        assert expected_error(3, 2, 1, 2, "lb") < exact < expected_error(3, 2, 1, 2, "ub")

    def test_monotone_in_g(self):
        m, d, T = 10, 3, 20
        lowers = [expected_error(m, d, g, T, "lb") for g in range(1, 6)]
        uppers = [expected_error(m, d, g, T, "ub") for g in range(1, 6)]
        assert all(a < b for a, b in zip(lowers, lowers[1:]))
        assert all(a > b for a, b in zip(uppers, uppers[1:]))
        assert all(lo <= up for lo, up in zip(lowers, uppers))


class TestBackwardSum:
    """The backward sum h <- r + P h equals the forward occupancy average."""

    @pytest.mark.parametrize("variant", ["lb", "ub"])
    @pytest.mark.parametrize("T", [1, 37])
    @pytest.mark.parametrize("m,d,g", [(3, 2, 1), (6, 3, 2), (9, 3, 3), (5, 5, 2)])
    def test_matches_forward_occupancy(self, m, d, g, T, variant):
        kernel = build_kernel(enumerate_states(m, d, g), variant)
        forward = float((evolve_occupancy(kernel, T) @ kernel.r).mean())
        backward = expected_error_from_kernel(kernel, T)
        assert backward == pytest.approx(forward, rel=1e-14, abs=0)

    def test_horizon_must_be_positive(self, two_state_lb):
        with pytest.raises(ConfigurationError):
            expected_error_from_kernel(two_state_lb, 0)


class TestStationary:
    def test_two_state_balance(self, two_state_lb, two_state_ub):
        assert stationary(two_state_lb) == pytest.approx([2 / 5, 3 / 5], abs=1e-10)
        assert stationary(two_state_ub) == pytest.approx([2 / 5, 3 / 5], abs=1e-10)

    def test_residual_criterion(self, two_state_lb):
        pi = stationary(two_state_lb, tol=1e-12)
        p = two_state_lb.transition_matrix()
        assert np.abs(pi @ p - pi).max() <= 1e-12

    def test_non_convergence_reported(self, two_state_lb, monkeypatch):
        # From the point mass two power steps cannot reach 1e-15; the balance
        # solution `_start_vector` gives a two-state chain already does.
        point_mass = np.eye(2)[two_state_lb.space.initial_index]
        monkeypatch.setattr(cusketch.bounds, "_start_vector", lambda kernel: point_mass)
        monkeypatch.setattr(cusketch.bounds, "MAX_POWER_ITERS", 2)
        with pytest.raises(NonConvergenceError) as exc:
            stationary(two_state_lb, tol=1e-15)
        assert exc.value.residual > 0

    def test_invalid_tol(self, two_state_lb):
        with pytest.raises(ConfigurationError):
            stationary(two_state_lb, tol=0.0)

    @pytest.mark.parametrize("tol", [-1e-12, float("nan"), float("inf")])
    def test_tol_not_finite_and_positive(self, two_state_lb, tol):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            stationary(two_state_lb, tol=tol)

    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_singular_direct_solve_fails_the_cross_check(self):
        # Every state absorbing: the balance system is singular and the direct
        # solve returns NaN, which no distance comparison may pass.
        kernel = build_kernel(enumerate_states(4, 2, 2), "lb")
        frozen = dataclasses.replace(kernel, p=sp.identity(len(kernel.space), format="csr"))
        with pytest.raises(InternalConsistencyError, match="disagree"):
            stationary(frozen)

    def test_unreachable_tol_stops_at_rounding_floor(self):
        kernel = build_kernel(enumerate_states(6, 2, 2), "lb")
        with pytest.raises(NonConvergenceError) as exc:
            stationary(kernel, tol=1e-300)
        assert exc.value.iterations <= 5
        assert 1e-300 < exc.value.residual <= 1e-15


def _residual(kernel, pi):
    return float(np.abs(kernel.p.T @ pi - pi).max())


class TestArnoldiStart:
    """The power loop certifies the result whatever ARPACK hands it."""

    @pytest.fixture(scope="class")
    def kernel(self):
        return build_kernel(enumerate_states(10, 3, 3), "ub")  # 120 states

    def test_start_is_already_stationary(self, kernel):
        start = cusketch.bounds._start_vector(kernel)
        assert start.min() >= 0.0 and start.sum() == pytest.approx(1.0, abs=1e-15)
        assert _residual(kernel, start) <= 1e-14

    def _check(self, kernel, tol=1e-12):
        pi = stationary(kernel, tol=tol)
        assert _residual(kernel, pi) <= 2 * tol
        assert np.abs(pi - _stationary_direct(kernel.p.T, len(pi))).max() <= 1e-10

    def test_arpack_no_convergence_falls_back(self, kernel, monkeypatch):
        calls = []

        def eigs(*args, **kwargs):
            calls.append(kwargs)
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", eigs)
        start = cusketch.bounds._start_vector(kernel)
        assert start[kernel.space.initial_index] == 1.0 and start.sum() == 1.0
        self._check(kernel)
        assert calls

    @pytest.mark.parametrize(
        "vector",
        [
            lambda n: np.eye(n)[n - 1],  # a point mass on the wrong state
            lambda n: np.linspace(-1.0, 2.0, n) + 0.5j,  # mixed signs, complex
        ],
    )
    def test_wrong_ritz_vector_is_repaired(self, kernel, monkeypatch, vector):
        n = len(kernel.space)

        def eigs(*args, **kwargs):
            return np.array([0.9 + 0.2j]), vector(n).astype(complex)[:, None]

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", eigs)
        assert _residual(kernel, cusketch.bounds._start_vector(kernel)) > 1e-3
        self._check(kernel)

    @pytest.mark.parametrize(
        "m, d, g, n, arnoldi",
        [(5, 5, 1, 1, False), (3, 2, 1, 2, False), (3, 2, 2, 3, True)],
    )
    def test_smallest_chains(self, monkeypatch, m, d, g, n, arnoldi):
        kernel = build_kernel(enumerate_states(m, d, g), "lb")
        assert len(kernel.space) == n
        calls = []
        real_eigs = scipy.sparse.linalg.eigs

        def eigs(*args, **kwargs):
            calls.append(kwargs)
            return real_eigs(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", eigs)
        self._check(kernel)
        assert bool(calls) == arnoldi

    def test_two_state_chain_starts_stationary(self, two_state_lb, monkeypatch):
        # lambda_2 = -2/3: from the point mass the power loop needs dozens of steps
        monkeypatch.setattr(cusketch.bounds, "MAX_POWER_ITERS", 1)
        assert _residual(two_state_lb, stationary(two_state_lb)) <= 1e-15


class TestAsymptotic:
    # Long-run limits at m=50, d=4 recorded with power iteration from the
    # start state, before the Arnoldi start; they moved by at most 1.4e-12.
    LIMITS = {
        3: (0.034978754420538362, 0.037924141739897083),
        4: (0.036676985241395878, 0.037226498811476355),
    }

    @pytest.mark.parametrize("variant", ["lb", "ub"])
    def test_g3_limits_pinned(self, variant):
        expected = self.LIMITS[3][variant == "ub"]
        assert abs(asymptotic_error(50, 4, 3, variant) - expected) <= 1e-9

    @pytest.mark.slow
    @pytest.mark.parametrize("variant", ["lb", "ub"])
    def test_g4_limits_pinned(self, variant):
        expected = self.LIMITS[4][variant == "ub"]
        assert abs(asymptotic_error(50, 4, 4, variant) - expected) <= 1e-9

    def test_two_state_limits(self):
        assert asymptotic_error(3, 2, 1, "lb") == pytest.approx(2 / 5, abs=1e-10)
        assert asymptotic_error(3, 2, 1, "ub") == pytest.approx(3 / 5, abs=1e-10)

    def test_degenerate_single_state(self):
        assert asymptotic_error(5, 5, 1, "lb") == pytest.approx(1.0, abs=1e-12)
        assert asymptotic_error(5, 5, 1, "ub") == pytest.approx(1.0, abs=1e-12)

    def test_finite_horizon_approaches_limit(self):
        limit = asymptotic_error(5, 3, 2, "lb")
        finite = expected_error(5, 3, 2, 3000, "lb")
        assert finite == pytest.approx(limit, abs=1e-2)


class TestComputeBounds:
    # (lower, upper) at m=50, d=4, T=250, recorded before the kernel stored
    # only P^T and r; the rewrite must reproduce them to summation order.
    TABLE1 = {
        1: (0.018535740622022616, 0.076229982738485857),
        2: (0.029445301201333349, 0.040728699069150359),
        3: (0.034070454768365101, 0.036225691863619791),
    }

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_table1_rows_pinned(self, g):
        res = compute_bounds(50, 4, g, 250)
        lower, upper = self.TABLE1[g]
        assert abs(res.lower - lower) <= 1e-12
        assert abs(res.upper - upper) <= 1e-12

    def test_oversized_chain_refused_before_enumeration(self, monkeypatch):
        def enumerate_states(*args):
            raise AssertionError("enumerated a state space past the size guard")

        monkeypatch.setattr(cusketch.bounds, "enumerate_states", enumerate_states)
        with pytest.raises(ConfigurationError, match="guard"):
            compute_bounds(50, 4, 6, 10)
        with pytest.raises(ConfigurationError, match="guard"):
            asymptotic_error(50, 4, 6, "lb")
        with pytest.raises(ConfigurationError, match="guard"):
            expected_error(50, 4, 6, 10, "ub")

    def test_returns_ordered_pair_with_timings(self):
        res = compute_bounds(6, 2, 2, 40)
        assert 0.0 <= res.lower <= res.upper <= 1.0
        assert res.lower_seconds >= 0 and res.upper_seconds >= 0

    def test_asymptotic_mode(self):
        res = compute_bounds(3, 2, 1, None)
        assert res.lower == pytest.approx(2 / 5, abs=1e-10)
        assert res.upper == pytest.approx(3 / 5, abs=1e-10)

    @pytest.mark.parametrize("T", [40, None])
    def test_one_kernel_alive_at_a_time(self, kernel_refs, T):
        compute_bounds(6, 2, 2, T)
        assert len(kernel_refs) == 2
        assert all(ref() is None for ref in kernel_refs)


class TestChainValues:
    def test_views_agree_with_the_single_entry_point(self):
        chains = chain_values(6, 2, 2, 40)
        assert list(chains) == ["lb", "ub"]
        space = enumerate_states(6, 2, 2)
        for variant, chain in chains.items():
            assert chain.value == expected_error(6, 2, 2, 40, variant)
            assert chain.n_edges == build_kernel(space, variant).n_edges
            assert chain.seconds >= 0
        res = compute_bounds(6, 2, 2, 40)
        assert (res.lower, res.upper) == (chains["lb"].value, chains["ub"].value)
