import re
import signal
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.linalg

import cusketch.bounds
import cusketch.kernel
from cusketch.bounds import (
    _poisson_solve,
    asymptotic_error,
    chain_values,
    expected_error,
    expected_error_from_kernel,
    long_run_interval,
    stationary,
)
from cusketch.errors import ConfigurationError, NonConvergenceError
from cusketch.kernel import build_kernel, retarget_capped
from cusketch.simulate import brute_force_expected_error, exact_errors
from cusketch.states import enumerate_states
from references import occupancy_sequence


@pytest.fixture(scope="module")
def two_state_lb():
    return build_kernel(enumerate_states(3, 2, 1), "lb")


@pytest.fixture(scope="module")
def two_state_ub():
    return build_kernel(enumerate_states(3, 2, 1), "ub")


class TestOccupancy:
    def test_first_steps_of_two_state_chain(self, two_state_lb):
        pis = list(occupancy_sequence(two_state_lb, 3))
        assert pis[0].tolist() == [1.0, 0.0]
        assert pis[1] == pytest.approx([0.0, 1.0])
        assert pis[2] == pytest.approx([2 / 3, 1 / 3])

    def test_stochastic_at_every_step(self, two_state_ub):
        steps = 0
        for pi in occupancy_sequence(two_state_ub, 50):
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert (pi >= 0).all()
            steps += 1
        assert steps == 50

    def test_horizon_must_be_positive(self, two_state_lb):
        with pytest.raises(ConfigurationError):
            next(occupancy_sequence(two_state_lb, 0))


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

    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("m,d,T", [(3, 2, 10), (4, 2, 8), (5, 3, 6), (6, 3, 5)])
    def test_bounds_bracket_the_oracle_with_a_binding_cap(self, m, d, T, g):
        # g < T, so the cap binds; the tightest case, (6, 3, 5) at g = 3, is
        # about 1.1e-5 above the lower bound
        exact = brute_force_expected_error(m, d, T).per_step
        lower, upper = (Fraction(expected_error(m, d, g, T, v)) for v in ("lb", "ub"))
        assert lower <= exact <= upper

    def test_monotone_in_g(self):
        m, d, T = 10, 3, 20
        lowers = [expected_error(m, d, g, T, "lb") for g in range(1, 6)]
        uppers = [expected_error(m, d, g, T, "ub") for g in range(1, 6)]
        assert all(a < b for a, b in zip(lowers, lowers[1:]))
        assert all(a > b for a, b in zip(uppers, uppers[1:]))
        assert all(lo <= up for lo, up in zip(lowers, uppers))
        # LB_g <= LB_g+1 <= UB_g+1 <= UB_g for g = 1 .. 4 on a grid of (m, d, T)
        for m in range(2, 11):
            for d in sorted({1, 2, m - 1, m}):
                for T in (1, 5, 40):
                    pairs = [chain_values(m, d, g, T).values() for g in range(1, 6)]
                    for (lb, ub), (lb_next, ub_next) in zip(pairs, pairs[1:]):
                        assert lb.value <= lb_next.value <= ub_next.value <= ub.value, (m, d, T)


class TestCappedWalk:
    """Both averaging windows of the bounds, pinned by the package's exact walk."""

    @pytest.mark.parametrize("variant", ["lb", "ub"])
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize(
        "m,d,T", [(3, 2, 10), (4, 2, 8), (5, 3, 6), (6, 3, 5), (5, 1, 6), (4, 4, 5)]
    )
    def test_both_windows_match_the_walk(self, m, d, T, g, variant):
        walk = exact_errors(m, d, T + 1, variant, g)
        # steps 0 .. T-1, as expected_error averages them
        steps_from_0 = Fraction(expected_error(m, d, g, T, variant))
        assert abs(steps_from_0 - walk[T] / T) <= 1e-15
        # steps 1 .. T, the window criterion 1's table matches
        kernel = build_kernel(enumerate_states(m, d, g), variant)
        pis = occupancy_sequence(kernel, T + 1)  # pi(0) .. pi(T)
        next(pis)
        steps_from_1 = Fraction(float(np.mean([pi @ kernel.r for pi in pis])))
        assert abs(steps_from_1 - (walk[T + 1] - walk[1]) / T) <= 1e-15


class TestBackwardSum:
    """The backward sum h <- r + P h equals the forward occupancy average."""

    @pytest.mark.parametrize("variant", ["lb", "ub"])
    @pytest.mark.parametrize("T", [1, 37])
    @pytest.mark.parametrize("m,d,g", [(3, 2, 1), (6, 3, 2), (9, 3, 3), (5, 5, 2)])
    def test_matches_forward_occupancy(self, m, d, g, T, variant):
        kernel = build_kernel(enumerate_states(m, d, g), variant)
        forward = float(np.mean([pi @ kernel.r for pi in occupancy_sequence(kernel, T)]))
        backward = expected_error_from_kernel(kernel, T)
        assert backward == pytest.approx(forward, rel=1e-14, abs=0)

    def test_horizon_must_be_positive(self, two_state_lb):
        with pytest.raises(ConfigurationError):
            expected_error_from_kernel(two_state_lb, 0)


def _balance_solution(kernel):
    """pi from (P^T - I) pi = 0 with its last equation replaced by sum(pi) = 1, solved densely."""
    n = len(kernel.space)
    a = kernel.p.T.toarray() - np.eye(n)
    a[-1] = 1.0
    return np.linalg.solve(a, np.eye(n)[-1])


class TestStationary:
    def test_two_state_balance(self, two_state_lb, two_state_ub):
        assert stationary(two_state_lb) == pytest.approx([2 / 5, 3 / 5], abs=1e-10)
        assert stationary(two_state_ub) == pytest.approx([2 / 5, 3 / 5], abs=1e-10)

    def test_residual_criterion(self, two_state_lb):
        pi = stationary(two_state_lb, tol=1e-12)
        p = two_state_lb.transition_matrix()
        assert np.abs(pi @ p - pi).max() <= 1e-12

    def test_non_convergence_reported(self, two_state_lb, monkeypatch):
        # lambda_2 = -2/3: from the start state two power steps cannot reach 1e-15
        monkeypatch.setattr(cusketch.bounds, "MAX_POWER_ITERS", 2)
        with pytest.raises(NonConvergenceError) as exc:
            stationary(two_state_lb, tol=1e-15)
        message = str(exc.value)
        [residual] = re.findall(r"residual (\S+) > tol 1.0e-15 after 2 iterations$", message)
        assert float(residual) > 0

    def test_invalid_tol(self, two_state_lb):
        with pytest.raises(ConfigurationError):
            stationary(two_state_lb, tol=0.0)

    @pytest.mark.parametrize("tol", [-1e-12, float("nan"), float("inf")])
    def test_tol_not_finite_and_positive(self, two_state_lb, tol):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            stationary(two_state_lb, tol=tol)

    def test_unreachable_tol_stops_at_rounding_floor(self):
        # |lambda_2| = 0.8149 on this chain, so from the start state the
        # residual reaches the 8 eps floor after about log(8 eps) / log 0.8149
        # = 166 steps; it stops at step 174
        kernel = build_kernel(enumerate_states(6, 2, 2), "lb")
        with pytest.raises(NonConvergenceError) as exc:
            stationary(kernel, tol=1e-300)
        [(residual, steps)] = re.findall(
            r"residual (\S+) > tol 1.0e-300 is at the float64 rounding floor "
            r"after (\d+) iterations$",
            str(exc.value),
        )
        assert int(steps) <= 200
        assert 1e-300 < float(residual) <= 1e-15


def _no_ilu_solve(kernel, tol):
    raise AssertionError("the long-run solve went on to the ILU step")


def _solver_spy(monkeypatch, name="_ilu_solve"):
    """Record the variant of each chain passed to the solver `name`, which still runs."""
    calls, real = [], getattr(cusketch.bounds, name)

    def spy(kernel, tol, *args):
        calls.append(kernel.variant)
        return real(kernel, tol, *args)

    monkeypatch.setattr(cusketch.bounds, name, spy)
    return calls


class TestAsymptotic:
    # Long-run limits at m=50, d=4 recorded with power iteration from the
    # start state, stopped at ||pi P - pi||_inf <= 1e-12. They sit 0.97e-12
    # to 1.4e-12 from the values certified by Odoni's interval.
    LIMITS = {
        3: (0.034978754420538362, 0.037924141739897083),
        4: (0.036676985241395878, 0.037226498811476355),
    }

    @pytest.fixture(scope="class")
    def g3_kernels(self):
        space = enumerate_states(50, 4, 3)
        return {variant: build_kernel(space, variant) for variant in ("lb", "ub")}

    @pytest.fixture
    def intervals(self, monkeypatch):
        """Every interval `chain_values` computes, in order."""
        seen = []

        def recorded(kernel, h):
            seen.append(long_run_interval(kernel, h))
            return seen[-1]

        monkeypatch.setattr(cusketch.bounds, "long_run_interval", recorded)
        return seen

    @pytest.mark.parametrize("variant", ["lb", "ub"])
    def test_g3_limits_pinned(self, variant):
        expected = self.LIMITS[3][variant == "ub"]
        assert abs(asymptotic_error(50, 4, 3, variant) - expected) <= 1e-9

    @pytest.mark.slow
    @pytest.mark.parametrize("variant", ["lb", "ub"])
    def test_g4_limits_pinned(self, variant, intervals):
        expected = self.LIMITS[4][variant == "ub"]
        value = asymptotic_error(50, 4, 4, variant)
        assert abs(value - expected) <= 1e-9
        [(lo, hi)] = intervals
        assert hi - lo <= 1e-12 and value == (lo if variant == "lb" else hi)

    def test_g3_needs_only_bicgstab(self, monkeypatch, intervals):
        # the benchmark chains are certified by one BiCGSTAB solve each: no
        # second solve runs, and each bound is the end of its interval on
        # its own safe side
        monkeypatch.setattr(cusketch.bounds, "_ilu_solve", _no_ilu_solve)
        solves = _solver_spy(monkeypatch, "_poisson_solve")
        chains = chain_values(50, 4, 3, None)
        assert solves == ["lb", "ub"]
        assert abs(chains["lb"].value - self.LIMITS[3][0]) <= 1e-9
        assert abs(chains["ub"].value - self.LIMITS[3][1]) <= 1e-9
        (lb_lo, lb_hi), (ub_lo, ub_hi) = intervals
        assert lb_hi - lb_lo <= 1e-12 and ub_hi - ub_lo <= 1e-12
        assert (chains["lb"].value, chains["ub"].value) == (lb_lo, ub_hi)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_one_solve_of_each_kind_per_chain(self, monkeypatch, m):
        # every d and g <= 3: one plain BiCGSTAB solve per chain, and at
        # most one ILU step, which solves once more
        solves = _solver_spy(monkeypatch, "_poisson_solve")
        fallbacks = _solver_spy(monkeypatch)
        for d in range(1, m + 1):
            for g in (1, 2, 3):
                solves.clear()
                fallbacks.clear()
                chain_values(m, d, g, None)
                assert fallbacks in ([], ["lb"], ["ub"], ["lb", "ub"]), (m, d, g)
                expected = [v for v in ("lb", "ub") for _ in range(1 + fallbacks.count(v))]
                assert solves == expected, (m, d, g)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_long_run_interval_holds_the_stationary_value(self, m):
        # every d and g <= 3, LB then UB: the Poisson solve certifies each
        # chain, and its interval holds pi.r from the dense balance solution
        for d in range(1, m + 1):
            for g in (1, 2, 3):
                kernel = build_kernel(enumerate_states(m, d, g), "lb")
                for variant in ("lb", "ub"):
                    if variant == "ub":
                        retarget_capped(kernel)
                    lo, hi = long_run_interval(kernel, _poisson_solve(kernel, 1e-12))
                    value = float(_balance_solution(kernel) @ kernel.r)
                    assert hi - lo <= 1e-10 and lo <= value <= hi, (m, d, g, variant)

    def test_nan_fallback_fails_the_interval_check(self, monkeypatch):
        # BiCGSTAB gives up at once and the ILU step returns NaN, which lies
        # in no interval narrower than [min r, max r]
        monkeypatch.setattr(cusketch.bounds, "MAX_KRYLOV_ITERS", 0)
        monkeypatch.setattr(
            cusketch.bounds, "_ilu_solve", lambda kernel, tol: np.full(len(kernel.r), np.nan)
        )
        with pytest.raises(
            NonConvergenceError, match="wide > tol 1.0e-12 after ILU-preconditioned BiCGSTAB$"
        ):
            asymptotic_error(4, 2, 2, "lb")

    @pytest.mark.parametrize("variant", ["lb", "ub"])
    @pytest.mark.parametrize(
        "bad_h",
        [
            lambda kernel: np.zeros(len(kernel.r)),
            lambda kernel: kernel.r.copy(),
            lambda kernel: np.random.Generator(np.random.PCG64(7)).random(len(kernel.r)),
            lambda kernel: np.full(len(kernel.r), np.nan),
        ],
        ids=["zeros", "r", "random", "nan"],
    )
    def test_bad_h_gives_a_wide_interval_holding_the_pin(self, g3_kernels, variant, bad_h):
        kernel = g3_kernels[variant]
        lo, hi = long_run_interval(kernel, bad_h(kernel))
        assert hi - lo > 1e-3
        assert lo <= self.LIMITS[3][variant == "ub"] <= hi
        assert kernel.r.min() <= lo and hi <= kernel.r.max()

    def test_uncertified_chain_is_certified_by_the_ilu_step(self, monkeypatch, intervals):
        # frozen self-loops near 0.99: BiCGSTAB leaves a wide interval, and
        # one BiCGSTAB solve preconditioned by the ILU factor certifies the
        # chain. The values it had before lie inside: power iteration's,
        # 0.0025625508887330852, and ILU-preconditioned GMRES's,
        # 0.0025625508887305998.
        def stationary(kernel, tol=1e-12):
            raise AssertionError("the long-run solve ran power iteration")

        calls = _solver_spy(monkeypatch)
        monkeypatch.setattr(cusketch.bounds, "stationary", stationary)
        assert asymptotic_error(200, 3, 1, "lb") == 0.0025625508887296145
        (lo, hi), (ilu_lo, ilu_hi) = intervals
        assert calls == ["lb"] and hi - lo > 1e-12 >= ilu_hi - ilu_lo
        assert ilu_lo <= 0.0025625508887305998 <= 0.0025625508887330852 <= ilu_hi

    def test_one_krylov_iteration_serves_both_solves(self, monkeypatch):
        # a chain that reaches the ILU step runs `_poisson_solve` twice, plain
        # and then preconditioned, and no SciPy Krylov solver
        def refuse(*args, **kwargs):
            raise AssertionError("the long-run solve called a SciPy Krylov solver")

        for name in ("bicgstab", "cg", "cgs", "gmres", "lgmres", "gcrotmk", "qmr", "tfqmr"):
            monkeypatch.setattr(scipy.sparse.linalg, name, refuse)
        preconditioned, real = [], cusketch.bounds._poisson_solve

        def spy(kernel, tol, precondition=None):
            preconditioned.append(precondition is not None)
            return real(kernel, tol, precondition)

        monkeypatch.setattr(cusketch.bounds, "_poisson_solve", spy)
        assert asymptotic_error(200, 3, 1, "lb") == 0.0025625508887296145
        assert preconditioned == [False, True]

    def test_solve_out_of_iterations_goes_to_the_ilu_step(self, monkeypatch, intervals):
        # BiCGSTAB stops after 5 iterations, and the chain goes to the ILU
        # step, whose preconditioned solve certifies it within 5 as well
        calls = _solver_spy(monkeypatch)
        monkeypatch.setattr(cusketch.bounds, "MAX_KRYLOV_ITERS", 5)
        assert abs(asymptotic_error(17, 8, 3, "ub") - 0.20112351583230614) <= 1e-12
        (lo, hi), (ilu_lo, ilu_hi) = intervals
        assert calls == ["ub"] and hi - lo > 1e-12 >= ilu_hi - ilu_lo

    def test_fallback_value_outside_the_interval_is_refused(self, monkeypatch):
        # no h, the ILU step's included, narrows this interval: exit 2, not a value
        calls = _solver_spy(monkeypatch)
        monkeypatch.setattr(cusketch.bounds, "long_run_interval", lambda kernel, h: (1.0, 2.0))
        with pytest.raises(
            NonConvergenceError,
            match="interval is 1.000e[+]00 wide > tol 1.0e-12 after ILU-preconditioned BiCGSTAB$",
        ):
            asymptotic_error(9, 3, 2, "lb")
        assert calls == ["lb"]

    def test_factor_past_its_budget_is_refused_unbuilt(self, monkeypatch, intervals):
        # (200, 3, 1) LB has 786 nonzeros and 198 states: its factor's budget
        # is 10 x (786 + 396) x 12 = 141,840 bytes
        monkeypatch.setattr(cusketch.bounds, "KERNEL_BYTES_GUARD", 141_839)
        monkeypatch.setattr(cusketch.bounds, "_ilu_solve", _no_ilu_solve)
        with pytest.raises(NonConvergenceError, match="could need 141840 B, over the") as exc:
            asymptotic_error(200, 3, 1, "lb")
        [(lo, hi)] = intervals
        message = str(exc.value)
        [width] = re.findall(r"interval is (\S+) wide > tol 1.0e-12 after BiCGSTAB;", message)
        assert width == f"{hi - lo:.3e}" and hi - lo > 1e-12

    def test_singular_factor_gives_the_wide_interval(self, monkeypatch, intervals):
        def spilu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "spilu", spilu)
        with pytest.raises(NonConvergenceError, match="after ILU-preconditioned BiCGSTAB$"):
            asymptotic_error(200, 3, 1, "lb")
        kernel = build_kernel(enumerate_states(200, 3, 1), "lb")
        assert intervals[-1] == (kernel.r.min(), kernel.r.max())

    # Logged chains that plain BiCGSTAB leaves wide and ILU-preconditioned
    # BiCGSTAB certifies, with the value each had before an ILU step first
    # certified it: for the LB chains that BiCGSTAB breaks down
    # or runs out of iterations on, power iteration from an ARPACK start; for
    # the last three, whose recursive residual meets tol / 4 while the true
    # one does not, BiCGSTAB restarted once from r - A h.
    UNCERTIFIED = [
        (200, 3, 1, 0.0025625508887330852, "lb"),
        (100, 1, 2, 0.003474864311339029, "lb"),
        (100, 2, 2, 0.0068737991788279445, "lb"),
        (200, 3, 2, 0.0046272660058910798, "lb"),
        (50, 2, 3, 0.019345062793275882, "lb"),
        (17, 8, 3, 0.20112351583230614, "ub"),
        (20, 4, 3, 0.09728362530670004, "ub"),
        (20, 11, 4, 0.22544910332076898, "lb"),
    ]
    UNCERTIFIED_SLOW = [
        pytest.param(100, 1, 3, 0.0046047723480655148, "lb", marks=pytest.mark.slow),
        pytest.param(100, 4, 3, 0.016623095020482297, "lb", marks=pytest.mark.slow),
    ]

    @pytest.mark.parametrize("m, d, g, old_value, variant", UNCERTIFIED + UNCERTIFIED_SLOW)
    def test_ilu_bicgstab_certifies_the_logged_chains(
        self, monkeypatch, intervals, m, d, g, old_value, variant
    ):
        calls = _solver_spy(monkeypatch)
        value = asymptotic_error(m, d, g, variant)
        lo, hi = intervals[-1]
        assert calls == [variant] and hi - lo <= 1e-12
        assert value == (lo if variant == "lb" else hi)
        assert lo <= old_value <= hi

    # The grid's edges among the chains that reach the ILU step, with the
    # interval ILU-preconditioned GMRES certified: (100,5,1) LB is left the
    # second widest of m in {30, 50, 100, 150, 200}, d <= 5, g <= 3, and
    # (30,2,3) LB is the grid's smallest m to reach the step. Both intervals
    # hold pi.r, so they must overlap; GMRES's reported bound, its low end,
    # need not lie inside the new interval, and for (30,2,3) it lies 2.7e-14
    # below it.
    GMRES_INTERVALS = [
        (100, 5, 1, 0.009798983413658107, 0.00979898341365938),
        (30, 2, 3, 0.034208006293578425, 0.034208006293638835),
    ]

    @pytest.mark.parametrize("m, d, g, old_lo, old_hi", GMRES_INTERVALS)
    def test_ilu_step_meets_the_gmres_interval(
        self, monkeypatch, intervals, m, d, g, old_lo, old_hi
    ):
        calls = _solver_spy(monkeypatch)
        value = asymptotic_error(m, d, g, "lb")
        lo, hi = intervals[-1]
        assert calls == ["lb"] and value == lo and hi - lo <= 1e-12
        assert max(lo, old_lo) <= min(hi, old_hi)

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


class TestChainValues:
    """`chain_values`, the one entry point, with both chains as `table1` and
    `bounds` ask for them, and its two one-chain views."""

    # (lower, upper) at m=50, d=4, T=250, recorded before the kernel stored
    # only P^T and r; the rewrite must reproduce them to summation order.
    TABLE1 = {
        1: (0.018535740622022616, 0.076229982738485857),
        2: (0.029445301201333349, 0.040728699069150359),
        3: (0.034070454768365101, 0.036225691863619791),
    }

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_table1_rows_pinned(self, g):
        lb, ub = chain_values(50, 4, g, 250).values()
        lower, upper = self.TABLE1[g]
        assert abs(lb.value - lower) <= 1e-12
        assert abs(ub.value - upper) <= 1e-12

    def test_oversized_chain_refused_before_enumeration(self, monkeypatch):
        def enumerate_states(*args):
            raise AssertionError("enumerated a state space past the size guard")

        monkeypatch.setattr(cusketch.bounds, "enumerate_states", enumerate_states)
        with pytest.raises(ConfigurationError, match="guard"):
            chain_values(50, 4, 6, 10)
        with pytest.raises(ConfigurationError, match="guard"):
            asymptotic_error(50, 4, 6, "lb")
        with pytest.raises(ConfigurationError, match="guard"):
            expected_error(50, 4, 6, 10, "ub")

    def test_views_agree_with_the_single_entry_point(self):
        chains = chain_values(6, 2, 2, 40)
        assert list(chains) == ["lb", "ub"]
        space = enumerate_states(6, 2, 2)
        for variant, chain in chains.items():
            assert chain.value == expected_error(6, 2, 2, 40, variant)
            assert chain.n_edges == build_kernel(space, variant).n_edges
            assert chain.seconds >= 0

    def test_returns_ordered_pair_with_timings(self):
        chains = chain_values(6, 2, 2, 40)
        assert list(chains) == ["lb", "ub"]
        lb, ub = chains.values()
        assert 0.0 <= lb.value <= ub.value <= 1.0
        assert lb.seconds >= 0 and ub.seconds >= 0

    def test_asymptotic_mode(self):
        lb, ub = chain_values(3, 2, 1, None).values()
        assert lb.value == pytest.approx(2 / 5, abs=1e-10)
        assert ub.value == pytest.approx(3 / 5, abs=1e-10)

    @pytest.mark.parametrize("T", [40, None])
    def test_one_kernel_alive_at_a_time(self, kernel_refs, T):
        chain_values(6, 2, 2, T)
        # one build: UB's kernel is LB's, re-targeted in place
        assert len(kernel_refs) == 1
        assert all(ref() is None for ref in kernel_refs)

    @pytest.mark.parametrize("T", [40, None])
    def test_one_full_event_pass_for_both_chains(self, monkeypatch, T):
        m, d, g = 9, 3, 3
        passes = []  # the (v, c) events each pass yielded
        event_pass = cusketch.kernel._event_pass

        def recorded(*args, **kwargs):
            events = set()
            passes.append(events)
            for edge in event_pass(*args, **kwargs):
                events.add(edge[:2])
                yield edge

        monkeypatch.setattr(cusketch.kernel, "_event_pass", recorded)
        chains = chain_values(m, d, g, T)
        assert list(chains) == ["lb", "ub"]
        assert [events == {(g, d)} for events in passes].count(False) == 1


class TestSplitProducts:
    """Once P has SPLIT_MIN_NNZ nonzeros, `_products` splits each mat-vec by
    rows between the calling thread and a one-thread pool; LB's and UB's
    sums run one after the other on one P, and neither changes a bit."""

    @pytest.mark.parametrize("m,d,g,T", [
        (6, 2, 2, 40), (6, 3, 2, 5), (4, 2, 1, 8), (5, 3, 3, 6), (9, 3, 3, 20),
        (50, 4, 1, 250), (50, 4, 2, 250), (50, 4, 3, 250),
    ])
    def test_values_are_each_chain_alone(self, m, d, g, T):
        # the g < T cases bind the cap; (50, 4, g <= 3) are the pinned table rows
        space = enumerate_states(m, d, g)
        chains = chain_values(m, d, g, T)
        for variant, chain in chains.items():
            kernel = build_kernel(space, variant)
            assert chain.value == expected_error_from_kernel(kernel, T)  # bit for bit
            assert chain.n_edges == kernel.n_edges

    @pytest.mark.parametrize("T", [250, None])
    def test_split_products_change_no_bit(self, monkeypatch, T):
        alone = [chain.value for chain in chain_values(50, 4, 3, T).values()]
        monkeypatch.setattr(cusketch.bounds, "SPLIT_MIN_NNZ", 0)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as it goes
        try:
            split = [chain.value for chain in chain_values(50, 4, 3, T).values()]
        finally:
            sys.setswitchinterval(interval)
        assert split == alone
        assert threading.active_count() == threads

    @pytest.mark.parametrize("m,d,g", [(5, 5, 1), (3, 2, 1), (6, 2, 2), (9, 3, 3)])
    def test_split_product_is_the_sparse_product(self, monkeypatch, m, d, g):
        # (5, 5, 1) has one nonzero, so the calling thread's part is empty;
        # `kernel.p @ x` runs SciPy's product as `scipy.sparse` loads it, so
        # the routine loaded from its file alone gives SciPy's bits
        monkeypatch.setattr(cusketch.bounds, "SPLIT_MIN_NNZ", 0)
        kernel = build_kernel(enumerate_states(m, d, g), "ub")
        x = np.random.Generator(np.random.PCG64(3)).random(len(kernel.r))
        out = np.full_like(x, np.nan)
        with cusketch.bounds._products(kernel) as product:
            product(x, out)
            assert out.tobytes() == (kernel.p @ x).tobytes()
            product(x, out, kernel.r)
            want = kernel.p @ x
            want += kernel.r
            assert out.tobytes() == want.tobytes()

    def test_ub_kernel_is_lbs_retargeted_in_place(self, monkeypatch):
        built, retargeted = [], []
        build, retarget = cusketch.bounds.build_kernel, cusketch.bounds.retarget_capped

        def kept(*args):
            built.append(build(*args))
            return built[-1]

        def recorded(kernel):
            arrays = (kernel.data, kernel.indices, kernel.indptr, kernel.r)
            retarget(kernel)
            retargeted.append((kernel, arrays))

        monkeypatch.setattr(cusketch.bounds, "build_kernel", kept)
        monkeypatch.setattr(cusketch.bounds, "retarget_capped", recorded)
        chain_values(9, 3, 3, 20)
        [kernel] = built
        [(same, arrays)] = retargeted
        assert same is kernel and kernel.variant == "ub"
        now = (kernel.data, kernel.indices, kernel.indptr, kernel.r)
        assert all(before is after for before, after in zip(arrays, now))
        alone = build_kernel(enumerate_states(9, 3, 3), "ub")
        for got, want in zip(now, (alone.data, alone.indices, alone.indptr, alone.r)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("faulty_part", ["pool", "caller"])
    def test_ub_fault_raised_with_its_type_and_message(self, monkeypatch, faulty_part):
        # a fault in one part of UB's first product, raised once the other
        # part is in flight
        monkeypatch.setattr(cusketch.bounds, "SPLIT_MIN_NNZ", 0)
        matvec = cusketch.bounds._csr_matvec
        in_flight = threading.Event()

        def faulty(*args):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (faulty_part == "caller"):
                in_flight.wait(10)
                raise ZeroDivisionError("fault in UB's sum")
            in_flight.set()
            matvec(*args)

        monkeypatch.setattr(cusketch.bounds, "_csr_matvec", faulty)
        threads = threading.active_count()
        began = time.perf_counter()
        # UB alone would take 10^7 steps, over a minute; the fault stops it
        with pytest.raises(ZeroDivisionError, match="^fault in UB's sum$"):
            chain_values(6, 2, 2, 10**7, ("ub",))
        assert time.perf_counter() - began < 10
        assert threading.active_count() == threads

    def test_only_a_split_product_starts_a_thread(self, monkeypatch):
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        threads = threading.active_count()
        chain_values(6, 2, 2, None)
        chain_values(6, 2, 2, 40)
        chain_values(6, 2, 2, 40, ("ub",))
        expected_error(6, 2, 2, 40, "lb")
        asymptotic_error(6, 2, 2, "ub")
        assert started == []  # a small P's products stay on this thread
        nnz = build_kernel(enumerate_states(6, 2, 2), "lb").n_edges
        monkeypatch.setattr(cusketch.bounds, "SPLIT_MIN_NNZ", nnz + 1)
        chain_values(6, 2, 2, 40)
        assert started == []
        monkeypatch.setattr(cusketch.bounds, "SPLIT_MIN_NNZ", nnz)
        chain_values(6, 2, 2, 40)
        assert started == ["cusketch-matvec_0"] * 2  # one pool for each chain's sum
        assert list(chain_values(6, 2, 2, 40, ("ub", "lb"))) == ["ub", "lb"]
        assert len(started) == 4
        started.clear()
        asymptotic_error(6, 2, 2, "lb")
        assert len(started) == 2  # the Poisson solve's pool and the interval's
        assert threading.active_count() == threads

    def test_interrupt_returns_within_steps(self, monkeypatch):
        # an interrupt lands in LB's sum on this thread, which must return
        # within a step, also when each step's second part runs on the pool
        m, d, g = 50, 4, 3
        kernel = build_kernel(enumerate_states(m, d, g), "ub")
        h = kernel.r.copy()
        began = time.perf_counter()
        for _ in range(20):
            h = kernel.p @ h
        step = (time.perf_counter() - began) / 20
        T = 10**6  # minutes per chain
        threads = threading.active_count()
        for split_min in (cusketch.bounds.SPLIT_MIN_NNZ, 0):
            monkeypatch.setattr(cusketch.bounds, "SPLIT_MIN_NNZ", split_min)
            interrupted = []

            def interrupt(signum, frame):
                interrupted.append(time.perf_counter())
                raise KeyboardInterrupt

            previous = signal.signal(signal.SIGALRM, interrupt)
            try:
                signal.setitimer(signal.ITIMER_REAL, 0.5)
                with pytest.raises(KeyboardInterrupt):
                    chain_values(m, d, g, T)
                returned = time.perf_counter()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            assert len(interrupted) == 1
            assert returned - interrupted[0] < 0.2 + 20 * step
            assert threading.active_count() == threads
