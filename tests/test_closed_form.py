import pytest

from cusketch.bounds import asymptotic_error
from cusketch.closed_form import (
    GAP_TAIL_GMAX,
    bd_error_rate,
    bd_gap_tail,
    bd_growth_rate,
    bd_limiting,
    bd_transition,
    g1_asymptotic,
)
from cusketch.errors import ConfigurationError


class TestLimitingDistribution:
    def test_m3_values(self):
        assert bd_limiting(3, 0) == pytest.approx(1 / 4)
        assert bd_limiting(3, 1) == pytest.approx(3 / 8)

    def test_sums_to_one(self):
        for m in (3, 5, 10):
            total = sum(bd_limiting(m, f) for f in range(51))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_m2_rejected(self):
        with pytest.raises(ConfigurationError):
            bd_limiting(2, 0)


class TestTransitions:
    def test_examples(self):
        assert bd_transition(5, 0, 1) == 1.0
        assert bd_transition(5, 3, 4) == pytest.approx(1 / 5)
        assert bd_transition(5, 3, 2) == pytest.approx(4 / 5)
        assert bd_transition(5, 3, 5) == 0.0


class TestRates:
    @pytest.mark.parametrize("m", [3, 4, 10])
    def test_error_rate_is_half(self, m):
        assert bd_error_rate(m) == 0.5

    def test_growth_rate(self):
        assert bd_growth_rate(4) == 2.0
        assert bd_growth_rate(3) == 1.5

    @pytest.mark.parametrize("m", range(3, 12))
    def test_counter_rate_is_half(self, m):
        assert bd_growth_rate(m) / m == pytest.approx(0.5)


class TestGapTail:
    def test_examples(self):
        assert bd_gap_tail(3, 1) == pytest.approx(3 / 4)
        assert bd_gap_tail(10, 2) == pytest.approx(10 / 162)

    def test_complement_is_pi0(self):
        for m in (3, 6, 15):
            assert 1 - bd_gap_tail(m, 1) == pytest.approx(bd_limiting(m, 0), abs=1e-12)

    def test_equals_tail_sum_of_limiting(self):
        for m in (3, 7):
            for g in (1, 2, 3, 4):
                tail = sum(bd_limiting(m, f) for f in range(g, 200))
                assert bd_gap_tail(m, g) == pytest.approx(tail, abs=1e-12)

    def test_cap_drops_only_tails_that_round_to_zero(self):
        # m = 3 decays slowest: its tail at the cap is the least subnormal
        assert bd_gap_tail(3, GAP_TAIL_GMAX) == 5e-324
        assert 3 / (2 * 2 ** (GAP_TAIL_GMAX + 1)) == 0.0
        assert bd_gap_tail(4, GAP_TAIL_GMAX) == 0.0
        with pytest.raises(ConfigurationError, match=f"g must be <= {GAP_TAIL_GMAX}"):
            bd_gap_tail(3, GAP_TAIL_GMAX + 1)


class TestG1Asymptotic:
    def test_examples(self):
        assert g1_asymptotic(3) == pytest.approx((0.4, 0.6))
        assert g1_asymptotic(50) == pytest.approx((49 / 99, 50 / 99))

    def test_limits_straddle_half_and_width(self):
        for m in range(2, 30):
            lo, hi = g1_asymptotic(m)
            assert lo < 0.5 < hi
            assert hi - lo == pytest.approx(1 / (2 * m - 1), abs=1e-14)

    def test_approaches_half(self):
        lo, hi = g1_asymptotic(10**6)
        assert lo == pytest.approx(0.5, abs=1e-6)
        assert hi == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("m", range(3, 21))
    def test_matches_chain_limits(self, m):
        lo, hi = g1_asymptotic(m)
        assert asymptotic_error(m, m - 1, 1, "lb") == pytest.approx(lo, abs=1e-10)
        assert asymptotic_error(m, m - 1, 1, "ub") == pytest.approx(hi, abs=1e-10)
