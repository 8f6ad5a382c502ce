"""Closed-form results for the d = m - 1 regime.

With d = m - 1 the offset-histogram chain collapses to a scalar birth-death
chain on the gap level: from level f >= 1 it climbs with probability 1/m
(all maxima selected) and falls back with probability (m - 1)/m. The
limiting distribution, the long-run error rate (1/2), the counter growth
rate (m/2), and the gap tail all have closed forms, which the functions
here return directly; the test suite checks the two rates against their
series over the limiting distribution. Independently, for
g = 1 the capped-chain limits are (m - 1)/(2m - 1) and m/(2m - 1).
"""

from __future__ import annotations

from .errors import ConfigurationError

# Largest g with a nonzero float gap tail for some m: m = 3 decays slowest,
# and 3 / (2 * 2**1075) rounds to the least subnormal, 4.94e-324, while every
# tail past it rounds to 0.0. The tail is computed exactly, so a larger g
# would only cost time and memory.
GAP_TAIL_GMAX = 1075


def _require_m(m: int) -> None:
    # the limiting probabilities carry an (m - 2) factor; m = 2 degenerates
    if m < 3:
        raise ConfigurationError(f"birth-death formulas require m >= 3, got {m}")


def bd_limiting(m: int, f: int) -> float:
    """Limiting probability that the gap level equals f."""
    _require_m(m)
    if f < 0:
        raise ConfigurationError(f"level f must be >= 0, got {f}")
    if f == 0:
        return (m - 2) / (2 * (m - 1))
    return m * (m - 2) / (2 * (m - 1) ** (f + 1))


def bd_transition(m: int, f_from: int, f_to: int) -> float:
    """One-step transition probability of the gap-level chain."""
    _require_m(m)
    if f_from == 0:
        return 1.0 if f_to == 1 else 0.0
    if f_to == f_from + 1:
        return 1 / m
    if f_to == f_from - 1:
        return (m - 1) / m
    return 0.0


def bd_error_rate(m: int) -> float:
    """Long-run average estimation error rate: exactly 1/2."""
    _require_m(m)
    return 0.5


def bd_growth_rate(m: int) -> float:
    """Expected counter increments per step: exactly m/2 (counter rate 1/2)."""
    _require_m(m)
    return m / 2


def bd_gap_tail(m: int, g: int) -> float:
    """Long-run fraction of time the counters gap is >= g."""
    _require_m(m)
    if g < 1:
        raise ConfigurationError(f"g must be >= 1, got {g}")
    if g > GAP_TAIL_GMAX:
        raise ConfigurationError(
            f"g must be <= {GAP_TAIL_GMAX}, got {g}: every gap tail beyond it is 0.0"
        )
    return m / (2 * (m - 1) ** g)


def g1_asymptotic(m: int) -> tuple[float, float]:
    """Limits of the g = 1 capped-chain bounds when d = m - 1.

    Both approach 1/2 as m grows, squeezing the plain sketch's error rate.
    """
    if m < 2:
        raise ConfigurationError(f"m must be >= 2, got {m}")
    return (m - 1) / (2 * m - 1), m / (2 * m - 1)
