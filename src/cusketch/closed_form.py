"""Closed-form results for the d = m - 1 regime.

With d = m - 1 the offset-histogram chain collapses to a scalar birth-death
chain on the gap level: from level f >= 1 it climbs with probability 1/m
(all maxima selected) and falls back with probability (m - 1)/m. The
limiting distribution, the long-run error rate (1/2), the counter growth
rate (m/2), and the gap tail all have closed forms. Independently, for
g = 1 the capped-chain limits are (m - 1)/(2m - 1) and m/(2m - 1).
"""

from __future__ import annotations

from .errors import ConfigurationError, InternalConsistencyError

_SERIES_TOL = 1e-12
_TAIL_CUTOFF = 1e-15


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


def _truncated_levels(m: int):
    f = 1
    while True:
        pi_f = bd_limiting(m, f)
        if pi_f < _TAIL_CUTOFF:
            return
        yield f, pi_f
        f += 1


def bd_error_rate(m: int) -> float:
    """Long-run average estimation error rate: exactly 1/2.

    Re-derived from the truncated series over level transitions as a guard
    against transcription slips in the closed forms.
    """
    _require_m(m)
    series = (1 / m) * bd_transition(m, 0, 1) * bd_limiting(m, 0)
    for f, pi_f in _truncated_levels(m):
        up = (1 / m) * bd_transition(m, f, f + 1)
        down = ((m - 1) / m) * bd_transition(m, f, f - 1)
        series += (up + down) * pi_f
    if abs(series - 0.5) > _SERIES_TOL:
        raise InternalConsistencyError(
            f"error-rate series evaluates to {series!r}, expected 1/2"
        )
    return 0.5


def bd_growth_rate(m: int) -> float:
    """Expected counter increments per step: exactly m/2 (counter rate 1/2)."""
    _require_m(m)
    pi0 = bd_limiting(m, 0)
    series = (m - 1) * pi0 + (1 - pi0) * 2 * (m - 1) / m
    if abs(series - m / 2) > _SERIES_TOL * m:
        raise InternalConsistencyError(
            f"growth-rate series evaluates to {series!r}, expected m/2 = {m / 2}"
        )
    return m / 2


def bd_gap_tail(m: int, g: int) -> float:
    """Long-run fraction of time the counters gap is >= g."""
    _require_m(m)
    if g < 1:
        raise ConfigurationError(f"g must be >= 1, got {g}")
    return m / (2 * (m - 1) ** g)


def g1_asymptotic(m: int) -> tuple[float, float]:
    """Limits of the g = 1 capped-chain bounds when d = m - 1.

    Both approach 1/2 as m grows, squeezing the plain sketch's error rate.
    """
    if m < 2:
        raise ConfigurationError(f"m must be >= 2, got {m}")
    return (m - 1) / (2 * m - 1), m / (2 * m - 1)
