"""Exception types shared across the package, one per outcome."""


class ConfigurationError(ValueError):
    """Invalid or oversized input: parameters (m, d, g, T, ...), events, flags."""


class NonConvergenceError(RuntimeError):
    """The long-run solve failed to reach the requested tolerance.

    The message says by how much: the certified interval's width, and
    whether the ILU-preconditioned BiCGSTAB solve ran or its factor would
    pass its budget. `stationary`'s gives its power-iteration residual and
    steps.
    """


class InternalConsistencyError(RuntimeError):
    """A structural invariant (state closure, row sums, ...) was violated.

    Raising this always indicates an implementation bug, never bad input.
    """
