"""Exception types shared across the package, one per outcome."""


class ConfigurationError(ValueError):
    """Invalid or oversized input: parameters (m, d, g, T, ...), events, flags."""


class NonConvergenceError(RuntimeError):
    """The long-run solve failed to reach the requested tolerance.

    `residual` is the certified interval's width and `iterations` are
    ILU-GMRES's, 0 if its factor would pass its budget (`stationary`'s are
    its power-iteration residual and steps).
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class InternalConsistencyError(RuntimeError):
    """A structural invariant (state closure, row sums, ...) was violated.

    Raising this always indicates an implementation bug, never bad input.
    """
