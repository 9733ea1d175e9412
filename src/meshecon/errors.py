"""Exception types shared across the package."""


class ParamError(ValueError):
    """A model parameter violates one of its invariants."""


class NumericsError(RuntimeError):
    """A computed value is not finite or breaks its contract: roles, a bracket
    end's n, a per-trial utility or a radio result not finite, a stalled
    refinement, a negative club optimum, or quadrature missing its tolerance."""


class NoCrossing(Exception):
    """The total-utility curve never crosses zero from above inside the
    bracket: there is no free-entry equilibrium to report.

    This is a model finding, not a numerical failure.
    """

    def __init__(self, regime, n_lo: float, n_hi: float):
        self.regime = regime
        self.n_lo = n_lo
        self.n_hi = n_hi
        super().__init__(
            f"no positive-to-negative crossing of total utility for {regime} "
            f"on bracket [{n_lo!r}, {n_hi!r}]"
        )


class BoundaryOptimum(Exception):
    """The club objective is maximized at a bracket edge, so the interior
    optimum is undefined. Also a model finding, not a failure."""

    def __init__(self, n_boundary: float, side: str, value: float):
        self.n_boundary = n_boundary
        self.side = side
        self.value = value
        super().__init__(
            f"club objective is maximized at the {side} bracket edge "
            f"n={n_boundary!r} (value {value!r}); no interior optimum"
        )
