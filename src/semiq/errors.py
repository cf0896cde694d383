"""Exception types shared across the toolkit.

NumericalFailure subclasses signal a diagnosable numerical problem (step
size, truncation, degeneracy) rather than a usage error; the CLI maps them
to its dedicated exit code.
"""


class NumericalFailure(RuntimeError):
    """Base class for numerical diagnostics."""


class FlowDiverged(NumericalFailure):
    """Non-finite state encountered while integrating a flow."""


class PositivityViolation(NumericalFailure):
    """Density matrix lost positivity beyond tolerance during evolution."""


class DegenerateStationaryState(NumericalFailure):
    """Generator null space is not one-dimensional."""

    def __init__(self, null_dim: int):
        self.null_dim = null_dim
        super().__init__(f"stationary state is degenerate: null space dimension {null_dim}")


class TailNotNegligible(NumericalFailure):
    """Truncated distribution still carries weight at the cutoff."""


class SeriesDivergence(NumericalFailure):
    """A series evaluation failed to converge within its term budget."""
