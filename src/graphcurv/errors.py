"""Error taxonomy for graphcurv.

Every failure mode the library reports deliberately is a subclass of
GraphCurvError, so callers (and the CLI exit-code map) can stay total.
"""


class GraphCurvError(Exception):
    """Base class for all graphcurv errors.

    An error that ends a Newton solve carries its progress: ``steps``, the
    Newton steps accepted before it, and ``residual``, the residual norm of
    the last accepted iterate (None when there is none).  Other errors keep
    the defaults 0 and None.
    """

    steps = 0
    residual = None


class OutOfChart(GraphCurvError):
    """A point lies outside the coordinate chart's valid range."""


class DomainMismatch(GraphCurvError):
    """Grid data does not match the domain/chart it is used with."""


class DegenerateMetric(GraphCurvError):
    """A metric (ambient or induced) failed to be positive definite."""


class NonAdmissible(GraphCurvError):
    """A graph function is not admissible (M = Hess f + Psi not positive definite)."""


class NonAdmissibleInit(NonAdmissible):
    """Newton was started from a non-admissible initial iterate."""


class SingularShapeOperator(GraphCurvError):
    """Base hypersurface has a (numerically) singular shape operator."""


class SingularLinearSystem(GraphCurvError):
    """Sparse direct factorization failed or produced non-finite values."""


class NoConvergence(GraphCurvError):
    """Newton failed to reach tolerance within the iteration budget."""

    def __init__(self, message="", steps=0, residual=None):
        super().__init__(message)
        self.steps = steps
        self.residual = residual


class StepsizeUnderflow(GraphCurvError):
    """Continuation step size fell below its floor without progress."""


class OutOfRange(GraphCurvError):
    """A requested value is outside the representable/supported range."""


class TransversalityFailure(GraphCurvError):
    """Graph normal nearly orthogonal to the chosen direction field."""


class ConfigError(GraphCurvError):
    """Run configuration is malformed (unknown key, bad type, missing field)."""
