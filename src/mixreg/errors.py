"""Exception and warning types shared across the package."""


class MixregError(Exception):
    """Base class for all mixreg errors."""


class DataValidationError(MixregError):
    """Raised when input data violates a structural invariant (bad CSV row,
    non-finite value, zero measurement vector, inconsistent labels)."""


class DegenerateModelError(MixregError):
    """Raised when a mixture model cannot support the requested computation,
    e.g. duplicate component vectors or direction queries with k = 1."""


class CertificateUndefinedError(MixregError):
    """Raised when the closed-form certificate does not exist for an instance.

    Carries the index of the first offending measurement in ``row_index``.
    """

    def __init__(self, message: str, row_index: int | None = None):
        super().__init__(message)
        self.row_index = row_index


class NumericalError(MixregError):
    """Raised when a linear-algebra subroutine fails or is too ill-conditioned
    to trust (condition estimate above 1e14)."""


class NonUniqueSolutionWarning(UserWarning):
    """The weighted least-squares subproblem has multiple minimizers; the
    minimum-norm one was returned."""


class UnderdeterminedFitWarning(UserWarning):
    """A per-class regression had fewer independent rows than unknowns; the
    minimum-norm coefficients were returned."""
