"""Exception types shared across permacheck modules.

Exit-code mapping (see cli): usage/validation errors -> 2, numeric
failures (singularity, nonconvergence, spectral radius) -> 3.
"""


class PermacheckError(Exception):
    """Base class for all library errors."""


class InputFormatError(PermacheckError):
    """Malformed matrix/chain input: ragged rows, non-finite values, bad JSON."""


class DimensionCapError(PermacheckError):
    """Matrix dimension exceeds a configured cap (permanent cap, desk-scale cap)."""


class SingularMatrixError(PermacheckError):
    """Singular or ill-conditioned matrix. Carries the condition estimate."""

    def __init__(self, message, cond_estimate=None):
        super().__init__(message)
        self.cond_estimate = cond_estimate


class NotPositiveDefiniteError(PermacheckError):
    """Symmetric input failed the positive-definiteness eigen screen."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NotPSDError(NotPositiveDefiniteError):
    """Input failed a positive-semidefiniteness screen."""


class SpectralRadiusError(PermacheckError):
    """Sub-Markov kernel is not transient: spectral radius >= 1 - tolerance."""

    def __init__(self, message, spectral_radius=None):
        super().__init__(message)
        self.spectral_radius = spectral_radius


class InvalidIndexError(PermacheckError):
    """Permanental index beta is not 2/k for an integer k >= 1."""


class SchemaMismatchError(PermacheckError):
    """Report JSON schema version is not supported."""
