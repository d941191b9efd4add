"""Exception hierarchy shared by all dil modules."""

from __future__ import annotations


class DilError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(DilError):
    """Dimension mismatch between operators, matrices, or fields."""


class ModelError(DilError):
    """Model parameters violate a structural constraint."""


class ZeroFieldError(DilError):
    """An operation required a field with nonzero norm."""


class ParityError(DilError):
    """A graded operation was attempted with an unusable or violated parity."""


class ContourError(DilError):
    """The winding contour passes through a zero of the sampled entry, or so
    near one that the sample cap cannot follow its phase."""


class FitWindowError(DilError):
    """Too few usable nodes inside the requested fit window."""


class ConfigError(DilError):
    """Experiment configuration failed to parse or validate."""


class SolverError(DilError):
    """Eigensolver failed: no convergence, or a refused factorization.

    Carries diagnostics so callers can report what was asked of the solver
    and how far it got.
    """

    def __init__(self, message: str, *, matrix_id: str = "", requested: int = 0,
                 converged: int = 0):
        super().__init__(message)
        self.matrix_id = matrix_id
        self.requested = requested
        self.converged = converged
