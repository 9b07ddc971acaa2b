"""Exception types raised by the package.

Everything derives from SigClustError so callers can catch a single base
class. Each type's ``exit_code`` class attribute, inherited by its
subclasses, is the command-line exit status of its failures.
"""


class SigClustError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 7


class InvalidDataError(SigClustError):
    """A matrix or vector violates a basic contract: non-finite entries,
    wrong shape, or too few observations."""

    exit_code = 3


class ParseError(SigClustError):
    """A text input could not be parsed.

    Carries 1-based ``line`` and ``column`` coordinates when they are known.
    """

    exit_code = 2

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class InvalidConfigError(SigClustError):
    """A configuration value is out of range or inconsistent."""

    exit_code = 6


class InvalidLabelsError(InvalidDataError):
    """A cluster-label vector is malformed or leaves a cluster empty."""


class DegenerateDataError(SigClustError):
    """The total sum of squares is zero; all observations are identical."""

    exit_code = 4


class DegenerateNoiseError(SigClustError):
    """The MAD of the data is zero; the background noise level is undefined
    and the test has no meaningful null."""

    exit_code = 4


class NoTraceSolutionError(SigClustError):
    """No nonnegative soft-thresholding offset can match the sample trace
    (the noise floor alone already exceeds it)."""


class InvalidSpectraError(InvalidDataError):
    """Two eigenvalue spectra that must agree in dimension do not."""
