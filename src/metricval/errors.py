"""Exception hierarchy shared across the package.

Everything raised deliberately by this package derives from StudyError, so
callers can catch one type at the top level.  The three branches mirror the
three failure domains: bad configuration, bad or missing data, and statistics
that cannot be computed on the data given.
"""


class StudyError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(StudyError):
    """A configuration value is invalid or inconsistent."""


class DataError(StudyError):
    """Input data is malformed, missing, or fails validation."""


class AlignmentError(DataError):
    """Two data structures that must cover the same items do not."""


class NonFiniteError(DataError):
    """A score is NaN or infinite, so no statistic over it is defined."""


class StatsError(StudyError):
    """A statistical computation cannot proceed."""


class InsufficientDataError(StatsError):
    """Fewer observations than the computation requires."""


class UndefinedCorrelationError(StatsError):
    """A correlation is undefined because one variable is constant.

    Attributes:
        variable: which side was constant ("x" or "y").
    """

    def __init__(self, message: str, variable: str):
        super().__init__(message)
        self.variable = variable


class DegeneracyError(StatsError):
    """A significance test's inputs are degenerate (e.g. correlations at +/-1)."""
