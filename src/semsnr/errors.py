"""Exception types shared across the package.

Estimator failures (degenerate peaks, nonpositive correlation, ...) carry a
short machine-readable ``status`` string so batch runners can record the
failure mode per method without aborting a whole run.
"""


class SemSnrError(Exception):
    """Base class for all package errors."""


class DomainError(SemSnrError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigError(SemSnrError):
    """Invalid benchmark configuration file or key."""


class DataError(SemSnrError):
    """Corpus/manifest data missing or inconsistent on disk."""


class PgmParseError(DataError):
    """Malformed PGM header; the message names the offending token."""


class PgmSizeError(DataError):
    """PGM payload shorter or longer than the header promises."""


class EstimatorError(SemSnrError):
    """Base class for typed estimator failure modes."""

    status = "error"


class SingularFitError(EstimatorError):
    """A least-squares fit has a singular normal matrix."""


class DegenerateError(EstimatorError):
    """Predicted noise-free peak at or above the noisy peak (no noise)."""

    status = "degenerate"


class NonpositiveSignalError(EstimatorError):
    """Predicted noise-free peak does not exceed the squared mean."""

    status = "nonpositive_signal"


class NonpositiveCorrelationError(EstimatorError):
    """Correlation between the two inputs is zero or negative."""

    status = "nonpositive_correlation"


class NoPeakError(EstimatorError):
    """Cross-correlation surface has no peak above background."""

    status = "no_peak"


class LogDomainError(EstimatorError):
    """A log-domain fit received a nonpositive value."""

    status = "log_domain"


class NonStationaryError(EstimatorError):
    """A reflection coefficient left the unit circle during recursion."""

    status = "non_stationary"
