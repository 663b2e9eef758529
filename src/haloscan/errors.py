"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 2,
numerical failures exit 3, and I/O or data-format problems exit 4.
"""


class HaloscanError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HaloscanError):
    """Invalid, missing, or out-of-range configuration input."""


class NumericError(HaloscanError):
    """A numerical routine failed to converge or hit a degenerate regime.

    The message carries the offending values rather than a bare failure
    flag.
    """


class CouplingAtBoundary(NumericError):
    """Coupling optimization ended pinned at a search-interval boundary."""


class DataError(HaloscanError):
    """Malformed or inconsistent on-disk artifact."""
