"""Exception types shared across the package.

Library-level contract violations (bad shapes, invalid parameters) raise
plain ``ValueError``.  The classes below mark conditions the command line
distinguishes by exit code: configuration problems exit with 2, data
problems with 3.  ``reported_as`` re-raises a library ``ValueError`` as
one of them.
"""

import contextlib


class KerntestError(Exception):
    """Base class for package-specific errors."""


class ConfigError(KerntestError):
    """Incoherent flags or an invalid experiment configuration."""


class DataError(KerntestError):
    """Rejected input data: missing files, non-numeric cells, NaN/Inf, ragged rows."""


@contextlib.contextmanager
def reported_as(error_type: type[KerntestError]):
    """Re-raise a ValueError from the block as ``error_type``, message unchanged."""
    try:
        yield
    except ValueError as exc:
        raise error_type(str(exc)) from None
