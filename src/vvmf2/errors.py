"""Exception types shared across the package.

The CLI maps these onto its documented exit codes, so keep the taxonomy
small: bad input data is a ``ConfigError``, mathematically inconsistent
instance data is a ``ConsistencyError``, and a disagreement between two
supposedly equivalent computations, or a broken internal invariant, is a
``PipelineMismatch`` (always a bug, never a data problem).
"""


class VVMF2Error(Exception):
    """Base class for package errors."""


class ConfigError(VVMF2Error):
    """Malformed configuration input (bad JSON, unknown keys, ...)."""


class ConsistencyError(VVMF2Error):
    """Instance data violates a required exact relation.

    The message names the violated relation.
    """


class TruncationError(VVMF2Error):
    """A coefficient beyond the known truncation order was requested."""


class NotAFormError(VVMF2Error):
    """A q-series is not in the span of the monomial basis it was tested against."""


class PipelineMismatch(VVMF2Error):
    """Two computations of one object disagree, or an internal invariant broke."""
