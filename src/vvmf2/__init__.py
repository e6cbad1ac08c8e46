"""Exact vector-valued modular forms of minimal weight on Gamma0(2).

The package computes the normalized minimal-weight vector two
independent ways (hypergeometric closed forms and a Frobenius series
recursion), builds weight bases from it, and verifies prime-by-prime
which denominators must appear in the Fourier coefficients.

The top level holds only the error classes, so ``import vvmf2`` loads no
other module; import the one you need (``vvmf2.minform``, ``vvmf2.denoms``, ...).
"""

from .errors import (
    ConfigError,
    ConsistencyError,
    NotAFormError,
    PipelineMismatch,
    TruncationError,
    VVMF2Error,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConsistencyError",
    "NotAFormError",
    "PipelineMismatch",
    "TruncationError",
    "VVMF2Error",
]
