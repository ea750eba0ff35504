"""Exception hierarchy shared by all sockpath modules.

Errors are split into three families so callers (and the CLI exit-code
mapping) can tell them apart:

* malformed input: structurally broken values that never denote a model
  object (empty tuples, zero or negative entries, duplicate socks),
* validity errors: well-formed values that violate a domain invariant
  (a tuple no Dyck path realizes, a height sequence that is not a Dyck
  path),
* resource limits: requests above a configured enumeration cap.
"""

from __future__ import annotations

__all__ = [
    "SockPathError",
    "MalformedInputError",
    "ValidityError",
    "TupleValidityError",
    "PathValidityError",
    "ResourceLimitError",
]


class SockPathError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(SockPathError, ValueError):
    """Input is structurally broken and denotes no model object at all."""


class ValidityError(SockPathError, ValueError):
    """Well-formed input that violates a domain invariant.

    ``index`` is the 1-based position of the first offending entry, when
    one can be named.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class TupleValidityError(ValidityError):
    """A completion-height tuple no Dyck path realizes."""


class PathValidityError(ValidityError):
    """A height sequence that is not a Dyck path."""


class ResourceLimitError(SockPathError):
    """A request exceeded a configured enumeration or simulation cap."""

    def __init__(self, message: str, n: int, cap: int):
        super().__init__(message)
        self.n = n
        self.cap = cap
