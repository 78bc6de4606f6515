"""Exception types shared across the package."""

from __future__ import annotations


class DomatchError(Exception):
    """Base class for every error this package raises on purpose."""


class EdgeListFormatError(DomatchError, ValueError):
    """Malformed edge-list or matching-list text."""


class DomainError(DomatchError, ValueError):
    """The input violates an operation's precondition."""


class ResourceLimitError(DomatchError, RuntimeError):
    """A configured size or search budget was exceeded."""
