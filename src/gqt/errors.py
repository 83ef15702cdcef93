"""Typed errors.  Each class carries the exit code and stderr label with which
the CLI and the experiment scripts report it."""

from __future__ import annotations


class GqtError(Exception):
    """Base class for all package errors; by itself an internal error (exit 1)."""

    exit_code = 1
    label = "internal error"


class InputError(GqtError):
    """Malformed input: bad flags, files, descriptors, or dimensions (exit 1)."""

    label = "error"


class UnsupportedRegimeError(InputError):
    """Operation requested for a spec regime that has no such construction."""


class ValidityError(GqtError):
    """A validity check failed (exit 2).  Carries the offending report."""

    exit_code = 2
    label = "validity failure"

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotUnitaryError(GqtError):
    """A dense matrix failed its unitarity invariant (exit 2)."""

    exit_code = 2
    label = "validity failure"


class CapExceededError(GqtError):
    """A configured size cap would be exceeded (exit 3)."""

    exit_code = 3
    label = "cap exceeded"
