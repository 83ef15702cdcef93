"""Shared caps, tolerances, and RNG plumbing.

All randomness in the package flows through numpy's PCG64, seeded through
``rng_from_seed``, so every report is reproducible from its seed alone.
"""

from __future__ import annotations

import numbers
import os

import numpy as np

from .errors import CapExceededError, InputError

# Tolerance used for state norms and dense-matrix equality checks.
STATE_TOL = 1e-9
# Tolerance for 2x2 gate unitarity at construction time.
GATE_TOL = 1e-12
# Default seed for CLI commands when none is given (documented constant).
DEFAULT_SEED = 1729

# Environment variable that overrides the dense materialization cap.
DENSE_CAP_ENV = "GQT_DENSE_CAP"

# Largest wire count n per cost class: 2^n x 2^n dense matrices (memory and
# time), statevector-only operations, the exhaustive unitarity criterion,
# whose signed enumeration costs O(3^n * n), and shift recovery, which samples
# wire by wire with no 2^n array.  The shift cap is an exactness limit, not a
# cost: the outcome law evaluates y.phi in float64 over n cells below N = 2^n,
# so its sums stay exact integers while n * 2^n < 2^53.  That holds for
# n = 47 (47 * 2^47 < 6.7e15 < 2^53 ~ 9.0e15) and fails for n = 48
# (48 * 2^48 > 1.3e16); the float phi entries reported, each below 2^n, are
# exact as well.
_CAPS = {"dense": 12, "state": 20, "criterion": 20, "shift": 47}


def cap(kind: str) -> int:
    """The largest n allowed for ``kind``; GQT_DENSE_CAP overrides the dense cap."""
    raw = os.environ.get(DENSE_CAP_ENV) if kind == "dense" else None
    if raw is None:
        return _CAPS[kind]
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{DENSE_CAP_ENV} must be an integer, got {raw!r}") from None


def spec_int(value, field: str) -> int:
    """An integer spec field: a bool, a string or a fraction is refused, not rounded."""
    if type(value) is int:  # the common case, ahead of the ABC check
        return value
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral or isinstance(value, float) and value.is_integer()):
        raise InputError(f"spec field {field!r} must be an integer, got {value!r}")
    return int(value)


def spec_real(value, field: str) -> float:
    """A real spec field: a bool, a string, a non-real value or an integer past
    the float range is refused, not read as a number."""
    if type(value) is float:  # the common case, ahead of the ABC check
        return value
    if type(value) is int or isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InputError(f"spec field {field!r} must be a real number, got {value!r}")


def check_wires(n: int) -> None:
    """Raise InputError unless the wire count n is at least 1."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")


def check_cap(kind: str, n: int) -> None:
    """Raise CapExceededError when n exceeds the ``kind`` cap."""
    limit = cap(kind)
    if n > limit:
        raise CapExceededError(f"n={n} exceeds {kind} cap {limit}")


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide named generator: PCG64 seeded via SeedSequence."""
    if seed < 0:
        raise InputError(f"need seed >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
