"""Shared caps, tolerances, and RNG plumbing.

All randomness in the package flows through numpy's PCG64, seeded through
``rng_from_seed``, so every report is reproducible from its seed alone.
"""

from __future__ import annotations

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
# time), statevector-only operations, and the exhaustive unitarity criterion,
# whose signed enumeration costs O(3^n * n).
_CAPS = {"dense": 12, "state": 20, "criterion": 20}


def cap(kind: str) -> int:
    """The largest n allowed for ``kind``; GQT_DENSE_CAP overrides the dense cap."""
    raw = os.environ.get(DENSE_CAP_ENV) if kind == "dense" else None
    if raw is None:
        return _CAPS[kind]
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{DENSE_CAP_ENV} must be an integer, got {raw!r}") from None


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
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
