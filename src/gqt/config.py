"""Shared caps, tolerances, and RNG plumbing.

All randomness in the package flows through numpy's PCG64, seeded through
``rng_from_seed``, so every report is reproducible from its seed alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapExceededError

# Tolerance used for state norms and dense-matrix equality checks.
STATE_TOL = 1e-9
# Tolerance for 2x2 gate unitarity at construction time.
GATE_TOL = 1e-12
# Default seed for CLI commands when none is given (documented constant).
DEFAULT_SEED = 1729

# Environment variable that overrides the dense materialization cap.
DENSE_CAP_ENV = "GQT_DENSE_CAP"


@dataclass(frozen=True)
class Limits:
    """Size caps guarding exponential-cost operations.

    dense_cap:     max qubit count for 2^n x 2^n dense matrices (memory/time).
    state_cap:     max qubit count for statevector-only operations.
    criterion_cap: max qubit count for the exhaustive unitarity criterion,
                   whose signed enumeration costs O(3^n * n).
    row_fn_support: cap on per-row phase-table support; None means "n".
    """

    dense_cap: int = 12
    state_cap: int = 20
    criterion_cap: int = 20
    row_fn_support: int | None = None

    def check(self, cap: str, n: int) -> None:
        """Raise CapExceededError when n exceeds the ``{cap}_cap`` field."""
        limit = getattr(self, f"{cap}_cap")
        if n > limit:
            raise CapExceededError(f"n={n} exceeds {cap} cap {limit}")


DEFAULT_LIMITS = Limits()


def limits_from_env(base: Limits = DEFAULT_LIMITS) -> Limits:
    """Return ``base`` with the dense cap overridden by GQT_DENSE_CAP if set."""
    raw = os.environ.get(DENSE_CAP_ENV)
    if raw is None:
        return base
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{DENSE_CAP_ENV} must be an integer, got {raw!r}") from exc
    return replace(base, dense_cap=cap)


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide named generator: PCG64 seeded via SeedSequence."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

