"""Generalized quantum transforms: phase-matrix Fourier variants, rotation
cascades, an averaging (Haar-style) transform, and shift recovery from
phase-coded coset states, with an exact statevector simulator underneath.

Basis convention everywhere (except the averaging transform's slot ordering,
documented in :mod:`gqt.haar`): qubit i carries weight 2^i, so the basis ket
index is little-endian in the qubit bits.
"""

from .config import DEFAULT_SEED, GATE_TOL, STATE_TOL, rng_from_seed
from .dhsp import (
    DhspAnalysis,
    DhspInstance,
    RecoveryResult,
    analyze,
    coset_state,
    lambda_vector,
    phi0_matrix,
    phi_from_samples,
    recover_d,
    run_procedure,
    sample_outcomes,
    samples_mixed,
    samples_perfect_random,
    samples_random,
    search_perfect_samples,
    success_probability,
)
from .errors import (
    CapExceededError,
    GqtError,
    InputError,
    NotUnitaryError,
    UnsupportedRegimeError,
    ValidityError,
)
from .gqft import (
    GENERAL,
    TRIANGULAR,
    GqftSpec,
    dft_circuit,
    dft_dense,
    gqft_circuit,
    gqft_dense,
    toeplitz_phi,
)
from .haar import (
    HaarMatrix,
    haar_apply_basis,
    haar_inverse_apply,
    haar_inverse_circuit,
    haar_inverse_swap_count,
    haar_matrix,
    haar_matrix_identity_check,
    slot_index,
)
from .phasemat import (
    PhaseMatrix,
    ValidityReport,
    a_of_z,
    check_general,
    check_triangular,
    normalized_upper,
    numeric_unitarity_defect,
    phase_dense_raw,
    transpose_row_into_column,
    wraparound_distance,
)
from .qstate import (
    HADAMARD,
    Circuit,
    Controlled,
    DenseUnitary,
    QState,
    Swap,
    apply_circuit,
    apply_dense,
    apply_gate,
    bit_reverse,
    bit_table,
    circuit_to_dense,
    measure_all,
    unit_roots,
)
from .rotft import (
    HADAMARD_FIRST,
    ROTATION_FIRST,
    RotSpec,
    rot1_circuit,
    rot1_dense,
    rot2_circuit,
    rot2_dense,
    rotation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # config
    "DEFAULT_SEED",
    "GATE_TOL",
    "STATE_TOL",
    "rng_from_seed",
    # errors
    "CapExceededError",
    "GqtError",
    "InputError",
    "NotUnitaryError",
    "UnsupportedRegimeError",
    "ValidityError",
    # qstate
    "HADAMARD",
    "Circuit",
    "Controlled",
    "DenseUnitary",
    "QState",
    "Swap",
    "apply_circuit",
    "apply_dense",
    "apply_gate",
    "bit_reverse",
    "bit_table",
    "circuit_to_dense",
    "measure_all",
    "unit_roots",
    # phasemat
    "PhaseMatrix",
    "ValidityReport",
    "a_of_z",
    "check_general",
    "check_triangular",
    "normalized_upper",
    "numeric_unitarity_defect",
    "phase_dense_raw",
    "transpose_row_into_column",
    "wraparound_distance",
    # gqft
    "GENERAL",
    "TRIANGULAR",
    "GqftSpec",
    "dft_circuit",
    "dft_dense",
    "gqft_circuit",
    "gqft_dense",
    "toeplitz_phi",
    # rotft
    "HADAMARD_FIRST",
    "ROTATION_FIRST",
    "RotSpec",
    "rot1_circuit",
    "rot1_dense",
    "rot2_circuit",
    "rot2_dense",
    "rotation",
    # haar
    "HaarMatrix",
    "haar_apply_basis",
    "haar_inverse_apply",
    "haar_inverse_circuit",
    "haar_inverse_swap_count",
    "haar_matrix",
    "haar_matrix_identity_check",
    "slot_index",
    # dhsp
    "DhspAnalysis",
    "DhspInstance",
    "RecoveryResult",
    "analyze",
    "coset_state",
    "lambda_vector",
    "phi0_matrix",
    "phi_from_samples",
    "recover_d",
    "run_procedure",
    "sample_outcomes",
    "samples_mixed",
    "samples_perfect_random",
    "samples_random",
    "search_perfect_samples",
    "success_probability",
]
