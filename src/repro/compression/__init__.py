"""Compressed sensing for ECG transmission (paper §III-A, Fig. 5/6)."""

from .encoder import (
    CsEncoder,
    EncodedWindow,
    MultiLeadCsEncoder,
    raw_payload_bits,
)
from .analog import (
    A2IConfig,
    AnalogCsFrontEnd,
    a2i_energy,
    nyquist_adc_energy,
)
from .matrices import (
    PackedTernary,
    SensingMatrix,
    dense_sign_matrix,
    gaussian_matrix,
    pack_ternary,
    sparse_binary_matrix,
    ternary_matrix,
    unpack_ternary,
)
from .metrics import (
    GOOD_QUALITY_SNR_DB,
    compression_ratio,
    measurements_for_cr,
    prd_percent,
    reconstruction_snr_db,
    snr_crossing_cr,
)
from .multilead import (
    JointCsDecoder,
    MultiLeadRecovery,
    group_fista,
    group_fista_batch,
    group_soft_threshold,
    row_stable_matmul,
)
from .structured import (
    TreeCsDecoder,
    TreeRecoveryResult,
    tree_parents,
    tree_project,
    tree_support,
)
from .recovery import (
    CsDecoder,
    RecoveryResult,
    debias,
    fista,
    lipschitz_constant,
    omp,
    soft_threshold,
)

__all__ = [
    "A2IConfig",
    "AnalogCsFrontEnd",
    "CsDecoder",
    "CsEncoder",
    "EncodedWindow",
    "GOOD_QUALITY_SNR_DB",
    "JointCsDecoder",
    "MultiLeadCsEncoder",
    "MultiLeadRecovery",
    "PackedTernary",
    "RecoveryResult",
    "SensingMatrix",
    "TreeCsDecoder",
    "TreeRecoveryResult",
    "compression_ratio",
    "debias",
    "dense_sign_matrix",
    "fista",
    "gaussian_matrix",
    "group_fista",
    "group_fista_batch",
    "group_soft_threshold",
    "lipschitz_constant",
    "measurements_for_cr",
    "omp",
    "pack_ternary",
    "prd_percent",
    "raw_payload_bits",
    "reconstruction_snr_db",
    "row_stable_matmul",
    "snr_crossing_cr",
    "soft_threshold",
    "sparse_binary_matrix",
    "ternary_matrix",
    "tree_parents",
    "tree_project",
    "tree_support",
    "unpack_ternary",
    "a2i_energy",
    "nyquist_adc_energy",
]
