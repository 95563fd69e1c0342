"""Nullspace analysis of linear network layers.

Lower convolutional and fully-connected layers to an equivalent matrix,
compute the harmless-perturbation subspace (the matrix nullspace),
decompose arbitrary perturbations into invisible and effective parts,
verify the resulting invariance laws on small deterministic networks,
and scramble images inside the subspace so their network output stays
bit-for-bit meaningful while the pixels stop being.
"""

from .layers import (
    AvgPool,
    ConvLayerSpec,
    FcLayerSpec,
    Flatten,
    Relu,
    build_conv_equivalent,
    build_equivalent,
    build_fc_equivalent,
    conv_forward,
    fc_forward,
    load_layer_json,
    predict_nullspace_dim,
    save_layer_json,
    verify_equivalence,
)
from .linalg import (
    FactorizationError,
    RankDecision,
    decide_rank,
    numerical_rank,
    orthonormal_nullspace,
    smallest_eigenpair_gram,
    svd,
)
from .network import (
    NetworkSpec,
    forward,
    forward_from_layer,
    init_network,
    load_network_spec,
    rmse_report,
    save_network_spec,
)
from .imaging import read_ppm, ssim, synthetic_image, write_ppm
from .privacy import (
    DivergenceError,
    PrivacyConfig,
    PrivacyResult,
    maximize_dissimilarity,
    sample_reconstructions,
)
from .seeding import make_rng, subseed
from .subspace import (
    Decomposition,
    EmptySubspaceError,
    LeastHarmful,
    PairVerdict,
    classify_pair,
    harmless_basis,
    least_harmful,
    load_basis,
    orthogonal_decompose,
    sample_harmless,
    save_basis,
)
from .verification import (
    CheckResult,
    VerificationReport,
    default_network_spec,
    full_battery,
    privacy_battery,
)

__version__ = "0.1.0"
