"""Tubal-rank tensor algebra and factorization-based completion solvers."""

from .core import (
    MultiRank,
    ObservationMask,
    SpectralSymmetryError,
    SpectralTensor,
    bcirc,
    dft_mode3,
    fold3_from_reshaped,
    fro_norm,
    half_count,
    idft_mode3,
    mode_unfold,
    multi_rank,
    pair_weights,
    project,
    reshape_matrix_to_tensor,
    reshape_mode3,
    tensor_to_matrix,
    tprod,
    tprod_reference,
)
from .factors import (
    BlockFactors,
    RankDecreaseConfig,
    as_multirank,
    compose,
    compose_spectral,
    init_factors,
    pinv,
    rank_decrease,
    slice_solves,
    update_left,
    update_right,
)
from .harness import generate_mask, run, synth_low_tubal
from .io import load_image, load_mask, load_tensor, save_image, save_mask, save_tensor
from .matrix_completion import CompletionProblem, SolverConfig, SolverTrace
from .matrix_completion import kkt_residuals as matrix_kkt_residuals
from .matrix_completion import objective as matrix_objective
from .matrix_completion import solve as complete_matrix
from .metrics import psnr, rel_error, ssim
from .tensor_completion import (
    DoubleFactors,
    DoubleTubalConfig,
    KKTResiduals,
    double_tubal_rank,
)
from .tensor_completion import kkt_residuals as tensor_kkt_residuals
from .tensor_completion import objective as tensor_objective
from .tensor_completion import solve as complete_tensor

__version__ = "0.1.0"
