"""Small-deviation laboratory for Gaussian processes on [0, 1].

Simulates a family of Gaussian (and one symmetric-stable) processes,
estimates small-ball probabilities under several norms, fits rate laws,
and cross-checks the transfer arithmetic that links a process to its
fractional integrals: eigenvalue decay, Laplace-transform growth,
comparison inequalities, and quantization rates.
"""
import logging

from .errors import (
    EmptyCurveError,
    FitDegenerateError,
    NumericsError,
    SmallballError,
    SpecError,
    VerificationError,
)
from .norms import Holder, L2Squared, Lp, batch_norms, beta_p
from .processes import (
    BrownianMotion,
    FbmRlDifference,
    FracIntegrated,
    FractionalBm,
    GaussianConvolution,
    Grid,
    Integrated,
    RiemannLiouville,
    StableScaledFbm,
    build_cov,
    covariance,
    effective_hurst,
    fbm_volterra_variance,
    sample_paths,
    sample_positive_stable,
)
from .fraccalc import frac_derivative, frac_integral, operator_matrix, semigroup_check
from .spectral import (
    EigenSpectrum,
    SpectralTail,
    brownian_spectrum,
    derivative_kernel,
    eigen_rate_fit,
    integrated_brownian_spectrum,
    l2_smallball,
    laplace_transform_l2,
    neg_log_laplace,
    nystrom_eigen,
)
from .estimation import (
    ConverseLaw,
    CurveEntry,
    RateLaw,
    SmallBallCurve,
    brownian_sup_prob,
    converse_transfer,
    debruijn_check,
    debruijn_constant,
    mc_smallball,
    rate_fit,
    regularity_bound_check,
    spectral_smallball_curve,
    transfer_bound,
)
from .chenli import (
    ChenLiQuery,
    chenli_bound,
    derivative_spectrum,
    optimize_lambda,
    remainder_term_check,
)
from .quantize import (
    QuantCurve,
    gauss_scalar_codebook,
    product_quantizer,
    quant_curve,
    quant_error,
)

__version__ = "0.1.0"

# library warnings (covariance jitter) go nowhere unless the caller configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "BrownianMotion",
    "ChenLiQuery",
    "ConverseLaw",
    "CurveEntry",
    "EigenSpectrum",
    "EmptyCurveError",
    "FbmRlDifference",
    "FitDegenerateError",
    "FracIntegrated",
    "FractionalBm",
    "GaussianConvolution",
    "Grid",
    "Holder",
    "Integrated",
    "L2Squared",
    "Lp",
    "NumericsError",
    "QuantCurve",
    "RateLaw",
    "RiemannLiouville",
    "SmallballError",
    "SmallBallCurve",
    "SpecError",
    "SpectralTail",
    "StableScaledFbm",
    "VerificationError",
    "batch_norms",
    "beta_p",
    "brownian_spectrum",
    "brownian_sup_prob",
    "build_cov",
    "chenli_bound",
    "converse_transfer",
    "covariance",
    "debruijn_check",
    "debruijn_constant",
    "derivative_kernel",
    "derivative_spectrum",
    "effective_hurst",
    "eigen_rate_fit",
    "fbm_volterra_variance",
    "frac_derivative",
    "frac_integral",
    "gauss_scalar_codebook",
    "integrated_brownian_spectrum",
    "l2_smallball",
    "laplace_transform_l2",
    "mc_smallball",
    "neg_log_laplace",
    "nystrom_eigen",
    "operator_matrix",
    "optimize_lambda",
    "product_quantizer",
    "quant_curve",
    "quant_error",
    "rate_fit",
    "regularity_bound_check",
    "remainder_term_check",
    "sample_paths",
    "sample_positive_stable",
    "semigroup_check",
    "spectral_smallball_curve",
    "transfer_bound",
]
