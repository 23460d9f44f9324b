"""shevar: power variations and volatility inference for the stochastic heat
equation driven by Riesz-kernel noise.

Subpackages by task:

* :mod:`shevar.kernels`          constants, autocovariances, quadrature identities
* :mod:`shevar.gaussian_limits`  LLN / CLT limit covariance structures
* :mod:`shevar.simulate`         exact increment sampling and the spectral SPDE scheme
* :mod:`shevar.variations`       increment panels and variation functionals
* :mod:`shevar.inference`        volatility and noise-exponent estimators
* :mod:`shevar.harness`          reproducible Monte Carlo experiments (also via the
  ``shevar`` command line)
"""

__version__ = "0.1.0"

from .kernels import (
    NoiseParams,
    QuadratureError,
    WhiteNoiseCase,
    abs_moment,
    clt_constant,
    gamma_partial_sum_identity,
    gamma_r,
    pi_mass,
    riesz_constant,
    sum_gamma_sq,
    tau_n,
)
from .gaussian_limits import (
    AbsMultipower,
    AbsPower,
    Custom,
    EvaluationFunction,
    InvalidShift,
    LimitLaw,
    MonteCarlo,
    SignedMonomial,
    build_joint_cov,
    build_within_cov,
    limit_covariance,
    limit_lln,
    mu_f,
    rho,
)
from .simulate import (
    EmbeddingFailure,
    ModelSpec,
    NumericalBlowup,
    PathPanel,
    RngStream,
    SigmaAffinePlus,
    SigmaConstant,
    SigmaLinear,
    U0Constant,
    U0SmoothPeriodic,
    moment_scaling_check,
    sample_noise_increments,
    scheme_increment_variance,
    simulate_spde,
    simulate_spde_batch,
    simulate_stationary_increments,
    spatial_scaling_check,
)
from .variations import (
    IncrementPanel,
    SamplingDesign,
    clt_statistic,
    extract_increments,
    power_variation,
    variation_functional,
)
from .inference import (
    DegeneratePath,
    EstimateReport,
    InconsistentScaling,
    confidence_interval,
    estimate_alpha,
    estimate_sigma0,
    integrated_variance_interval,
    spot_variance,
)
from .harness import (
    Config,
    ConfigError,
    ExperimentReport,
    default_config,
    ks_statistic,
    load_config,
    parse_config,
    run_experiment,
    verify_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
