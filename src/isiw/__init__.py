"""Inverse sampling intensity weighting (ISIW) for geostatistics under
preferential sampling: Matérn field simulation, preferential point-pattern
samplers, kernel intensity estimation with winsorized inverse-intensity
weights, exact / pairwise-marginal / Vecchia likelihoods, quasi-Newton
fitting, and plug-in kriging."""

from .experiment import (
    ExperimentConfig,
    MetricsRow,
    Scenario,
    load_config,
    param_metrics,
    parse_config,
    rmspe,
    run_experiment,
    run_replicate,
)
from .fields import FieldRealization, GridSpec, SeedStream, observe, simulate_field
from .inference import FitConfig, FitResult, default_init, fd_gradient, fit
from .intensity import (
    BandwidthSpec,
    estimate_intensity,
    select_bandwidth,
    weights_from_intensity,
)
from .kriging import KrigingOutput, krige
from .likelihood import (
    NllValue,
    Objective,
    VecchiaPlan,
    exact_nll,
    gaussian_kl,
    maxmin_order,
    nn_conditioning_sets,
    pairwise_marginal_nll,
    vecchia_implied_cov,
    vecchia_nll,
)
from .model import (
    CovParams,
    Dataset,
    Domain,
    ModelParams,
    build_cov_matrix,
    matern_cov,
    matern_cov_dlogphi,
    microergodic,
)
from .pointprocess import SamplerSpec, compute_intensity, sample_conditioned, sample_thomas

__version__ = "0.1.0"

__all__ = [
    "BandwidthSpec", "CovParams", "Dataset", "Domain", "ExperimentConfig",
    "FieldRealization", "FitConfig", "FitResult", "GridSpec",
    "KrigingOutput", "MetricsRow", "ModelParams",
    "NllValue", "Objective", "SamplerSpec", "Scenario", "SeedStream", "VecchiaPlan",
    "build_cov_matrix", "compute_intensity", "default_init",
    "estimate_intensity", "exact_nll", "fd_gradient", "fit", "gaussian_kl",
    "krige", "load_config", "matern_cov", "matern_cov_dlogphi",
    "maxmin_order", "microergodic",
    "nn_conditioning_sets", "observe", "pairwise_marginal_nll",
    "param_metrics", "parse_config", "rmspe", "run_experiment",
    "run_replicate", "sample_conditioned", "sample_thomas",
    "select_bandwidth", "simulate_field", "vecchia_implied_cov",
    "vecchia_nll", "weights_from_intensity",
]
