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
from .inference import FitConfig, FitResult, default_init, fit
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
    Profile,
    VecchiaPlan,
    exact_nll,
    maxmin_order,
    nn_conditioning_sets,
    pairwise_marginal_nll,
    vecchia_nll,
)
from .model import (
    CovParams,
    Dataset,
    Domain,
    ModelParams,
    matern_cov,
    matern_cov_and_dlogphi,
    microergodic,
)
from .pointprocess import (
    BroodSizeError,
    IntensityOverflowError,
    SampleSizeError,
    SamplerSpec,
    SamplingError,
    compute_intensity,
    sample_conditioned,
    sample_thomas,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthSpec", "BroodSizeError", "CovParams", "Dataset", "Domain", "ExperimentConfig",
    "FieldRealization", "FitConfig", "FitResult", "GridSpec", "IntensityOverflowError",
    "KrigingOutput", "MetricsRow", "ModelParams",
    "NllValue", "Objective", "Profile", "SampleSizeError", "SamplerSpec", "SamplingError", "Scenario",
    "SeedStream", "VecchiaPlan",
    "compute_intensity", "default_init",
    "estimate_intensity", "exact_nll", "fit", "krige", "load_config", "matern_cov", "matern_cov_and_dlogphi",
    "maxmin_order", "microergodic",
    "nn_conditioning_sets", "observe", "pairwise_marginal_nll",
    "param_metrics", "parse_config", "rmspe", "run_experiment",
    "run_replicate", "sample_conditioned", "sample_thomas",
    "select_bandwidth", "simulate_field", "vecchia_nll", "weights_from_intensity",
]
