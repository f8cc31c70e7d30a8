"""Numerical maximization of the likelihood objectives.

Positivity of (sigma2, phi, tau2) is handled by optimizing over
(mu, log sigma2, log phi, log tau2) with scipy's L-BFGS-B. An objective's
``nll(psi, data)`` returns its value together with its closed-form gradient
over those coordinates, as an :class:`~isiw.likelihood.NllValue` (any float
with a ``grad`` array will do); ``fit`` raises ``TypeError`` for a value
without one. The range parameter is bounded above at 10x the domain
diameter by a box bound on log phi, so the objective itself is never
altered: weighted objectives are prone to letting the range run away.
Each L-BFGS-B attempt runs at most ``MAX_ITER`` iterations and converges
when one iteration reduces the objective by at most ``FTOL`` relative to
max(|f|, 1), or when every component of the projected gradient is at most
``GTOL`` in absolute value; an attempt that met a non-finite objective
value converges only by the gradient test. Up to ``RESTARTS`` more attempts
follow an unconverged one. ``fit`` runs on one OpenBLAS thread
(``_linalg.one_blas_thread``; a no-op on a BLAS without a known thread
setter): its factorizations are of blocks and matrices of at most about a
thousand rows, and processes, not BLAS threads, are the unit of
parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._linalg import one_blas_thread
from .model import Dataset, Domain, ModelParams

PARAM_NAMES = ("mu", "sigma2", "phi", "tau2")
PHI_CAP_FACTOR = 10.0
LOG_PHI = PARAM_NAMES.index("phi")
MAX_ITER = 200
# at 1e-8 the relative-reduction test stopped fits on the flat
# range/variance ridge up to 2e-7 * |f| above the optimum
FTOL = 1e-10
GTOL = 1e-4
RESTARTS = 3


@dataclass(frozen=True)
class FitConfig:
    """Per-fit settings: phi is bounded above by ``PHI_CAP_FACTOR`` times
    the diameter of ``domain``, and ``restart_seed`` seeds the restart
    inits."""

    domain: Domain
    restart_seed: int = 0


@dataclass
class FitResult:
    """Best point over all attempts. ``iterations`` and ``gradient_norm``
    (2-norm of the projected gradient) belong to the attempt that found
    it; ``evaluations`` counts objective calls over all attempts;
    ``phi_capped`` says phi sits on its bound."""

    psi_hat: ModelParams
    nll: float
    iterations: int
    converged: bool
    gradient_norm: float
    restarts_used: int
    phi_capped: bool
    evaluations: int


def default_init(data: Dataset, domain: Domain, nu: float = 1.0) -> ModelParams:
    """Rule-of-thumb starting point: sample moments split 90/10 between
    process variance and nugget, range at a tenth of the domain diameter.
    ``nu`` is the smoothness, which ``fit`` keeps fixed at its start value."""
    if data.n < 2:
        raise ValueError("initialization needs at least two observations")
    mu0 = float(np.mean(data.values))
    var = float(np.var(data.values, ddof=1))
    sigma2_0 = max(0.9 * var, 1e-6)
    tau2_0 = max(0.1 * var, 1e-7)
    return ModelParams.from_values(mu0, sigma2_0, domain.diameter / 10.0, tau2_0, nu=nu)


def _pack(psi: ModelParams) -> np.ndarray:
    return np.array(
        [
            psi.mu,
            math.log(psi.theta.sigma2),
            math.log(psi.theta.phi),
            math.log(max(psi.tau2, 1e-12)),
        ]
    )


def _unpack(x: np.ndarray, nu: float) -> ModelParams:
    # clamp so wild line-search trial points cannot underflow a positive
    # parameter to exactly zero (or overflow exp); the resulting extreme
    # but valid parameters evaluate to inf/nan and the search backtracks
    logs = np.clip(x[1:], -700.0, 700.0)
    return ModelParams.from_values(
        x[0], math.exp(logs[0]), math.exp(logs[1]), math.exp(logs[2]), nu=nu
    )


@dataclass
class _Run:
    x: np.ndarray
    nll: float
    iterations: int
    converged: bool
    gradient_norm: float
    evaluations: int


def _lbfgsb(objective, data: Dataset, nu: float, x0, log_phi_cap) -> _Run:
    """One L-BFGS-B attempt from x0."""
    evaluations = 0
    met_nonfinite = False

    def value_and_grad(x):
        nonlocal evaluations, met_nonfinite
        evaluations += 1
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                value = objective.nll(_unpack(x, nu), data)
        except (np.linalg.LinAlgError, FloatingPointError, OverflowError):
            value, grad = math.inf, None
        else:
            grad = getattr(value, "grad", None)
            if grad is None:
                raise TypeError(
                    f"{type(objective).__name__}.nll returned {type(value).__name__} with no "
                    "gradient; fit needs a value carrying .grad, such as an NllValue"
                )
            grad = np.asarray(grad, dtype=float)
        if math.isfinite(value) and np.all(np.isfinite(grad)):
            return float(value), grad
        if evaluations == 1:  # L-BFGS-B evaluates x0 first
            raise ValueError("objective is not finite at the initial point")
        met_nonfinite = True
        return math.inf, np.zeros(len(PARAM_NAMES))

    bounds = [(None, log_phi_cap if j == LOG_PHI else None) for j in range(len(PARAM_NAMES))]
    res = minimize(
        value_and_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": MAX_ITER, "ftol": FTOL, "gtol": GTOL},
    )
    projected = np.array(res.jac, dtype=float)
    if res.x[LOG_PHI] >= log_phi_cap and projected[LOG_PHI] < 0:
        projected[LOG_PHI] = 0.0
    # L-BFGS-B can report success at a point it reached by backing off a
    # non-finite value; trust only the gradient test after one.
    converged = bool(res.success) and math.isfinite(res.fun)
    if met_nonfinite:
        converged = converged and float(np.max(np.abs(projected))) <= GTOL
    return _Run(
        res.x, float(res.fun), int(res.nit), converged, float(np.linalg.norm(projected)), evaluations
    )


@one_blas_thread()
def fit(objective, data: Dataset, init: ModelParams, config: FitConfig) -> FitResult:
    """Minimize ``objective.nll`` over psi from ``init``.

    ``objective`` needs only ``nll(psi, data)``, returning the value with
    its gradient attached (see the module docstring). Runs up to
    ``RESTARTS`` additional attempts from inits with +/-50% multiplicative
    noise on the positive parameters when an attempt ends unconverged;
    reports the best point found either way. Deterministic given (data,
    init, config).
    """
    nu = init.theta.nu
    log_phi_cap = math.log(PHI_CAP_FACTOR * config.domain.diameter)

    x_init = _pack(init)
    x_init[LOG_PHI] = min(x_init[LOG_PHI], log_phi_cap)
    rng = np.random.default_rng(config.restart_seed)

    best: _Run | None = None
    restarts_used = evaluations = 0
    for attempt in range(RESTARTS + 1):
        if attempt == 0:
            x0 = x_init
        else:
            restarts_used = attempt
            x0 = x_init.copy()
            x0[1:] += np.log(rng.uniform(0.5, 1.5, size=3))
            x0[LOG_PHI] = min(x0[LOG_PHI], log_phi_cap)
        run = _lbfgsb(objective, data, nu, x0, log_phi_cap)
        evaluations += run.evaluations
        if best is None or run.nll < best.nll:
            best = run
        if run.converged:
            break

    return FitResult(
        psi_hat=_unpack(best.x, nu),
        nll=best.nll,
        iterations=best.iterations,
        converged=best.converged,
        gradient_norm=best.gradient_norm,
        restarts_used=restarts_used,
        phi_capped=bool(best.x[LOG_PHI] >= log_phi_cap - 1e-12),
        evaluations=evaluations,
    )
