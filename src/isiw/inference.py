"""Numerical maximization of the likelihood objectives.

An objective's ``nll(psi, data)`` returns its value with a
:class:`~isiw.likelihood.Profile`: the objective minimised in closed form
over mu and sigma2 at psi's phi and eta = tau2 / sigma2, with the
minimisers and the gradient over (log phi, eta) (any float with a
``profile`` will do; see :mod:`isiw.likelihood`). ``fit`` raises
``TypeError`` for a value without one. So ``fit`` searches two
coordinates, (log phi, eta), with scipy's L-BFGS-B, and reads mu and
sigma2 off the profile at the point it ends on.

The range parameter is bounded above at 10x the domain diameter by a box
bound on log phi, so the objective itself is never altered: weighted
objectives are prone to letting the range run away. The nugget ratio eta
is bounded below by 0, which L-BFGS-B's projected steps reach exactly, so
a fit whose optimum has no nugget ends on eta = 0 with tau2 = 0. Each
L-BFGS-B search also stays within a box around its start: ``BOX`` either
side in log phi, and from 0 up to e^``BOX`` times the start in eta, since
a line search can otherwise leap from a sound range onto the flat
pure-nugget plateau at phi -> 0, whose gradient is exactly zero. A search
that stops on a face of that box with its gradient pointing out continues
from there in a new box; eta's lower face is its true bound, so only its
upper face continues. A search from eta = 0 has no upper face in eta, as
a box scaled from 0 would pin it there. An attempt runs at most
``MAX_ITER`` iterations over its searches and converges when an iteration
reduces the objective by at most ``FTOL`` relative to max(|f|, 1), or
when every component of the projected gradient is at most ``GTOL`` in
absolute value; an attempt that met a non-finite objective value
converges only by the gradient test. Up to ``RESTARTS`` more attempts
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
from .likelihood import Profile
from .model import Dataset, Domain, ModelParams, require_at_least

PHI_CAP_FACTOR = 10.0
LOG_PHI, ETA = 0, 1  # the search coordinates are (log phi, eta)
MAX_ITER = 200
# at 1e-8 the relative-reduction test stopped fits on the flat
# range/variance ridge up to 2e-7 * |f| above the optimum
FTOL = 1e-10
GTOL = 1e-4
# half-width of each search's box in log phi, and in log eta above its
# start (eta's box is [0, e^BOX eta]). Unboxed, 157 of the 200 phi=0.02
# acceptance fits leapt to the pure-nugget plateau and ended up to 18%
# above the 4-D fit's NLL; at 1, the n=100 fits took more evaluations than
# the 4-D fit did
BOX = 2.0
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
    """Best point over all attempts. ``psi_hat.tau2`` is exactly 0.0 where
    the fit ends on eta's bound. ``iterations`` and ``gradient_norm``
    (2-norm of the projected profile gradient over (log phi, eta)) belong
    to the attempt that found it; ``evaluations`` counts objective calls
    over all attempts; ``phi_capped`` says phi sits on its bound."""

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
    require_at_least("observation count of the initialization", data.n, 2)
    mu0 = float(np.mean(data.values))
    var = float(np.var(data.values, ddof=1))
    sigma2_0 = max(0.9 * var, 1e-6)
    tau2_0 = max(0.1 * var, 1e-7)
    return ModelParams.from_values(mu0, sigma2_0, domain.diameter / 10.0, tau2_0, nu=nu)


def _search_point(init: ModelParams, x: np.ndarray) -> ModelParams:
    """psi at the search coordinates x = (log phi, eta): ``init``'s mu,
    sigma2 and nu, with phi and tau2 = eta sigma2 from x."""
    # clamp so wild line-search trial points cannot underflow phi to exactly
    # zero (or overflow exp); the resulting extreme but valid parameters
    # evaluate to inf/nan and the search backtracks
    log_phi = min(max(x[LOG_PHI], -700.0), 700.0)
    return ModelParams.from_values(
        init.mu, init.theta.sigma2, math.exp(log_phi), x[ETA] * init.theta.sigma2, nu=init.theta.nu
    )


def _profile(objective, data: Dataset, psi: ModelParams, first: bool) -> Profile | None:
    """The objective's profile at psi's phi and eta, or None where the
    objective or the profile is not finite there; ``first`` requires both
    to be finite."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value = objective.nll(psi, data)
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError):
        value, profile = math.inf, None
    else:
        profile = getattr(value, "profile", None)
        if profile is None:
            raise TypeError(
                f"{type(objective).__name__}.nll returned {type(value).__name__} with no profile; "
                "fit needs a value carrying .profile, the minimum over mu and sigma2 with its "
                "gradient, such as an NllValue"
            )
    finite = (
        profile is not None
        and math.isfinite(profile.nll)
        and profile.sigma2 > 0
        and bool(np.all(np.isfinite(profile.grad)))
    )
    if first and not (finite and math.isfinite(value)):
        raise ValueError("objective is not finite at the initial point")
    return profile if finite else None


@dataclass
class _Run:
    x: np.ndarray
    profile: Profile | None
    iterations: int
    converged: bool
    gradient_norm: float
    evaluations: int

    @property
    def nll(self) -> float:
        return math.inf if self.profile is None else self.profile.nll


def _attempt(objective, data: Dataset, init: ModelParams, x0, log_phi_cap) -> _Run:
    """One attempt from x0: L-BFGS-B searches, each in a box around its
    start (see the module docstring), the next starting where the last
    stopped on a face of its box with the gradient pointing out."""
    # x.tobytes() -> Profile | None: a search's start is not re-evaluated,
    # and the point L-BFGS-B ends on, which it has evaluated, is looked up
    profiles: dict = {}
    met_nonfinite = False

    def profile_at(x):
        nonlocal met_nonfinite
        key = x.tobytes()
        if key not in profiles:
            profiles[key] = _profile(objective, data, _search_point(init, x), first=not profiles)
        profile = profiles[key]
        if profile is None:
            met_nonfinite = True
            return math.inf, np.zeros(2)
        return float(profile.nll), np.asarray(profile.grad, dtype=float)

    floor, cap = np.array([-math.inf, 0.0]), np.array([log_phi_cap, math.inf])
    x, iterations = np.asarray(x0, dtype=float), 0
    while True:
        lower = np.array([x[LOG_PHI] - BOX, 0.0])
        upper = np.minimum([x[LOG_PHI] + BOX, math.exp(BOX) * x[ETA] if x[ETA] > 0 else math.inf], cap)
        res = minimize(
            profile_at,
            x,
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(lower, upper)),
            options={"maxiter": MAX_ITER - iterations, "ftol": FTOL, "gtol": GTOL},
        )
        iterations += int(res.nit)
        x, grad = res.x, np.array(res.jac, dtype=float)
        outward = ((x <= lower) & (lower > floor) & (grad > GTOL)) | (
            (x >= upper) & (upper < cap) & (grad < -GTOL)
        )
        if not outward.any() or iterations >= MAX_ITER or not math.isfinite(res.fun):
            break

    projected = np.where(((x <= floor) & (grad > 0)) | ((x >= cap) & (grad < 0)), 0.0, grad)
    # L-BFGS-B can report success at a point it reached by backing off a
    # non-finite value; trust only the gradient test after one.
    converged = bool(res.success) and math.isfinite(res.fun) and not outward.any()
    if met_nonfinite:
        converged = converged and float(np.max(np.abs(projected))) <= GTOL
    return _Run(
        x, profiles[x.tobytes()], iterations, converged, float(np.linalg.norm(projected)), len(profiles)
    )


@one_blas_thread()
def fit(objective, data: Dataset, init: ModelParams, config: FitConfig) -> FitResult:
    """Minimize ``objective.nll`` over psi from ``init``.

    ``objective`` needs only ``nll(psi, data)``, returning the value with
    its profile attached (see the module docstring). The search starts at
    ``init``'s phi and eta = tau2 / sigma2, and every objective call gets
    ``init``'s mu and sigma2. Runs up to ``RESTARTS`` additional attempts
    from starts with +/-50% multiplicative noise on phi and eta when an
    attempt ends unconverged; reports the best point found either way.
    Deterministic given (data, init, config).
    """
    log_phi_cap = math.log(PHI_CAP_FACTOR * config.domain.diameter)
    x_init = np.array([min(math.log(init.theta.phi), log_phi_cap), init.tau2 / init.theta.sigma2])
    rng = np.random.default_rng(config.restart_seed)

    best: _Run | None = None
    restarts_used = evaluations = 0
    for attempt in range(RESTARTS + 1):
        if attempt == 0:
            x0 = x_init
        else:
            restarts_used = attempt
            noise = rng.uniform(0.5, 1.5, size=2)
            x0 = np.array([min(x_init[LOG_PHI] + math.log(noise[0]), log_phi_cap), x_init[ETA] * noise[1]])
        run = _attempt(objective, data, init, x0, log_phi_cap)
        evaluations += run.evaluations
        if best is None or run.nll < best.nll:
            best = run
        if run.converged:
            break

    if best.profile is None:
        raise FloatingPointError("every attempt ended on a non-finite objective value")
    profile = best.profile
    return FitResult(
        psi_hat=ModelParams.from_values(
            profile.mu,
            profile.sigma2,
            math.exp(best.x[LOG_PHI]),
            best.x[ETA] * profile.sigma2,
            nu=init.theta.nu,
        ),
        nll=float(profile.nll),
        iterations=best.iterations,
        converged=best.converged,
        gradient_norm=best.gradient_norm,
        restarts_used=restarts_used,
        phi_capped=bool(best.x[LOG_PHI] >= log_phi_cap - 1e-12),
        evaluations=evaluations,
    )
