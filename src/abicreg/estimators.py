"""Point estimators for the linear model and the Gaussian log-densities.

Three estimators of beta are provided: plain weighted least squares,
the regularized (ridge) solution, and the Bayes/stochastic-inference
posterior mean with a general prior mean. All three apply the Tikhonov
filter s / (s^2 + kappa) to the SVD that MarginalWorkspace takes of the
whitened design, so no normal equations are formed. Densities are
exposed in log space only; the Gaussian normalizing constants underflow
for n beyond a few hundred otherwise.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FactorizationError, check_positive_finite
from .marginal import LOG_2PI, MarginalWorkspace

__all__ = [
    "EstimatorMethod",
    "Estimate",
    "ls_estimate",
    "regularized_estimate",
    "bayes_estimate",
    "log_joint_density",
]


class EstimatorMethod(enum.Enum):
    LS = "ls"
    REGULARIZED = "regularized"
    BAYES = "bayes"


@dataclass(frozen=True)
class Estimate:
    """A point estimate of beta together with the hyperparameters used.

    ``sigma2`` and ``kappa`` are None when the producing estimator does
    not use them (LS uses neither, the regularized path only kappa).
    """

    beta_hat: np.ndarray
    method: EstimatorMethod
    sigma2: float = None
    kappa: float = None

    def __post_init__(self):
        beta = np.asarray(self.beta_hat, dtype=float)
        if not np.all(np.isfinite(beta)):
            raise FactorizationError(f"{self.method.value} estimate has non-finite entries")
        beta.setflags(write=False)
        object.__setattr__(self, "beta_hat", beta)

    def to_json(self):
        return {
            "method": self.method.value,
            "beta_hat": self.beta_hat,
            "sigma2": self.sigma2,
            "kappa": self.kappa,
        }


def ls_estimate(problem):
    """Weighted least squares: the minimizer of (y - A beta)^T W (y - A beta).

    Computed from the SVD of the whitened design, never from the normal
    matrix A^T W A. Raises SingularMatrixError, carrying the condition
    number of the normal matrix, when the smallest whitened singular
    value is at most RANK_TOL_FACTOR * eps times the largest, the rank
    rule of validate_problem.
    """
    beta = MarginalWorkspace(problem).penalized_solution(problem.y, 0.0)
    return Estimate(beta, EstimatorMethod.LS)


def regularized_estimate(problem, w_beta=None, kappa=0.0):
    """Regularized solution, the minimizer of
    (y - A beta)^T W (y - A beta) + kappa beta^T W_beta beta."""
    if not kappa >= 0:
        raise DomainError(f"kappa must be nonnegative, got {kappa}")
    beta = MarginalWorkspace(problem, w_beta).penalized_solution(problem.y, kappa)
    return Estimate(beta, EstimatorMethod.REGULARIZED, kappa=float(kappa))


def _check_variances(sigma2, sigma_beta2):
    check_positive_finite(sigma2, "sigma2")
    check_positive_finite(sigma_beta2, "sigma_beta2")


def bayes_estimate(problem, prior, sigma2, sigma_beta2):
    """Posterior mean under the Gaussian prior (mu, W_beta^-1 sigma_beta2).

    This is mu plus the regularized solution for the residual y - A mu
    at kappa = sigma2 / sigma_beta2: simultaneously the
    stochastic-inference estimator and the posterior mode. With mu = 0
    it collapses to regularized_estimate at that kappa.
    """
    _check_variances(sigma2, sigma_beta2)
    kappa = sigma2 / sigma_beta2
    workspace = MarginalWorkspace(problem, prior.w_beta)
    beta = prior.mu + workspace.penalized_solution(workspace.residual(prior), kappa)
    return Estimate(beta, EstimatorMethod.BAYES, sigma2=float(sigma2), kappa=float(kappa))


def _gaussian_logpdf(residual, weight, variance):
    """log N(residual; 0, weight^-1 variance) including all constants."""
    k = residual.shape[0]
    # r^T W r = |L^T r|^2 for weight W = L L^T, with no solve
    half = weight.mul_lower_t(residual)
    quad = float(half @ half)
    return -0.5 * k * LOG_2PI - 0.5 * k * math.log(variance) + 0.5 * weight.logdet - 0.5 * quad / variance


def log_joint_density(problem, prior, beta, sigma2, sigma_beta2):
    """log of f(y | beta, sigma2) * pi(beta | sigma_beta2).

    Both factors are Gaussian with all normalizing constants included:
    the data term N(y; A beta, W^-1 sigma2) and the prior term
    N(beta; mu, W_beta^-1 sigma_beta2).
    """
    _check_variances(sigma2, sigma_beta2)
    beta = np.asarray(beta, dtype=float)
    data_term = _gaussian_logpdf(problem.y - problem.a_matrix @ beta, problem.w, sigma2)
    prior_term = _gaussian_logpdf(beta - prior.mu, prior.w_beta, sigma_beta2)
    return data_term + prior_term

