"""Point estimators for the linear model and the Gaussian log-densities.

Four estimators of beta are provided: plain weighted least squares,
the regularized (ridge) solution, the Bayes/stochastic-inference
posterior mean with a general prior mean, and its zero-mean special
case. Densities are exposed in log space only; the Gaussian normalizing
constants underflow for n beyond a few hundred otherwise.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import spd_factor, spd_solve, symmetrize
from .errors import DomainError, FactorizationError, SingularMatrixError
from .model import as_weight

__all__ = [
    "EstimatorMethod",
    "Estimate",
    "ls_estimate",
    "regularized_estimate",
    "bayes_estimate",
    "bayes_zero_mean_estimate",
    "log_joint_density",
    "log_posterior_density",
]

LOG_2PI = math.log(2.0 * math.pi)


class EstimatorMethod(enum.Enum):
    LS = "ls"
    REGULARIZED = "regularized"
    BAYES = "bayes"
    BAYES_ZERO_MEAN = "bayes-zero-mean"


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


def _normal_pieces(problem):
    wa = problem.w.apply(problem.a_matrix)
    normal = symmetrize(problem.a_matrix.T @ wa)
    rhs = wa.T @ problem.y
    return normal, rhs


def ls_estimate(problem):
    """Weighted least squares: solve (A^T W A) beta = A^T W y.

    Raises SingularMatrixError (carrying the condition estimate of the
    normal matrix) when the factorization fails. Near-singular normal
    matrices that still factor numerically are solved as-is; instability
    is the caller's lookout, regularization exists for exactly that.
    """
    normal, rhs = _normal_pieces(problem)
    try:
        factor = spd_factor(normal, "normal matrix")
    except FactorizationError as exc:
        condition = float(np.linalg.cond(normal))
        raise SingularMatrixError(
            f"normal matrix is numerically singular (condition ~ {condition:.3e})",
            condition=condition,
        ) from exc
    return Estimate(spd_solve(factor, rhs), EstimatorMethod.LS)


def regularized_estimate(problem, w_beta=None, kappa=0.0):
    """Regularized solution: solve (A^T W A + kappa W_beta) beta = A^T W y."""
    if not kappa >= 0:
        raise DomainError(f"kappa must be nonnegative, got {kappa}")
    w_beta = as_weight(w_beta, "w_beta", problem.t)
    normal, rhs = _normal_pieces(problem)
    factor = spd_factor(normal + kappa * w_beta.to_array(), "regularized normal matrix")
    return Estimate(spd_solve(factor, rhs), EstimatorMethod.REGULARIZED, kappa=float(kappa))


def _check_variances(sigma2, sigma_beta2):
    if not sigma2 > 0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    if not sigma_beta2 > 0:
        raise DomainError(f"sigma_beta2 must be positive, got {sigma_beta2}")


def bayes_estimate(problem, prior, sigma2, sigma_beta2):
    """Posterior mean under the Gaussian prior (mu, W_beta^-1 sigma_beta2).

    Solves (A^T W A / sigma2 + W_beta / sigma_beta2) beta =
    A^T W y / sigma2 + W_beta mu / sigma_beta2. This is simultaneously
    the stochastic-inference estimator and the posterior mode; with
    mu = 0 it collapses to the regularized solution at
    kappa = sigma2 / sigma_beta2.
    """
    _check_variances(sigma2, sigma_beta2)
    normal, rhs = _normal_pieces(problem)
    lhs = normal / sigma2 + prior.w_beta.to_array() / sigma_beta2
    full_rhs = rhs / sigma2 + prior.w_beta.apply(prior.mu) / sigma_beta2
    factor = spd_factor(lhs, "posterior precision matrix")
    return Estimate(
        spd_solve(factor, full_rhs),
        EstimatorMethod.BAYES,
        sigma2=float(sigma2),
        kappa=float(sigma2 / sigma_beta2),
    )


def bayes_zero_mean_estimate(problem, w_beta, sigma2, sigma_beta2):
    """Posterior mean with the prior mean forced to zero.

    Algebraically identical to regularized_estimate at
    kappa = sigma2/sigma_beta2, but computed through the variance-scaled
    normal equations so the collapse stays an independently testable
    identity.
    """
    _check_variances(sigma2, sigma_beta2)
    w_beta = as_weight(w_beta, "w_beta", problem.t)
    normal, rhs = _normal_pieces(problem)
    lhs = normal / sigma2 + w_beta.to_array() / sigma_beta2
    factor = spd_factor(lhs, "posterior precision matrix")
    return Estimate(
        spd_solve(factor, rhs / sigma2),
        EstimatorMethod.BAYES_ZERO_MEAN,
        sigma2=float(sigma2),
        kappa=float(sigma2 / sigma_beta2),
    )


def _gaussian_logpdf(residual, weight, variance):
    """log N(residual; 0, weight^-1 variance) including all constants."""
    k = residual.shape[0]
    # weight is the inverse covariance factor, so the quadratic form needs no solve
    quad = float(residual @ weight.apply(residual))
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


def log_posterior_density(problem, prior, beta, sigma2, sigma_beta2):
    """log posterior of beta: joint minus marginal, maximized at the Bayes estimate."""
    from .marginal import log_marginal_density

    return log_joint_density(problem, prior, beta, sigma2, sigma_beta2) - log_marginal_density(
        problem, prior, sigma2, sigma_beta2
    )
