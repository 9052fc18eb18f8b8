"""Marginal distribution of the measurements and the ABIC objectives.

Integrating beta out of the Gaussian model against its prior leaves the
measurements Gaussian with mean A mu and covariance

    Sigma = W^-1 sigma2 + A W_beta^-1 A^T sigma_beta2.

With the relative weight kappa = sigma2/sigma_beta2 this factors as
Sigma = sigma2 * E, where

    E = W^-1 + A W_beta^-1 A^T / kappa

is the cofactor matrix of the predicted residuals r = y - A mu. Every
selection objective is assembled from the quadratic form r^T E^-1 r and
ln det E.

Both come from one decomposition per workspace, the SVD filter-factor
form of Hansen's Regularization Tools. Factor W = L_W L_W^T and
W_beta = L_b L_b^T and take the thin SVD of the whitened design

    L_W^T A L_b^-T = U diag(s) V^T,

so that E = L_W^-T (I + U diag(s^2 / kappa) U^T) L_W^-1. With
z = L_W^T r and c = U^T z:

    r^T E^-1 r    = |z - U c|^2 + sum d_i c_i^2
    ln det E      = sum log1p(s_i^2 / kappa) - ln det W
    tr(E^-1 W^-1) = (n - t) + sum d_i

with the damping d = kappa / (s^2 + kappa). MarginalWorkspace._filter
computes d, its complement e = s^2 / (s^2 + kappa) and ln det E, for every
kappa a bracket admits; it is the one place either is written. Where
s^2 + kappa passes the float range, which covers every s whose s^2 does,
d = 1 / (1 + s (s / kappa)) and e = 1 / (1 + (kappa / s) / s) there, and
where s^2 / kappa does, ln det E takes s (s / kappa) in its place. Since
d' = d e in ln kappa, the slope and the curvature of either objective in
ln kappa follow from the same filter in O(t) (_reduce_slopes):

    q'  = sum d e c^2,           (ln det E)'  = -sum e,
    q'' = sum d e (e - d) c^2,   (ln det E)'' =  sum d e.

U itself is never formed. The workspace takes a Householder QR of the
whitened design, L_W^T A L_b^-T = Q [R; 0], keeps Q as its t reflectors
(none when n = t), and takes the SVD R = U_R diag(s) V^T of the t x t
triangle, so that U = Q[:, :t] U_R (Chan's R-SVD, which LAPACK's gesdd
also runs for a tall matrix before it forms U). Then c = U_R^T (Q^T z)[:t]
and |z - U c|^2 = |(Q^T z)[t:]|^2, the least-squares residual of the QR,
which never cancels: not |z|^2 - |c|^2, which loses every digit when r
lies almost in the range of A.

A square whitened design that equals its transpose bit for bit, as a
Fredholm kernel discretized on one shared grid does with identity
weights, is eigendecomposed instead: with L_W^T A L_b^-T = Q_e diag(lam)
Q_e^T, the SVD is s = |lam|, V = Q_e and U_R = Q_e sign(lam) (sign(0) is
+1), ordered by |lam| descending. LAPACK's symmetric solver takes about
half the time of the general SVD; every other design keeps the SVD.

The same decomposition gives the point estimates. The minimizer of
(r - A x)^T W (r - A x) + kappa x^T W_beta x is

    x = L_b^-T V diag(s / (s^2 + kappa)) c,

never formed through the normal equations A^T W A + kappa W_beta,
whose condition number is the square of the whitened design's.

No kappa needs a factorization, and once a residual is projected each
kappa costs O(t).

One workspace serves every residual of a design, and is built from the
design alone. Every residual, of an objective or an estimate, enters the
spectral frame through MarginalWorkspace.project_rows, the one map from
rows to (|z - U c|^2, c), each step an einsum along contiguous rows;
r^T E^-1 r is reduced from that pair by _reduce_quad, or by the grid's
K x R product. So a residual rounds alike at any kappa and in any block:
a Monte Carlo replicate's objective is its single selection's bit for bit,
and so is sigma2_hat at kappa_hat wherever c^2 is finite (it squares c
unscaled, where Case 1 first divides r by a power of two).

MarginalWorkspace.operators(kappa) is the one view of E at a fixed kappa:
MarginalOperators holds _filter's row at that kappa and reduces one
residual with _reduce_quad. sigma2_hat and the bias module's expectations
read it, and so does the benchmark in perfbench/, which times and traces
operators, quad_form and logdet by name.

All objectives drop the constant -(n/2) ln(2 pi) normalization term; the
full log density is available from log_marginal_density.
"""

import enum
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import serialize
from ._linalg import symmetrize
from .errors import (
    DegenerateProblemError,
    DomainError,
    FactorizationError,
    SingularMatrixError,
    check_positive_finite,
)
from .model import RANK_TOL_FACTOR, as_weight

__all__ = [
    "ObjectiveCase",
    "ObjectiveValue",
    "MarginalOperators",
    "MarginalWorkspace",
    "MarginalObjective",
    "SweepRow",
    "kappa_grid",
    "log10_to_kappa",
    "marginal_covariance",
    "log_marginal_density",
    "neg_log_lik_variances",
    "neg_log_lik_kappa",
    "sigma2_hat",
    "abic_case1",
    "abic_case2",
    "sweep_objective",
    "write_sweep_csv",
    "SWEEP_HEADER",
]

LOG_2PI = math.log(2.0 * math.pi)


class ObjectiveCase(enum.Enum):
    CASE1 = "case1"
    CASE1_ZERO_MEAN = "case1-zero-mean"
    CASE2 = "case2"
    CASE2_ZERO_MEAN = "case2-zero-mean"


@dataclass(frozen=True)
class ObjectiveValue:
    """Objective evaluations, split into their two competing terms.

    ``quad_term`` is always the raw quadratic form r^T E^-1 r; the case
    formula decides how it enters ``total`` (through n ln(quad) for
    Case 1, through quad/sigma2 for Case 2 where sigma2 is known).
    MarginalObjective returns arrays that broadcast to the shape of
    ``total``; abic_case1 and abic_case2 return floats.
    """

    total: float
    quad_term: float
    logdet_term: float
    kappa: float
    case_tag: ObjectiveCase
    sigma2: float = None


class MarginalOperators:
    """E at a fixed kappa: the workspace's _filter row there and r^T E^-1 r.

    ``damping`` d = kappa / (s^2 + kappa) is the share of each singular
    direction E^-1 keeps, ``complement`` e = s^2 / (s^2 + kappa) the rest,
    and ``logdet`` is ln det E. The benchmark in perfbench/ calls
    MarginalWorkspace.operators, quad_form and logdet by these names.
    """

    def __init__(self, workspace, kappa):
        self.workspace = workspace
        self.kappa = float(kappa)
        damping, complement, logdet = workspace._filter(np.array([self.kappa]))
        self.damping, self.complement = damping[0], complement[0]
        self.logdet = float(logdet[0])

    def quad_form(self, residual):
        """r^T E^-1 r for one residual vector r."""
        rows = np.asarray(residual, dtype=float)[None, :]
        return self.projected_quad(*self.workspace.project_rows(rows))

    def projected_quad(self, perp, coef):
        """r^T E^-1 r of one residual from its projection (perp, c), shapes (1,) and (1, t)."""
        # an overflow gives inf, which the callers' finiteness checks reject
        with np.errstate(over="ignore"):
            coef2 = coef * coef
        return float(_reduce_quad(perp, self.damping[None, :], coef2)[0])

    def expected_noise_quad(self):
        """tr(E^-1 W^-1): E[r^T E^-1 r]/sigma2 under r ~ N(0, W^-1 sigma2)."""
        return (self.workspace.n - self.workspace.t) + float(np.sum(self.damping))


class MarginalWorkspace:
    """Kappa-independent decomposition shared across objective evaluations.

    ``problem`` may be a ProblemDesign, since only A, W, n and t are read;
    ``residual`` and a MarginalObjective without observations read y.

    Holds the weights W and W_beta (whose Weights cache L_W, L_b and
    ln det W), and the factors of the whitened design

        L_W^T A L_b^-T = Q [U_R diag(s) V^T; 0]:

    Q as its Householder reflectors, one per row of ``_reflectors``
    with its scale in ``_tau`` (none when n = t, where Q = I), and the
    SVD ``u_r``, ``s``, ``vt`` of the t x t triangle, with s^2 beside
    it (inf where s is above about 1.34e154; _filter reads s there).
    U = Q[:, :t] U_R is never formed. Nothing that depends on kappa is
    cached here.

    When n = t and the whitened design equals its transpose exactly
    (``np.array_equal``, O(t^2)), the SVD comes from ``np.linalg.eigh``
    (module docstring); the fields keep their meaning. A LinAlgError of
    either decomposition raises FactorizationError.
    """

    def __init__(self, problem, w_beta=None):
        self.problem = problem
        self.n = problem.n
        self.t = problem.t
        self.w = problem.w
        self.w_beta = as_weight(w_beta, "w_beta", self.t)
        # Fortran order, so that the QR's reflectors come back as C-ordered rows
        # (ascontiguousarray below then copies nothing)
        whitened = np.asfortranarray(self.w_beta.solve_lower(self.w.mul_lower_t(problem.a_matrix).T).T)
        try:
            if self.n > self.t:
                # row j holds column j of R up to the diagonal, reflector j below it
                reflectors, self._tau = np.linalg.qr(whitened, mode="raw")
                self._reflectors = np.ascontiguousarray(reflectors)
                triangle = np.triu(self._reflectors[:, : self.t].T)
                np.fill_diagonal(self._reflectors, 1.0)  # each reflector's implicit leading 1
            else:
                self._reflectors, self._tau, triangle = np.empty((0, self.n)), np.empty(0), whitened
            if self.n == self.t and np.array_equal(whitened, whitened.T):
                u_r, self.s, self.vt = _symmetric_svd(whitened)
            else:
                u_r, self.s, self.vt = np.linalg.svd(triangle)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"SVD of the whitened design failed: {exc}") from exc
        # Fortran order makes U_R^T the C-ordered view that project_rows reduces along
        self.u_r = np.asfortranarray(u_r)
        with np.errstate(over="ignore"):
            self.s2 = self.s * self.s

    def operators(self, kappa):
        check_positive_finite(kappa, "kappa")
        return MarginalOperators(self, kappa)

    def _filter(self, kappa):
        """(d, e, ln det E) at a 1-D array of K kappas, (K, t), (K, t) and (K,):
        the damping d = kappa / (s^2 + kappa) and its complement
        e = s^2 / (s^2 + kappa), never formed as 1 - d, whose relative error is
        about eps / e. Where s^2 + kappa overflows (so also where s^2 does) they
        are 1 / (1 + s (s / kappa)) and 1 / (1 + (kappa / s) / s). Where s^2 / kappa
        overflows, log1p(s^2 / kappa) is log1p(s (s / kappa)), or 2 ln s - ln kappa
        where that product overflows too; 1 is then below half an ulp of it."""
        kappa = kappa[:, None]
        # e is inf / inf = nan where s^2 overflows until the second mask mends it
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = self.s2 / kappa
            total = self.s2 + kappa
            terms = np.log1p(ratio)
            rows, cols = np.nonzero(np.isinf(ratio))
            s, k = self.s[cols], kappa[rows, 0]
            product = s * (s / k)
            terms[rows, cols] = np.where(np.isinf(product), 2.0 * np.log(s) - np.log(k), np.log1p(product))
            damping, complement = kappa / total, self.s2 / total
            rows, cols = np.nonzero(np.isinf(total))
            s, k = self.s[cols], kappa[rows, 0]
            damping[rows, cols] = 1.0 / (1.0 + s * (s / k))
            complement[rows, cols] = 1.0 / (1.0 + k / s / s)
        return damping, complement, terms.sum(axis=1) - self.w.logdet

    def penalized_solution(self, residual, kappa):
        """L_b^-T V diag(s / (s^2 + kappa)) U^T L_W^T r, the minimizer of
        (r - A x)^T W (r - A x) + kappa x^T W_beta x.

        kappa = 0 is weighted least squares, which needs full rank: the
        rule of validate_problem, applied to the whitened singular values,
        raises SingularMatrixError when s_min <= RANK_TOL_FACTOR eps s_max,
        with condition (s_max / s_min)^2, the normal matrix's.
        """
        s_max, s_min = float(self.s[0]), float(self.s[-1])
        if kappa == 0 and s_min <= RANK_TOL_FACTOR * np.finfo(float).eps * s_max:
            # Python floats: the ratio and its square overflow to inf without a warning
            condition = math.inf if s_min == 0 else (s_max / s_min) * (s_max / s_min)
            raise SingularMatrixError(
                f"whitened design is numerically rank deficient (condition ~ {condition:.3e})",
                condition=condition,
            )
        coef = self.project_rows(np.asarray(residual, dtype=float)[None, :])[1][0]
        with np.errstate(over="ignore"):
            total = self.s2 + kappa
        gain = self.s / total
        # that reads 0 where s^2 + kappa overflows
        over = np.isinf(total)
        gain[over] = 1.0 / (self.s[over] + kappa / self.s[over])
        return self.w_beta.solve_lower(self.vt.T @ (gain * coef), trans=True)

    def residual(self, prior):
        return self.problem.y - self.problem.a_matrix @ prior.mu

    def project_rows(self, rows):
        """(|z - U c|^2, c) with z = L_W^T r and c = U^T z = U_R^T (Q^T z)[:t] for each
        row r of an R x n block, (R,) and (R, t): the package's one projection. Q^T z
        is formed in place, one reflector at a time, and every sum runs along a row,
        so each row rounds alike in any block and alone. |z - U c|^2 = |(Q^T z)[t:]|^2
        never cancels. An overflow gives inf or nan, as the reductions would."""
        z = self.w.mul_lower_rows(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(len(self._tau)):
                v, tail = self._reflectors[j, j:], z[:, j:]
                tail -= np.multiply.outer(self._tau[j] * np.einsum("rn,n->r", tail, v), v)
        tail = z[:, self.t :]
        return np.einsum("rn,rn->r", tail, tail), np.einsum("rk,ik->ri", z[:, : self.t], self.u_r.T)


def _symmetric_svd(whitened):
    """(U_R, s, V^T) of a symmetric matrix from its eigendecomposition Q diag(lam) Q^T:
    s = |lam| in descending order (a stable sort), V = Q, U_R = Q sign(lam), sign(0) = +1."""
    lam, q = np.linalg.eigh(whitened)
    order = np.argsort(-np.abs(lam), kind="stable")
    lam, q = lam[order], q[:, order]
    return q * np.where(lam < 0.0, -1.0, 1.0), np.abs(lam), q.T


def _reduce_quad(perp, damping, coef2):
    """perp + sum_i d_i c_i^2 = r^T E^-1 r of K projected residuals, each alike for any K."""
    return perp + np.einsum("ki,ki->k", damping, coef2)


def _reduce_slopes(perp, damping, complement, coef2, n, sigma2):
    """(q, f', f'') of K projected residuals, each (K,) and alike for any K: q is
    _reduce_quad's r^T E^-1 r, and f' and f'' are the slope and the curvature in
    ln kappa of the Case-1 objective n ln q + ln det E (``sigma2`` None) or of
    the Case-2 objective q / sigma2 + ln det E. With d' = d e:

        Case 1: f' = n q'/q - sum e,        f'' = n (q''/q - (q'/q)^2) + sum d e
        Case 2: f' = q'/sigma2 - sum e,     f'' = q''/sigma2 + sum d e

    where q' = sum d e c^2 and q'' = sum d e (e - d) c^2. Every sum runs along
    its row. An overflow or a zero q gives inf or nan, which the search treats
    as no information."""
    shared = damping * complement
    quad = _reduce_quad(perp, damping, coef2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slope_q = np.einsum("ki,ki->k", shared, coef2)
        curve_q = np.einsum("ki,ki->k", shared * (complement - damping), coef2)
        if sigma2 is None:
            ratio = slope_q / quad
            slope_q, curve_q = n * ratio, n * (curve_q / quad - ratio * ratio)
        else:
            slope_q, curve_q = slope_q / sigma2, curve_q / sigma2
        slope = slope_q - np.einsum("ki->k", complement)
        curvature = curve_q + np.einsum("ki->k", shared)
    return quad, slope, curvature


def _case_tag(prior, case1):
    zero_mean = not np.any(prior.mu)
    if case1:
        return ObjectiveCase.CASE1_ZERO_MEAN if zero_mean else ObjectiveCase.CASE1
    return ObjectiveCase.CASE2_ZERO_MEAN if zero_mean else ObjectiveCase.CASE2


class MarginalObjective:
    """The Case-1 or Case-2 objective of R residuals, as a function of kappa.

    Without ``sigma2`` (Case 1, both variances unknown) the objective is
    n ln(r^T E^-1 r) + ln det E; minimizing it and reading the variance
    off r^T E^-1 r / n is the both-variances-unknown selection rule.
    With a known ``sigma2`` (Case 2) it is r^T E^-1 r / sigma2 + ln det E.

    The residuals r = y - A mu are the problem's own (R = 1) or one per
    column of an n x R block of ``observations``, projected once.

    Case 1 sees the scale of r only through 2n ln s for any s > 0, so
    ``search_total`` is the objective of r/s, s the smallest power of two
    above max |r|: the division is exact and stays in the float range.
    ``offset`` holds 2n ln s per column; ``__call__`` adds it back.
    """

    def __init__(self, workspace, prior, sigma2=None, observations=None):
        if sigma2 is not None:
            check_positive_finite(sigma2, "sigma2")
        self.workspace = workspace
        self.sigma2 = None if sigma2 is None else float(sigma2)
        self.case_tag = _case_tag(prior, case1=sigma2 is None)
        y = workspace.problem.y if observations is None else np.asarray(observations, dtype=float)
        rows = np.atleast_2d(np.ascontiguousarray(y.T - workspace.problem.a_matrix @ prior.mu))
        self.columns = rows.shape[0]
        exponent = np.zeros(self.columns, dtype=int)
        if sigma2 is None:
            # a zero column of a block gives quad = 0 at every kappa and fails its search
            largest = np.max(np.abs(rows), axis=1)
            if observations is None and not largest[0] > 0.0:
                raise DegenerateProblemError("y equals A mu exactly; Case 1 takes log of zero")
            _, exponent = np.frexp(largest)
        self._scale = np.ldexp(1.0, exponent)
        rows = rows / self._scale[:, None]
        self.offset = (2.0 * workspace.n * math.log(2.0)) * exponent
        self._perp, coef = workspace.project_rows(rows)
        # an overflow gives inf, which the selection and the writers reject as non-finite
        with np.errstate(over="ignore"):
            self._coef2 = coef * coef

    def _total(self, quad, logdet):
        """The objective without offset from the quad of the scaled residuals and ln det E."""
        if self.sigma2 is not None:
            # a subnormal sigma2 overflows this to inf, which the selection and the writers reject
            with np.errstate(over="ignore"):
                return quad / self.sigma2 + logdet
        # quad underflows to 0 only for kappa near the smallest float
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(quad > 0.0, self.workspace.n * np.log(quad) + logdet, np.inf)

    def _terms(self, kappa, columns):
        """(quad of the scaled residuals, ln det E, objective without offset)."""
        damping, _, logdet = self.workspace._filter(kappa)
        if columns is None:
            quad = self._perp + np.einsum("ki,ri->kr", damping, self._coef2)
            logdet = logdet[:, None]
        else:
            quad = _reduce_quad(self._perp[columns], damping, self._coef2[columns])
        return quad, logdet, self._total(quad, logdet)

    def search_total(self, kappa):
        """The objective without ``offset`` at a 1-D array of K kappas, (K, R)."""
        return self._terms(np.asarray(kappa, dtype=float), None)[2]

    def search_slopes(self, kappa, columns):
        """(objective without ``offset``, f', f'') at kappa[j] on column columns[j],
        each (K,): ``search_total`` with its slope and curvature in ln kappa."""
        damping, complement, logdet = self.workspace._filter(np.asarray(kappa, dtype=float))
        quad, slope, curvature = _reduce_slopes(
            self._perp[columns], damping, complement, self._coef2[columns],
            self.workspace.n, self.sigma2,
        )
        return self._total(quad, logdet), slope, curvature

    def __call__(self, kappa, columns=None):
        """ObjectiveValue at a 1-D array of K kappas: arrays of (K, R) for every
        column, or of (K,) for kappa[j] on column columns[j]."""
        kappa = np.asarray(kappa, dtype=float)
        if not np.all((kappa > 0) & (kappa < math.inf)):
            raise DomainError(f"kappa must be positive and finite, got {kappa}")
        quad, logdet, total = self._terms(kappa, columns)
        if columns is None:
            columns, kappa = slice(None), kappa[:, None]
        scale, total = self._scale[columns], total + self.offset[columns]
        with np.errstate(over="ignore"):
            quad = quad * scale * scale
        return ObjectiveValue(total, quad, logdet, kappa, self.case_tag, self.sigma2)


def _at(objective, kappa):
    """The objective of a problem's own residual at one kappa, with float fields."""
    value = objective([kappa])
    fields = ("total", "quad_term", "logdet_term", "kappa")
    return replace(value, **{name: float(getattr(value, name)[0, 0]) for name in fields})


def log10_to_kappa(log10_kappa):
    """10.0 ** x for each x of a 1-D array, the one conversion of every grid and
    search: Python's float power, which np.power does not match on all x."""
    return np.array([10.0**x for x in np.asarray(log10_kappa, dtype=float).tolist()])


GRID_POINTS = 97
DEFAULT_BRACKET = (-12.0, 12.0)


def kappa_grid(log10_bracket, points):
    """Log-uniform grid over a log10 kappa bracket: (log10 values, kappas).

    Both are arrays; each kappa is log10_to_kappa(g) for its grid value
    g. Both bracket ends must lie in the normal floating-point range, so
    that 10 ** x neither overflows nor underflows.
    """
    lo, hi = float(log10_bracket[0]), float(log10_bracket[1])
    if not lo < hi:
        raise DomainError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")
    lowest, highest = sys.float_info.min_10_exp, sys.float_info.max_10_exp
    if lo < lowest or hi > highest:
        raise DomainError(
            f"bracket ({lo}, {hi}) leaves the floating-point range [{lowest}, {highest}]"
        )
    if points < 2:
        raise DomainError(f"need at least 2 grid points, got {points}")
    logs = np.linspace(lo, hi, points)
    return logs, log10_to_kappa(logs)


def marginal_covariance(problem, prior, sigma2, sigma_beta2):
    """Covariance of the marginal measurement distribution.

    Returns W^-1 sigma2 + A W_beta^-1 A^T sigma_beta2 as a dense
    symmetric matrix. sigma_beta2 = 0 is allowed and drops the prior
    term.
    """
    check_positive_finite(sigma2, "sigma2")
    if sigma_beta2 < 0:
        raise DomainError(f"sigma_beta2 must be nonnegative, got {sigma_beta2}")
    # W^-1 = L_W^-T L_W^-1 and A W_beta^-1 A^T = G^T G with G = L_b^-1 A^T
    w_inv = problem.w.solve_lower(problem.w.solve_lower(np.eye(problem.n)), trans=True)
    half_gram = prior.w_beta.solve_lower(problem.a_matrix.T)
    return symmetrize(w_inv * sigma2 + (half_gram.T @ half_gram) * sigma_beta2)


def log_marginal_density(problem, prior, sigma2, sigma_beta2):
    """Gaussian log density of y after integrating beta out.

    Equals -(n/2) ln(2 pi) - (1/2) ln det Sigma - (1/2) r^T Sigma^-1 r
    with r = y - A mu, evaluated through the kappa-scaled cofactor so
    large n stays affordable.
    """
    check_positive_finite(sigma_beta2, "sigma_beta2")
    kappa = sigma2 / sigma_beta2
    return -0.5 * problem.n * LOG_2PI - 0.5 * neg_log_lik_kappa(problem, prior, sigma2, kappa)


def neg_log_lik_variances(problem, prior, sigma2, sigma_beta2):
    """ln det Sigma + r^T Sigma^-1 r in the (sigma2, sigma_beta2) frame.

    Deliberately computed by factoring Sigma = L L^T itself (dense, n x n)
    so it stays an independent cross-check of neg_log_lik_kappa; the
    quadratic form is |L^-1 r|^2.
    """
    covariance = marginal_covariance(problem, prior, sigma2, sigma_beta2)
    sigma = as_weight(covariance, "marginal covariance")
    half = sigma.solve_lower(problem.y - problem.a_matrix @ prior.mu)
    return sigma.logdet + float(half @ half)


def neg_log_lik_kappa(problem, prior, sigma2, kappa):
    """n ln sigma2 + ln det E + r^T E^-1 r / sigma2 (the kappa frame)."""
    case2 = abic_case2(problem, prior, sigma2, kappa)
    return problem.n * math.log(sigma2) + case2.total


def sigma2_hat(problem, prior, kappa):
    """Variance estimate at fixed kappa: r^T E^-1 r / n.

    With a zero prior mean this is the measurement-only variant whose
    bias the bias module quantifies.
    """
    workspace = MarginalWorkspace(problem, prior.w_beta)
    return workspace.operators(kappa).quad_form(workspace.residual(prior)) / problem.n


def abic_case1(problem, prior, kappa):
    """Concentrated objective n ln(r^T E^-1 r) + ln det E.

    Minimizing this over kappa and then reading the variance off
    sigma2_hat is the both-variances-unknown selection rule. The
    unconcentrated objective relates by
    neg_log_lik_kappa(sigma2_hat(kappa), kappa) = total + n - n ln n.
    """
    return _at(MarginalObjective(MarginalWorkspace(problem, prior.w_beta), prior), kappa)


def abic_case2(problem, prior, sigma2, kappa):
    """Known-sigma2 objective r^T E^-1 r / sigma2 + ln det E."""
    return _at(MarginalObjective(MarginalWorkspace(problem, prior.w_beta), prior, sigma2), kappa)


@dataclass(frozen=True)
class SweepRow:
    kappa: float
    quad_term: float
    logdet_term: float
    objective: float
    case: str


SWEEP_HEADER = "kappa,quad_term,logdet_term,objective,case"


def sweep_objective(
    problem, prior, case=1, sigma2=None, log10_bracket=DEFAULT_BRACKET, points=GRID_POINTS
):
    """Evaluate one ABIC objective on a log-uniform kappa grid.

    Returns one SweepRow per grid point; the trace behind the
    monotonicity diagnostics and the sweep CSV.
    """
    _, kappas = kappa_grid(log10_bracket, points)
    if case == 2 and sigma2 is None:
        raise DomainError("case 2 requires a known sigma2")
    workspace = MarginalWorkspace(problem, prior.w_beta)
    value = MarginalObjective(workspace, prior, sigma2 if case == 2 else None)(kappas)
    columns = (kappas, value.quad_term[:, 0], value.logdet_term[:, 0], value.total[:, 0])
    rows = zip(*(column.tolist() for column in columns))
    return [SweepRow(*row, value.case_tag.value) for row in rows]


def write_sweep_csv(path, rows):
    """Write sweep rows as CSV through ``serialize.dump_csv``: each double in
    the text the JSON files give it, and a non-finite value raises
    EvaluationError and leaves no file."""
    rows = list(rows)
    numbers = [(row.kappa, row.quad_term, row.logdet_term, row.objective) for row in rows]
    serialize.dump_csv(path, SWEEP_HEADER, np.array(numbers, dtype=float), [row.case for row in rows])
