"""Data model for weighted linear inverse problems with Gaussian priors.

The measurement model is y = A beta + eps with cov(eps) = W^-1 sigma^2,
where W is a symmetric positive definite weight matrix. Prior knowledge
about beta enters as a mean vector mu and a weight matrix W_beta, with
cov(beta) = W_beta^-1 sigma_beta2. The relative weight
kappa = sigma2 / sigma_beta2 ties the two variance components together;
a problem file may state either variance (``LoadedProblem``).

Both weights are held as ``Weight`` objects. An omitted weight is the
identity of the right size and no matrix is ever built for it; a
supplied matrix is stored frozen and Cholesky-factored, once, the first
time a computation needs W = L L^T. Consumers ask the weight for W x,
L x, L^-1 x or ln det W instead of working on an n x n array.
"""

import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import serialize
from ._linalg import SYMMETRY_RTOL, max_asymmetry, spd_factor, spd_logdet, symmetrize
from .errors import (
    DimensionError,
    DomainError,
    FactorizationError,
    RankDeficiencyWarning,
)

__all__ = [
    "Weight",
    "as_weight",
    "InverseProblem",
    "ProblemDesign",
    "PriorModel",
    "GroundTruth",
    "ValidationCheck",
    "ValidationReport",
    "LoadedProblem",
    "default_prior",
    "validate_problem",
    "condition_estimate",
    "load_problem",
    "save_problem",
]

# Smallest singular value below RANK_TOL_FACTOR * eps * largest counts as
# numerically rank deficient.
RANK_TOL_FACTOR = 1e3

# Rows per diagonal block of Weight.solve_lower.
_SOLVE_BLOCK = 64


def _finite(arr, name):
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} has non-finite entries")
    return arr


_NUMBER_TYPES = {int, float}


def _text_or_bool(value):
    """A text or boolean entry of ``value`` or of its nested lists, or None;
    np.array would read "1.0" and true as numbers."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, (list, tuple)):
            if not set(map(type, item)) <= _NUMBER_TYPES:
                pending.extend(item)
        elif isinstance(item, (str, bytes, bool, np.bool_)):
            return item
    return None


def _numeric(value, name):
    """A new float array of ``value``. Every input array is converted here, once
    per object, so no stored array shares memory with the caller's. A text or
    boolean entry is not a number, whatever it spells."""
    bad = _text_or_bool(value)
    if bad is not None:
        raise DimensionError(f"{name} is not a numeric array: {bad!r} is not a number")
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionError(f"{name} is not a numeric array: {exc}") from exc


def _as_vector(value, name, length=None):
    arr = _numeric(value, name)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise DimensionError(f"{name} has length {arr.shape[0]}, expected {length}")
    return _finite(arr, name)


def _as_square(value, name, size=None):
    arr = _numeric(value, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {arr.shape}")
    if size is not None and arr.shape[0] != size:
        raise DimensionError(f"{name} has shape {arr.shape}, expected ({size}, {size})")
    return _finite(arr, name)


def _freeze(arr):
    """Mark a new array from _numeric read-only."""
    arr.setflags(write=False)
    return arr


def _as_design(value):
    a = _numeric(value, "a_matrix")
    if a.ndim != 2:
        raise DimensionError(f"a_matrix must be 2-d, got shape {a.shape}")
    n, t = a.shape
    if n < 1 or t < 1:
        raise DimensionError(f"a_matrix must be nonempty, got shape {a.shape}")
    if n < t:
        raise DimensionError(f"need at least as many rows as columns, got shape {a.shape}")
    return _finite(a, "a_matrix")


class Weight:
    """A symmetric positive definite weight: the identity, or a dense matrix.

    ``Weight(size=n)`` is the n x n identity and stores no matrix.
    ``Weight(matrix, name=...)`` stores a frozen copy of a square, finite
    ``matrix``. Symmetry and definiteness are checked when the Cholesky
    factor W = L L^T is first needed, which raises FactorizationError or
    caches L; a problem may therefore hold an invalid weight for
    validate_problem to report. L comes from np.linalg.cholesky and every
    product or solve with it runs on numpy, the package's one BLAS (see
    _linalg). There is deliberately no ``__array__``:
    an implicit conversion would silently rebuild an identity as an
    n x n array.
    """

    def __init__(self, matrix=None, size=None, name="w"):
        self.name = name
        self._lower = None
        if matrix is None:
            if size is None:
                raise DimensionError(f"an identity {name} needs a size")
            self.matrix, self.size = None, int(size)
        else:
            self.matrix = _freeze(_as_square(matrix, name, size))
            self.size = self.matrix.shape[0]

    def _factor(self):
        if self._lower is None:
            self._lower = spd_factor(self.matrix, self.name)
        return self._lower

    @property
    def logdet(self):
        """ln det W."""
        return 0.0 if self.matrix is None else spd_logdet(self._factor())

    def mul_lower_t(self, x):
        """L^T x; always a new array the caller may overwrite."""
        if self.matrix is None:
            return np.array(x, dtype=float, order="C")
        return self._factor().T @ np.asarray(x, dtype=float)

    def mul_lower_rows(self, rows):
        """rows @ L, i.e. (L^T r)^T for each row r, as a new C-ordered array;
        by einsum, not BLAS, so each row rounds exactly as it would alone."""
        if self.matrix is None:
            return np.array(rows, dtype=float, order="C")
        return np.einsum("rn,nm->rm", rows, self._factor(), order="C")

    def solve_lower(self, x, trans=False):
        """L^-1 x, or L^-T x with ``trans``: x itself for the identity, else a new array.

        numpy has no triangular solve, so this is blocked substitution on the
        cached factor: np.linalg.solve on each diagonal block of _SOLVE_BLOCK
        rows, matrix products for the rest. O(n^2 k) for k right-hand sides,
        and backward stable like a plain substitution.
        """
        x = np.asarray(x, dtype=float)
        if self.matrix is None:
            return x
        factor = self._factor().T if trans else self._factor()
        out = np.array(x, order="C")
        starts = range(0, self.size, _SOLVE_BLOCK)
        # L is solved from its first block down, L^T from its last block up
        for start in reversed(starts) if trans else starts:
            rows = slice(start, min(start + _SOLVE_BLOCK, self.size))
            done = slice(rows.stop, None) if trans else slice(0, start)
            out[rows] -= factor[rows, done] @ out[done]
            out[rows] = np.linalg.solve(factor[rows, rows], out[rows])
        return out

    def to_array(self):
        """W as a dense array, for reference computations on small problems."""
        return np.eye(self.size) if self.matrix is None else self.matrix


def as_weight(value, name, size=None):
    """A Weight from None (the identity), a matrix, or a Weight.

    A Weight passes through unchanged, so its cached factor is shared.
    ``size``, when given, is checked; None needs it.
    """
    if not isinstance(value, Weight):
        return Weight(value, size, name)
    if size is not None and value.size != size:
        raise DimensionError(f"{name} has size {value.size}, expected {size}")
    return value


@dataclass(frozen=True)
class InverseProblem:
    """One instance of the linear model y = A beta + eps.

    Parameters
    ----------
    a_matrix : (n, t) array
        Design matrix. Full column rank mathematically, but its small
        singular values may sit arbitrarily close to zero.
    y : (n,) array
        Measurement vector.
    w : (n, n) array or Weight, optional
        Measurement weight; cov(eps) = W^-1 sigma^2. Identity when
        omitted. Stored as a Weight.
    """

    a_matrix: np.ndarray
    y: np.ndarray
    w: Weight = None

    def __post_init__(self):
        a = _as_design(self.a_matrix)
        n = a.shape[0]
        y = _as_vector(self.y, "y", length=n)
        object.__setattr__(self, "a_matrix", _freeze(a))
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "w", as_weight(self.w, "w", n))

    @property
    def n(self):
        return self.a_matrix.shape[0]

    @property
    def t(self):
        return self.a_matrix.shape[1]

    @property
    def design(self):
        return ProblemDesign(self.a_matrix, self.w)


@dataclass(frozen=True)
class ProblemDesign:
    """A design (A, W) without observations; what generators produce."""

    a_matrix: np.ndarray
    w: Weight = None

    def __post_init__(self):
        a = _as_design(self.a_matrix)
        object.__setattr__(self, "a_matrix", _freeze(a))
        object.__setattr__(self, "w", as_weight(self.w, "w", a.shape[0]))

    @property
    def n(self):
        return self.a_matrix.shape[0]

    @property
    def t(self):
        return self.a_matrix.shape[1]

    def with_observations(self, y):
        return InverseProblem(self.a_matrix, y, self.w)


@dataclass(frozen=True)
class PriorModel:
    """Prior moments for beta: mean mu and weight W_beta (a Weight; None is the identity).

    The prior variance sigma_beta2 is not part of it: functions that need
    it, such as bayes_estimate, take it as an argument, and a problem
    file's value is ``LoadedProblem.sigma_beta2``. ``mu_assumed_zero``
    records that the mean was not supplied and a zero vector was
    substituted; every downstream report echoes this flag because
    forcing mu = 0 biases the variance estimates.
    """

    mu: np.ndarray
    w_beta: Weight
    mu_assumed_zero: bool = field(default=False)

    def __post_init__(self):
        mu = _as_vector(self.mu, "mu")
        w_beta = as_weight(self.w_beta, "w_beta", mu.shape[0])
        object.__setattr__(self, "mu", _freeze(mu))
        object.__setattr__(self, "w_beta", w_beta)

    @property
    def t(self):
        return self.mu.shape[0]

    def with_zero_mean(self):
        """Copy of this prior with mu forced to zero (and flagged)."""
        return replace(self, mu=np.zeros(self.t), mu_assumed_zero=True)


def default_prior(t, mu=None, w_beta=None):
    """Build a PriorModel, substituting identity weight and zero mean.

    A zero mean substituted here sets ``mu_assumed_zero`` so the
    substitution stays visible in every report.
    """
    # mu first: a wrong length is the mean's fault, not the identity W_beta's
    if mu is not None:
        mu = _as_vector(mu, "mu", length=t)
    w_beta = as_weight(w_beta, "w_beta", t)
    if mu is None:
        return PriorModel(np.zeros(t), w_beta, mu_assumed_zero=True)
    return PriorModel(mu, w_beta)


@dataclass(frozen=True)
class GroundTruth:
    """True parameters and the noise-free measurements they generate."""

    beta_bar: np.ndarray
    y_bar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta_bar", _freeze(_as_vector(self.beta_bar, "beta_bar")))
        object.__setattr__(self, "y_bar", _freeze(_as_vector(self.y_bar, "y_bar")))

    @classmethod
    def from_design(cls, design, beta_bar):
        """Construct with y_bar = A beta_bar (exact by construction)."""
        beta_bar = _as_vector(beta_bar, "beta_bar", length=design.a_matrix.shape[1])
        return cls(beta_bar, design.a_matrix @ beta_bar)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self):
        return all(check.passed for check in self.checks)

    def to_json(self):
        return {"passed": self.passed, "checks": [c.to_json() for c in self.checks]}


def _pd_check(weight, name):
    # the identity needs no factorization to be positive definite
    if weight.matrix is not None:
        try:
            spd_factor(symmetrize(weight.matrix), name)
        except Exception as exc:
            return ValidationCheck(f"{name}_positive_definite", False, str(exc))
    return ValidationCheck(
        f"{name}_positive_definite", True, "symmetrized factorization succeeded"
    )


def _symmetry_check(weight, name):
    asym = 0.0 if weight.matrix is None else max_asymmetry(weight.matrix)
    return ValidationCheck(
        f"{name}_symmetric",
        asym <= SYMMETRY_RTOL,
        f"max relative asymmetry {asym:.3e} (tolerance {SYMMETRY_RTOL:g})",
    )


def _rank_test(problem):
    """(largest, smallest singular value of A, the rank-deficiency threshold)."""
    try:
        singular_values = np.linalg.svd(problem.a_matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD of a_matrix failed: {exc}") from exc
    smax, smin = float(singular_values[0]), float(singular_values[-1])
    return smax, smin, RANK_TOL_FACTOR * np.finfo(float).eps * smax


def validate_problem(problem, prior):
    """Run every structural invariant and report each one pass/fail.

    Shape mismatches between the problem and the prior raise
    DimensionError immediately; everything else lands in the report so a
    caller can see all violations at once.
    """
    if prior.t != problem.t:
        raise DimensionError(
            f"mu has length {prior.t} but a_matrix has {problem.t} columns"
        )
    smax, smin, threshold = _rank_test(problem)
    checks = [
        ValidationCheck(
            "a_full_column_rank",
            smin > threshold,
            f"smallest singular value {smin:.3e}, threshold {threshold:.3e}",
        ),
        _symmetry_check(problem.w, "w"),
        _pd_check(problem.w, "w"),
        _symmetry_check(prior.w_beta, "w_beta"),
        _pd_check(prior.w_beta, "w_beta"),
    ]
    return ValidationReport(tuple(checks))


def condition_estimate(problem):
    """2-norm condition number of A (largest over smallest singular value).

    Numerically rank-deficient designs are flagged with
    RankDeficiencyWarning and the ratio is still returned as computed.
    """
    smax, smin, threshold = _rank_test(problem)
    if smin <= threshold:
        warnings.warn(
            f"a_matrix is numerically rank deficient (smallest singular value {smin:.3e})",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    if smin == 0.0:
        return float("inf")
    return smax / smin


_PROBLEM_KEYS = {"A", "y", "W", "W_beta", "mu", "sigma2", "sigma_beta2"}
_MATRIX_KEYS = ("A", "W", "W_beta")


@dataclass(frozen=True)
class LoadedProblem:
    """A problem file after defaults are resolved."""

    problem: InverseProblem
    prior: PriorModel
    sigma2: float = None
    sigma_beta2: float = None

    @property
    def mu_assumed_zero(self):
        return self.prior.mu_assumed_zero


def _file_variance(raw, key):
    """The positive, finite number under ``key`` of a problem file, or None."""
    value = raw.get(key)
    if value is None:
        return None
    # JSON true is a Python int; a variance must be written as a number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{key} must be a number, got {value!r}")
    if not 0 < value <= sys.float_info.max:
        raise DomainError(f"{key} must be positive and finite, got {value}")
    return float(value)


def load_problem(path):
    """Read the JSON problem-file format.

    Keys: ``A`` (row-major nested lists), ``y``, and optionally ``W``,
    ``W_beta``, ``mu``, ``sigma2``, ``sigma_beta2``. Missing weights mean
    identity; a missing ``mu`` means the zero vector, recorded via
    ``mu_assumed_zero`` on the prior. A file of numbers has its matrices
    read a block of rows at a time (``serialize.load_numeric``).
    """
    raw = serialize.load_numeric(path, _PROBLEM_KEYS, _MATRIX_KEYS)
    if not isinstance(raw, dict):
        raise DomainError(f"problem file must hold a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - _PROBLEM_KEYS
    if unknown:
        raise DomainError(f"unknown problem-file keys: {sorted(unknown)}")
    for key in ("A", "y"):
        if key not in raw:
            raise DomainError(f"problem file is missing required key {key!r}")
    problem = InverseProblem(raw["A"], raw["y"], raw.get("W"))
    sigma2, sigma_beta2 = _file_variance(raw, "sigma2"), _file_variance(raw, "sigma_beta2")
    prior = default_prior(problem.t, raw.get("mu"), raw.get("W_beta"))
    return LoadedProblem(problem, prior, sigma2, sigma_beta2)


def save_problem(path, problem, prior=None, sigma2=None, sigma_beta2=None):
    """Write the JSON problem-file format (shortest round-trip floats, compact JSON).

    A weight is written only when it stores a matrix, so an identity
    weight is never materialized; a prior whose mean was assumed zero is
    written without a ``mu`` key so the flag survives a round trip.
    """
    doc = {"A": problem.a_matrix, "y": problem.y}
    if problem.w.matrix is not None:
        doc["W"] = problem.w.matrix
    if prior is not None:
        if prior.w_beta.matrix is not None:
            doc["W_beta"] = prior.w_beta.matrix
        if not prior.mu_assumed_zero:
            doc["mu"] = prior.mu
    if sigma2 is not None:
        doc["sigma2"] = sigma2
    if sigma_beta2 is not None:
        doc["sigma_beta2"] = sigma_beta2
    serialize.dump(doc, path)
