"""Selection of the relative weight kappa by scalar objective minimization.

The search is deliberately plain: evaluate the objective on a 97-point
uniform grid in log10 kappa, then refine the bracketing triple of the
grid minimum by golden-section search. A minimum on the first or last
grid point is reported with a boundary flag instead of refined, because
an edge optimum usually means the bracket, not the data, chose it.
There is no randomness anywhere in this module; identical inputs give
bit-identical results.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, EvaluationError
from .marginal import MarginalObjective, MarginalWorkspace, ObjectiveCase, kappa_grid

__all__ = [
    "GRID_POINTS",
    "DEFAULT_BRACKET",
    "DEFAULT_REL_TOL",
    "BoundaryFlag",
    "ScalarMinimum",
    "SelectionResult",
    "minimize_scalar",
    "select_case1",
    "select_case2",
]

GRID_POINTS = 97
DEFAULT_BRACKET = (-12.0, 12.0)
DEFAULT_REL_TOL = 1e-6

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_REFINE_STEPS = 200


class BoundaryFlag(enum.Enum):
    INTERIOR = "interior"
    LOWER_EDGE = "lower-edge"
    UPPER_EDGE = "upper-edge"


class ScalarMinimum(NamedTuple):
    kappa_hat: float
    boundary_flag: BoundaryFlag
    trace: tuple
    objective_at_min: float


@dataclass(frozen=True)
class SelectionResult:
    """Selected hyperparameters plus the evidence trail.

    ``sigma_beta2_hat = sigma2_hat / kappa_hat`` holds in both cases; in
    Case 2 ``sigma2_hat`` simply echoes the supplied known variance.
    ``trace`` is the grid of (kappa, objective) pairs the optimizer saw,
    and ``mu_assumed_zero`` records whether the prior mean was a
    substituted zero vector (the scenario whose bias this package
    quantifies).
    """

    kappa_hat: float
    sigma2_hat: float
    sigma_beta2_hat: float
    objective_at_min: float
    trace: tuple
    boundary_flag: BoundaryFlag
    mu_assumed_zero: bool
    case_tag: ObjectiveCase

    def to_json(self):
        return {
            "kappa_hat": self.kappa_hat,
            "sigma2_hat": self.sigma2_hat,
            "sigma_beta2_hat": self.sigma_beta2_hat,
            "objective_at_min": self.objective_at_min,
            "boundary_flag": self.boundary_flag.value,
            "mu_assumed_zero": self.mu_assumed_zero,
            "case": self.case_tag.value,
            "trace": [
            [kappa, value if math.isfinite(value) else None] for kappa, value in self.trace
        ],
        }


def _as_finite(value):
    value = float(value)
    return value if math.isfinite(value) else math.inf


def minimize_scalar(objective, log10_bracket=DEFAULT_BRACKET, rel_tol=DEFAULT_REL_TOL):
    """Grid-then-golden-section minimization of a function of kappa.

    Parameters
    ----------
    objective : callable
        Maps kappa > 0 to a float; may return inf/nan where undefined.
    log10_bracket : (float, float)
        Search interval in log10 kappa, lower < upper.
    rel_tol : float
        Target relative tolerance on kappa for the refinement stage.

    Returns a ScalarMinimum. Grid ties break toward smaller kappa; an
    edge minimum is returned unrefined with the matching boundary flag.
    Raises EvaluationError when the objective is non-finite on more than
    half of the grid.
    """
    grid, kappas = kappa_grid(log10_bracket, GRID_POINTS)
    if not rel_tol > 0:
        raise DomainError(f"rel_tol must be positive, got {rel_tol}")

    values = [_as_finite(objective(kappa)) for kappa in kappas]
    bad = sum(1 for v in values if not math.isfinite(v))
    if 2 * bad > GRID_POINTS:
        raise EvaluationError(
            f"objective non-finite at {bad} of {GRID_POINTS} grid points"
        )
    trace = tuple((kappas[i], values[i]) for i in range(GRID_POINTS))

    # first minimal index = smallest kappa among ties
    idx = min(range(GRID_POINTS), key=lambda i: (values[i], i))
    if idx == 0:
        return ScalarMinimum(kappas[0], BoundaryFlag.LOWER_EDGE, trace, values[0])
    if idx == GRID_POINTS - 1:
        return ScalarMinimum(kappas[-1], BoundaryFlag.UPPER_EDGE, trace, values[-1])

    # golden-section refinement on the bracketing triple, in log10 space
    a, b = float(grid[idx - 1]), float(grid[idx + 1])
    best_log, best_val = float(grid[idx]), values[idx]
    width_tol = math.log10(1.0 + rel_tol)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = _as_finite(objective(10.0 ** c))
    fd = _as_finite(objective(10.0 ** d))
    for point, value in ((c, fc), (d, fd)):
        if value < best_val:
            best_log, best_val = point, value
    steps = 0
    while (b - a) > width_tol and steps < _MAX_REFINE_STEPS:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = _as_finite(objective(10.0 ** c))
            if fc < best_val:
                best_log, best_val = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = _as_finite(objective(10.0 ** d))
            if fd < best_val:
                best_log, best_val = d, fd
        steps += 1
    return ScalarMinimum(10.0 ** best_log, BoundaryFlag.INTERIOR, trace, best_val)


def _select(problem, prior, sigma2, log10_bracket, rel_tol):
    """Minimize the Case-1 (sigma2 None) or Case-2 objective and read the variances."""
    objective = MarginalObjective(MarginalWorkspace(problem, prior.w_beta), prior, sigma2)
    found = minimize_scalar(lambda kappa: objective(kappa).total, log10_bracket, rel_tol)
    variance = objective(found.kappa_hat).quad_term / problem.n if sigma2 is None else float(sigma2)
    return SelectionResult(
        kappa_hat=found.kappa_hat,
        sigma2_hat=variance,
        sigma_beta2_hat=variance / found.kappa_hat,
        objective_at_min=found.objective_at_min,
        trace=found.trace,
        boundary_flag=found.boundary_flag,
        mu_assumed_zero=prior.mu_assumed_zero,
        case_tag=objective.case_tag,
    )


def select_case1(
    problem,
    prior,
    log10_bracket=DEFAULT_BRACKET,
    rel_tol=DEFAULT_REL_TOL,
):
    """Both variances unknown: minimize the concentrated objective.

    Minimizes n ln(r^T E^-1 r) + ln det E over kappa, then reads the
    variance estimates at the minimum: sigma2_hat = r^T E^-1 r / n and
    sigma_beta2_hat = sigma2_hat / kappa_hat.
    """
    return _select(problem, prior, None, log10_bracket, rel_tol)


def select_case2(
    problem,
    prior,
    sigma2,
    log10_bracket=DEFAULT_BRACKET,
    rel_tol=DEFAULT_REL_TOL,
):
    """Known sigma2: minimize r^T E^-1 r / sigma2 + ln det E over kappa."""
    return _select(problem, prior, sigma2, log10_bracket, rel_tol)
